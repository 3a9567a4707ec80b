//! `mcslap` — a memslap-style load generator (the benchmark the paper's
//! suite is "inspired by", §VI), driving the standard client API.
//!
//! ```text
//! cargo run --release -p rmc-bench --bin mcslap -- \
//!     [--cluster a|b] [--transport ucr|ucr-roce|sdp|ipoib|toe|1gige] \
//!     [--clients N] [--ops N] [--value-size BYTES] [--set-fraction F] \
//!     [--key-space N] [--zipf S] [--seed N] [--depth N]
//! ```

use rmc::{McClient, McClientConfig, McServerConfig, Scenario, Transport};
use rmc_bench::ClusterKind;
use simnet::{NodeId, Stack};

struct Args {
    cluster: ClusterKind,
    transport: Transport,
    clients: u32,
    ops: u32,
    value_size: usize,
    set_fraction: f64,
    key_space: usize,
    zipf: f64,
    seed: u64,
    depth: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        cluster: ClusterKind::B,
        transport: Transport::Ucr,
        clients: 4,
        ops: 2_000,
        value_size: 1024,
        set_fraction: 0.1,
        key_space: 10_000,
        zipf: 0.99,
        seed: 42,
        depth: 1,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = argv.get(i + 1).map(String::as_str);
        fn req<'a>(flag: &str, v: Option<&'a str>) -> &'a str {
            v.unwrap_or_else(|| die(&format!("{flag} needs a value")))
        }
        match flag {
            "--cluster" => {
                args.cluster = match req(flag, value) {
                    "a" | "A" => ClusterKind::A,
                    "b" | "B" => ClusterKind::B,
                    other => die(&format!("unknown cluster {other}")),
                }
            }
            "--transport" => {
                args.transport = match req(flag, value) {
                    "ucr" => Transport::Ucr,
                    "ucr-roce" => Transport::UcrRoce,
                    "sdp" => Transport::Sockets(Stack::Sdp),
                    "ipoib" => Transport::Sockets(Stack::Ipoib),
                    "toe" => Transport::Sockets(Stack::TenGigEToe),
                    "1gige" => Transport::Sockets(Stack::OneGigE),
                    other => die(&format!("unknown transport {other}")),
                }
            }
            "--clients" => args.clients = req(flag, value).parse().unwrap_or_else(|_| die("bad N")),
            "--ops" => args.ops = req(flag, value).parse().unwrap_or_else(|_| die("bad N")),
            "--value-size" => {
                args.value_size = req(flag, value).parse().unwrap_or_else(|_| die("bad size"))
            }
            "--set-fraction" => {
                args.set_fraction = req(flag, value)
                    .parse()
                    .unwrap_or_else(|_| die("bad fraction"))
            }
            "--key-space" => {
                args.key_space = req(flag, value).parse().unwrap_or_else(|_| die("bad N"))
            }
            "--zipf" => args.zipf = req(flag, value).parse().unwrap_or_else(|_| die("bad skew")),
            "--seed" => args.seed = req(flag, value).parse().unwrap_or_else(|_| die("bad seed")),
            "--depth" => {
                args.depth = req(flag, value)
                    .parse()
                    .unwrap_or_else(|_| die("bad depth"));
                if args.depth == 0 {
                    die("--depth must be >= 1");
                }
            }
            "--help" | "-h" => {
                println!(
                    "mcslap: memslap-style load generator\n\
                     --cluster a|b        testbed (default b)\n\
                     --transport ucr|ucr-roce|sdp|ipoib|toe|1gige (default ucr)\n\
                     --clients N          concurrent clients (default 4)\n\
                     --ops N              operations per client (default 2000)\n\
                     --value-size BYTES   value size (default 1024)\n\
                     --set-fraction F     fraction of sets (default 0.1)\n\
                     --key-space N        distinct keys (default 10000)\n\
                     --zipf S             key popularity skew (default 0.99)\n\
                     --seed N             RNG seed (default 42)\n\
                     --depth N            requests kept in flight per connection\n\
                     \x20                    (default 1 = classic closed loop; >1\n\
                     \x20                    batches gets through the pipelined API)"
                );
                std::process::exit(0);
            }
            other => die(&format!("unknown flag {other}")),
        }
        i += 2;
    }
    args
}

fn die(msg: &str) -> ! {
    eprintln!("mcslap: {msg} (try --help)");
    std::process::exit(2);
}

fn main() {
    let a = parse_args();
    let world = a.cluster.world(a.seed, a.clients + 1);
    if matches!(a.transport, Transport::UcrRoce) && world.roce.is_none() {
        die("this cluster has no RoCE-capable adapters (use --cluster a)");
    }
    if !world.profile().supports(a.transport.stack()) {
        die("this cluster lacks that transport's hardware");
    }
    let cfg = McClientConfig {
        pipeline_depth: a.depth,
        ..McClientConfig::single(a.transport, NodeId(0))
    };
    let s = Scenario::new(
        world,
        McServerConfig::default(),
        vec![cfg; a.clients as usize],
    );
    let sim = s.world.sim().clone();

    let mut joins = Vec::new();
    for client in s.clients {
        let sim2 = sim.clone();
        let (value_size, set_fraction, key_space, zipf, ops, depth) = (
            a.value_size,
            a.set_fraction,
            a.key_space,
            a.zipf,
            a.ops,
            a.depth,
        );
        joins.push(sim.spawn(async move {
            let value = vec![0xabu8; value_size];
            let mut hits = 0u64;
            let mut gets = 0u64;
            // Gets waiting to be flushed through the pipelined batch API
            // (depth > 1 only; a batch flushes at depth*4 keys, before any
            // set, and at the end of the run).
            let mut batch: Vec<String> = Vec::new();
            async fn flush(client: &McClient, batch: &mut Vec<String>, hits: &mut u64) {
                if batch.is_empty() {
                    return;
                }
                let keys: Vec<&[u8]> = batch.iter().map(|k| k.as_bytes()).collect();
                let got = client.get_many(&keys).await.expect("get_many");
                *hits += got.iter().filter(|v| v.is_some()).count() as u64;
                batch.clear();
            }
            for _ in 0..ops {
                let (do_set, key_idx) =
                    sim2.with_rng(|r| (r.gen_bool(set_fraction), r.gen_zipf(key_space, zipf)));
                let key = format!("mcslap-{key_idx}");
                if do_set {
                    flush(&client, &mut batch, &mut hits).await;
                    client.set(key.as_bytes(), &value, 0, 0).await.expect("set");
                } else {
                    gets += 1;
                    if depth > 1 {
                        batch.push(key);
                        if batch.len() >= depth * 4 {
                            flush(&client, &mut batch, &mut hits).await;
                        }
                    } else if client.get(key.as_bytes()).await.expect("get").is_some() {
                        hits += 1;
                    }
                }
            }
            flush(&client, &mut batch, &mut hits).await;
            (hits, gets)
        }));
    }

    let sim2 = sim.clone();
    let (elapsed, hits, gets) = sim.block_on(async move {
        let t0 = sim2.now();
        let mut hits = 0u64;
        let mut gets = 0u64;
        for j in joins {
            let (h, g) = j.await;
            hits += h;
            gets += g;
        }
        ((sim2.now() - t0).as_secs_f64(), hits, gets)
    });
    let ops_total = a.clients as u64 * a.ops as u64;

    println!(
        "mcslap results ({}, {} clients)",
        a.transport.label(),
        a.clients
    );
    println!("  cluster        : {}", a.cluster.label());
    if a.depth > 1 {
        println!("  pipeline depth : {}", a.depth);
    }
    println!("  operations     : {ops_total}");
    println!("  elapsed (sim)  : {:.3} ms", elapsed * 1e3);
    println!(
        "  throughput     : {:.1}K ops/s",
        ops_total as f64 / elapsed / 1e3
    );
    println!(
        "  mean latency   : {:.1} us",
        elapsed * 1e6 * a.clients as f64 / ops_total as f64
    );
    if gets > 0 {
        println!(
            "  get hit rate   : {:.1}%",
            100.0 * hits as f64 / gets as f64
        );
    }
    let record = rmc_bench::json::Json::obj()
        .str("op", "mixed")
        .str("transport", a.transport.label())
        .str("cluster", a.cluster.label())
        .int("size", a.value_size as u64)
        .int("clients", a.clients as u64)
        .int("depth", a.depth as u64)
        .int("ops", ops_total)
        .num("set_fraction", a.set_fraction)
        .num("tps", ops_total as f64 / elapsed)
        .num(
            "mean_us",
            elapsed * 1e6 * a.clients as f64 / ops_total as f64,
        )
        .num(
            "hit_rate",
            if gets > 0 {
                hits as f64 / gets as f64
            } else {
                f64::NAN
            },
        );
    rmc_bench::json::write("mcslap", &[record]);
}
