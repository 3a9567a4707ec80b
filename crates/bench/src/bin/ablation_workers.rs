//! Ablation: worker threads × store lock model.
//!
//! The paper makes the number of worker threads a runtime parameter
//! (§V-A) but evaluates a fixed setting, and upstream memcached of the
//! era serialized every cache access behind one global `cache_lock`.
//! This study sweeps workers {1..16} under the simulator's three store
//! models — `Idealized` (lock-free accounting, the historical default),
//! `GlobalLock` (one virtual-time lock, the upstream behavior), and
//! `Sharded(16)` (hash-routed store segments with shard-affine
//! dispatch) — on both clusters, under a uniform load and a zipf-like
//! hot-key load.
//!
//! The workload is 16-key multigets: per-key hash/item time then
//! dominates the per-message HCA cost, so the lock ceiling sits well
//! below the wire ceiling and worker scaling exposes it. GlobalLock
//! plateaus immediately (the flat curve single-lock memcached shows
//! under multiget load); Sharded keeps scaling until the fabric takes
//! over. The hot-shard column reports the busiest segment's share of
//! sharded lock acquisitions — near 1/16 under uniform load, well above
//! it under the hot-key skew. The run asserts what this block shows on
//! Cluster B under uniform load: eight workers buy at most 1.3x over one
//! behind the global lock and at least 2x over the sharded store, the
//! global lock's meters record contention and waiting, and the busiest of
//! the sixteen shards takes under 2/16 of the lock acquisitions.
//!
//! A second block sweeps the same worker counts under the pipelined
//! workload — 16 clients × 8 single-key gets in flight, `Sharded(16)`,
//! Cluster B — where the server's UCR runtime polls with one progress
//! context per four workers. Per operation the server has three serial
//! budgets — worker service, progress-task CPU, HCA occupancy — and the
//! row names the one that binds.

use rmc::StoreModel;
use rmc_bench::{
    model_label, run_mget_storm, run_windowed_gets, xorshift, ClusterKind, MgetStorm, WindowedRun,
    MGET_STORM_CLIENTS as CLIENTS, WINDOWED_CLIENTS,
};
use simnet::{NodeId, PathStage, Profiler, ProfilerConfig};

const MGETS_PER_CLIENT: u32 = 200;
const KEYS_PER_MGET: usize = 16;
const KEYSPACE: u64 = 2048;
/// Hot set for the skewed load: ~80% of draws land on these keys.
const HOT_KEYS: u64 = 64;

#[derive(Clone, Copy, PartialEq)]
enum Load {
    Uniform,
    HotKey,
}

impl Load {
    fn label(self) -> &'static str {
        match self {
            Load::Uniform => "uniform",
            Load::HotKey => "hotkey",
        }
    }
}

fn key_index(rng: &mut u64, load: Load) -> u64 {
    match load {
        Load::Uniform => xorshift(rng) % KEYSPACE,
        Load::HotKey => {
            if xorshift(rng) % 10 < 8 {
                xorshift(rng) % HOT_KEYS
            } else {
                xorshift(rng) % KEYSPACE
            }
        }
    }
}

struct RunResult {
    keys_per_sec: f64,
    lock_acquires: u64,
    lock_contended: u64,
    lock_wait_us: f64,
    lock_hold_us: f64,
    /// Busiest shard's share of lock acquisitions (1.0 for the global
    /// lock, 0.0 when no locks exist; skew indicator for sharded runs).
    hot_shard_share: f64,
}

fn measure(cluster: ClusterKind, model: StoreModel, workers: usize, load: Load) -> RunResult {
    let world = cluster.world(41, CLIENTS + 1);
    let storm = MgetStorm {
        workers,
        model,
        loader: NodeId(1),
        keyspace: KEYSPACE,
        value: b"0123456789abcdef",
        mgets_per_client: MGETS_PER_CLIENT,
        keys_per_mget: KEYS_PER_MGET,
    };
    let (keys_per_sec, _, server) =
        run_mget_storm(&world, &storm, move |rng| key_index(rng, load), false);
    let stats = server.lock_stats();
    let acquires: u64 = stats.iter().map(|s| s.acquires).sum();
    let max_acquires = stats.iter().map(|s| s.acquires).max().unwrap_or(0);
    RunResult {
        keys_per_sec,
        lock_acquires: acquires,
        lock_contended: stats.iter().map(|s| s.contended).sum(),
        lock_wait_us: stats.iter().map(|s| s.wait_total.as_micros_f64()).sum(),
        lock_hold_us: stats.iter().map(|s| s.hold_total.as_micros_f64()).sum(),
        hot_shard_share: if acquires == 0 {
            0.0
        } else {
            max_acquires as f64 / acquires as f64
        },
    }
}

/// Gets per client in the pipelined block.
const WINDOWED_OPS: usize = 1000;

/// One row of the pipelined block.
struct PipelinedRow {
    run: WindowedRun,
    /// Mean wait in a worker's queue between dispatch and service.
    worker_queue_ns: f64,
    /// Serial nanoseconds per operation at each server resource if the
    /// load spread evenly, largest first.
    budgets: [(&'static str, f64); 3],
}

fn measure_pipelined(workers: usize) -> PipelinedRow {
    let world = ClusterKind::B.world(41, WINDOWED_CLIENTS + 1);
    let profiler = Profiler::attach(world.cluster.tracer(), ProfilerConfig::default());
    let run = run_windowed_gets(&world, workers, WINDOWED_OPS, 41);
    let ops = (WINDOWED_CLIENTS as usize * WINDOWED_OPS) as f64;
    let profile = world.profile();
    let ns = |d: simnet::SimDuration| d.as_nanos() as f64;
    let msgs = run.wire_msgs_per_op;
    // A worker serves one get in `worker_fixed + hash_lookup`; a progress
    // context dispatches each request and reaps one completion per wire
    // message; the HCA is occupied once per wire message.
    let mut budgets = [
        (
            "worker",
            ns(profile.host.worker_fixed + profile.host.hash_lookup) / workers as f64,
        ),
        (
            "progress",
            (ns(profile.host.am_dispatch) + ns(profile.verbs.poll_overhead) * msgs)
                / run.contexts as f64,
        ),
        ("hca", ns(profile.verbs.hca_msg) * msgs),
    ];
    budgets.sort_by(|a, b| b.1.total_cmp(&a.1));
    PipelinedRow {
        // The preload runs one request at a time against idle workers and
        // never queues, so the whole total belongs to the measured gets.
        worker_queue_ns: ns(profiler.stage_total(PathStage::WorkerQueue)) / ops,
        budgets,
        run,
    }
}

fn main() {
    const WORKERS: [usize; 5] = [1, 2, 4, 8, 16];
    const MODELS: [StoreModel; 3] = [
        StoreModel::Idealized,
        StoreModel::GlobalLock,
        StoreModel::Sharded(16),
    ];
    println!(
        "Ablation: workers x store model — {CLIENTS} clients x {MGETS_PER_CLIENT} x \
         {KEYS_PER_MGET}-key mgets, 16-byte values, aggregate keys/s"
    );
    let mut records = Vec::new();
    // Cluster B uniform-load runs, for the claims checked below.
    let mut b_uniform = Vec::new();
    for cluster in [ClusterKind::A, ClusterKind::B] {
        for load in [Load::Uniform, Load::HotKey] {
            println!();
            println!("{} / {} load", cluster.label(), load.label());
            print!("{:>10}", "workers");
            for model in MODELS {
                print!("{:>14}", model_label(model));
            }
            println!("{:>12}", "hot-shard");
            for workers in WORKERS {
                print!("{workers:>10}");
                let mut sharded_share = 0.0;
                for model in MODELS {
                    let r = measure(cluster, model, workers, load);
                    print!("{:>13.1}K", r.keys_per_sec / 1e3);
                    if matches!(model, StoreModel::Sharded(_)) {
                        sharded_share = r.hot_shard_share;
                    }
                    records.push(
                        rmc_bench::json::Json::obj()
                            .str("op", "mget16")
                            .str("transport", "UCR IB")
                            .str("cluster", cluster.label())
                            .str("load", load.label())
                            .str("model", model_label(model))
                            .int("workers", workers as u64)
                            .int("clients", u64::from(CLIENTS))
                            .num("tps", r.keys_per_sec)
                            .int("lock_acquires", r.lock_acquires)
                            .int("lock_contended", r.lock_contended)
                            .num("lock_wait_us", r.lock_wait_us)
                            .num("lock_hold_us", r.lock_hold_us)
                            .num("hot_shard_share", r.hot_shard_share),
                    );
                    if cluster == ClusterKind::B && load == Load::Uniform {
                        b_uniform.push((model, workers, r));
                    }
                }
                println!("{sharded_share:>12.3}");
            }
        }
    }
    println!();
    println!(
        "global_lock plateaus at the serialized per-key item time regardless of\n\
         workers; sharded16 with shard-affine dispatch keeps scaling until the HCA\n\
         takes over. hot-shard = busiest segment's share of sharded lock acquires\n\
         (1/16 = 0.0625 would be perfectly balanced)."
    );
    let run = |model, workers| {
        let found = b_uniform.iter().find(|r| (r.0, r.1) == (model, workers));
        &found.expect("swept above").2
    };
    let scaling = |model| run(model, 8).keys_per_sec / run(model, 1).keys_per_sec;
    let (global, sharded) = (StoreModel::GlobalLock, StoreModel::Sharded(16));
    assert!(
        scaling(global) <= 1.3,
        "the global lock must plateau: 8 workers buy {:.2}x over 1",
        scaling(global)
    );
    assert!(
        scaling(sharded) >= 2.0,
        "the sharded store must scale: 8 workers buy {:.2}x over 1",
        scaling(sharded)
    );
    // The plateau is waiting on the lock, and the per-lock meters show it.
    assert!(run(global, 8).lock_contended > 0 && run(global, 8).lock_wait_us > 0.0);
    // Shard-affine dispatch keeps uniform load balanced: the busiest of 16
    // shards stays well under a 2/16 share.
    assert!(
        run(sharded, 8).hot_shard_share < 0.125,
        "hot shard takes {:.3} of uniform load",
        run(sharded, 8).hot_shard_share
    );

    println!();
    println!(
        "Pipelined: {WINDOWED_CLIENTS} clients x 8 gets in flight, sharded16, {} — \
         one UCR progress context per four workers",
        ClusterKind::B.label()
    );
    println!(
        "{:>10}{:>10}{:>12}{:>10}{:>10}{:>12}   serial ns/op by resource, binding first",
        "workers", "contexts", "ops/s", "ns/op", "msgs/op", "queue ns"
    );
    for workers in WORKERS {
        let r = measure_pipelined(workers);
        let budgets: Vec<String> = r
            .budgets
            .iter()
            .map(|(name, ns)| format!("{name} {ns:.0}"))
            .collect();
        println!(
            "{workers:>10}{:>10}{:>11.1}K{:>10.1}{:>10.3}{:>12.1}   {}",
            r.run.contexts,
            r.run.tps / 1e3,
            1e9 / r.run.tps,
            r.run.wire_msgs_per_op,
            r.worker_queue_ns,
            budgets.join(" > ")
        );
        records.push(
            rmc_bench::json::Json::obj()
                .str("op", "get_window8")
                .str("transport", "UCR IB")
                .str("cluster", ClusterKind::B.label())
                .str("load", "pipelined")
                .str("model", model_label(StoreModel::Sharded(16)))
                .int("workers", workers as u64)
                .int("contexts", r.run.contexts as u64)
                .int("clients", u64::from(WINDOWED_CLIENTS))
                .num("tps", r.run.tps)
                .num("wire_msgs_per_op", r.run.wire_msgs_per_op)
                .num("worker_queue_ns", r.worker_queue_ns)
                .str("binds", r.budgets[0].0)
                .num("binding_ns_per_op", r.budgets[0].1),
        );
    }
    println!();
    println!(
        "ns/op = 1e9 / ops/s; queue ns = mean wait in a worker's queue. Each budget\n\
         is a resource's serial time per get if its load spread evenly: worker\n\
         (worker_fixed + hash_lookup) / workers, progress (am_dispatch +\n\
         poll_overhead x msgs/op) / contexts, hca hca_msg x msgs/op. One worker\n\
         binds at its own service time; behind one progress context two and four\n\
         workers run into its per-message CPU (eager coalescing thins the wire as\n\
         the HCA backs up, the dispatch cost per request stays); with a second\n\
         context the server HCA binds again and more workers only shorten queues."
    );
    rmc_bench::json::write("ablation_workers", &records);
}
