//! Extension: server-CPU-bypass GET — client-direct RDMA reads of the
//! server's item memory.
//!
//! The paper's UCR design still spends server CPU on every GET: the
//! request wakes a worker, the store is consulted, a response is sent.
//! This study measures the RFP-style alternative shipped in `rmc`: the
//! client fetches a per-item location descriptor once (an inline
//! directory AM served by the progress engine), then reads the value
//! with a one-sided `RdmaRead` and validates a seqlock version word —
//! zero server worker involvement on the hot path. Concurrent writers
//! surface as version skew, retried with a fresh descriptor and finally
//! resolved over the ordinary AM get.
//!
//! For each cluster and value size, the same read-heavy zipfian schedule
//! runs twice — AM get vs bypass get — so the delta isolates exactly the
//! server-CPU-bypass effect. The worker-wake counters prove the "zero
//! server CPU" claim; the bypass counters attribute every read, retry,
//! and fallback, and bound them: at most one retry per ten one-sided reads
//! and one fallback per hundred.

use rmc_bench::{measure_bypass_get, BypassRun, ClusterKind};

const SIZES: [usize; 3] = [4, 1024, 4096];
const OPS: u32 = 2000;
const SEED: u64 = 77;

fn main() {
    println!("Extension: bypass GET (one-sided RDMA read) vs AM GET, read-heavy zipfian");
    println!("({OPS} timed gets over 256 keys, skew 0.99; then a 10%-set mixed phase)");
    let mut records = Vec::new();
    // Cluster B 4 B p50s (am, bypass) for the acceptance check below.
    let mut b_4b_p50 = (0.0f64, 0.0f64);
    for cluster in [ClusterKind::A, ClusterKind::B] {
        println!("\n{}", cluster.label());
        println!(
            "{:>8} {:>10} {:>10} {:>10} {:>10} {:>11} {:>8} {:>8} {:>9} {:>6}",
            "value",
            "mode",
            "p50 us",
            "p95 us",
            "mean us",
            "tps",
            "reads",
            "retries",
            "fallbacks",
            "wakes"
        );
        for size in SIZES {
            let mut per_mode: Vec<(&str, BypassRun)> = Vec::new();
            for bypass in [false, true] {
                let run = measure_bypass_get(cluster, bypass, size, OPS, SEED);
                let mode = if bypass { "bypass" } else { "am-get" };
                println!(
                    "{:>8} {:>10} {:>10.2} {:>10.2} {:>10.2} {:>11.0} {:>8} {:>8} {:>9} {:>6}",
                    size,
                    mode,
                    run.dist.p50_us,
                    run.dist.p95_us,
                    run.dist.mean_us,
                    run.tps,
                    run.bypass_reads,
                    run.bypass_retries,
                    run.bypass_fallbacks,
                    run.read_phase_worker_wakes,
                );
                records.push(
                    rmc_bench::json::Json::obj()
                        .str("op", "get")
                        .str("cluster", cluster.label())
                        .str("mode", mode)
                        .int("size", size as u64)
                        .num("p50_us", run.dist.p50_us)
                        .num("p95_us", run.dist.p95_us)
                        .num("p99_us", run.dist.p99_us)
                        .num("mean_us", run.dist.mean_us)
                        .num("tps", run.tps)
                        .int("bypass_reads", run.bypass_reads)
                        .int("bypass_retries", run.bypass_retries)
                        .int("bypass_fallbacks", run.bypass_fallbacks)
                        .int("read_phase_worker_wakes", run.read_phase_worker_wakes),
                );
                if bypass {
                    // The zero-server-CPU claim, enforced: during the
                    // timed pure-read phase not one worker woke, while
                    // every timed get is accounted as a one-sided read.
                    assert_eq!(
                        run.read_phase_worker_wakes,
                        0,
                        "{} {size} B: bypassed reads woke server workers",
                        cluster.label()
                    );
                    assert!(
                        run.bypass_reads >= OPS as u64,
                        "{} {size} B: only {} one-sided reads for {OPS} timed gets",
                        cluster.label(),
                        run.bypass_reads
                    );
                    // Under the 10%-set mixed phase the seqlock retries
                    // stay rare and the AM fallback rarer still.
                    assert!(
                        run.bypass_retries * 10 <= run.bypass_reads
                            && run.bypass_fallbacks * 100 <= run.bypass_reads,
                        "{} {size} B: {} retries, {} fallbacks in {} reads",
                        cluster.label(),
                        run.bypass_retries,
                        run.bypass_fallbacks,
                        run.bypass_reads
                    );
                } else {
                    assert_eq!(
                        run.bypass_reads, 0,
                        "AM-get control must not touch the one-sided path"
                    );
                    assert!(
                        run.read_phase_worker_wakes > 0,
                        "AM gets are served by workers; wakes cannot be zero"
                    );
                }
                per_mode.push((mode, run));
            }
            let am = &per_mode[0].1;
            let by = &per_mode[1].1;
            if cluster == ClusterKind::B && size == 4 {
                b_4b_p50 = (am.dist.p50_us, by.dist.p50_us);
            }
            println!(
                "{:>8} {:>10} p50 {:.2}x, tps {:.2}x",
                "",
                "delta",
                am.dist.p50_us / by.dist.p50_us,
                by.tps / am.tps
            );
        }
    }

    let (am_p50, by_p50) = b_4b_p50;
    println!(
        "\nCluster B 4 B get: bypass p50 {by_p50:.2} us vs AM p50 {am_p50:.2} us \
         ({:.2}x)",
        am_p50 / by_p50
    );
    assert!(
        by_p50 < am_p50,
        "bypass get must beat the AM get at 4 B on Cluster B: {by_p50:.2} vs {am_p50:.2} us"
    );
    rmc_bench::json::write("ext_bypass_get", &records);
    println!("\n(The bypass hot path is one RdmaRead against a registered mirror of the");
    println!("item's slab chunk; the version word at the window's tail detects racing");
    println!("writers, so correctness never depends on the server quiescing.)");
}
