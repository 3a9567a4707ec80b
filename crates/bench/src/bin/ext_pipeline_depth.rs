//! Extension: pipelined request engine — depth-N outstanding ops per
//! connection.
//!
//! The paper's Fig. 6 raises aggregate throughput by adding whole client
//! processes, each running one synchronous op at a time. This study keeps a
//! single connection and instead keeps up to `depth` requests in flight on
//! it ([`rmc::McClient::get_many`] with `pipeline_depth`), the batched mode
//! real deployments (libmemcached `mget`, UCR multi-send) use. Depth 1 is
//! the classic closed loop; deeper pipelines overlap wire + stack latency
//! with server service time until one resource saturates.
//!
//! Each cluster's UCR 4 B knee is the first depth step whose throughput
//! gain over the previous step is below [`KNEE_GAIN`]: where the curve
//! stops scaling. The cluster registry's exposition after the Cluster B
//! UCR 4 B depth-16 cell is written to `results/ext_pipeline_depth.prom`,
//! which `tests/stats_registry.rs` renders again from that cell and holds
//! against the exposition format and the cell's live registry.

use rmc::Transport;
use rmc_bench::{run_pipeline_gets, ClusterKind};
use simnet::Stack;

const DEPTHS: [usize; 5] = [1, 2, 4, 8, 16];
const SIZES: [usize; 2] = [4, 4096];
const OPS: u32 = 1000;
const SEED: u64 = 77;
/// A depth step gaining less throughput than this over the previous one
/// has stopped scaling.
const KNEE_GAIN: f64 = 0.15;

/// The index of the first sweep step whose throughput gain over the
/// previous step is below [`KNEE_GAIN`].
fn knee(tps: &[f64]) -> Option<usize> {
    (1..tps.len()).find(|&i| (tps[i] - tps[i - 1]) / tps[i - 1] < KNEE_GAIN)
}

fn main() {
    println!("Extension: pipelined gets, depth 1..16 on one connection (K ops/sec)");
    let mut records = Vec::new();
    let mut prom = String::new();
    // A cluster's UCR 4 B results, indexed like DEPTHS; Cluster B's are
    // left for the acceptance check below.
    let mut ucr_4b = Vec::new();
    for cluster in [ClusterKind::A, ClusterKind::B] {
        ucr_4b.clear();
        for transport in [Transport::Ucr, Transport::Sockets(Stack::Sdp)] {
            println!("\n{} / {}", cluster.label(), transport.label());
            print!("{:>10}", "value");
            for d in DEPTHS {
                print!("{:>11}", format!("depth={d}"));
            }
            println!();
            for size in SIZES {
                print!("{size:>10}");
                for depth in DEPTHS {
                    let world = cluster.world(SEED, 4);
                    let tps = run_pipeline_gets(&world, transport, depth, size, OPS);
                    print!("{:>11.1}", tps / 1000.0);
                    if transport == Transport::Ucr && size == 4 {
                        ucr_4b.push(tps);
                        // Kept from the last such cell: Cluster B, depth 16.
                        prom = world.cluster.export_prometheus();
                    }
                    records.push(
                        rmc_bench::json::Json::obj()
                            .str("op", "get")
                            .str("cluster", cluster.label())
                            .str("transport", transport.label())
                            .int("size", size as u64)
                            .int("depth", depth as u64)
                            .num("tps", tps),
                    );
                }
                println!();
            }
            if transport != Transport::Ucr {
                continue;
            }
            let knee_idx = knee(&ucr_4b).expect("UCR 4 B pipelining saturates within the sweep");
            assert_eq!(
                DEPTHS[knee_idx],
                16,
                "{}: UCR 4 B knee moved",
                cluster.label()
            );
            println!(
                "4 B knee: depth {} (step {knee_idx} of the sweep, the first to gain < {:.0} %)",
                DEPTHS[knee_idx],
                KNEE_GAIN * 100.0
            );
            records.push(
                rmc_bench::json::Json::obj()
                    .str("op", "knee")
                    .str("cluster", cluster.label())
                    .str("transport", "UCR")
                    .int("size", 4)
                    .int("knee_index", knee_idx as u64)
                    .int("knee_depth", DEPTHS[knee_idx] as u64),
            );
        }
    }

    let d1 = ucr_4b[0];
    let d8 = ucr_4b[3];
    println!("\nCluster B UCR 4 B: depth-8 is {:.2}x depth-1", d8 / d1);
    assert!(
        d8 >= 3.0 * d1,
        "pipelining win too small: depth-8 {d8:.0} tps vs depth-1 {d1:.0} tps"
    );

    rmc_bench::json::write("ext_pipeline_depth", &records);
    rmc_bench::json::write_file("ext_pipeline_depth.prom", &prom);
    println!("\n(Depth overlaps wire+stack latency with service time on one connection;");
    println!("the curve saturates where per-op server cost, not latency, binds.)");
}
