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

use rmc::Transport;
use rmc_bench::{measure_pipeline_throughput, ClusterKind};
use simnet::Stack;

const DEPTHS: [usize; 5] = [1, 2, 4, 8, 16];
const SIZES: [usize; 2] = [4, 4096];
const OPS: u32 = 1000;
const SEED: u64 = 77;

fn main() {
    println!("Extension: pipelined gets, depth 1..16 on one connection (K ops/sec)");
    let mut records = Vec::new();
    // Cluster B UCR 4 B results, indexed like DEPTHS, for the acceptance
    // check below.
    let mut b_ucr_4b = Vec::new();
    for cluster in [ClusterKind::A, ClusterKind::B] {
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
                    let tps =
                        measure_pipeline_throughput(cluster, transport, depth, size, OPS, SEED);
                    print!("{:>11.1}", tps / 1000.0);
                    if cluster == ClusterKind::B && transport == Transport::Ucr && size == 4 {
                        b_ucr_4b.push(tps);
                    }
                    records.push(
                        rmc_bench::json_out::Record::new()
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
        }
    }

    let d1 = b_ucr_4b[0];
    let d8 = b_ucr_4b[3];
    println!("\nCluster B UCR 4 B: depth-8 is {:.2}x depth-1", d8 / d1);
    assert!(
        d8 >= 3.0 * d1,
        "pipelining win too small: depth-8 {d8:.0} tps vs depth-1 {d1:.0} tps"
    );

    rmc_bench::json_out::write("ext_pipeline_depth", &records);
    println!("\n(Depth overlaps wire+stack latency with service time on one connection;");
    println!("the curve saturates where per-op server cost, not latency, binds.)");
}
