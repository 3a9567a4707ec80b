//! Figure 6: aggregate transactions per second for Get operations with
//! 8 and 16 clients (all on distinct nodes, started simultaneously), for
//! 4-byte and 4096-byte values, on Clusters A and B.
//!
//! Paper shape: UCR ≈ 6× 10GigE-TOE on Cluster A; TOE > IPoIB on A;
//! UCR ≈ 6× SDP on Cluster B, reaching ≈ 1.8 M TPS at 4 B with 16
//! clients; SDP slightly below IPoIB on B.

use rmc_bench::json::{self, Json};
use rmc_bench::{render_tps_table, throughput_sweep, ClusterKind, DEFAULT_TPUT_OPS};

fn main() {
    let clients = [8u32, 16];
    let mut records = Vec::new();
    let panels = [
        (
            "Figure 6(a): Get TPS, 4-byte values, Cluster A",
            ClusterKind::A,
            4usize,
        ),
        (
            "Figure 6(b): Get TPS, 4096-byte values, Cluster A",
            ClusterKind::A,
            4096,
        ),
        (
            "Figure 6(c): Get TPS, 4-byte values, Cluster B",
            ClusterKind::B,
            4,
        ),
        (
            "Figure 6(d): Get TPS, 4096-byte values, Cluster B",
            ClusterKind::B,
            4096,
        ),
    ];
    for (title, cluster, size) in panels {
        let columns: Vec<_> = cluster
            .transports()
            .into_iter()
            .map(|t| {
                (
                    t.label().to_string(),
                    throughput_sweep(cluster, t, &clients, size, DEFAULT_TPUT_OPS, 6),
                )
            })
            .collect();
        for (label, points) in &columns {
            for p in points {
                records.push(
                    Json::obj()
                        .str("op", "get")
                        .str("transport", label.as_str())
                        .str("cluster", cluster.label())
                        .int("size", size as u64)
                        .int("clients", p.clients as u64)
                        .num("tps", p.tps),
                );
            }
        }
        println!("{}", render_tps_table(title, &clients, &columns));
    }
    json::write("fig6_throughput", &records);
}
