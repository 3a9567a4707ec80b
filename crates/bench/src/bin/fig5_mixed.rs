//! Figure 5: latency of small messages under mixed instruction sets —
//! non-interleaved (10% Set / 90% Get: 1 set then 9 gets) and interleaved
//! (50% / 50%: alternating) — on Clusters A and B.

use rmc_bench::json::{self, Json};
use rmc_bench::{
    latency_sweep, render_latency_table, ClusterKind, Mix, DEFAULT_ITERS, SMALL_SIZES,
};

fn main() {
    let mut records = Vec::new();
    let panels = [
        (
            "Figure 5(a): Non-Interleaved (Set 10% Get 90%), Cluster A (us)",
            ClusterKind::A,
            Mix::NonInterleaved,
        ),
        (
            "Figure 5(b): Non-Interleaved (Set 10% Get 90%), Cluster B (us)",
            ClusterKind::B,
            Mix::NonInterleaved,
        ),
        (
            "Figure 5(c): Interleaved (Set 50% Get 50%), Cluster A (us)",
            ClusterKind::A,
            Mix::Interleaved,
        ),
        (
            "Figure 5(d): Interleaved (Set 50% Get 50%), Cluster B (us)",
            ClusterKind::B,
            Mix::Interleaved,
        ),
    ];
    for (title, cluster, mix) in panels {
        let columns: Vec<_> = cluster
            .transports()
            .into_iter()
            .map(|t| {
                (
                    t.label().to_string(),
                    latency_sweep(cluster, t, mix, SMALL_SIZES, DEFAULT_ITERS, 5),
                )
            })
            .collect();
        let op = if mix == Mix::NonInterleaved {
            "mixed_noninterleaved"
        } else {
            "mixed_interleaved"
        };
        for (label, points) in &columns {
            for p in points {
                records.push(
                    Json::obj()
                        .str("op", op)
                        .str("transport", label.as_str())
                        .str("cluster", cluster.label())
                        .int("size", p.size as u64)
                        .num("mean_us", p.mean_us),
                );
            }
        }
        println!("{}", render_latency_table(title, SMALL_SIZES, &columns));
    }
    json::write("fig5_mixed", &records);
}
