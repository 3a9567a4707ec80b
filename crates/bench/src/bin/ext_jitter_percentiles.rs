//! Extension experiment: the SDP-on-QDR jitter, as a distribution.
//!
//! §VI-B reports that Cluster B's SDP results "were noisy. We made
//! several attempts to reduce the jitter by increasing the number of
//! samples ... However, the jitter did not subside", and concludes it is
//! an SDP implementation artifact (IPoIB and UCR on the same fabric are
//! jitter-free). The paper plots means; this study shows the full
//! percentile picture that diagnosis implies.

use rmc::Transport;
use rmc_bench::{measure_latency_distribution, ClusterKind};
use simnet::Stack;

fn main() {
    println!("Extension: 64-byte get latency distribution, Cluster B (QDR), 400 ops");
    println!(
        "{:>10}{:>9}{:>9}{:>9}{:>9}{:>9}{:>9}",
        "transport", "min", "p50", "p95", "p99", "max", "mean"
    );
    let mut records = Vec::new();
    for (name, t) in [
        ("UCR", Transport::Ucr),
        ("IPoIB", Transport::Sockets(Stack::Ipoib)),
        ("SDP", Transport::Sockets(Stack::Sdp)),
    ] {
        let d = measure_latency_distribution(ClusterKind::B, t, 64, 400, 17);
        println!(
            "{name:>10}{:>9.1}{:>9.1}{:>9.1}{:>9.1}{:>9.1}{:>9.1}",
            d.min_us, d.p50_us, d.p95_us, d.p99_us, d.max_us, d.mean_us
        );
        records.push(
            rmc_bench::json::Json::obj()
                .str("op", "get")
                .str("transport", name)
                .str("cluster", ClusterKind::B.label())
                .int("size", 64)
                .num("mean_us", d.mean_us)
                .num("min_us", d.min_us)
                .num("p50_us", d.p50_us)
                .num("p95_us", d.p95_us)
                .num("p99_us", d.p99_us)
                .num("max_us", d.max_us),
        );
    }
    rmc_bench::json::write("ext_jitter_percentiles", &records);
    println!("\n(UCR and IPoIB are tight around their medians; SDP's tail is the");
    println!("QDR artifact the paper describes — the mean hides a long p99.)");
}
