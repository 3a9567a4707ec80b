//! Figure 4: latency of Set and Get operations on **Cluster B** (QDR),
//! small (a, c) and large (b, d) messages, across UCR / SDP / IPoIB.
//! (No 10GigE cards on this cluster, §VI-B; the SDP column shows the
//! jitter artifact the paper reports on QDR adapters.)

fn main() {
    rmc_bench::latency_figure(rmc_bench::ClusterKind::B, 4, "fig4_latency_b");
}
