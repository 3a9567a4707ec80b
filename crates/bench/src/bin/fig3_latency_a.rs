//! Figure 3: latency of Set and Get operations on **Cluster A** (DDR),
//! small (a, c) and large (b, d) messages, across UCR / SDP / IPoIB /
//! 10GigE-TOE / 1GigE.

fn main() {
    rmc_bench::latency_figure(rmc_bench::ClusterKind::A, 3, "fig3_latency_a");
}
