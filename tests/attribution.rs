//! Cross-layer latency-attribution invariants.
//!
//! The profiler decomposes every operation's critical path into the
//! `PathStage` pipeline (issue → request wire → worker queue → lock wait
//! → lock hold → service → response wire → complete) from the tracer
//! stream. Every stage is a delta between boundary timestamps on one
//! virtual clock, so for a single client, and for many UCR clients whose
//! request ids correlate every marker, the stages sum to the end-to-end
//! latency with nothing left over — any calibration change
//! that breaks a stage boundary (a sleep moved across a marker, a
//! double-counted cost) shows up here directly, where the shape tests in
//! `experiments.rs` would only drift indirectly.

use rmc::Transport;
use rmc_bench::{
    measure_latency, measure_throughput, run_latency, run_throughput, Attribution, ClusterKind, Mix,
};
use simnet::{PathStage, SimDuration, Stack};

const ITERS: u32 = 60;
const SIZE: usize = 4096;
const SEED: u64 = 7;

/// One client's 4 KB gets, read through an attribution window.
fn attribute_latency(cluster: ClusterKind, transport: Transport) -> Attribution {
    let (_, attr) = run_latency(cluster, transport, Mix::GetOnly, SIZE, ITERS, SEED, true);
    attr.expect("window")
}

/// `clients` clients' 4 B gets on Cluster A (seed 31), read through an
/// attribution window.
fn attribute_throughput(transport: Transport, clients: u32, ops: u32) -> Attribution {
    let world = ClusterKind::A.world(31, clients + 1);
    let (_, attr, _, _) = run_throughput(&world, transport, clients, 4, ops, true);
    attr.expect("window")
}

/// Runs the attributed measurement next to the plain one and checks:
/// opening the window perturbs nothing, every op is decomposed, the
/// exactness identity holds for each, and no nanosecond is unclaimed.
fn check_attribution_invariant(cluster: ClusterKind, transport: Transport) {
    let attr = attribute_latency(cluster, transport);
    let plain = measure_latency(cluster, transport, Mix::GetOnly, SIZE, ITERS, SEED);

    // Tracing adds no virtual time: the measured mean is bit-identical to
    // a run without instrumentation.
    assert_eq!(
        attr.mean_us.to_bits(),
        plain.to_bits(),
        "{cluster:?}/{transport:?}: instrumented mean {} != plain mean {plain}",
        attr.mean_us,
    );
    assert_eq!(
        attr.audit.ops, ITERS as u64,
        "{cluster:?}/{transport:?}: every timed op must be attributed"
    );
    assert_eq!(
        attr.audit.inexact_ops, 0,
        "{cluster:?}/{transport:?}: stages + residual must equal end-to-end per op"
    );
    // One client, one op in flight: every marker correlates, so the
    // stages alone account for the whole latency.
    assert_eq!(
        attr.audit.residual_abs_total,
        SimDuration::ZERO,
        "{cluster:?}/{transport:?}: unclaimed time"
    );

    // The pipeline stages every transport must traverse are non-trivial.
    for stage in [
        PathStage::RequestWire,
        PathStage::Service,
        PathStage::ResponseWire,
    ] {
        assert!(
            attr.stage_us(stage) > 0.0,
            "{cluster:?}/{transport:?}: stage {} must take time",
            stage.label(),
        );
    }
}

#[test]
fn attribution_sums_ucr_cluster_a() {
    check_attribution_invariant(ClusterKind::A, Transport::Ucr);
}

#[test]
fn attribution_sums_ucr_cluster_b() {
    check_attribution_invariant(ClusterKind::B, Transport::Ucr);
}

#[test]
fn attribution_sums_tengige_toe_cluster_a() {
    check_attribution_invariant(ClusterKind::A, Transport::Sockets(Stack::TenGigEToe));
}

#[test]
fn attribution_sums_ipoib_cluster_b() {
    check_attribution_invariant(ClusterKind::B, Transport::Sockets(Stack::Ipoib));
}

/// §VI-D mechanism through the metrics layer: UCR saturates the server's
/// HCA work-request pipeline and bypasses the kernel; a sockets stack
/// saturates the kernel and barely touches the HCA. The window reads both
/// utilizations from the cluster metrics registry
/// (`node0.hca.utilization` / `node0.kernel.utilization` gauges), so this
/// also covers the export path.
#[test]
fn bottleneck_attribution_flows_through_metrics() {
    let ucr = attribute_throughput(Transport::Ucr, 8, 300);
    let toe = attribute_throughput(Transport::Sockets(Stack::TenGigEToe), 8, 300);
    assert!(
        ucr.hca_utilization > 10.0 * ucr.kernel_utilization,
        "UCR must be HCA-bound, kernel-bypassing: {} vs {}",
        ucr.hca_utilization,
        ucr.kernel_utilization
    );
    assert!(
        toe.kernel_utilization > 10.0 * toe.hca_utilization,
        "TOE sockets must be kernel-bound: {} vs {}",
        toe.kernel_utilization,
        toe.hca_utilization
    );
    assert!(
        ucr.rate > toe.rate,
        "kernel bypass must out-rate the kernel path: {} vs {}",
        ucr.rate,
        toe.rate
    );
}

/// Eight UCR clients in parallel decompose as exactly as one: every get
/// of the window is attributed, each op's stages sum to its end-to-end
/// time with nothing left over, nothing stays open, and the window moves
/// no number of the run.
#[test]
fn a_multi_client_ucr_window_leaves_nothing_over() {
    let attr = attribute_throughput(Transport::Ucr, 8, 300);
    let bare = measure_throughput(ClusterKind::A, Transport::Ucr, 8, 4, 300, 31);
    assert_eq!(attr.audit.ops, 2400, "every timed get decomposed");
    assert_eq!(attr.audit.inexact_ops, 0);
    assert_eq!(attr.audit.residual_abs_total, SimDuration::ZERO);
    assert_eq!(attr.profiler.open_len(), 0, "no path left open");
    assert_eq!(
        attr.rate.to_bits(),
        bare.to_bits(),
        "the window moved the rate"
    );
}

/// The §VI-D worked example from the README: the wire stages of a 4 KB
/// get shrink dramatically from 10GigE-TOE to UCR, while the worker
/// service stage (store execution) is transport-invariant.
#[test]
fn ucr_beats_toe_in_the_wire_stages_not_the_store() {
    let ucr = attribute_latency(ClusterKind::A, Transport::Ucr);
    let toe = attribute_latency(ClusterKind::A, Transport::Sockets(Stack::TenGigEToe));
    let wire = |a: &Attribution| {
        a.stage_us(PathStage::Issue)
            + a.stage_us(PathStage::RequestWire)
            + a.stage_us(PathStage::ResponseWire)
    };
    assert!(
        wire(&toe) > 2.0 * wire(&ucr),
        "TOE wire+kernel time {:.3}us should dwarf UCR's {:.3}us",
        wire(&toe),
        wire(&ucr)
    );
    assert_eq!(
        ucr.stage_us(PathStage::Service),
        toe.stage_us(PathStage::Service),
        "service is transport-invariant"
    );
}
