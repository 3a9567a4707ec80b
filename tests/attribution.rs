//! Cross-layer latency-attribution invariants.
//!
//! The profiler decomposes every operation's critical path into the
//! `PathStage` pipeline (issue → request wire → worker queue → lock wait
//! → lock hold → service → response wire → complete) from the tracer
//! stream. Every stage is a delta between boundary timestamps on one
//! virtual clock, so for a single client the stages sum to the
//! end-to-end latency with nothing left over — any calibration change
//! that breaks a stage boundary (a sleep moved across a marker, a
//! double-counted cost) shows up here directly, where the shape tests in
//! `experiments.rs` would only drift indirectly.

use rmc::Transport;
use rmc_bench::{
    measure_bottlenecks, measure_latency, measure_latency_attributed, ClusterKind, Mix,
};
use simnet::{PathStage, SimDuration, Stack};

const ITERS: u32 = 60;
const SIZE: usize = 4096;
const SEED: u64 = 7;

/// Runs the attributed measurement next to the plain one and checks:
/// attaching the profiler perturbs nothing, every op is decomposed, the
/// exactness identity holds for each, and no nanosecond is unclaimed.
fn check_attribution_invariant(cluster: ClusterKind, transport: Transport) {
    let attr = measure_latency_attributed(cluster, transport, Mix::GetOnly, SIZE, ITERS, SEED);
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
        "{cluster:?}/{transport:?}: unclaimed time in {:?}",
        attr.stage_means_us
    );

    // The pipeline stages every transport must traverse are non-trivial.
    for stage in [
        PathStage::RequestWire,
        PathStage::Service,
        PathStage::ResponseWire,
    ] {
        assert!(
            attr.stage_us(stage) > 0.0,
            "{cluster:?}/{transport:?}: stage {} must take time, got breakdown {:?}",
            stage.label(),
            attr.stage_means_us
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
/// saturates the kernel and barely touches the HCA. `measure_bottlenecks`
/// now reads both utilizations from the cluster metrics registry
/// (`node0.hca.utilization` / `node0.kernel.utilization` gauges), so this
/// also covers the export path.
#[test]
fn bottleneck_attribution_flows_through_metrics() {
    let ucr = measure_bottlenecks(ClusterKind::A, Transport::Ucr, 8, 4, 300, 31);
    let toe = measure_bottlenecks(
        ClusterKind::A,
        Transport::Sockets(Stack::TenGigEToe),
        8,
        4,
        300,
        31,
    );
    assert!(
        ucr.hca_utilization > 10.0 * ucr.kernel_utilization,
        "UCR must be HCA-bound, kernel-bypassing: {ucr:?}"
    );
    assert!(
        toe.kernel_utilization > 10.0 * toe.hca_utilization,
        "TOE sockets must be kernel-bound: {toe:?}"
    );
    assert!(
        ucr.tps > toe.tps,
        "kernel bypass must out-rate the kernel path: {} vs {}",
        ucr.tps,
        toe.tps
    );
}

/// The §VI-D worked example from the README: the wire stages of a 4 KB
/// get shrink dramatically from 10GigE-TOE to UCR, while the worker
/// service stage (store execution) is transport-invariant.
#[test]
fn ucr_beats_toe_in_the_wire_stages_not_the_store() {
    let ucr = measure_latency_attributed(
        ClusterKind::A,
        Transport::Ucr,
        Mix::GetOnly,
        SIZE,
        ITERS,
        SEED,
    );
    let toe = measure_latency_attributed(
        ClusterKind::A,
        Transport::Sockets(Stack::TenGigEToe),
        Mix::GetOnly,
        SIZE,
        ITERS,
        SEED,
    );
    let wire = |a: &rmc_bench::AttributedLatency| {
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
