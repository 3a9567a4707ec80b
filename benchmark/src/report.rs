//! The metric catalogue — every name the benchmark prints, with its unit
//! and direction — and the arithmetic that turns a run's raw readings into
//! those metrics. `BENCHMARK.json` lists the same names; a unit test keeps
//! the two in step.
//!
//! Units name their clock: `sim_us`, `sim_ns` and `ops/sim_s` are virtual
//! time of the modelled cluster and repeat exactly for a seed; `s`, `ns`
//! and `ops/s` are host time of this machine and do not.

use std::collections::BTreeMap;

use simnet::{PathStage, PATH_STAGE_COUNT};

use crate::layers::{Counters, TraceCounts};
use crate::probes::Probes;
use crate::workload::{Outcome, Spec};

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    #[cfg(test)]
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// For a metric that does not depend on the host's speed: how far two
    /// runs of one commit and seed may differ, as a share. 0 for virtual
    /// time, which repeats bit for bit; a little for allocation counts,
    /// which repeat but for the standard hasher's per-table seed (where
    /// deleted slots fall decides whether a table rehashes in place or
    /// grows, an allocation or two apart). `None` for host-clock metrics.
    pub repeats_within: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    repeats_within: Option<f64>,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        repeats_within,
    }
}

/// The end-to-end metrics, reported per workload by the untraced run.
///
/// `failed_ops_share` is not among them: it is 0 on every workload, and a
/// bound that is a share of 0 guards nothing. Failures travel in the
/// result line's `attempted`/`failed`/`correct` and fail the run. Nor is
/// [`HOST_RATE`].
pub const END_TO_END: [EndToEnd; 8] = [
    e2e(
        "sim_ops_per_s",
        "ops/sim_s",
        Better::Higher,
        0.01,
        Some(0.0),
    ),
    e2e("sim_p50_us", "sim_us", Better::Lower, 0.01, Some(0.0)),
    e2e("sim_p99_us", "sim_us", Better::Lower, 0.12, Some(0.0)),
    e2e("sim_p999_us", "sim_us", Better::Lower, 0.04, Some(0.0)),
    e2e(
        "host_allocs_per_op",
        "allocs/op",
        Better::Lower,
        0.01,
        Some(1e-4),
    ),
    e2e(
        "host_alloc_bytes_per_op",
        "bytes/op",
        Better::Lower,
        0.01,
        Some(1e-4),
    ),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10, None),
    e2e("setup_s", "s", Better::Lower, 0.25, None),
];

/// Simulated operations per host second. The untraced run prints it and
/// `--compare` judges it like an end-to-end metric, but the driver does not
/// gate on it: this host runs at 0.6 of its speed for minutes on end
/// whenever a neighbour is busy, so a bound on a wall-clock rate would
/// reject changes for the neighbour's doing. The traced run reports its own
/// reading as the per-layer `host.ops_per_s`.
pub const HOST_RATE: EndToEnd = e2e("host_ops_per_s", "ops/s", Better::Higher, 0.25, None);

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Direction only: a per-layer metric has no bound.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The per-layer metrics, reported per workload by the traced run. A layer
/// is a crate or module of the repo; the name's prefix says which.
pub const PER_LAYER: [PerLayer; 60] = [
    lower("simnet.engine.events_per_op", "events/op"),
    lower("simnet.engine.task_polls_per_op", "polls/op"),
    lower("simnet.engine.host_ns_per_event", "ns"),
    lower("simnet.engine.host_ns_per_task_switch", "ns"),
    lower("simnet.wire.msgs_per_op", "msgs/op"),
    lower("simnet.wire.bytes_per_op", "bytes/op"),
    lower("simnet.wire.server_egress_utilization", "share"),
    lower("simnet.vlock.acquires_per_op", "acquires/op"),
    lower("simnet.vlock.contended_ratio", "share"),
    lower("simnet.vlock.hot_shard_share", "share"),
    lower("simnet.trace.events_per_op", "events/op"),
    lower("simnet.trace.host_overhead_share", "share"),
    lower("simnet.trace.allocs_per_op_added", "allocs/op"),
    lower("verbs.events_per_op", "events/op"),
    lower("verbs.send_self_ns_per_op", "sim_ns"),
    lower("verbs.host_ns_per_send", "ns"),
    lower("verbs.host_ns_per_rdma_read_64k", "ns"),
    lower("verbs.host_ns_per_mr_reg", "ns"),
    lower("ucr.msgs_per_op", "msgs/op"),
    higher("ucr.eager_share", "share"),
    lower("ucr.rndv_per_op", "rndv/op"),
    lower("ucr.fins_per_op", "fins/op"),
    higher("ucr.mr_cache_hit_ratio", "share"),
    higher("ucr.progress_completions_per_wake", "count"),
    higher("ucr.recv_bufs_recycled_per_op", "bufs/op"),
    lower("ucr.send_failures", "count"),
    lower("ucr.handler_self_ns_per_op", "sim_ns"),
    lower("ucr.host_ns_per_am_64b", "ns"),
    lower("ucr.host_ns_per_rndv_64k", "ns"),
    lower("socksim.host_ns_per_msg", "ns"),
    lower("socksim.events_per_msg", "events/msg"),
    lower("mcproto.host_ns_per_ascii_parse", "ns"),
    lower("mcproto.host_ns_per_ascii_encode", "ns"),
    lower("mcproto.host_ns_per_bin_codec", "ns"),
    higher("mcstore.hit_ratio", "share"),
    lower("mcstore.evictions_per_kop", "evictions/kop"),
    lower("mcstore.bytes_stored_mb", "MB"),
    lower("mcstore.hash_expansions", "count"),
    lower("mcstore.host_ns_per_get", "ns"),
    lower("mcstore.host_ns_per_set", "ns"),
    lower("rmc.path.issue_ns", "sim_ns"),
    lower("rmc.path.request_wire_ns", "sim_ns"),
    lower("rmc.path.worker_queue_ns", "sim_ns"),
    lower("rmc.path.lock_wait_ns", "sim_ns"),
    lower("rmc.path.lock_hold_ns", "sim_ns"),
    lower("rmc.path.service_ns", "sim_ns"),
    lower("rmc.path.response_wire_ns", "sim_ns"),
    lower("rmc.path.complete_ns", "sim_ns"),
    lower("rmc.path.residual_ns", "sim_ns"),
    lower("rmc.path.residual_share", "share"),
    lower("rmc.worker_service_self_ns_per_op", "sim_ns"),
    lower("rmc.server.worker_wakes_per_op", "wakes/op"),
    higher("rmc.server.batch_items_per_wake", "items/wake"),
    lower("rmc.server.queue_depth_max", "count"),
    higher("rmc.client.inflight_max", "count"),
    lower("rmc.client.batch_fallback_ops", "count"),
    lower("rmc.am_wire.host_ns_per_codec", "ns"),
    lower("rmc.host_self_ns_per_op", "ns"),
    higher("host.ops_per_s", "ops/s"),
    higher("host.cpu_over_wall", "share"),
];

/// The `rmc.path.*` stage metrics, in [`PathStage::ALL`] order.
const PATH_STAGE_METRICS: [&str; PATH_STAGE_COUNT] = [
    "rmc.path.issue_ns",
    "rmc.path.request_wire_ns",
    "rmc.path.worker_queue_ns",
    "rmc.path.lock_wait_ns",
    "rmc.path.lock_hold_ns",
    "rmc.path.service_ns",
    "rmc.path.response_wire_ns",
    "rmc.path.complete_ns",
];

/// `part / whole`, 0 when there is no whole.
fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// The end-to-end metrics of one untraced run, in catalogue order.
/// `setup_s` is the set-up's share of the window's time at the window's
/// nominal rate.
pub fn end_to_end(outcome: &Outcome, setup_s: f64) -> Vec<(&'static str, f64)> {
    vec![
        ("sim_ops_per_s", outcome.sim_ops_per_s),
        ("sim_p50_us", outcome.sim_p50_us),
        ("sim_p99_us", outcome.sim_p99_us),
        ("sim_p999_us", outcome.sim_p999_us),
        ("host_allocs_per_op", outcome.host_allocs_per_op),
        ("host_alloc_bytes_per_op", outcome.host_alloc_bytes_per_op),
        ("peak_rss_mb", outcome.peak_rss_mb.unwrap_or(f64::NAN)),
        ("setup_s", setup_s),
    ]
}

/// Exclusive virtual nanoseconds the window added to folded stacks whose
/// leaf frame satisfies `leaf`.
fn folded_self_ns(start: &TraceCounts, end: &TraceCounts, leaf: impl Fn(&str) -> bool) -> f64 {
    let before: BTreeMap<&str, u64> = start
        .folded
        .iter()
        .map(|(p, ns)| (p.as_str(), *ns))
        .collect();
    end.folded
        .iter()
        .filter(|(path, _)| leaf(path.rsplit(';').next().unwrap_or(path)))
        .map(|(path, ns)| ns - before.get(path.as_str()).copied().unwrap_or(0))
        .sum::<u64>() as f64
}

/// The critical-path budget of the window: mean virtual nanoseconds per
/// operation in each stage, the signed residual, and the mean end-to-end
/// latency they sum to.
pub struct PathBudget {
    pub stage_ns: [f64; PATH_STAGE_COUNT],
    pub residual_ns: f64,
    pub residual_share: f64,
    pub end_to_end_ns: f64,
    pub paths: u64,
    pub inexact_paths: u64,
    /// `Σ stages + residual − end-to-end` over the window in whole
    /// nanoseconds; the identity demands 0.
    pub identity_gap_ns: i128,
}

pub fn path_budget(start: &TraceCounts, end: &TraceCounts) -> PathBudget {
    let paths = end.paths - start.paths;
    let e2e = end.e2e_ns - start.e2e_ns;
    let stages: [u64; PATH_STAGE_COUNT] =
        PathStage::ALL.map(|s| end.stage_ns[s.index()] - start.stage_ns[s.index()]);
    let staged: u64 = stages.iter().sum();
    // The residual is signed: stages may double-count overlapping waits.
    let residual = i128::from(e2e) - i128::from(staged);
    let per_path = |ns: f64| ratio(ns, paths as f64);
    PathBudget {
        stage_ns: stages.map(|ns| per_path(ns as f64)),
        residual_ns: per_path(residual as f64),
        residual_share: ratio(
            (end.residual_abs_ns - start.residual_abs_ns) as f64,
            e2e as f64,
        ),
        end_to_end_ns: per_path(e2e as f64),
        paths,
        inexact_paths: end.inexact_paths - start.inexact_paths,
        identity_gap_ns: i128::from(staged) + residual - i128::from(e2e),
    }
}

/// The per-layer metrics of one workload, in catalogue order: counts and
/// spans from the traced run's window, tracing cost from the traced run
/// against the bare one, host time per call from the probes.
pub fn per_layer(
    spec: &Spec,
    bare: &Outcome,
    traced: &Outcome,
    probes: &Probes,
) -> Vec<(&'static str, f64)> {
    let ops = traced.window_ops as f64;
    let (c0, c1): (&Counters, &Counters) = (&traced.at_start, &traced.at_end);
    let t0 = c0.trace.as_ref().expect("traced run has trace counters");
    let t1 = c1.trace.as_ref().expect("traced run has trace counters");
    let per_op = |a: u64, b: u64| (b - a) as f64 / ops;
    let budget = path_budget(t0, t1);

    let acquires: Vec<u64> = c1
        .lock_acquires
        .iter()
        .zip(&c0.lock_acquires)
        .map(|(b, a)| b - a)
        .collect();
    let acquired: u64 = acquires.iter().sum();
    let hottest = acquires.iter().copied().max().unwrap_or(0);

    let (u0, u1) = (&c0.ucr, &c1.ucr);
    let msgs = (u1.messages_sent - u0.messages_sent) as f64;
    let eager = (u1.eager_delivered - u0.eager_delivered) as f64;
    let rndv = (u1.rndv_delivered - u0.rndv_delivered) as f64;
    let mr_hits = (u1.mr_cache_hits - u0.mr_cache_hits) as f64;
    let mr_misses = (u1.mr_cache_misses - u0.mr_cache_misses) as f64;
    let wakes = (u1.progress_wakes - u0.progress_wakes) as f64;

    let (s0, s1) = (&c0.store, &c1.store);
    let hits = (s1.get_hits - s0.get_hits) as f64;
    let misses = (s1.get_misses - s0.get_misses) as f64;
    let worker_wakes = (c1.worker_wakes - c0.worker_wakes) as f64;

    // What one operation costs the host, less what the probes say the
    // layers right below `rmc` cost for the messages and store accesses
    // it made. Approximate: a probe's message is not the workload's.
    let wire_msgs_per_op = per_op(t0.wire_msgs, t1.wire_msgs);
    let below = if spec.transport == rmc::Transport::Ucr {
        (msgs - rndv) / ops * probes.get("ucr.host_ns_per_am_64b")
            + rndv / ops * probes.get("ucr.host_ns_per_rndv_64k")
    } else {
        wire_msgs_per_op * probes.get("socksim.host_ns_per_msg")
            + probes.get("mcproto.host_ns_per_ascii_parse")
            + probes.get("mcproto.host_ns_per_ascii_encode")
    } + (1.0 - spec.set_share) * probes.get("mcstore.host_ns_per_get")
        + spec.set_share * probes.get("mcstore.host_ns_per_set");

    let mut out: Vec<(&'static str, f64)> = vec![
        ("simnet.engine.events_per_op", traced.events_per_op),
        ("simnet.engine.task_polls_per_op", traced.task_polls_per_op),
        ("simnet.wire.msgs_per_op", wire_msgs_per_op),
        (
            "simnet.wire.bytes_per_op",
            per_op(t0.wire_bytes, t1.wire_bytes),
        ),
        (
            "simnet.wire.server_egress_utilization",
            ratio(
                c1.server_egress_busy_ns - c0.server_egress_busy_ns,
                traced.sim_window_ns as f64,
            ),
        ),
        ("simnet.vlock.acquires_per_op", acquired as f64 / ops),
        (
            "simnet.vlock.contended_ratio",
            ratio(
                (c1.lock_contended - c0.lock_contended) as f64,
                acquired as f64,
            ),
        ),
        (
            "simnet.vlock.hot_shard_share",
            ratio(hottest as f64, acquired as f64),
        ),
        ("simnet.trace.events_per_op", per_op(t0.events, t1.events)),
        (
            "simnet.trace.host_overhead_share",
            1.0 - ratio(traced.host_ops_per_s, bare.host_ops_per_s),
        ),
        (
            "simnet.trace.allocs_per_op_added",
            traced.host_allocs_per_op - bare.host_allocs_per_op,
        ),
        (
            "verbs.events_per_op",
            per_op(t0.verbs_events, t1.verbs_events),
        ),
        (
            "verbs.send_self_ns_per_op",
            folded_self_ns(t0, t1, |leaf| leaf == "verbs:send") / ops,
        ),
        ("ucr.msgs_per_op", msgs / ops),
        ("ucr.eager_share", ratio(eager, eager + rndv)),
        ("ucr.rndv_per_op", rndv / ops),
        ("ucr.fins_per_op", per_op(u0.fins_sent, u1.fins_sent)),
        (
            "ucr.mr_cache_hit_ratio",
            ratio(mr_hits, mr_hits + mr_misses),
        ),
        (
            "ucr.progress_completions_per_wake",
            ratio(
                (u1.progress_completions - u0.progress_completions) as f64,
                wakes,
            ),
        ),
        (
            "ucr.recv_bufs_recycled_per_op",
            per_op(u0.recv_bufs_recycled, u1.recv_bufs_recycled),
        ),
        (
            "ucr.send_failures",
            (u1.send_failures - u0.send_failures) as f64,
        ),
        (
            "ucr.handler_self_ns_per_op",
            folded_self_ns(t0, t1, |leaf| leaf.starts_with("ucr:")) / ops,
        ),
        ("mcstore.hit_ratio", ratio(hits, hits + misses)),
        (
            "mcstore.evictions_per_kop",
            per_op(s0.evictions, s1.evictions) * 1e3,
        ),
        ("mcstore.bytes_stored_mb", c1.store_bytes / 1e6),
        ("mcstore.hash_expansions", s1.hash_expansions as f64),
        ("rmc.path.residual_ns", budget.residual_ns),
        ("rmc.path.residual_share", budget.residual_share),
        (
            "rmc.worker_service_self_ns_per_op",
            folded_self_ns(t0, t1, |leaf| leaf == "core:worker_service") / ops,
        ),
        ("rmc.server.worker_wakes_per_op", worker_wakes / ops),
        (
            "rmc.server.batch_items_per_wake",
            ratio(
                (c1.worker_batch_items - c0.worker_batch_items) as f64,
                worker_wakes,
            ),
        ),
        ("rmc.server.queue_depth_max", c1.queue_depth_max),
        ("rmc.client.inflight_max", traced.inflight_max as f64),
        (
            "rmc.client.batch_fallback_ops",
            (c1.batch_fallback_ops - c0.batch_fallback_ops) as f64,
        ),
        ("rmc.host_self_ns_per_op", 1e9 / bare.host_ops_per_s - below),
        ("host.ops_per_s", bare.host_ops_per_s),
        ("host.cpu_over_wall", bare.cpu_over_wall.unwrap_or(f64::NAN)),
    ];
    for (name, ns) in PATH_STAGE_METRICS.iter().zip(budget.stage_ns) {
        out.push((name, ns));
    }
    out.extend(probes.values.iter().copied());

    // Catalogue order, and nothing missing or extra.
    let ordered: Vec<(&'static str, f64)> = PER_LAYER
        .iter()
        .map(|m| {
            let found = out.iter().find(|(n, _)| *n == m.name);
            (
                m.name,
                found.unwrap_or_else(|| panic!("{} not computed", m.name)).1,
            )
        })
        .collect();
    assert_eq!(
        ordered.len(),
        out.len(),
        "a computed metric is not in the catalogue"
    );
    ordered
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` is what the driver reads; the catalogue is what
    /// the program prints. They must name the same metrics.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");

        let listed = doc
            .get("end_to_end")
            .and_then(Json::as_array)
            .expect("end_to_end");
        assert_eq!(listed.len(), END_TO_END.len());
        for (entry, m) in listed.iter().zip(&END_TO_END) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(m.name));
            assert_eq!(
                entry.get("unit").and_then(Json::as_str),
                Some(m.unit),
                "{}",
                m.name
            );
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(m.better.label())
            );
            assert_eq!(
                entry.get("bound").and_then(Json::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
        }

        let listed = doc
            .get("per_layer")
            .and_then(Json::as_array)
            .expect("per_layer");
        assert_eq!(listed.len(), PER_LAYER.len());
        for (entry, m) in listed.iter().zip(&PER_LAYER) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(m.name));
            assert_eq!(
                entry.get("unit").and_then(Json::as_str),
                Some(m.unit),
                "{}",
                m.name
            );
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(m.better.label())
            );
        }

        let listed = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads");
        let names: Vec<_> = listed
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
            .collect();
        let specs: Vec<_> = crate::workload::SPECS.iter().map(|s| s.name).collect();
        assert_eq!(names, specs);
    }
}
