//! The server-side workload observatory: what is the traffic doing, and
//! which ops are hurting.
//!
//! End-of-run aggregates say *how much*; the health monitor says *when*
//! it went wrong. This module answers the remaining questions the
//! ROADMAP's sharding and self-tuning work need as input:
//!
//! * **Which keys** — every keyed request feeds a space-bounded
//!   count-min sketch plus a space-saving top-K tracker
//!   ([`simnet::sketch`]), giving per-node hot-key tables with estimated
//!   counts and hard error bounds, hash-slot (future-shard) load
//!   imbalance, and read/write mix per slab class.
//! * **Which requests** — the executor records worker service times in
//!   per-verb registry histograms; a completion above the configured
//!   quantile of its verb's histogram is captured as an
//!   [`Exemplar`](simnet::Exemplar) whose
//!   `span_id` is the request id, so the tail sample links directly to
//!   its cross-layer trace spans.
//! * **Which objectives** — per-op [`SloTracker`]s judge every service
//!   completion against declared latency targets; rolling compliance and
//!   error-budget burn feed the sampler and the health monitor's
//!   budget-burn rule.
//!
//! Everything here is host-side accounting on the simulation's real
//! execution path: feeding the observatory costs **zero virtual time**,
//! so an instrumented run is clock-identical to a bare one. The
//! observatory is opt-in ([`McServerConfig::observatory`]
//! (crate::McServerConfig)); a server without one registers no `wl.*`
//! metrics and renders byte-identical stats.
//!
//! Socket-family requests contribute key telemetry; service-time
//! exemplars and SLO compliance are tracked on the UCR (RDMA) path,
//! where the paper's evaluation — and our per-op service histograms —
//! live.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use mcstore::ClassId;
use simnet::metrics::{Histogram, Metrics};
use simnet::sketch::{hash_key, SketchConfig, WorkloadSketch};
use simnet::{ExemplarConfig, ExemplarRing, SimDuration, SimTime, SloSpec, SloTracker};

use crate::am_wire::McOp;

/// One declared per-op objective (becomes a [`SloTracker`] named
/// `slo.node<N>.<op>`).
#[derive(Clone, Debug)]
pub struct SloObjective {
    /// [`McOp::label`](crate::McOp::label) of the op this objective
    /// covers (`"get"`, `"set"`, …).
    pub op: &'static str,
    /// Worker service-time target: an op is good at or under this.
    pub latency_target: SimDuration,
    /// Required good fraction (e.g. `0.999`).
    pub objective: f64,
    /// Rolling virtual-time window compliance is judged over.
    pub window: SimDuration,
}

/// Workload-observatory configuration.
#[derive(Clone, Debug, Default)]
pub struct ObservatoryConfig {
    /// Count-min / top-K / hash-slot sizing.
    pub sketch: SketchConfig,
    /// Exemplar ring capacity and capture quantile.
    pub exemplars: ExemplarConfig,
    /// Per-op service-level objectives (empty = no SLO tracking).
    pub slos: Vec<SloObjective>,
}

/// Cached registry-counter handles for one slab class's read/write mix.
struct ClassMix {
    reads: Rc<simnet::metrics::Counter>,
    writes: Rc<simnet::metrics::Counter>,
}

/// Per-server workload telemetry: key sketch, service exemplars, SLO
/// trackers, and the registry gauges/counters that expose them.
pub struct WorkloadObservatory {
    node_ord: u32,
    metrics: Rc<Metrics>,
    sketch: RefCell<WorkloadSketch>,
    ring: Rc<ExemplarRing>,
    slos: Vec<(&'static str, Rc<SloTracker>)>,
    class_mix: RefCell<HashMap<u8, ClassMix>>,
    imbalance_gauge: Rc<simnet::metrics::Gauge>,
    coverage_gauge: Rc<simnet::metrics::Gauge>,
    active_gauge: Rc<simnet::metrics::Gauge>,
}

/// The per-verb worker service-time histograms (`mc.nodeN.svc.<verb>`) of
/// the server on node ordinal `node_ord`, in [`McOp::ALL`] order. Every
/// server has them — the executor records into them and `stats` reports
/// them; an observatory's exemplars name them.
pub(crate) fn service_histograms(
    metrics: &Metrics,
    node_ord: u32,
) -> [Rc<Histogram>; McOp::ALL.len()] {
    McOp::ALL.map(|op| metrics.histogram(&format!("mc.node{node_ord}.svc.{}", op.label())))
}

impl WorkloadObservatory {
    /// Builds the observatory for the server on node ordinal `node_ord`,
    /// registering its gauges in `metrics`.
    pub fn new(
        cfg: &ObservatoryConfig,
        node_ord: u32,
        metrics: &Rc<Metrics>,
    ) -> Rc<WorkloadObservatory> {
        let slos = cfg
            .slos
            .iter()
            .map(|o| {
                (
                    o.op,
                    SloTracker::new(SloSpec {
                        name: format!("slo.node{node_ord}.{}", o.op),
                        latency_target: o.latency_target,
                        objective: o.objective,
                        window: o.window,
                    }),
                )
            })
            .collect();
        Rc::new(WorkloadObservatory {
            node_ord,
            metrics: metrics.clone(),
            sketch: RefCell::new(WorkloadSketch::new(cfg.sketch)),
            ring: ExemplarRing::new(cfg.exemplars),
            slos,
            class_mix: RefCell::new(HashMap::new()),
            imbalance_gauge: metrics.gauge(&format!("mc.node{node_ord}.wl.slot_imbalance")),
            coverage_gauge: metrics.gauge(&format!("mc.node{node_ord}.wl.hot_coverage")),
            active_gauge: metrics.gauge(&format!("mc.node{node_ord}.wl.slots_active")),
        })
    }

    /// The tail-exemplar ring (shareable with a health monitor so
    /// Degraded episodes freeze its contents).
    pub fn ring(&self) -> Rc<ExemplarRing> {
        self.ring.clone()
    }

    /// The SLO tracker for `op`, if one was declared.
    pub fn slo(&self, op: &str) -> Option<Rc<SloTracker>> {
        self.slos
            .iter()
            .find(|(label, _)| *label == op)
            .map(|(_, t)| t.clone())
    }

    /// All declared SLO trackers (bind them into a
    /// [`MonitorBinding`](simnet::MonitorBinding)).
    pub fn slo_trackers(&self) -> Vec<Rc<SloTracker>> {
        self.slos.iter().map(|(_, t)| t.clone()).collect()
    }

    /// Feeds one keyed request into the sketch and the per-class
    /// read/write mix. `class` is where the item lands in slab memory
    /// (unknown for misses).
    pub fn observe_key(&self, key: &[u8], is_write: bool, class: Option<ClassId>) {
        self.sketch.borrow_mut().observe(key, is_write);
        if let Some(c) = class {
            let mut mix = self.class_mix.borrow_mut();
            let m = mix.entry(c.0).or_insert_with(|| {
                let node = self.node_ord;
                ClassMix {
                    reads: self
                        .metrics
                        .counter(&format!("mc.node{node}.wl.class{}.reads", c.0)),
                    writes: self
                        .metrics
                        .counter(&format!("mc.node{node}.wl.class{}.writes", c.0)),
                }
            });
            if is_write {
                m.writes.inc();
            } else {
                m.reads.inc();
            }
        }
    }

    /// Feeds one completed service whose time the executor has just
    /// recorded into `hist`, its verb's histogram of
    /// [`service_histograms`]: judges the declared SLO and offers the
    /// completion to the exemplar gate (span id = request id). `moved` is
    /// the key and the bytes moved for it.
    pub fn observe_service(
        &self,
        op: &'static str,
        hist: &Histogram,
        moved: (&[u8], u64),
        service: SimDuration,
        req_id: u64,
        at: SimTime,
    ) {
        if let Some(slo) = self.slo(op) {
            slo.record(service, at);
        }
        let (key, bytes) = moved;
        let name = format_args!("mc.node{}.svc.{op}", self.node_ord);
        self.ring
            .offer(hist, name, op, hash_key(key), bytes, service, req_id, at);
    }

    /// Publishes the sketch-derived gauges (called before a metrics
    /// export alongside the other observability gauges).
    pub fn refresh_gauges(&self) {
        let sketch = self.sketch.borrow();
        self.imbalance_gauge.set(sketch.slot_imbalance());
        self.coverage_gauge.set(sketch.hot_coverage());
        self.active_gauge.set(sketch.slots_active() as f64);
    }

    /// The `stats hot` sub-report: sketch totals, slot balance, and the
    /// top-K hot-key table with estimated counts, error bounds, and
    /// estimated rates over the run so far.
    pub fn hot_stat_lines(&self, now: SimTime) -> Vec<(String, String)> {
        let sketch = self.sketch.borrow();
        let secs = now.as_secs_f64();
        let mut lines = vec![
            ("wl.total".to_string(), sketch.total().to_string()),
            ("wl.reads".to_string(), sketch.reads().to_string()),
            ("wl.writes".to_string(), sketch.writes().to_string()),
            ("wl.err_bound".to_string(), sketch.error_bound().to_string()),
            (
                "wl.slot_imbalance".to_string(),
                format!("{:.3}", sketch.slot_imbalance()),
            ),
            (
                "wl.slots_active".to_string(),
                sketch.slots_active().to_string(),
            ),
            (
                "wl.hot_coverage".to_string(),
                format!("{:.3}", sketch.hot_coverage()),
            ),
        ];
        for (rank, h) in sketch.hot().iter().enumerate() {
            let key = String::from_utf8_lossy(&h.key).into_owned();
            lines.push((format!("hot.{rank}.key"), key));
            lines.push((format!("hot.{rank}.est"), h.count.to_string()));
            lines.push((format!("hot.{rank}.err"), h.err.to_string()));
            lines.push((format!("hot.{rank}.reads"), h.reads.to_string()));
            lines.push((format!("hot.{rank}.writes"), h.writes.to_string()));
            let rate = if secs > 0.0 {
                h.count as f64 / secs
            } else {
                0.0
            };
            lines.push((format!("hot.{rank}.rate_per_sec"), format!("{rate:.1}")));
        }
        lines
    }

    /// The `stats slo` sub-report: per-objective spec, lifetime good/bad
    /// counts, and rolling compliance/burn at `now`.
    pub fn slo_stat_lines(&self, now: SimTime) -> Vec<(String, String)> {
        let mut lines = Vec::new();
        for (op, t) in &self.slos {
            let spec = t.spec();
            let put = |lines: &mut Vec<(String, String)>, k: &str, v: String| {
                lines.push((format!("slo.{op}.{k}"), v));
            };
            put(
                &mut lines,
                "target_us",
                format!("{:.3}", spec.latency_target.as_micros_f64()),
            );
            put(&mut lines, "objective", format!("{}", spec.objective));
            put(
                &mut lines,
                "window_us",
                format!("{:.3}", spec.window.as_micros_f64()),
            );
            put(&mut lines, "good", t.good().to_string());
            put(&mut lines, "bad", t.bad().to_string());
            put(
                &mut lines,
                "compliance",
                format!("{:.6}", t.compliance(now)),
            );
            put(&mut lines, "burn", format!("{:.3}", t.burn_rate(now)));
        }
        lines
    }

    /// The `stats exemplars` sub-report: gate counters plus one line per
    /// held record.
    pub fn exemplar_stat_lines(&self) -> Vec<(String, String)> {
        let mut lines = vec![
            ("exemplars.seen".to_string(), self.ring.seen().to_string()),
            (
                "exemplars.captured".to_string(),
                self.ring.captured().to_string(),
            ),
            (
                "exemplars.dropped".to_string(),
                self.ring.dropped().to_string(),
            ),
            ("exemplars.len".to_string(), self.ring.len().to_string()),
        ];
        for (i, e) in self.ring.snapshot().iter().enumerate() {
            lines.push((
                format!("exemplar.{i}"),
                format!(
                    "op={} hist={} span={} key=0x{:016x} bytes={} latency_us={:.3} \
                     threshold_us={:.3} at_us={:.3}",
                    e.op,
                    e.hist,
                    e.span_id,
                    e.key_hash,
                    e.bytes,
                    e.latency.as_micros_f64(),
                    e.threshold.as_micros_f64(),
                    e.at.as_micros_f64(),
                ),
            ));
        }
        lines
    }

    /// `stats reset` semantics: clears the sketch, the exemplar ring,
    /// and every SLO window/total. Gauges (and their watermarks) are
    /// levels and survive, mirroring the registry-wide reset rules.
    pub fn reset(&self) {
        self.sketch.borrow_mut().reset();
        self.ring.reset();
        for (_, t) in &self.slos {
            t.reset();
        }
    }
}
