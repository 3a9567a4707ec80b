//! Continuous zero-virtual-time profiler over the [`Tracer`] event stream.
//!
//! The trace layer (PR 2) gives a *timeline you read*; this module turns
//! it into an *explanation the system computes*, in four parts:
//!
//! 1. **Folded span profiles** — every begin/end span pair is folded into
//!    a per-`(node, track)` call stack and accumulated as
//!    inclusive/exclusive virtual-time totals, emitted in the classic
//!    collapsed-stack ("flamegraph") format
//!    (`node0;worker3;core:worker_service;core:lock_wait 1234`).
//! 2. **Per-request critical-path decomposition** — each completed
//!    `client_op` has its end-to-end latency attributed to the ordered
//!    [`PathStage`] taxonomy (issue → request wire → worker queue →
//!    lock wait → lock hold → service → response wire → complete), with
//!    an explicit signed *unaccounted* residual so that
//!    `Σ stages + residual == end-to-end` holds **exactly** for every
//!    op (pinned by `tests/attribution.rs` and `tests/profiling.rs`).
//! 3. **Top signatures** — each completed path's *critical-path
//!    signature* (the ordered dominant stages of an op, e.g.
//!    `lock_wait>service`) is counted; the most frequent are part of the
//!    `stats profile` verb's report.
//! 4. **The slowest paths** — the [`SLOWEST_KEPT`] completed paths with
//!    the largest end-to-end latency, each naming its request id, so a
//!    tail op can be found on the trace timeline and read stage by stage
//!    ([`Profiler::slowest`], `profile.slowest.<i>` in `stats profile`).
//!
//! The profiler consumes the stream every run emits: there is no
//! profiler-only marker, so it may attach at any point of a run and a
//! flight-recorder dump of a bare run carries the same correlation
//! markers. Like every other observability surface in this repo, the
//! profiler is pure host-side bookkeeping: a profiled run ends at exactly
//! the same virtual clock as a bare one (pinned by `tests/profiling.rs`).
//! Its counts are the registry's `profile.*` family — the only names
//! attaching it adds.
//!
//! **Correlation id domains.** UCR request ids are client-generated —
//! always `(client node << 32) | n`, so concurrent clients never collide
//! (one client per node, the topology every bench here uses) — and travel
//! in the request header, so server-side events correlate to the issuing
//! `client_op` by id. Sockets servers stamp their own op ids; those events
//! correlate through the single-open-op fallback (exact when one client op
//! is in flight, unattributed — absorbed by the residual — otherwise).

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use crate::fabric::NodeId;
use crate::metrics::{Counter, Gauge, Histogram, Metrics};
use crate::time::{SimDuration, SimTime};
use crate::trace::{Event, EventSink, Layer, Phase, Tracer, Track};

// ---------------------------------------------------------------------
// Critical-path stage taxonomy
// ---------------------------------------------------------------------

/// Number of critical-path stages.
pub const PATH_STAGE_COUNT: usize = 8;

/// Ordered stages of a request's critical path, client issue to client
/// completion — the repo's one stage vocabulary (the §VI-D decomposition).
/// The server side is split by *cause* (queueing vs lock wait vs lock hold
/// vs service) from the cross-layer trace stream, which a client-local
/// view cannot see.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PathStage {
    /// Client-side serialization/post until the request leaves the node.
    Issue,
    /// Request on the wire (and in HCA/kernel queues) until server
    /// dispatch sees it.
    RequestWire,
    /// Waiting in a worker's queue between dispatch and service start.
    WorkerQueue,
    /// Blocked parked on store locks (contended acquisitions only).
    LockWait,
    /// Holding store locks (the serialized portion of service).
    LockHold,
    /// Lock-free service work (parse, hash, store access, encode).
    Service,
    /// Response on the wire until the client's completion handler runs.
    ResponseWire,
    /// Client-side completion handling until the op retires.
    Complete,
}

impl PathStage {
    /// All stages in path order.
    pub const ALL: [PathStage; PATH_STAGE_COUNT] = [
        PathStage::Issue,
        PathStage::RequestWire,
        PathStage::WorkerQueue,
        PathStage::LockWait,
        PathStage::LockHold,
        PathStage::Service,
        PathStage::ResponseWire,
        PathStage::Complete,
    ];

    /// Stable snake_case name.
    pub fn label(self) -> &'static str {
        match self {
            PathStage::Issue => "issue",
            PathStage::RequestWire => "request_wire",
            PathStage::WorkerQueue => "worker_queue",
            PathStage::LockWait => "lock_wait",
            PathStage::LockHold => "lock_hold",
            PathStage::Service => "service",
            PathStage::ResponseWire => "response_wire",
            PathStage::Complete => "complete",
        }
    }

    /// Array index of this stage.
    pub fn index(self) -> usize {
        match self {
            PathStage::Issue => 0,
            PathStage::RequestWire => 1,
            PathStage::WorkerQueue => 2,
            PathStage::LockWait => 3,
            PathStage::LockHold => 4,
            PathStage::Service => 5,
            PathStage::ResponseWire => 6,
            PathStage::Complete => 7,
        }
    }
}

/// One completed request's critical-path decomposition. The invariant
/// `Σ stages + residual == end_to_end` holds exactly (nanosecond
/// arithmetic, signed residual) for every produced value — checked by
/// [`CriticalPath::is_exact`] and audited in bulk by
/// [`Profiler::audit`].
#[derive(Clone, Debug)]
pub struct CriticalPath {
    /// Correlation id (the client request id).
    pub op: u64,
    /// Total client-observed latency.
    pub end_to_end: SimDuration,
    /// Per-stage attribution, indexed by [`PathStage::index`]. Stages
    /// whose markers were missing (e.g. an uncorrelated sockets server
    /// span) are zero; the residual absorbs their time.
    pub stages: [SimDuration; PATH_STAGE_COUNT],
    /// Unaccounted time: `end_to_end - Σ stages`, in signed nanoseconds.
    /// Positive residual is time between markers nothing claims (e.g.
    /// executor hand-off); a negative residual flags double-attribution
    /// (possible only when parallel mget parts overlap lock waits).
    pub residual_ns: i64,
}

impl CriticalPath {
    /// Sum of all stage attributions.
    pub fn stage_sum(&self) -> SimDuration {
        SimDuration::from_nanos(self.stages.iter().map(|d| d.as_nanos()).sum())
    }

    /// The exactness identity: stage sum plus residual equals end-to-end.
    pub fn is_exact(&self) -> bool {
        self.stage_sum().as_nanos() as i64 + self.residual_ns == self.end_to_end.as_nanos() as i64
    }

    /// The stage with the largest attribution (first in path order wins
    /// ties).
    pub fn dominant_stage(&self) -> PathStage {
        let mut best = PathStage::Issue;
        let mut best_ns = 0u64;
        for s in PathStage::ALL {
            let ns = self.stages[s.index()].as_nanos();
            if ns > best_ns {
                best = s;
                best_ns = ns;
            }
        }
        best
    }

    /// The op's critical-path signature: stages contributing at least
    /// `min_share` of end-to-end, ordered by contribution (descending,
    /// path order on ties), joined with `>` — e.g. `lock_wait>service`.
    /// Empty end-to-end yields `"-"`.
    pub fn signature(&self, min_share: f64) -> String {
        let e2e = self.end_to_end.as_nanos();
        if e2e == 0 {
            return "-".to_string();
        }
        let mut parts: Vec<(u64, usize)> = PathStage::ALL
            .iter()
            .map(|s| (self.stages[s.index()].as_nanos(), s.index()))
            .filter(|(ns, _)| *ns as f64 / e2e as f64 >= min_share)
            .collect();
        parts.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        if parts.is_empty() {
            return "-".to_string();
        }
        parts
            .iter()
            .map(|(_, i)| PathStage::ALL[*i].label())
            .collect::<Vec<_>>()
            .join(">")
    }
}

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// Minimum share of end-to-end a stage needs to enter an op's signature.
const SIGNATURE_MIN_SHARE: f64 = 0.10;

/// How many signatures `stats profile` lists.
const TOP_SIGNATURES: usize = 4;

/// How many of the slowest completed paths the profiler keeps.
pub const SLOWEST_KEPT: usize = 8;

/// Profiler tunables.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProfilerConfig {
    /// Keep every completed [`CriticalPath`] (tests and the audit bench
    /// read them back; large runs may prefer aggregates only).
    pub keep_paths: bool,
}

// ---------------------------------------------------------------------
// Internal state
// ---------------------------------------------------------------------

/// An in-flight `client_op` accumulating correlation markers.
struct OpenPath {
    started_at: SimTime,
    sent_at: Option<SimTime>,
    dispatched_at: Option<SimTime>,
    service_first: Option<SimTime>,
    service_last: Option<SimTime>,
    lock_wait: SimDuration,
    lock_hold: SimDuration,
    reply_at: Option<SimTime>,
}

impl OpenPath {
    fn new(at: SimTime) -> OpenPath {
        OpenPath {
            started_at: at,
            sent_at: None,
            dispatched_at: None,
            service_first: None,
            service_last: None,
            lock_wait: SimDuration::ZERO,
            lock_hold: SimDuration::ZERO,
            reply_at: None,
        }
    }
}

/// An open span frame on a fold stack.
struct Frame {
    layer: Layer,
    name: &'static str,
    begin: SimTime,
    /// Virtual time already attributed to closed children (subtracted to
    /// get this frame's exclusive time).
    child_ns: u64,
}

// ---------------------------------------------------------------------
// Profiler
// ---------------------------------------------------------------------

/// One fold lane: spans of one op on one track nest strictly.
type LaneKey = (Option<NodeId>, Track, u64);

/// The continuous profiler. Construct with [`Profiler::attach`]; read
/// back with [`Profiler::folded_lines`], [`Profiler::paths`],
/// [`Profiler::audit`] and [`Profiler::stat_lines`].
pub struct Profiler {
    cfg: ProfilerConfig,
    /// In-flight client ops by correlation id.
    open: RefCell<HashMap<u64, OpenPath>>,
    /// Open lock spans: `(op, name, track) → begin`, so concurrently
    /// parked waiters on different workers never cross-match.
    open_locks: RefCell<HashMap<(u64, &'static str, Track), SimTime>>,
    /// Fold stacks per `(node, track, op)` lane. Spans of one op nest
    /// strictly; pipelined sibling ops on the same track get their own
    /// stack and aggregate into the same folded path.
    stacks: RefCell<HashMap<LaneKey, Vec<Frame>>>,
    /// Folded exclusive totals: stack path → nanoseconds.
    folded: RefCell<BTreeMap<String, u64>>,
    /// Completed paths (kept only when `cfg.keep_paths`).
    paths: RefCell<Vec<CriticalPath>>,
    /// The [`SLOWEST_KEPT`] slowest completed paths, by `end_to_end`
    /// descending; reserved once, so keeping them allocates nothing.
    slowest: RefCell<Vec<CriticalPath>>,
    /// `profile.paths`: completed critical paths.
    completed: Rc<Counter>,
    /// `profile.stage.<stage>_ns`: cumulative per-stage attribution.
    stage_total_ns: [Rc<Counter>; PATH_STAGE_COUNT],
    /// Per-stage distributions (quantiles are not a registry count).
    stage_times: [Histogram; PATH_STAGE_COUNT],
    /// `profile.e2e_ns`: cumulative end-to-end time, the shares' base.
    e2e_total_ns: Rc<Counter>,
    /// `profile.residual_abs_ns`.
    residual_abs_total_ns: Rc<Counter>,
    /// `profile.max_abs_residual_ns`: the largest single-op residual.
    max_abs_residual_ns: Rc<Gauge>,
    /// `profile.inexact_paths`.
    inexact: Rc<Counter>,
    /// `profile.unmatched_events`.
    unmatched_events: Rc<Counter>,
    /// `profile.open_paths`: client ops in flight.
    open_paths: Rc<Gauge>,
    /// `profile.dominant_share`: the dominant stage's share of
    /// end-to-end time.
    dominant_share: Rc<Gauge>,
    /// Cumulative signature counts.
    signatures: RefCell<HashMap<String, u64>>,
}

impl Profiler {
    /// A detached profiler counting in `metrics` (mostly for tests; prefer
    /// [`Profiler::attach`]).
    pub fn new(cfg: ProfilerConfig, metrics: &Metrics) -> Rc<Profiler> {
        Rc::new(Profiler {
            cfg,
            open: RefCell::new(HashMap::new()),
            open_locks: RefCell::new(HashMap::new()),
            stacks: RefCell::new(HashMap::new()),
            folded: RefCell::new(BTreeMap::new()),
            paths: RefCell::new(Vec::new()),
            slowest: RefCell::new(Vec::with_capacity(SLOWEST_KEPT)),
            completed: metrics.counter("profile.paths"),
            stage_total_ns: PathStage::ALL
                .map(|s| metrics.counter(&format!("profile.stage.{}_ns", s.label()))),
            stage_times: Default::default(),
            e2e_total_ns: metrics.counter("profile.e2e_ns"),
            residual_abs_total_ns: metrics.counter("profile.residual_abs_ns"),
            max_abs_residual_ns: metrics.gauge("profile.max_abs_residual_ns"),
            inexact: metrics.counter("profile.inexact_paths"),
            unmatched_events: metrics.counter("profile.unmatched_events"),
            open_paths: metrics.gauge("profile.open_paths"),
            dominant_share: metrics.gauge("profile.dominant_share"),
            signatures: RefCell::new(HashMap::new()),
        })
    }

    /// Builds a profiler counting in `tracer`'s registry, subscribes it to
    /// `tracer` and registers it as the tracer's profiler (so
    /// `stats profile` can find it). May run at any point: ops that begin
    /// after it decompose fully.
    pub fn attach(tracer: &Rc<Tracer>, cfg: ProfilerConfig) -> Rc<Profiler> {
        let p = Profiler::new(cfg, tracer.metrics());
        tracer.add_sink(p.clone());
        tracer.set_profiler(p.clone());
        p
    }

    // -- queries ------------------------------------------------------

    /// Completed critical paths so far.
    pub fn completed(&self) -> u64 {
        self.completed.get()
    }

    /// Client ops currently in flight.
    pub fn open_len(&self) -> usize {
        self.open.borrow().len()
    }

    /// Events that could not be correlated to any in-flight op.
    pub fn unmatched_events(&self) -> u64 {
        self.unmatched_events.get()
    }

    /// Every kept [`CriticalPath`] (empty unless `keep_paths` was set).
    pub fn paths(&self) -> Vec<CriticalPath> {
        self.paths.borrow().clone()
    }

    /// The [`SLOWEST_KEPT`] slowest completed paths so far, sorted by
    /// `end_to_end` descending; of two equally slow ops the earlier one is
    /// kept and listed first.
    pub fn slowest(&self) -> Vec<CriticalPath> {
        self.slowest.borrow().clone()
    }

    /// Cumulative attribution to `stage` across all completed paths.
    pub fn stage_total(&self, stage: PathStage) -> SimDuration {
        SimDuration::from_nanos(self.stage_total_ns[stage.index()].get())
    }

    /// Cumulative end-to-end time across all completed paths.
    pub fn e2e_total(&self) -> SimDuration {
        SimDuration::from_nanos(self.e2e_total_ns.get())
    }

    /// `stage`'s share of cumulative end-to-end time (0 when idle).
    pub fn stage_share(&self, stage: PathStage) -> f64 {
        let e2e = self.e2e_total_ns.get();
        if e2e == 0 {
            return 0.0;
        }
        self.stage_total_ns[stage.index()].get() as f64 / e2e as f64
    }

    /// Cumulative `(p50, p99)` for `stage` across all completed paths.
    pub fn stage_quantiles(&self, stage: PathStage) -> (SimDuration, SimDuration) {
        let times = &self.stage_times[stage.index()];
        (times.percentile(0.50), times.percentile(0.99))
    }

    /// The stage with the largest cumulative attribution.
    pub fn dominant_stage(&self) -> PathStage {
        let total = |s: PathStage| self.stage_total_ns[s.index()].get();
        let mut best = PathStage::Issue;
        for s in PathStage::ALL {
            if total(s) > total(best) {
                best = s;
            }
        }
        best
    }

    /// Cumulative top-`k` `(signature, count)` pairs, most frequent
    /// first (signature order breaks ties, so output is deterministic).
    pub fn top_signatures(&self, k: usize) -> Vec<(String, u64)> {
        let sigs = self.signatures.borrow();
        let mut v: Vec<(String, u64)> = sigs.iter().map(|(s, n)| (s.clone(), *n)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    /// The unaccounted-time audit over every completed path: op count,
    /// ops violating the exactness identity (always 0 by construction —
    /// the audit proves the bookkeeping, not the arithmetic), total and
    /// maximum absolute residual, and the residual's share of total
    /// end-to-end time.
    pub fn audit(&self) -> AuditReport {
        let e2e = self.e2e_total_ns.get();
        AuditReport {
            ops: self.completed.get(),
            inexact_ops: self.inexact.get(),
            residual_abs_total: SimDuration::from_nanos(self.residual_abs_total_ns.get()),
            max_abs_residual: SimDuration::from_nanos(self.max_abs_residual_ns.get() as u64),
            residual_share: if e2e == 0 {
                0.0
            } else {
                self.residual_abs_total_ns.get() as f64 / e2e as f64
            },
        }
    }

    /// Folded collapsed-stack lines `(path, exclusive_ns)`, sorted by
    /// path — the flamegraph input format.
    pub fn folded_lines(&self) -> Vec<(String, u64)> {
        self.folded
            .borrow()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// The `stats profile` report: audit totals, per-stage cumulative
    /// share/p50/p99, the current top signatures and the slowest paths.
    pub fn stat_lines(&self) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = Vec::new();
        let a = self.audit();
        out.push(("profile.ops".into(), a.ops.to_string()));
        out.push(("profile.open".into(), self.open_len().to_string()));
        out.push(("profile.inexact_ops".into(), a.inexact_ops.to_string()));
        out.push((
            "profile.residual_abs_us".into(),
            format!("{:.3}", a.residual_abs_total.as_micros_f64()),
        ));
        out.push((
            "profile.residual_share".into(),
            format!("{:.4}", a.residual_share),
        ));
        out.push((
            "profile.unmatched_events".into(),
            self.unmatched_events.get().to_string(),
        ));
        out.push((
            "profile.e2e_total_us".into(),
            format!("{:.3}", self.e2e_total().as_micros_f64()),
        ));
        for s in PathStage::ALL {
            let (p50, p99) = self.stage_quantiles(s);
            out.push((
                format!("profile.stage.{}", s.label()),
                format!(
                    "share={:.4} total_us={:.3} p50_us={:.3} p99_us={:.3}",
                    self.stage_share(s),
                    self.stage_total(s).as_micros_f64(),
                    p50.as_micros_f64(),
                    p99.as_micros_f64()
                ),
            ));
        }
        for (i, (sig, n)) in self.top_signatures(TOP_SIGNATURES).into_iter().enumerate() {
            out.push((format!("profile.signature.{i}"), format!("{n}x {sig}")));
        }
        for (i, cp) in self.slowest.borrow().iter().enumerate() {
            out.push((
                format!("profile.slowest.{i}"),
                format!(
                    "op={} e2e_us={:.3} dominant={} signature={}",
                    cp.op,
                    cp.end_to_end.as_micros_f64(),
                    cp.dominant_stage().label(),
                    cp.signature(SIGNATURE_MIN_SHARE)
                ),
            ));
        }
        out.push((
            "profile.folded_paths".into(),
            self.folded.borrow().len().to_string(),
        ));
        out
    }

    // -- event handling -----------------------------------------------

    fn handle(&self, ev: &Event) {
        match ev.phase {
            Phase::Begin => self.fold_begin(ev),
            Phase::End => self.fold_end(ev),
            Phase::Instant => {}
        }
        if ev.layer != Layer::Core {
            return;
        }
        match (ev.name, ev.phase) {
            ("client_op", Phase::Begin) => {
                self.open.borrow_mut().insert(ev.op, OpenPath::new(ev.at));
                self.publish_open_gauge();
            }
            ("client_op", Phase::End) => self.finish(ev.op, ev.at),
            ("client_sent", Phase::Instant) => self.with_path(ev.op, |p| {
                p.sent_at.get_or_insert(ev.at);
            }),
            ("client_reply", Phase::Instant) => self.with_path(ev.op, |p| {
                p.reply_at.get_or_insert(ev.at);
            }),
            ("dispatch", Phase::Instant) => self.with_path(ev.op, |p| {
                p.dispatched_at.get_or_insert(ev.at);
            }),
            ("worker_service", Phase::Begin) => self.with_path(ev.op, |p| {
                if p.service_first.is_none_or(|t| ev.at < t) {
                    p.service_first = Some(ev.at);
                }
            }),
            ("worker_service", Phase::End) => self.with_path(ev.op, |p| {
                if p.service_last.is_none_or(|t| ev.at > t) {
                    p.service_last = Some(ev.at);
                }
            }),
            ("lock_wait", Phase::Begin) | ("lock_hold", Phase::Begin) => {
                self.open_locks
                    .borrow_mut()
                    .insert((ev.op, ev.name, ev.track), ev.at);
            }
            ("lock_wait", Phase::End) | ("lock_hold", Phase::End) => {
                let begun = self
                    .open_locks
                    .borrow_mut()
                    .remove(&(ev.op, ev.name, ev.track));
                if let Some(t0) = begun {
                    let d = ev.at.saturating_since(t0);
                    let wait = ev.name == "lock_wait";
                    self.with_path(ev.op, |p| {
                        if wait {
                            p.lock_wait += d;
                        } else {
                            p.lock_hold += d;
                        }
                    });
                }
            }
            _ => {}
        }
    }

    /// Resolves an event's op to an in-flight path: direct id match
    /// first (UCR: request ids are end-to-end), then the single-open-op
    /// fallback (sockets: the server's op domain differs; exact when one
    /// op is in flight). Unresolvable events count as unmatched and
    /// their time lands in the residual.
    fn with_path(&self, op: u64, f: impl FnOnce(&mut OpenPath)) {
        let mut open = self.open.borrow_mut();
        if let Some(p) = open.get_mut(&op) {
            f(p);
            return;
        }
        if open.len() == 1 {
            f(open.values_mut().next().expect("len checked"));
            return;
        }
        self.unmatched_events.inc();
    }

    fn finish(&self, op: u64, at: SimTime) {
        let Some(p) = self.open.borrow_mut().remove(&op) else {
            self.unmatched_events.inc();
            return;
        };
        self.publish_open_gauge();
        let e2e = at.saturating_since(p.started_at);
        let mut stages = [SimDuration::ZERO; PATH_STAGE_COUNT];
        stages[PathStage::Issue.index()] = span(Some(p.started_at), p.sent_at);
        stages[PathStage::RequestWire.index()] = span(p.sent_at, p.dispatched_at);
        stages[PathStage::WorkerQueue.index()] = span(p.dispatched_at, p.service_first);
        stages[PathStage::LockWait.index()] = p.lock_wait;
        stages[PathStage::LockHold.index()] = p.lock_hold;
        stages[PathStage::Service.index()] =
            span(p.service_first, p.service_last).saturating_sub(p.lock_wait + p.lock_hold);
        stages[PathStage::ResponseWire.index()] = span(p.service_last, p.reply_at);
        stages[PathStage::Complete.index()] = span(p.reply_at, Some(at));
        let sum_ns: u64 = stages.iter().map(|d| d.as_nanos()).sum();
        let residual_ns = e2e.as_nanos() as i64 - sum_ns as i64;
        let path = CriticalPath {
            op,
            end_to_end: e2e,
            stages,
            residual_ns,
        };
        self.record(path);
    }

    fn record(&self, path: CriticalPath) {
        self.completed.inc();
        if !path.is_exact() {
            self.inexact.inc();
        }
        for s in PathStage::ALL {
            self.stage_total_ns[s.index()].add(path.stages[s.index()].as_nanos());
            self.stage_times[s.index()].record(path.stages[s.index()]);
        }
        self.e2e_total_ns.add(path.end_to_end.as_nanos());
        let abs_res = path.residual_ns.unsigned_abs();
        self.residual_abs_total_ns.add(abs_res);
        if abs_res as f64 > self.max_abs_residual_ns.get() {
            self.max_abs_residual_ns.set(abs_res as f64);
        }
        self.dominant_share
            .set(self.stage_share(self.dominant_stage()));
        let sig = path.signature(SIGNATURE_MIN_SHARE);
        *self.signatures.borrow_mut().entry(sig).or_insert(0) += 1;

        self.keep_if_slow(&path);
        if self.cfg.keep_paths {
            self.paths.borrow_mut().push(path);
        }
    }

    /// Files `path` among the slowest if it beats the fastest kept one:
    /// after every equally slow path already held, so the earlier op wins
    /// a tie. Never grows the vector past its reserved capacity.
    fn keep_if_slow(&self, path: &CriticalPath) {
        let mut slowest = self.slowest.borrow_mut();
        let at = slowest.partition_point(|kept| kept.end_to_end >= path.end_to_end);
        if at == SLOWEST_KEPT {
            return;
        }
        if slowest.len() == SLOWEST_KEPT {
            slowest.pop();
        }
        slowest.insert(at, path.clone());
    }

    fn publish_open_gauge(&self) {
        self.open_paths.set(self.open.borrow().len() as f64);
    }

    // -- folding ------------------------------------------------------

    fn fold_begin(&self, ev: &Event) {
        self.stacks
            .borrow_mut()
            .entry((ev.node, ev.track, ev.op))
            .or_default()
            .push(Frame {
                layer: ev.layer,
                name: ev.name,
                begin: ev.at,
                child_ns: 0,
            });
    }

    fn fold_end(&self, ev: &Event) {
        let key = (ev.node, ev.track, ev.op);
        let mut stacks = self.stacks.borrow_mut();
        let Some(stack) = stacks.get_mut(&key) else {
            return;
        };
        let Some(pos) = stack
            .iter()
            .rposition(|f| f.layer == ev.layer && f.name == ev.name)
        else {
            return;
        };
        // Frames above the match are spans whose end outlives their
        // parent (a lock guard dropped after `worker_service` closes):
        // close them implicitly at this timestamp so their time folds,
        // then pop the matched frame. Their real End event later finds
        // no frame and is ignored.
        while stack.len() > pos {
            let f = stack.pop().expect("pos < len");
            let inclusive = ev.at.saturating_since(f.begin).as_nanos();
            let exclusive = inclusive.saturating_sub(f.child_ns);
            let mut path = match key.0 {
                Some(n) => format!("node{}", n.0),
                None => "global".to_string(),
            };
            path.push(';');
            path.push_str(&key.1.lane_label());
            for anc in stack.iter() {
                path.push(';');
                path.push_str(anc.layer.label());
                path.push(':');
                path.push_str(anc.name);
            }
            path.push(';');
            path.push_str(f.layer.label());
            path.push(':');
            path.push_str(f.name);
            *self.folded.borrow_mut().entry(path).or_insert(0) += exclusive;
            if let Some(parent) = stack.last_mut() {
                parent.child_ns += inclusive;
            }
        }
        if stack.is_empty() {
            stacks.remove(&key);
        }
    }
}

impl EventSink for Profiler {
    fn on_event(&self, ev: &Event) {
        self.handle(ev);
    }
}

/// Bulk result of [`Profiler::audit`].
#[derive(Clone, Copy, Debug)]
pub struct AuditReport {
    /// Completed paths audited.
    pub ops: u64,
    /// Paths violating `Σ stages + residual == end-to-end` (always 0).
    pub inexact_ops: u64,
    /// Sum of absolute residuals.
    pub residual_abs_total: SimDuration,
    /// Largest single-op absolute residual.
    pub max_abs_residual: SimDuration,
    /// `residual_abs_total / Σ end-to-end`.
    pub residual_share: f64,
}

fn span(from: Option<SimTime>, to: Option<SimTime>) -> SimDuration {
    match (from, to) {
        (Some(a), Some(b)) => b.saturating_since(a),
        _ => SimDuration::ZERO,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, phase: Phase, node: u32, track: Track, op: u64, at_ns: u64) -> Event {
        Event {
            layer: Layer::Core,
            name,
            phase,
            node: Some(NodeId(node)),
            track,
            op,
            bytes: 0,
            at: SimTime::from_nanos(at_ns),
        }
    }

    /// A detached profiler that keeps every completed path.
    fn keeping_paths() -> Rc<Profiler> {
        let cfg = ProfilerConfig { keep_paths: true };
        Profiler::new(cfg, &Metrics::new())
    }

    /// Drives one fully-marked op through the profiler and checks every
    /// stage plus the exactness identity.
    #[test]
    fn full_critical_path_decomposes_exactly() {
        let p = keeping_paths();
        let w = Track::Worker(0);
        p.handle(&ev("client_op", Phase::Begin, 1, Track::Main, 7, 100));
        p.handle(&ev("client_sent", Phase::Instant, 1, Track::Main, 7, 130));
        p.handle(&ev("dispatch", Phase::Instant, 0, Track::Main, 7, 200));
        p.handle(&ev("worker_service", Phase::Begin, 0, w, 7, 250));
        p.handle(&ev("lock_wait", Phase::Begin, 0, w, 7, 260));
        p.handle(&ev("lock_wait", Phase::End, 0, w, 7, 300));
        p.handle(&ev("lock_hold", Phase::Begin, 0, w, 7, 300));
        p.handle(&ev("lock_hold", Phase::End, 0, w, 7, 380));
        p.handle(&ev("worker_service", Phase::End, 0, w, 7, 400));
        p.handle(&ev("client_reply", Phase::Instant, 1, Track::Main, 7, 470));
        p.handle(&ev("client_op", Phase::End, 1, Track::Main, 7, 500));
        let paths = p.paths();
        assert_eq!(paths.len(), 1);
        let cp = &paths[0];
        let ns = |s: PathStage| cp.stages[s.index()].as_nanos();
        assert_eq!(ns(PathStage::Issue), 30);
        assert_eq!(ns(PathStage::RequestWire), 70);
        assert_eq!(ns(PathStage::WorkerQueue), 50);
        assert_eq!(ns(PathStage::LockWait), 40);
        assert_eq!(ns(PathStage::LockHold), 80);
        assert_eq!(ns(PathStage::Service), 30); // 150 span - 120 locked
        assert_eq!(ns(PathStage::ResponseWire), 70);
        assert_eq!(ns(PathStage::Complete), 30);
        assert_eq!(cp.end_to_end.as_nanos(), 400);
        assert_eq!(cp.residual_ns, 0); // every nanosecond is claimed
        assert!(cp.is_exact());
        assert_eq!(cp.dominant_stage(), PathStage::LockHold);
        let audit = p.audit();
        assert_eq!(audit.ops, 1);
        assert_eq!(audit.inexact_ops, 0);
    }

    /// Server events whose op id lives in another domain still attach
    /// when exactly one op is open (the sockets correlation rule).
    #[test]
    fn single_open_op_fallback_correlates_foreign_ids() {
        let p = keeping_paths();
        p.handle(&ev("client_op", Phase::Begin, 1, Track::Main, 77, 0));
        p.handle(&ev("dispatch", Phase::Instant, 0, Track::Main, 3, 40));
        p.handle(&ev(
            "worker_service",
            Phase::Begin,
            0,
            Track::Worker(0),
            3,
            60,
        ));
        p.handle(&ev(
            "worker_service",
            Phase::End,
            0,
            Track::Worker(0),
            3,
            90,
        ));
        p.handle(&ev("client_op", Phase::End, 1, Track::Main, 77, 120));
        let cp = &p.paths()[0];
        assert_eq!(cp.stages[PathStage::WorkerQueue.index()].as_nanos(), 20);
        assert_eq!(cp.stages[PathStage::Service.index()].as_nanos(), 30);
        assert!(cp.is_exact());
        assert_eq!(p.unmatched_events(), 0);
    }

    /// With several ops open, foreign-id events are unmatched and their
    /// time lands in the residual — never misattributed.
    #[test]
    fn ambiguous_foreign_ids_count_as_unmatched() {
        let p = keeping_paths();
        p.handle(&ev("client_op", Phase::Begin, 1, Track::Main, 10, 0));
        p.handle(&ev("client_op", Phase::Begin, 2, Track::Main, 20, 5));
        p.handle(&ev("dispatch", Phase::Instant, 0, Track::Main, 3, 40));
        p.handle(&ev("client_op", Phase::End, 1, Track::Main, 10, 100));
        p.handle(&ev("client_op", Phase::End, 2, Track::Main, 20, 110));
        assert_eq!(p.unmatched_events(), 1);
        for cp in p.paths() {
            assert!(cp.is_exact());
            assert_eq!(cp.residual_ns, cp.end_to_end.as_nanos() as i64);
        }
    }

    /// Both ways an event can fail to correlate — a `client_op` end with
    /// no open path, a server event whose id matches neither of two open
    /// paths — land in the one `profile.unmatched_events` counter that
    /// `stats profile` and the exposition both read.
    #[test]
    fn unmatched_events_have_one_book() {
        let metrics = Metrics::new();
        let p = Profiler::new(ProfilerConfig::default(), &metrics);
        p.handle(&ev("client_op", Phase::End, 1, Track::Main, 5, 10));
        p.handle(&ev("client_op", Phase::Begin, 1, Track::Main, 10, 20));
        p.handle(&ev("client_op", Phase::Begin, 2, Track::Main, 20, 25));
        let w = Track::Worker(0);
        p.handle(&ev("worker_service", Phase::Begin, 0, w, 3, 40));
        assert_eq!(p.unmatched_events(), 2);
        assert_eq!(metrics.counter_value("profile.unmatched_events"), 2);
    }

    /// Folding: nested spans accumulate exclusive time; a child whose
    /// end outlives its parent is implicitly closed at the parent's end.
    #[test]
    fn folded_profile_accumulates_exclusive_time() {
        let p = Profiler::new(ProfilerConfig::default(), &Metrics::new());
        let w = Track::Worker(2);
        p.handle(&ev("worker_service", Phase::Begin, 0, w, 5, 100));
        p.handle(&ev("lock_hold", Phase::Begin, 0, w, 5, 120));
        p.handle(&ev("worker_service", Phase::End, 0, w, 5, 200));
        // The hold guard drops after the service span closed.
        p.handle(&ev("lock_hold", Phase::End, 0, w, 5, 200));
        let folded: std::collections::HashMap<String, u64> = p.folded_lines().into_iter().collect();
        assert_eq!(
            folded["node0;worker2;core:worker_service;core:lock_hold"],
            80
        );
        assert_eq!(folded["node0;worker2;core:worker_service"], 20);
    }

    #[test]
    fn signatures_rank_dominant_stages() {
        let cp = CriticalPath {
            op: 1,
            end_to_end: SimDuration::from_nanos(1000),
            stages: {
                let mut s = [SimDuration::ZERO; PATH_STAGE_COUNT];
                s[PathStage::LockWait.index()] = SimDuration::from_nanos(600);
                s[PathStage::Service.index()] = SimDuration::from_nanos(300);
                s[PathStage::Issue.index()] = SimDuration::from_nanos(50);
                s
            },
            residual_ns: 50,
        };
        assert_eq!(cp.signature(0.10), "lock_wait>service");
        assert!(cp.is_exact());
    }

    /// The slowest paths are the `SLOWEST_KEPT` largest end-to-end
    /// latencies, sorted descending, earlier op first on a tie, held in
    /// the vector reserved at construction.
    #[test]
    fn slowest_keeps_the_largest_in_its_reserved_vector() {
        let p = Profiler::new(ProfilerConfig::default(), &Metrics::new());
        let capacity = p.slowest.borrow().capacity();
        // e2e (ns) of op i: a scrambled order with a tie between ops 2 and 9.
        let e2e = [40u64, 7, 90, 15, 66, 3, 81, 22, 58, 90, 11];
        assert_eq!(e2e.len(), SLOWEST_KEPT + 3);
        for (op, ns) in e2e.iter().enumerate() {
            let mut stages = [SimDuration::ZERO; PATH_STAGE_COUNT];
            stages[PathStage::Service.index()] = SimDuration::from_nanos(*ns);
            p.record(CriticalPath {
                op: op as u64,
                end_to_end: SimDuration::from_nanos(*ns),
                stages,
                residual_ns: 0,
            });
            assert_eq!(p.slowest.borrow().capacity(), capacity, "grew at op {op}");
        }
        let kept: Vec<(u64, u64)> = p
            .slowest()
            .iter()
            .map(|cp| (cp.op, cp.end_to_end.as_nanos()))
            .collect();
        let want = [
            (2, 90),
            (9, 90),
            (6, 81),
            (4, 66),
            (8, 58),
            (0, 40),
            (7, 22),
            (3, 15),
        ];
        assert_eq!(kept, want);
        let lines = p.stat_lines();
        let top = lines.iter().find(|(k, _)| k == "profile.slowest.0");
        assert_eq!(
            top.map(|(_, v)| v.as_str()),
            Some("op=2 e2e_us=0.090 dominant=service signature=service")
        );
    }
}
