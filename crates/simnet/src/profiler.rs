//! Continuous zero-virtual-time profiler over the [`Tracer`] event stream.
//!
//! The trace layer gives a *timeline you read*; this module turns
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
use std::fmt::Write as _;
use std::rc::Rc;

use crate::fabric::NodeId;
use crate::free_list::FreeList;
use crate::metrics::{Counter, Histogram, Metrics};
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

    /// Array index of this stage: its place in path order.
    pub fn index(self) -> usize {
        self as usize
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
    /// The exactness identity: stage sum plus residual equals end-to-end.
    pub fn is_exact(&self) -> bool {
        let sum: u64 = self.stages.iter().map(|d| d.as_nanos()).sum();
        sum as i64 + self.residual_ns == self.end_to_end.as_nanos() as i64
    }

    /// The stage with the largest attribution (first in path order wins
    /// ties).
    pub fn dominant_stage(&self) -> PathStage {
        largest(|s| self.stages[s.index()].as_nanos())
    }

    /// The op's critical-path signature: stages contributing at least
    /// `min_share` of end-to-end, ordered by contribution (descending,
    /// path order on ties), joined with `>` — e.g. `lock_wait>service`.
    /// Empty end-to-end yields `"-"`.
    pub fn signature(&self, min_share: f64) -> String {
        let mut out = String::new();
        self.write_signature(min_share, &mut out);
        out
    }

    /// Appends [`CriticalPath::signature`] to `out`, allocating nothing
    /// when `out` has room.
    fn write_signature(&self, min_share: f64, out: &mut String) {
        let e2e = self.end_to_end.as_nanos();
        let mut parts = [(0u64, 0usize); PATH_STAGE_COUNT];
        let mut n = 0;
        for s in PathStage::ALL {
            let ns = self.stages[s.index()].as_nanos();
            if e2e > 0 && ns as f64 / e2e as f64 >= min_share {
                parts[n] = (ns, s.index());
                n += 1;
            }
        }
        let parts = &mut parts[..n];
        parts.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        if parts.is_empty() {
            out.push('-');
        }
        for (i, (_, stage)) in parts.iter().enumerate() {
            if i > 0 {
                out.push('>');
            }
            out.push_str(PathStage::ALL[*stage].label());
        }
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

/// Emptied fold stacks kept for the next lane to open.
const IDLE_LANE_STACKS: usize = 64;

/// Profiler tunables: none are left. [`Profiler::attach`] still takes
/// one, so callers that name it keep building.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProfilerConfig {}

// ---------------------------------------------------------------------
// Internal state
// ---------------------------------------------------------------------

/// An in-flight `client_op` accumulating correlation markers.
#[derive(Default)]
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
/// back with [`Profiler::folded_lines`], [`Profiler::slowest`],
/// [`Profiler::audit`] and [`Profiler::stat_lines`].
///
/// Each fact has one book. The registry's `profile.*` instruments hold
/// what `stats reset` restarts: completed ops, per-stage times (a
/// histogram per stage: its sum is the stage's total, its quantiles the
/// stage's p50/p99), end-to-end and residual totals. Folded stacks,
/// signatures and the slowest paths count from attach on. A folded path
/// or a signature is written into one reused buffer and looked up by
/// `&str`; a `String` key is made only the first time one is seen.
pub struct Profiler {
    /// In-flight client ops by correlation id.
    open: RefCell<HashMap<u64, OpenPath>>,
    /// Fold stacks per `(node, track, op)` lane. Spans of one op nest
    /// strictly; pipelined sibling ops on the same track get their own
    /// stack and aggregate into the same folded path. A lock span's
    /// inclusive time is charged to its op when its frame pops.
    stacks: RefCell<HashMap<LaneKey, Vec<Frame>>>,
    /// The stacks of closed lanes, emptied, for lanes yet to open.
    idle_stacks: FreeList<Vec<Frame>>,
    /// Folded exclusive totals: stack path → nanoseconds.
    folded: RefCell<BTreeMap<String, u64>>,
    /// The [`SLOWEST_KEPT`] slowest completed paths, by `end_to_end`
    /// descending; reserved once, so keeping them allocates nothing.
    slowest: RefCell<Vec<CriticalPath>>,
    /// `profile.paths`: completed critical paths.
    completed: Rc<Counter>,
    /// `profile.stage.<stage>`: per-stage attribution of every path.
    stage_times: [Rc<Histogram>; PATH_STAGE_COUNT],
    /// `profile.e2e_ns`: cumulative end-to-end time, the shares' base.
    e2e_total_ns: Rc<Counter>,
    /// `profile.residual_abs_ns`.
    residual_abs_total_ns: Rc<Counter>,
    /// `profile.inexact_paths`.
    inexact: Rc<Counter>,
    /// `profile.unmatched_events`.
    unmatched_events: Rc<Counter>,
    /// Cumulative signature counts.
    signatures: RefCell<BTreeMap<String, u64>>,
    /// The one buffer a folded path or a signature is written into.
    scratch: RefCell<String>,
}

impl Profiler {
    /// A detached profiler counting in `metrics` (mostly for tests; prefer
    /// [`Profiler::attach`]).
    pub fn new(metrics: &Metrics) -> Rc<Profiler> {
        Rc::new(Profiler {
            open: RefCell::new(HashMap::new()),
            stacks: RefCell::new(HashMap::new()),
            idle_stacks: FreeList::new(IDLE_LANE_STACKS),
            folded: RefCell::new(BTreeMap::new()),
            slowest: RefCell::new(Vec::with_capacity(SLOWEST_KEPT)),
            completed: metrics.counter("profile.paths"),
            stage_times: PathStage::ALL
                .map(|s| metrics.histogram(&format!("profile.stage.{}", s.label()))),
            e2e_total_ns: metrics.counter("profile.e2e_ns"),
            residual_abs_total_ns: metrics.counter("profile.residual_abs_ns"),
            inexact: metrics.counter("profile.inexact_paths"),
            unmatched_events: metrics.counter("profile.unmatched_events"),
            signatures: RefCell::new(BTreeMap::new()),
            scratch: RefCell::new(String::new()),
        })
    }

    /// Builds a profiler counting in `tracer`'s registry, subscribes it to
    /// `tracer` and registers it as the tracer's profiler (so
    /// `stats profile` can find it). May run at any point: ops that begin
    /// after it decompose fully.
    pub fn attach(tracer: &Rc<Tracer>, _: ProfilerConfig) -> Rc<Profiler> {
        let p = Profiler::new(tracer.metrics());
        tracer.add_sink(p.clone());
        tracer.set_profiler(p.clone());
        p
    }

    // -- queries ------------------------------------------------------

    /// Client ops currently in flight.
    pub fn open_len(&self) -> usize {
        self.open.borrow().len()
    }

    /// Events that could not be correlated to any in-flight op.
    pub fn unmatched_events(&self) -> u64 {
        self.unmatched_events.get()
    }

    /// The [`SLOWEST_KEPT`] slowest completed paths so far, sorted by
    /// `end_to_end` descending; of two equally slow ops the earlier one is
    /// kept and listed first.
    pub fn slowest(&self) -> Vec<CriticalPath> {
        self.slowest.borrow().clone()
    }

    /// Cumulative attribution to `stage` across all completed paths.
    pub fn stage_total(&self, stage: PathStage) -> SimDuration {
        self.stage_times[stage.index()].sum()
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
        self.stage_total(stage).as_nanos() as f64 / e2e as f64
    }

    /// The stage with the largest cumulative attribution.
    pub fn dominant_stage(&self) -> PathStage {
        largest(|s| self.stage_total(s).as_nanos())
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
    /// the audit proves the bookkeeping, not the arithmetic), the total
    /// absolute residual, and its share of total end-to-end time.
    pub fn audit(&self) -> AuditReport {
        let e2e = self.e2e_total_ns.get();
        AuditReport {
            ops: self.completed.get(),
            inexact_ops: self.inexact.get(),
            residual_abs_total: SimDuration::from_nanos(self.residual_abs_total_ns.get()),
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
            let times = &self.stage_times[s.index()];
            out.push((
                format!("profile.stage.{}", s.label()),
                format!(
                    "share={:.4} total_us={:.3} p50_us={:.3} p99_us={:.3}",
                    self.stage_share(s),
                    self.stage_total(s).as_micros_f64(),
                    times.percentile(0.50).as_micros_f64(),
                    times.percentile(0.99).as_micros_f64()
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
                let path = OpenPath {
                    started_at: ev.at,
                    ..OpenPath::default()
                };
                self.open.borrow_mut().insert(ev.op, path);
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
        self.record(&path);
    }

    fn record(&self, path: &CriticalPath) {
        self.completed.inc();
        if !path.is_exact() {
            self.inexact.inc();
        }
        for s in PathStage::ALL {
            self.stage_times[s.index()].record(path.stages[s.index()]);
        }
        self.e2e_total_ns.add(path.end_to_end.as_nanos());
        self.residual_abs_total_ns
            .add(path.residual_ns.unsigned_abs());
        let mut sig = self.scratch.borrow_mut();
        sig.clear();
        path.write_signature(SIGNATURE_MIN_SHARE, &mut sig);
        tally(&mut self.signatures.borrow_mut(), &sig, 1);
        self.keep_if_slow(path);
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

    // -- folding ------------------------------------------------------

    fn fold_begin(&self, ev: &Event) {
        self.stacks
            .borrow_mut()
            .entry((ev.node, ev.track, ev.op))
            .or_insert_with(|| self.idle_stacks.take().unwrap_or_default())
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
            // Every lock guard drops at the instant its `worker_service`
            // span ends, so a lock frame's inclusive time is its span's.
            if f.layer == Layer::Core && matches!(f.name, "lock_wait" | "lock_hold") {
                let d = SimDuration::from_nanos(inclusive);
                self.with_path(key.2, |p| match f.name {
                    "lock_wait" => p.lock_wait += d,
                    _ => p.lock_hold += d,
                });
            }
            let mut path = self.scratch.borrow_mut();
            path.clear();
            let _ = match key.0 {
                Some(n) => write!(path, "node{};{}", n.0, key.1),
                None => write!(path, "global;{}", key.1),
            };
            for fr in stack.iter().chain([&f]) {
                let _ = write!(path, ";{}:{}", fr.layer.label(), fr.name);
            }
            tally(&mut self.folded.borrow_mut(), &path, exclusive);
            if let Some(parent) = stack.last_mut() {
                parent.child_ns += inclusive;
            }
        }
        if stack.is_empty() {
            if let Some(stack) = stacks.remove(&key) {
                self.idle_stacks.give_back(stack);
            }
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
    /// `residual_abs_total / Σ end-to-end`.
    pub residual_share: f64,
}

/// The stage `ns` gives the most; the first in path order wins a tie.
fn largest(ns: impl Fn(PathStage) -> u64) -> PathStage {
    let pick = |best: PathStage, s: PathStage| if ns(s) > ns(best) { s } else { best };
    PathStage::ALL.into_iter().fold(PathStage::Issue, pick)
}

/// Adds `n` to `key`'s count, making a `String` key only for a key not
/// seen before.
fn tally(counts: &mut BTreeMap<String, u64>, key: &str, n: u64) {
    match counts.get_mut(key) {
        Some(count) => *count += n,
        None => {
            counts.insert(key.to_string(), n);
        }
    }
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

    fn detached() -> Rc<Profiler> {
        Profiler::new(&Metrics::new())
    }

    /// Drives one fully-marked op through the profiler and checks every
    /// stage plus the exactness identity.
    #[test]
    fn full_critical_path_decomposes_exactly() {
        let p = detached();
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
        let paths = p.slowest();
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
        let p = detached();
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
        let cp = &p.slowest()[0];
        assert_eq!(cp.stages[PathStage::WorkerQueue.index()].as_nanos(), 20);
        assert_eq!(cp.stages[PathStage::Service.index()].as_nanos(), 30);
        assert!(cp.is_exact());
        assert_eq!(p.unmatched_events(), 0);
    }

    /// With several ops open, foreign-id events are unmatched and their
    /// time lands in the residual — never misattributed.
    #[test]
    fn ambiguous_foreign_ids_count_as_unmatched() {
        let p = detached();
        p.handle(&ev("client_op", Phase::Begin, 1, Track::Main, 10, 0));
        p.handle(&ev("client_op", Phase::Begin, 2, Track::Main, 20, 5));
        p.handle(&ev("dispatch", Phase::Instant, 0, Track::Main, 3, 40));
        p.handle(&ev("client_op", Phase::End, 1, Track::Main, 10, 100));
        p.handle(&ev("client_op", Phase::End, 2, Track::Main, 20, 110));
        assert_eq!(p.unmatched_events(), 1);
        assert_eq!(p.slowest().len(), 2);
        for cp in p.slowest() {
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
        let p = Profiler::new(&metrics);
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
        let p = detached();
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
        let p = detached();
        let capacity = p.slowest.borrow().capacity();
        // e2e (ns) of op i: a scrambled order with a tie between ops 2 and 9.
        let e2e = [40u64, 7, 90, 15, 66, 3, 81, 22, 58, 90, 11];
        assert_eq!(e2e.len(), SLOWEST_KEPT + 3);
        for (op, ns) in e2e.iter().enumerate() {
            let mut stages = [SimDuration::ZERO; PATH_STAGE_COUNT];
            stages[PathStage::Service.index()] = SimDuration::from_nanos(*ns);
            p.record(&CriticalPath {
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
