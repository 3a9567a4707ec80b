//! Cross-layer span/instant event tracing over virtual time.
//!
//! One event model every layer of the stack emits into: the
//! fabric (wire tx/rx), verbs (work-request post/completion, CM), UCR
//! (active-message lifecycle, counters, endpoint faults), and the
//! memcached core (dispatch, worker service, client ops). Events carry a
//! virtual timestamp, a [`Layer`]/[`Track`] placement, and a correlation
//! id (`op`) so one logical operation can be followed across layers.
//!
//! The hub is the [`Tracer`], one per [`Cluster`](crate::Cluster):
//!
//! * **live sinks** — any number of [`EventSink`]s see each event as it is
//!   emitted (the Perfetto exporter and tests subscribe here);
//! * an **always-on flight recorder** — a fixed-capacity ring of the most
//!   recent events, kept even when no sink is attached, so a timeout or
//!   endpoint failure can dump the event tail leading up to the fault.
//!
//! Emission is pure host-side bookkeeping: no tracer call sleeps or
//! schedules, so a traced run ends at exactly the same virtual time as an
//! untraced one (pinned by `tests/tracing.rs`).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

use crate::fabric::NodeId;
use crate::metrics::{Counter, Gauge, Metrics};
use crate::time::SimTime;

/// Which layer of the stack emitted an event.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Layer {
    /// Physical network: message egress/ingress.
    Wire,
    /// Verbs: QP work requests, completions, connection management.
    Verbs,
    /// UCR active-message runtime: AM lifecycle, counters, endpoints.
    Ucr,
    /// Memcached client/server logic.
    Core,
}

impl Layer {
    /// All layers, in stack order (bottom up).
    pub const ALL: [Layer; 4] = [Layer::Wire, Layer::Verbs, Layer::Ucr, Layer::Core];

    /// Stable lower-case name (used as the Perfetto category).
    pub fn label(self) -> &'static str {
        match self {
            Layer::Wire => "wire",
            Layer::Verbs => "verbs",
            Layer::Ucr => "ucr",
            Layer::Core => "core",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Whether an event opens a span, closes one, or marks a point in time.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Span start; matched to the [`Phase::End`] with the same `op`+`name`.
    Begin,
    /// Span end.
    End,
    /// Instantaneous marker.
    Instant,
}

/// Where an event lands inside its node's Perfetto process: one lane per
/// logical execution context.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Track {
    /// The node's main/default lane (client loops, runtime progress).
    Main,
    /// A server worker lane, by worker index.
    Worker(u32),
    /// A UCR endpoint lane, by endpoint id.
    Endpoint(u64),
    /// A verbs queue-pair lane, by QP number.
    Qp(u32),
}

/// The stable lower-case lane name: a folded-profile stack path's lane
/// and a Perfetto thread's name.
impl fmt::Display for Track {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Track::Main => f.write_str("main"),
            Track::Worker(w) => write!(f, "worker{w}"),
            Track::Endpoint(e) => write!(f, "ep{e}"),
            Track::Qp(q) => write!(f, "qp{q}"),
        }
    }
}

/// One trace event, stamped with virtual time.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// Emitting layer.
    pub layer: Layer,
    /// Event name (static — e.g. `"rdma_read"`, `"worker_service"`).
    pub name: &'static str,
    /// Span begin/end or instant.
    pub phase: Phase,
    /// Node the event happened on (`None` for fabric-global events).
    pub node: Option<NodeId>,
    /// Lane within the node.
    pub track: Track,
    /// Correlation id tying events of one logical operation together
    /// (wr_id at the verbs layer, req_id at the core layer, …).
    pub op: u64,
    /// Bytes involved, when meaningful (0 otherwise).
    pub bytes: u64,
    /// Virtual timestamp.
    pub at: SimTime,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let phase = match self.phase {
            Phase::Begin => "begin",
            Phase::End => "end",
            Phase::Instant => "·",
        };
        write!(
            f,
            "[{:>12} ns] {:<5} {:<22} {:<5}",
            self.at.as_nanos(),
            self.layer.label(),
            self.name,
            phase
        )?;
        match self.node {
            Some(n) => write!(f, " {n}")?,
            None => write!(f, " -")?,
        }
        if self.track != Track::Main {
            write!(f, "/{}", self.track)?;
        }
        write!(f, " op={}", self.op)?;
        if self.bytes > 0 {
            write!(f, " bytes={}", self.bytes)?;
        }
        Ok(())
    }
}

/// Consumer of the live event stream.
pub trait EventSink {
    /// Called synchronously for every emitted event.
    fn on_event(&self, ev: &Event);
}

/// Default flight-recorder capacity (events). Generous enough to hold the
/// full tail of any single-operation failure at every layer.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// Per-cluster tracing hub: fans events out to subscribed sinks and keeps
/// the always-on flight-recorder ring. See the module docs. Its counts are
/// instruments of the cluster registry it was built with, so `stats trace`
/// and the exposition read the same books.
pub struct Tracer {
    sinks: RefCell<Vec<Rc<dyn EventSink>>>,
    flight: RefCell<VecDeque<Event>>,
    flight_cap: usize,
    /// `trace.events.<layer>`, by [`Layer::index`].
    layer_counts: [Rc<Counter>; 4],
    /// `trace.flight.len`: written only while the ring's length changes.
    flight_len: Rc<Gauge>,
    /// `trace.flight.dropped`: one per evicted event.
    flight_dropped: Rc<Counter>,
    last_fault: RefCell<Option<String>>,
    /// Faults raised this run. Not a registry counter: the print limit
    /// below reads it, and a `stats reset` must not re-open the flood.
    faults: Cell<u64>,
    /// The attached continuous profiler, when one exists. Stored here so
    /// the server's `stats profile` verb can reach it through the tracer
    /// it already holds.
    profiler: RefCell<Option<Rc<crate::profiler::Profiler>>>,
    metrics: Rc<Metrics>,
}

/// How many fault dumps are printed to stderr in full before later ones
/// are summarized to one line (all dumps stay retrievable via
/// [`Tracer::last_fault`]). Keeps runs with many *expected* timeouts —
/// e.g. UDP-loss benchmarks — from flooding stderr.
const FAULT_PRINT_LIMIT: u64 = 2;

/// Max events printed per fault dump (the stored dump is complete).
const FAULT_PRINT_TAIL: usize = 64;

impl Tracer {
    /// A fresh tracer with the default flight capacity, counting in
    /// `metrics` (the `trace.*` family).
    pub fn new(metrics: &Rc<Metrics>) -> Rc<Tracer> {
        Tracer::with_flight_capacity(metrics, DEFAULT_FLIGHT_CAPACITY)
    }

    /// A fresh tracer whose flight-recorder ring holds `flight_cap` (> 0)
    /// events.
    fn with_flight_capacity(metrics: &Rc<Metrics>, flight_cap: usize) -> Rc<Tracer> {
        Rc::new(Tracer {
            sinks: RefCell::new(Vec::new()),
            flight: RefCell::new(VecDeque::with_capacity(64)),
            flight_cap,
            layer_counts: Layer::ALL
                .map(|l| metrics.counter(&format!("trace.events.{}", l.label()))),
            flight_len: metrics.gauge("trace.flight.len"),
            flight_dropped: metrics.counter("trace.flight.dropped"),
            last_fault: RefCell::new(None),
            faults: Cell::new(0),
            profiler: RefCell::new(None),
            metrics: metrics.clone(),
        })
    }

    /// The registry this tracer counts in (an attaching profiler registers
    /// its `profile.*` family there).
    pub fn metrics(&self) -> &Rc<Metrics> {
        &self.metrics
    }

    /// Attaches a live sink. Sinks see every subsequent event.
    pub fn add_sink(&self, sink: Rc<dyn EventSink>) {
        self.sinks.borrow_mut().push(sink);
    }

    /// Detaches all live sinks (the flight recorder keeps running).
    pub fn clear_sinks(&self) {
        self.sinks.borrow_mut().clear();
        *self.profiler.borrow_mut() = None;
    }

    /// Stores the attached profiler so stats plumbing can reach it.
    /// Called by [`Profiler::attach`](crate::profiler::Profiler::attach);
    /// the profiler must separately be added as a sink.
    pub fn set_profiler(&self, p: Rc<crate::profiler::Profiler>) {
        *self.profiler.borrow_mut() = Some(p);
    }

    /// The attached profiler, if any.
    pub fn profiler(&self) -> Option<Rc<crate::profiler::Profiler>> {
        self.profiler.borrow().clone()
    }

    /// Records one event: bumps the per-layer counter, appends to the
    /// flight ring (evicting the oldest event when full), and fans out to
    /// every live sink. Pure host-side work — never advances virtual time.
    pub fn emit(&self, ev: Event) {
        self.layer_counts[ev.layer.index()].inc();
        {
            let mut ring = self.flight.borrow_mut();
            if ring.len() == self.flight_cap {
                ring.pop_front();
                self.flight_dropped.inc();
                ring.push_back(ev);
            } else {
                ring.push_back(ev);
                self.flight_len.set(ring.len() as f64);
            }
        }
        for sink in self.sinks.borrow().iter() {
            sink.on_event(&ev);
        }
    }

    /// Convenience: emit a [`Phase::Begin`] event. The span key `op` must
    /// be a real id (debug builds assert it): 0 means "no id" on the trace
    /// stream, so nothing could tell this span's end from another's.
    #[allow(clippy::too_many_arguments)]
    pub fn begin(
        &self,
        layer: Layer,
        name: &'static str,
        node: NodeId,
        track: Track,
        op: u64,
        bytes: u64,
        at: SimTime,
    ) {
        debug_assert!(op != 0, "span {name:?} begins with key 0");
        self.emit(Event {
            layer,
            name,
            phase: Phase::Begin,
            node: Some(node),
            track,
            op,
            bytes,
            at,
        });
    }

    /// Convenience: emit a [`Phase::End`] event.
    #[allow(clippy::too_many_arguments)]
    pub fn end(
        &self,
        layer: Layer,
        name: &'static str,
        node: NodeId,
        track: Track,
        op: u64,
        bytes: u64,
        at: SimTime,
    ) {
        self.emit(Event {
            layer,
            name,
            phase: Phase::End,
            node: Some(node),
            track,
            op,
            bytes,
            at,
        });
    }

    /// Convenience: emit a [`Phase::Instant`] event.
    #[allow(clippy::too_many_arguments)]
    pub fn instant(
        &self,
        layer: Layer,
        name: &'static str,
        node: NodeId,
        track: Track,
        op: u64,
        bytes: u64,
        at: SimTime,
    ) {
        self.emit(Event {
            layer,
            name,
            phase: Phase::Instant,
            node: Some(node),
            track,
            op,
            bytes,
            at,
        });
    }

    /// Events emitted so far for `layer`.
    pub fn layer_count(&self, layer: Layer) -> u64 {
        self.layer_counts[layer.index()].get()
    }

    /// Total events emitted across all layers.
    pub fn total_events(&self) -> u64 {
        Layer::ALL.iter().map(|l| self.layer_count(*l)).sum()
    }

    /// The flight-recorder tail, oldest first.
    pub fn flight_snapshot(&self) -> Vec<Event> {
        self.flight.borrow().iter().copied().collect()
    }

    /// Events in the flight ring right now.
    pub fn flight_len(&self) -> usize {
        self.flight.borrow().len()
    }

    /// Events evicted from the ring (the recorder saw them but no longer
    /// holds them).
    pub fn flight_dropped(&self) -> u64 {
        self.flight_dropped.get()
    }

    /// Formats the flight-recorder tail as a readable dump: one line per
    /// event, oldest first, with virtual timestamps.
    pub fn format_flight(&self, reason: &str) -> String {
        let ring = self.flight.borrow();
        let mut out = String::new();
        out.push_str(&format!(
            "=== flight recorder dump: {reason} ({} events, {} evicted earlier) ===\n",
            ring.len(),
            self.flight_dropped.get()
        ));
        for ev in ring.iter() {
            out.push_str(&format!("{ev}\n"));
        }
        out
    }

    /// Post-mortem hook: formats the flight tail for `reason`, stores it
    /// as the last fault (retrievable via [`last_fault`](Tracer::last_fault)),
    /// and prints it to stderr so a failing test carries the event history
    /// instead of a bare error. Called on UCR sync timeouts and endpoint
    /// failures; tests may call it directly to opt in.
    ///
    /// Printing is bounded: the first two faults print a (tail-truncated)
    /// dump, later ones a single summary line — runs that *expect* many
    /// timeouts stay readable, while the stored dump is always complete.
    pub fn fault(&self, reason: &str) -> String {
        let dump = self.format_flight(reason);
        *self.last_fault.borrow_mut() = Some(dump.clone());
        let n = self.faults.get() + 1;
        self.faults.set(n);
        if n <= FAULT_PRINT_LIMIT {
            let ring = self.flight.borrow();
            let skip = ring.len().saturating_sub(FAULT_PRINT_TAIL);
            eprintln!(
                "=== flight recorder dump: {reason} (last {} of {} events) ===",
                ring.len() - skip,
                ring.len()
            );
            for ev in ring.iter().skip(skip) {
                eprintln!("{ev}");
            }
        } else if n == FAULT_PRINT_LIMIT + 1 {
            eprintln!(
                "flight recorder: {reason} — further fault dumps suppressed \
                 (retrieve via Tracer::last_fault)"
            );
        }
        dump
    }

    /// The most recent fault dump, if any fault fired this run.
    pub fn last_fault(&self) -> Option<String> {
        self.last_fault.borrow().clone()
    }

    /// Number of faults recorded this run.
    pub fn fault_count(&self) -> u64 {
        self.faults.get()
    }
}

/// Default [`EventRecorder`] capacity — generous (a multi-client
/// throughput run fits comfortably) while keeping a runaway simulation's
/// trace heap bounded.
pub const EVENT_RECORDER_DEFAULT_CAPACITY: usize = 1 << 20;

/// An [`EventSink`] that buffers every event — the test/export collector.
///
/// The buffer is bounded: once `capacity` events are held, further events
/// are discarded and counted in [`dropped`](EventRecorder::dropped), so a
/// long simulation cannot grow the recorder without limit.
/// [`take`](EventRecorder::take) frees the buffer and recording resumes.
pub struct EventRecorder {
    events: RefCell<Vec<Event>>,
    capacity: usize,
    dropped: Cell<u64>,
}

impl EventRecorder {
    /// A fresh recorder with the default capacity, ready to pass to
    /// [`Tracer::add_sink`].
    pub fn new() -> Rc<EventRecorder> {
        EventRecorder::with_capacity(EVENT_RECORDER_DEFAULT_CAPACITY)
    }

    /// A recorder that holds at most `capacity` events at a time.
    pub fn with_capacity(capacity: usize) -> Rc<EventRecorder> {
        Rc::new(EventRecorder {
            events: RefCell::new(Vec::new()),
            capacity: capacity.max(1),
            dropped: Cell::new(0),
        })
    }

    /// Copies out everything recorded so far.
    pub fn events(&self) -> Vec<Event> {
        self.events.borrow().clone()
    }

    /// Drains and returns everything recorded so far.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut self.events.borrow_mut())
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.borrow().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.borrow().is_empty()
    }

    /// Recorded events matching `pred`.
    pub fn count(&self, pred: impl Fn(&Event) -> bool) -> usize {
        self.events.borrow().iter().filter(|e| pred(e)).count()
    }

    /// Events discarded because the buffer was at capacity when they
    /// arrived.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }
}

impl EventSink for EventRecorder {
    fn on_event(&self, ev: &Event) {
        let mut events = self.events.borrow_mut();
        if events.len() >= self.capacity {
            self.dropped.set(self.dropped.get() + 1);
            return;
        }
        events.push(*ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(layer: Layer, name: &'static str, at_ns: u64) -> Event {
        Event {
            layer,
            name,
            phase: Phase::Instant,
            node: Some(NodeId(0)),
            track: Track::Main,
            op: 1,
            bytes: 0,
            at: SimTime::from_nanos(at_ns),
        }
    }

    #[test]
    fn layer_counts_and_sink_fanout() {
        let metrics = Rc::new(Metrics::new());
        let t = Tracer::new(&metrics);
        let rec = EventRecorder::new();
        t.add_sink(rec.clone());
        t.emit(ev(Layer::Wire, "tx", 10));
        t.emit(ev(Layer::Ucr, "am_send", 20));
        t.emit(ev(Layer::Ucr, "counter_bump", 30));
        assert_eq!(t.layer_count(Layer::Wire), 1);
        assert_eq!(t.layer_count(Layer::Ucr), 2);
        assert_eq!(t.layer_count(Layer::Verbs), 0);
        assert_eq!(t.total_events(), 3);
        // The counts are the registry's: one book.
        assert_eq!(metrics.counter_value("trace.events.ucr"), 2);
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.count(|e| e.layer == Layer::Ucr), 2);
    }

    /// Key 0 is refused on a begin only: an end or an instant may carry
    /// it (a sockets dispatch mark has no wire id).
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "span \"orphan\" begins with key 0")]
    fn a_span_begun_with_key_zero_is_refused() {
        let t = Tracer::new(&Rc::new(Metrics::new()));
        let (node, at) = (NodeId(0), SimTime::ZERO);
        t.instant(Layer::Core, "dispatch", node, Track::Main, 0, 0, at);
        t.end(Layer::Core, "orphan", node, Track::Main, 0, 0, at);
        t.begin(Layer::Core, "orphan", node, Track::Main, 0, 0, at);
    }

    #[test]
    fn flight_ring_evicts_oldest_and_counts_drops() {
        let metrics = Rc::new(Metrics::new());
        let t = Tracer::with_flight_capacity(&metrics, 3);
        for i in 0..5 {
            t.emit(ev(Layer::Verbs, "post_send", i * 100));
        }
        let tail = t.flight_snapshot();
        assert_eq!(tail.len(), 3);
        assert_eq!(t.flight_dropped(), 2);
        assert_eq!(metrics.counter_value("trace.flight.dropped"), 2);
        assert_eq!(metrics.gauge_value("trace.flight.len"), Some(3.0));
        // Oldest-first, and only the newest three survive.
        assert_eq!(tail[0].at.as_nanos(), 200);
        assert_eq!(tail[2].at.as_nanos(), 400);
    }

    #[test]
    fn fault_dump_is_stored_and_readable() {
        let t = Tracer::new(&Rc::new(Metrics::new()));
        t.emit(ev(Layer::Ucr, "ep_failed", 42));
        assert!(t.last_fault().is_none());
        let dump = t.fault("test timeout");
        assert!(dump.contains("test timeout"));
        assert!(dump.contains("ep_failed"));
        assert_eq!(t.last_fault().as_deref(), Some(dump.as_str()));
    }

    #[test]
    fn clear_sinks_keeps_flight_recorder_running() {
        let t = Tracer::new(&Rc::new(Metrics::new()));
        let rec = EventRecorder::new();
        t.add_sink(rec.clone());
        t.emit(ev(Layer::Core, "dispatch", 1));
        t.clear_sinks();
        t.emit(ev(Layer::Core, "dispatch", 2));
        assert_eq!(rec.len(), 1);
        assert_eq!(t.flight_len(), 2);
    }

    #[test]
    fn bounded_recorder_drops_and_counts_overflow() {
        let rec = EventRecorder::with_capacity(2);
        for i in 0..5u64 {
            rec.on_event(&Event {
                bytes: i,
                ..ev(Layer::Wire, "wire_rx", i * 10)
            });
        }
        assert_eq!(rec.dropped(), 3);
        let kept = rec.take();
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].bytes, 0);
        assert_eq!(kept[1].bytes, 1);
        // Draining frees capacity: recording resumes.
        rec.on_event(&Event {
            bytes: 99,
            ..ev(Layer::Wire, "wire_rx", 100)
        });
        assert_eq!(rec.take().len(), 1);
        assert_eq!(rec.dropped(), 3);
    }
}
