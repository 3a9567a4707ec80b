//! What the benchmark reads from each layer, all through public
//! accessors: UCR runtime statistics, store and lock statistics, the
//! metrics registry, port utilization, and — in the traced run — the
//! tracer's event stream through a profiler and a counting sink.
//!
//! To add a counter without touching program code: add a field to
//! [`Counters`], fill it in [`Counters::read`] from whatever public
//! accessor has it (or count it in [`EventCounts::on_event`]), and turn
//! the window's difference into a metric in `report::per_layer`.

use std::cell::Cell;
use std::rc::Rc;

use mcstore::StoreStats;
use simnet::{Event, EventSink, Layer, PathStage, Profiler, ProfilerConfig, PATH_STAGE_COUNT};
use ucr::RtStats;

use crate::workload::Bench;

/// The traced run's two sinks on `world.cluster.tracer()`.
pub struct Tracing {
    pub profiler: Rc<Profiler>,
    pub events: Rc<EventCounts>,
}

impl Tracing {
    /// Attaches a profiler (aggregates only) and the counting sink. Must
    /// run before the clients are made: they seed their request ids from
    /// the tracer's detail flag, which the profiler sets.
    pub fn attach(world: &rmc::World) -> Tracing {
        let tracer = world.cluster.tracer();
        let profiler = Profiler::attach(tracer, ProfilerConfig::default());
        let events = Rc::new(EventCounts::default());
        tracer.add_sink(events.clone());
        Tracing { profiler, events }
    }
}

/// Counts the event stream: all events, the verbs layer's, and wire
/// messages with their bytes.
#[derive(Default)]
pub struct EventCounts {
    events: Cell<u64>,
    verbs_events: Cell<u64>,
    wire_msgs: Cell<u64>,
    wire_bytes: Cell<u64>,
}

impl EventSink for EventCounts {
    fn on_event(&self, ev: &Event) {
        self.events.set(self.events.get() + 1);
        if ev.layer == Layer::Verbs {
            self.verbs_events.set(self.verbs_events.get() + 1);
        }
        // Every message is one `wire_tx` at the sender and one `wire_rx`
        // at the receiver; count it once.
        if ev.layer == Layer::Wire && ev.name == "wire_tx" {
            self.wire_msgs.set(self.wire_msgs.get() + 1);
            self.wire_bytes.set(self.wire_bytes.get() + ev.bytes);
        }
    }
}

/// UCR runtime counters, summed over the server's and every client's
/// runtime.
#[derive(Clone, Copy, Default)]
pub struct UcrCounts {
    pub messages_sent: u64,
    pub eager_delivered: u64,
    pub rndv_delivered: u64,
    pub fins_sent: u64,
    pub send_failures: u64,
    pub mr_cache_hits: u64,
    pub mr_cache_misses: u64,
    pub recv_bufs_recycled: u64,
    pub progress_wakes: u64,
    pub progress_completions: u64,
}

impl UcrCounts {
    fn add(&mut self, s: &RtStats) {
        self.messages_sent += s.messages_sent.get();
        self.eager_delivered += s.eager_delivered.get();
        self.rndv_delivered += s.rndv_delivered.get();
        self.fins_sent += s.fins_sent.get();
        self.send_failures += s.send_failures.get();
        self.mr_cache_hits += s.mr_cache_hits.get();
        self.mr_cache_misses += s.mr_cache_misses.get();
        self.recv_bufs_recycled += s.recv_bufs_recycled.get();
        self.progress_wakes += s.progress_wakes.get();
        self.progress_completions += s.progress_completions.get();
    }
}

/// What the profiler and the counting sink have seen so far.
#[derive(Clone, Default)]
pub struct TraceCounts {
    pub events: u64,
    pub verbs_events: u64,
    pub wire_msgs: u64,
    pub wire_bytes: u64,
    pub paths: u64,
    pub inexact_paths: u64,
    pub stage_ns: [u64; PATH_STAGE_COUNT],
    pub e2e_ns: u64,
    pub residual_abs_ns: u64,
    /// Folded `(stack, exclusive virtual ns)` lines, sorted by stack.
    pub folded: Vec<(String, u64)>,
}

/// One reading of every cumulative counter; a window's numbers are the
/// difference of two.
#[derive(Clone, Default)]
pub struct Counters {
    pub ucr: UcrCounts,
    pub store: StoreStats,
    /// Acquisitions per store lock (empty when the model has none).
    pub lock_acquires: Vec<u64>,
    pub lock_contended: u64,
    pub worker_wakes: u64,
    pub worker_batch_items: u64,
    pub batch_fallback_ops: u64,
    /// Virtual nanoseconds the server's egress port has been busy.
    pub server_egress_busy_ns: f64,
    /// Most requests one worker wake found ready since
    /// [`reset_watermarks`] (`mc.node0.worker*.queue_depth`).
    pub queue_depth_max: f64,
    /// Bytes the server's store holds (`mc.node0.store.bytes`).
    pub store_bytes: f64,
    pub trace: Option<TraceCounts>,
}

impl Counters {
    pub fn read(bench: &Bench) -> Counters {
        let mut ucr = UcrCounts::default();
        if let Some(rt) = bench.server.ucr_runtime() {
            ucr.add(rt.stats());
        }
        for client in &bench.clients {
            if let Some(rt) = client.ucr_runtime() {
                ucr.add(rt.stats());
            }
        }

        let locks = bench.server.lock_stats();
        let metrics = bench.world.cluster.metrics();
        let sum_counters = |prefix: &str, suffix: &str| -> u64 {
            metrics
                .counters()
                .iter()
                .filter(|(name, _)| name.starts_with(prefix) && name.ends_with(suffix))
                .map(|(_, c)| c.get())
                .sum()
        };

        let now = bench.world.sim().now();
        let egress = bench
            .world
            .cluster
            .network(bench.spec.net())
            .map_or(0.0, |n| n.egress_utilization(bench.server.node(), now));

        Counters {
            ucr,
            store: bench.server.store_stats(),
            lock_acquires: locks.iter().map(|l| l.acquires).collect(),
            lock_contended: locks.iter().map(|l| l.contended).sum(),
            worker_wakes: sum_counters("mc.node0.worker", ".wakes"),
            worker_batch_items: sum_counters("mc.node0.worker", ".batch_items"),
            batch_fallback_ops: sum_counters("client.node", ".batch_fallback_ops"),
            server_egress_busy_ns: egress * now.as_nanos() as f64,
            queue_depth_max: queue_gauges(bench)
                .iter()
                .map(|g| g.high())
                .fold(0.0, f64::max),
            store_bytes: metrics.gauge_value("mc.node0.store.bytes").unwrap_or(0.0),
            trace: bench.tracing.as_ref().map(|t| {
                let audit = t.profiler.audit();
                TraceCounts {
                    events: t.events.events.get(),
                    verbs_events: t.events.verbs_events.get(),
                    wire_msgs: t.events.wire_msgs.get(),
                    wire_bytes: t.events.wire_bytes.get(),
                    paths: audit.ops,
                    inexact_paths: audit.inexact_ops,
                    stage_ns: PathStage::ALL.map(|s| t.profiler.stage_total(s).as_nanos()),
                    e2e_ns: t.profiler.e2e_total().as_nanos(),
                    residual_abs_ns: audit.residual_abs_total.as_nanos(),
                    folded: t.profiler.folded_lines(),
                }
            }),
        }
    }
}

/// The worker queue-depth gauges (`mc.node0.worker*.queue_depth`).
fn queue_gauges(bench: &Bench) -> Vec<Rc<simnet::metrics::Gauge>> {
    bench
        .world
        .cluster
        .metrics()
        .gauges()
        .into_iter()
        .filter(|(name, _)| name.starts_with("mc.node0.worker") && name.ends_with(".queue_depth"))
        .map(|(_, g)| g)
        .collect()
}

/// Starts the window's high-water marks afresh, so the preload's bursts
/// do not count.
pub fn reset_watermarks(bench: &Bench) {
    for g in queue_gauges(bench) {
        g.reset_watermarks();
    }
}
