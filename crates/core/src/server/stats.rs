//! The `stats` surface: the sub-report registry, the general report, the
//! storage-occupancy gauges, and `stats reset`.
//!
//! A report is a list of `(name, value)` pairs — the one representation.
//! Each wire frames the pairs its own way (`STAT name value` lines, one
//! binary frame per pair, `name value\n` text over UCR); an unknown
//! sub-report is an empty list, i.e. a bare terminator on every wire.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use mcstore::{ClassId, SegmentedStore};
use simnet::metrics::{Gauge, Metrics};
use simnet::trace::Layer;
use simnet::{NodeId, SimDuration};

use super::executor::Executor;
use super::SERVER_VERSION;
use crate::am_wire::McOp;

type Pairs = Vec<(String, String)>;
type Report = fn(&Executor, &mut SegmentedStore) -> Pairs;

/// Every `stats <name>` the server answers, on every wire.
const REPORTS: &[(&str, Report)] = &[
    ("", general),
    ("slabs", |_, store| store.slab_stat_lines()),
    ("items", |_, store| store.item_stat_lines()),
    ("trace", trace),
    ("prom", prom),
    ("profile", profile),
    ("reset", reset),
];

/// Renders sub-report `name` (empty = the general report).
pub(super) fn report(exec: &Executor, store: &mut SegmentedStore, name: &[u8]) -> Pairs {
    REPORTS
        .iter()
        .find(|(n, _)| n.as_bytes() == name)
        .map(|(_, render)| render(exec, store))
        .unwrap_or_default()
}

fn pair(k: &str, v: impl ToString) -> (String, String) {
    (k.to_string(), v.to_string())
}

fn general(exec: &Executor, store: &mut SegmentedStore) -> Pairs {
    let st = store.stats();
    let c = &exec.counters;
    let mut out = vec![
        pair("version", SERVER_VERSION),
        pair("curr_items", store.curr_items()),
        pair("bytes", store.bytes_stored()),
        pair("get_hits", st.get_hits),
        pair("get_misses", st.get_misses),
        pair("cmd_set", st.sets),
        pair("evictions", st.evictions),
        pair("reclaimed", st.reclaimed),
        pair("cas_hits", st.cas_hits),
        pair("cas_badval", st.cas_badval),
        pair("total_items", st.total_items),
        pair("ucr_requests", c.ucr_requests.get()),
        pair("sock_requests", c.sock_requests.get()),
        pair("curr_connections", c.curr_connections.get()),
    ];
    // UCR runtime counters (eager/rendezvous traffic, drops, faults),
    // summed over the server's runtimes: a client asks over one fabric
    // and is answered for the process.
    let mut ucr: Vec<(&str, u64)> = Vec::new();
    for rt in exec.fabrics.iter().filter_map(|rt| rt.borrow().clone()) {
        let table = rt.stats().table();
        if ucr.is_empty() {
            ucr = table;
        } else {
            ucr.iter_mut()
                .zip(table)
                .for_each(|(row, (_, n))| row.1 += n);
        }
    }
    out.extend(ucr.iter().map(|(name, n)| pair(name, n)));
    // Per-verb worker service-time summaries, by label.
    let mut verbs = McOp::ALL;
    verbs.sort_unstable_by_key(|op| op.label());
    for op in verbs {
        let (label, t) = (op.label(), &exec.svc_times[op.index()]);
        let us = |d: SimDuration| format!("{:.3}", d.as_micros_f64());
        out.push(pair(&format!("op.{label}.count"), t.count()));
        out.push(pair(&format!("op.{label}.service_us.mean"), us(t.mean())));
        out.push(pair(
            &format!("op.{label}.service_us.p50"),
            us(t.percentile(0.50)),
        ));
        out.push(pair(
            &format!("op.{label}.service_us.p99"),
            us(t.percentile(0.99)),
        ));
    }
    out
}

/// Per-layer event counts plus the state of the flight recorder
/// (paper-independent observability surface).
fn trace(exec: &Executor, _: &mut SegmentedStore) -> Pairs {
    let t = &exec.tracer;
    let mut lines: Pairs = Layer::ALL
        .iter()
        .map(|l| pair(&format!("trace.events.{}", l.label()), t.layer_count(*l)))
        .collect();
    lines.push(pair("trace.events.total", t.total_events()));
    lines.push(pair("trace.flight.len", t.flight_len()));
    lines.push(pair("trace.flight.dropped", t.flight_dropped()));
    lines.push(pair("trace.faults", t.fault_count()));
    lines
}

/// The cluster's Prometheus exposition, carried over the stats plumbing
/// as `(first-token, rest-of-line)` pairs. Each exposition line has
/// exactly one space after its first token (`#` for comment lines, the
/// series name otherwise), so clients reconstruct the text losslessly by
/// rejoining `"{k} {v}"`.
fn prom(exec: &Executor, store: &mut SegmentedStore) -> Pairs {
    // Store occupancy lives outside the registry and is published into it
    // first.
    exec.gauges.publish(store);
    simnet::metrics::prometheus_text(&exec.metrics)
        .lines()
        .map(|l| {
            let (k, v) = l.split_once(' ').unwrap_or((l, ""));
            pair(k, v)
        })
        .collect()
}

/// The attached profiler's critical-path aggregates, signatures, slowest
/// paths and unaccounted-time audit (a single `profiler off` line when
/// none is attached — profiling is opt-in).
fn profile(exec: &Executor, _: &mut SegmentedStore) -> Pairs {
    match exec.tracer.profiler() {
        Some(p) => p.stat_lines(),
        None => vec![pair("profiler", "off")],
    }
}

/// `stats reset` (memcached parity): zeroes every counter and histogram
/// of the two books — the cluster registry (server and client request
/// counters, per-verb service times, every node's UCR runtime, tracer and
/// profiler counts) and the storage engine's statistics — while preserving
/// gauges and their watermarks (levels describe *current* state; a reset
/// must not forge them).
fn reset(exec: &Executor, store: &mut SegmentedStore) -> Pairs {
    exec.metrics.reset_counters_and_histograms();
    store.reset_stats();
    vec![pair("reset", "ok")]
}

/// Gauge handles for one slab class (`mc.nodeN.slab.classC.*`).
struct ClassGauges {
    used: Rc<Gauge>,
    free: Rc<Gauge>,
    occupancy: Rc<Gauge>,
    evictions: Rc<Gauge>,
}

/// Storage-engine occupancy in the cluster registry: store-level
/// item/byte counts (`mc.nodeN.store.*`) plus per-slab-class used/free
/// chunks, occupancy ratio, and eviction totals. Gauge watermarks give the
/// high-water occupancy for free. Pure host-side accounting — costs no
/// virtual time. The workers publish after every batch: item and byte
/// counts each time (`incr` resizes a value in place), and the classes
/// whose chunks were allocated or freed since the last publish.
pub(super) struct StoreGauges {
    metrics: Rc<Metrics>,
    node: NodeId,
    items: Rc<Gauge>,
    bytes: Rc<Gauge>,
    /// Indexed by class id, created lazily for populated classes only (a
    /// default store has dozens of classes, most never touched).
    classes: RefCell<Vec<Option<ClassGauges>>>,
    /// Classes published so far.
    pub(super) classes_published: Cell<u64>,
}

impl StoreGauges {
    pub(super) fn new(metrics: &Rc<Metrics>, node: NodeId, class_count: usize) -> StoreGauges {
        StoreGauges {
            metrics: metrics.clone(),
            node,
            items: metrics.gauge(&format!("mc.node{}.store.curr_items", node.0)),
            bytes: metrics.gauge(&format!("mc.node{}.store.bytes", node.0)),
            classes: RefCell::new((0..class_count).map(|_| None).collect()),
            classes_published: Cell::new(0),
        }
    }

    pub(super) fn publish(&self, store: &mut SegmentedStore) {
        self.items.set(store.curr_items() as f64);
        self.bytes.set(store.bytes_stored() as f64);
        let mut classes = self.classes.borrow_mut();
        let mut moved = store.take_moved_classes();
        while moved != 0 {
            let c = moved.trailing_zeros() as usize;
            moved &= moved - 1;
            let st = store.class_stats(ClassId(c as u8));
            let evicted = store.class_evicted(ClassId(c as u8));
            if st.pages == 0 && evicted == 0 {
                continue; // class never touched: keep the registry lean
            }
            self.classes_published.set(self.classes_published.get() + 1);
            let g = classes[c].get_or_insert_with(|| {
                let prefix = format!("mc.node{}.slab.class{}", self.node.0, c);
                ClassGauges {
                    used: self.metrics.gauge(&format!("{prefix}.used_chunks")),
                    free: self.metrics.gauge(&format!("{prefix}.free_chunks")),
                    occupancy: self.metrics.gauge(&format!("{prefix}.occupancy")),
                    evictions: self.metrics.gauge(&format!("{prefix}.evictions")),
                }
            });
            g.used.set(st.used as f64);
            g.free.set(st.free as f64);
            let chunks = st.used + st.free;
            g.occupancy.set(if chunks == 0 {
                0.0
            } else {
                st.used as f64 / chunks as f64
            });
            g.evictions.set(evicted as f64);
        }
    }
}
