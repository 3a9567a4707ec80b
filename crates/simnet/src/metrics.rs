//! Metrics primitives and the named registry.
//!
//! The paper justifies its design by *decomposing* per-message cost: §VI-D
//! attributes the request-rate gap to which server resource saturates (HCA
//! work-request pipeline vs kernel protocol processing). This module holds
//! the instruments that decomposition is published through:
//!
//! * [`Counter`] / [`Gauge`] / [`Histogram`] — `Cell`/`RefCell`-based
//!   primitives (the simulation is single-threaded) with percentile
//!   summaries over **virtual** time;
//! * [`Metrics`] — a named registry producing `stats`-style reports;
//! * [`prometheus_text`] — the registry rendered in Prometheus text
//!   exposition format with `# TYPE`/`# HELP` lines and `node`/`worker`/
//!   `layer` labels recovered from the dotted metric names (surfaced as
//!   `stats prom` in the memcached protocol and
//!   `Cluster::export_prometheus`).
//!
//! Per-request stage attribution is the [`Profiler`](crate::profiler)'s
//! job, fed by the [`Tracer`](crate::trace) event stream.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::time::SimDuration;

// ---------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------

/// A monotonically increasing event count.
#[derive(Default)]
pub struct Counter {
    value: Cell<u64>,
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.set(self.value.get() + n);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.get()
    }

    /// Resets to zero (between measurement phases).
    pub fn reset(&self) {
        self.value.set(0);
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

/// A point-in-time measurement (utilization, occupancy, queue depth).
///
/// Every [`set`](Gauge::set) also folds the value into running high/low
/// watermarks, so a reader that only observes the gauge at the end of a
/// run still sees the extremes reached during it (e.g. the peak worker
/// queue depth). Watermarks survive
/// [`Metrics::reset_counters_and_histograms`] (the `stats reset` path)
/// and are cleared only by [`reset_watermarks`](Gauge::reset_watermarks)
/// or a full [`Gauge::reset`].
#[derive(Default)]
pub struct Gauge {
    value: Cell<f64>,
    high: Cell<f64>,
    low: Cell<f64>,
    touched: Cell<bool>,
}

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Overwrites the value and folds it into the watermarks.
    pub fn set(&self, v: f64) {
        self.value.set(v);
        if self.touched.replace(true) {
            if v > self.high.get() {
                self.high.set(v);
            }
            if v < self.low.get() {
                self.low.set(v);
            }
        } else {
            self.high.set(v);
            self.low.set(v);
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        self.value.get()
    }

    /// Highest value ever set (the current value if set once; zero if
    /// never set).
    pub fn high(&self) -> f64 {
        self.high.get()
    }

    /// Lowest value ever set (the current value if set once; zero if
    /// never set).
    pub fn low(&self) -> f64 {
        self.low.get()
    }

    /// Collapses both watermarks onto the current value, starting a new
    /// observation window.
    pub fn reset_watermarks(&self) {
        self.high.set(self.value.get());
        self.low.set(self.value.get());
    }

    /// Zeroes the value and the watermarks (full reset, as if fresh).
    pub fn reset(&self) {
        self.value.set(0.0);
        self.high.set(0.0);
        self.low.set(0.0);
        self.touched.set(false);
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gauge({})", self.get())
    }
}

/// A histogram of virtual-time durations, summarized by percentiles.
///
/// Kept as a count per distinct nanosecond duration. Virtual-time costs
/// repeat exactly — a handful of distinct values per instrument unless
/// queues or locks are contended — so this stays small where a sample
/// list grows by 8 bytes per observation, and summaries are exact and
/// deterministic either way.
#[derive(Default)]
pub struct Histogram {
    inner: RefCell<Samples>,
}

#[derive(Default)]
struct Samples {
    by_nanos: BTreeMap<u64, u64>,
    count: u64,
    sum_nanos: u64,
}

impl Samples {
    /// The `q`-quantile, nearest-rank: the sample at index
    /// `round((n − 1)·q)` of the sorted list; zero when empty.
    fn quantile(&self, q: f64) -> SimDuration {
        let rank = (self.count.saturating_sub(1) as f64 * q.clamp(0.0, 1.0)).round() as u64;
        let mut seen = 0;
        for (&nanos, &n) in &self.by_nanos {
            seen += n;
            if seen > rank {
                return SimDuration::from_nanos(nanos);
            }
        }
        SimDuration::ZERO
    }

    fn mean(&self) -> SimDuration {
        SimDuration::from_nanos(self.sum_nanos.checked_div(self.count).unwrap_or(0))
    }
}

/// Point summary of a [`Histogram`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistogramSummary {
    /// Number of samples recorded.
    pub count: u64,
    /// Smallest sample.
    pub min: SimDuration,
    /// Arithmetic mean.
    pub mean: SimDuration,
    /// Median.
    pub p50: SimDuration,
    /// 95th percentile.
    pub p95: SimDuration,
    /// 99th percentile.
    pub p99: SimDuration,
    /// Largest sample.
    pub max: SimDuration,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one duration sample.
    pub fn record(&self, d: SimDuration) {
        let mut s = self.inner.borrow_mut();
        *s.by_nanos.entry(d.as_nanos()).or_default() += 1;
        s.count += 1;
        s.sum_nanos += d.as_nanos();
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.inner.borrow().count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> SimDuration {
        SimDuration::from_nanos(self.inner.borrow().sum_nanos)
    }

    /// Arithmetic mean; zero when empty.
    pub fn mean(&self) -> SimDuration {
        self.inner.borrow().mean()
    }

    /// The `q`-quantile (`q` in `[0, 1]`, nearest-rank); zero when empty.
    pub fn percentile(&self, q: f64) -> SimDuration {
        self.inner.borrow().quantile(q)
    }

    /// Full percentile summary; all-zero when empty.
    pub fn summary(&self) -> HistogramSummary {
        let s = self.inner.borrow();
        let edge = |nanos: Option<&u64>| SimDuration::from_nanos(nanos.copied().unwrap_or(0));
        HistogramSummary {
            count: s.count,
            min: edge(s.by_nanos.keys().next()),
            mean: s.mean(),
            p50: s.quantile(0.50),
            p95: s.quantile(0.95),
            p99: s.quantile(0.99),
            max: edge(s.by_nanos.keys().next_back()),
        }
    }

    /// Discards all samples.
    pub fn reset(&self) {
        *self.inner.borrow_mut() = Samples::default();
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Histogram(n={})", self.count())
    }
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

/// A named registry of counters, gauges, and histograms.
///
/// Names are free-form dotted paths (`"node0.hca.utilization"`). Lookups
/// create on first use, so instrumentation sites never need registration
/// boilerplate.
#[derive(Default)]
pub struct Metrics {
    counters: RefCell<BTreeMap<String, Rc<Counter>>>,
    gauges: RefCell<BTreeMap<String, Rc<Gauge>>>,
    histograms: RefCell<BTreeMap<String, Rc<Histogram>>>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// The counter named `name`, created if absent.
    pub fn counter(&self, name: &str) -> Rc<Counter> {
        self.counters
            .borrow_mut()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// The gauge named `name`, created if absent.
    pub fn gauge(&self, name: &str) -> Rc<Gauge> {
        self.gauges
            .borrow_mut()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// The histogram named `name`, created if absent.
    pub fn histogram(&self, name: &str) -> Rc<Histogram> {
        self.histograms
            .borrow_mut()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Value of a counter, zero if it was never touched.
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters
            .borrow()
            .get(name)
            .map(|c| c.get())
            .unwrap_or(0)
    }

    /// Value of a gauge, if it exists.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.borrow().get(name).map(|g| g.get())
    }

    /// Clears every registered metric (between measurement phases). The
    /// instruments themselves survive, so held `Rc` handles stay valid.
    pub fn reset(&self) {
        for c in self.counters.borrow().values() {
            c.reset();
        }
        for g in self.gauges.borrow().values() {
            g.reset();
        }
        for h in self.histograms.borrow().values() {
            h.reset();
        }
    }

    /// Zeroes counters and histograms but leaves gauges — values *and*
    /// high/low watermarks — untouched. This is the `stats reset`
    /// semantics: event counts restart, while level measurements (slab
    /// occupancy, queue depth) keep describing the live system.
    pub fn reset_counters_and_histograms(&self) {
        for c in self.counters.borrow().values() {
            c.reset();
        }
        for h in self.histograms.borrow().values() {
            h.reset();
        }
    }

    /// Snapshot of every registered counter, sorted by name.
    pub fn counters(&self) -> Vec<(String, Rc<Counter>)> {
        self.counters
            .borrow()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Snapshot of every registered gauge, sorted by name.
    pub fn gauges(&self) -> Vec<(String, Rc<Gauge>)> {
        self.gauges
            .borrow()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Snapshot of every registered histogram, sorted by name.
    pub fn histograms(&self) -> Vec<(String, Rc<Histogram>)> {
        self.histograms
            .borrow()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }
}

// ---------------------------------------------------------------------
// Prometheus-text exposition
// ---------------------------------------------------------------------

const LAYER_PREFIXES: [&str; 10] = [
    "wire", "verbs", "ucr", "core", "mc", "client", "bench", "latency", "trace", "profile",
];
const NET_SEGMENTS: [&str; 3] = ["ib", "roce", "gige"];

fn sanitize(seg: &str) -> String {
    seg.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Splits a dotted registry name into a Prometheus family name plus
/// labels: a leading layer prefix becomes `layer="..."`, `nodeN` /
/// `workerN` / `classN` / `shardS` segments become
/// `node`/`worker`/`class`/`shard` labels,
/// a fabric segment (`ib`/`roce`/`gige`) becomes `net`, and whatever
/// remains joins into `rmc_<name>`.
fn family_and_labels(name: &str) -> (String, Vec<(&'static str, String)>) {
    let mut labels: Vec<(&'static str, String)> = Vec::new();
    let mut parts: Vec<String> = Vec::new();
    for (i, seg) in name.split('.').enumerate() {
        if i == 0 && LAYER_PREFIXES.contains(&seg) {
            labels.push(("layer", seg.to_string()));
        } else if NET_SEGMENTS.contains(&seg) {
            labels.push(("net", seg.to_string()));
        } else if let Some(n) = seg
            .strip_prefix("node")
            .filter(|r| r.parse::<u32>().is_ok())
        {
            labels.push(("node", format!("node{n}")));
        } else if let Some(n) = seg
            .strip_prefix("worker")
            .filter(|r| r.parse::<u32>().is_ok())
        {
            labels.push(("worker", n.to_string()));
        } else if let Some(n) = seg
            .strip_prefix("class")
            .filter(|r| r.parse::<u32>().is_ok())
        {
            labels.push(("class", n.to_string()));
        } else if let Some(n) = seg
            .strip_prefix("shard")
            .filter(|r| r.parse::<u32>().is_ok())
        {
            labels.push(("shard", n.to_string()));
        } else {
            parts.push(sanitize(seg));
        }
    }
    if parts.is_empty() {
        parts.push("value".to_string());
    }
    (format!("rmc_{}", parts.join("_")), labels)
}

fn label_str(labels: &[(&'static str, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    format!("{{{}}}", body.join(","))
}

struct Family {
    kind: &'static str,
    help: String,
    lines: Vec<String>,
}

fn add_line(
    families: &mut BTreeMap<String, Family>,
    family: &str,
    kind: &'static str,
    help: &str,
    line: String,
) {
    let f = families
        .entry(family.to_string())
        .or_insert_with(|| Family {
            kind,
            help: help.to_string(),
            lines: Vec::new(),
        });
    f.lines.push(line);
}

/// Renders the whole registry in Prometheus text exposition format:
/// counters and gauges as their native types (gauges additionally as
/// `<family>_high`/`<family>_low` watermark series), histograms as
/// summaries in microseconds (`quantile` label plus `_sum`/`_count`).
/// Output is fully deterministic: families and series sorted by name.
pub fn prometheus_text(metrics: &Metrics) -> String {
    let mut families: BTreeMap<String, Family> = BTreeMap::new();
    for (name, c) in metrics.counters() {
        let (family, labels) = family_and_labels(&name);
        add_line(
            &mut families,
            &family,
            "counter",
            &format!("Event count from registry metric `{name}`."),
            format!("{family}{} {}", label_str(&labels), c.get()),
        );
    }
    for (name, g) in metrics.gauges() {
        let (family, labels) = family_and_labels(&name);
        let ls = label_str(&labels);
        let help = format!("Level from registry metric `{name}`.");
        add_line(
            &mut families,
            &family,
            "gauge",
            &help,
            format!("{family}{ls} {}", g.get()),
        );
        add_line(
            &mut families,
            &format!("{family}_high"),
            "gauge",
            &format!("High watermark of registry metric `{name}`."),
            format!("{family}_high{ls} {}", g.high()),
        );
        add_line(
            &mut families,
            &format!("{family}_low"),
            "gauge",
            &format!("Low watermark of registry metric `{name}`."),
            format!("{family}_low{ls} {}", g.low()),
        );
    }
    for (name, h) in metrics.histograms() {
        let (family, labels) = family_and_labels(&name);
        let family = format!("{family}_us");
        let s = h.summary();
        let mut lines = Vec::new();
        for (q, v) in [(0.5, s.p50), (0.95, s.p95), (0.99, s.p99)] {
            let mut labels = labels.clone();
            labels.push(("quantile", format!("{q}")));
            lines.push(format!(
                "{family}{} {}",
                label_str(&labels),
                v.as_micros_f64()
            ));
        }
        let ls = label_str(&labels);
        lines.push(format!(
            "{family}_sum{ls} {}",
            s.mean.as_micros_f64() * s.count as f64
        ));
        lines.push(format!("{family}_count{ls} {}", s.count));
        for line in lines {
            add_line(
                &mut families,
                &family,
                "summary",
                &format!("Virtual-time summary (microseconds) of histogram `{name}`."),
                line,
            );
        }
    }

    let mut out = String::new();
    for (family, f) in &mut families {
        out.push_str(&format!("# HELP {family} {}\n", f.help));
        out.push_str(&format!("# TYPE {family} {}\n", f.kind));
        f.lines.sort();
        for line in &f.lines {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);
        let g = Gauge::new();
        g.set(0.75);
        assert!((g.get() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn gauge_watermarks_track_extremes() {
        let g = Gauge::new();
        // Untouched: everything reads zero.
        assert_eq!(g.high(), 0.0);
        assert_eq!(g.low(), 0.0);
        // First set seeds both watermarks (low must not stick at 0.0 for
        // a gauge that never goes below its first positive value).
        g.set(5.0);
        assert_eq!(g.high(), 5.0);
        assert_eq!(g.low(), 5.0);
        g.set(9.0);
        g.set(2.0);
        g.set(4.0);
        assert_eq!(g.get(), 4.0);
        assert_eq!(g.high(), 9.0);
        assert_eq!(g.low(), 2.0);
    }

    #[test]
    fn gauge_watermark_reset_collapses_to_current_value() {
        let g = Gauge::new();
        g.set(10.0);
        g.set(1.0);
        g.set(6.0);
        g.reset_watermarks();
        // New window starts at the live value, not at zero.
        assert_eq!(g.high(), 6.0);
        assert_eq!(g.low(), 6.0);
        g.set(7.0);
        g.set(5.0);
        assert_eq!(g.high(), 7.0);
        assert_eq!(g.low(), 5.0);
        // Full reset behaves like a fresh instrument.
        g.reset();
        assert_eq!(g.get(), 0.0);
        g.set(-3.0);
        assert_eq!(g.high(), -3.0);
        assert_eq!(g.low(), -3.0);
    }

    #[test]
    fn selective_reset_preserves_gauges_and_watermarks() {
        let m = Metrics::new();
        m.counter("reqs").add(11);
        m.histogram("lat").record(SimDuration::from_micros(4));
        let g = m.gauge("depth");
        g.set(8.0);
        g.set(3.0);
        m.reset_counters_and_histograms();
        assert_eq!(m.counter_value("reqs"), 0);
        assert_eq!(m.histogram("lat").count(), 0);
        assert_eq!(g.get(), 3.0);
        assert_eq!(g.high(), 8.0);
        assert_eq!(g.low(), 3.0);
        // The full reset still clears gauges too.
        m.reset();
        assert_eq!(g.get(), 0.0);
        assert_eq!(g.high(), 0.0);
    }

    #[test]
    fn histogram_percentiles_nearest_rank() {
        let h = Histogram::new();
        for i in 1..=100u64 {
            h.record(SimDuration::from_nanos(i * 1000));
        }
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.min.as_nanos(), 1_000);
        assert_eq!(s.max.as_nanos(), 100_000);
        assert_eq!(s.p50.as_nanos(), 51_000); // nearest rank on 0..=99
        assert_eq!(s.p95.as_nanos(), 95_000);
        assert_eq!(s.p99.as_nanos(), 99_000);
        assert_eq!(h.mean().as_nanos(), 50_500);
    }

    #[test]
    fn reset_clears_summary() {
        let h = Histogram::new();
        h.record(SimDuration::from_micros(5));
        h.record(SimDuration::from_micros(9));
        assert_eq!(h.summary().count, 2);
        h.reset();
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, SimDuration::ZERO);
        assert_eq!(s.p99, SimDuration::ZERO);
        assert_eq!(s.max, SimDuration::ZERO);
        // The instrument keeps working after the reset.
        h.record(SimDuration::from_micros(1));
        assert_eq!(h.summary().count, 1);
    }

    /// The sample-list histogram this module used to keep, as the
    /// reference: every sample in a vector, sorted on each query.
    struct SampleList(Vec<u64>);

    impl SampleList {
        fn sorted(&self) -> Vec<u64> {
            let mut s = self.0.clone();
            s.sort_unstable();
            s
        }

        fn percentile(&self, q: f64) -> u64 {
            let s = self.sorted();
            if s.is_empty() {
                return 0;
            }
            s[((s.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize]
        }

        fn mean(&self) -> u64 {
            match self.0.len() as u64 {
                0 => 0,
                n => self.0.iter().sum::<u64>() / n,
            }
        }

        fn summary(&self) -> HistogramSummary {
            let s = self.sorted();
            let ns = SimDuration::from_nanos;
            HistogramSummary {
                count: s.len() as u64,
                min: ns(s.first().copied().unwrap_or(0)),
                mean: ns(self.mean()),
                p50: ns(self.percentile(0.50)),
                p95: ns(self.percentile(0.95)),
                p99: ns(self.percentile(0.99)),
                max: ns(s.last().copied().unwrap_or(0)),
            }
        }
    }

    /// Asserts that a histogram fed `samples` answers every query exactly
    /// as the sorted sample list does.
    fn assert_matches_sample_list(samples: &[u64]) {
        let h = Histogram::new();
        for &s in samples {
            h.record(SimDuration::from_nanos(s));
        }
        let reference = SampleList(samples.to_vec());
        assert_eq!(h.count(), samples.len() as u64);
        assert_eq!(h.sum().as_nanos(), samples.iter().sum::<u64>());
        assert_eq!(h.mean().as_nanos(), reference.mean());
        assert_eq!(h.summary(), reference.summary());
        for permille in (0..=1000).step_by(7).chain([500, 950, 990, 999, 1000]) {
            let q = permille as f64 / 1000.0;
            assert_eq!(
                h.percentile(q).as_nanos(),
                reference.percentile(q),
                "q={q} over {samples:?}"
            );
        }
    }

    #[test]
    fn degenerate_multisets_match_the_sample_list() {
        assert_matches_sample_list(&[]);
        assert_matches_sample_list(&[12_000]);
        assert_matches_sample_list(&[5; 17]);
        assert_matches_sample_list(&[0, 0, u32::MAX as u64]);
    }

    proptest::proptest! {
        /// Few distinct values with many repeats (the shape virtual-time
        /// costs have) and all-distinct spreads alike.
        #[test]
        fn random_multisets_match_the_sample_list(
            picks in proptest::collection::vec(0u64..1_000_000, 0..120),
            distinct in 1u64..1_000_000,
        ) {
            let samples: Vec<u64> = picks.iter().map(|p| p % distinct * 37).collect();
            assert_matches_sample_list(&samples);
        }
    }

    #[test]
    fn registry_creates_on_first_use_and_reports() {
        let m = Metrics::new();
        m.counter("reqs").add(7);
        m.gauge("util").set(0.5);
        m.histogram("lat").record(SimDuration::from_micros(3));
        assert_eq!(m.counter_value("reqs"), 7);
        assert_eq!(m.counter_value("never"), 0);
        assert_eq!(m.gauge_value("util"), Some(0.5));
        let p99 = m.histogram("lat").percentile(0.99);
        assert_eq!(p99, SimDuration::from_micros(3));
        m.reset();
        assert_eq!(m.counter_value("reqs"), 0);
        assert_eq!(m.histogram("lat").count(), 0);
    }

    #[test]
    fn prometheus_text_has_types_help_and_labels() {
        let metrics = Metrics::new();
        metrics.counter("ucr.ib.node0.messages_sent").add(42);
        metrics.gauge("mc.node0.worker1.queue_depth").set(3.0);
        metrics
            .histogram("mc.node0.op_get")
            .record(SimDuration::from_micros(7));
        let text = prometheus_text(&metrics);
        assert!(text.contains("# TYPE rmc_messages_sent counter"));
        assert!(text.contains("# HELP rmc_messages_sent"));
        assert!(text.contains("rmc_messages_sent{layer=\"ucr\",net=\"ib\",node=\"node0\"} 42"));
        assert!(text.contains("# TYPE rmc_queue_depth gauge"));
        assert!(text.contains("rmc_queue_depth{layer=\"mc\",node=\"node0\",worker=\"1\"} 3"));
        assert!(
            text.contains("rmc_queue_depth_high{layer=\"mc\",node=\"node0\",worker=\"1\"} 3"),
            "watermark series missing:\n{text}"
        );
        assert!(text.contains("# TYPE rmc_op_get_us summary"));
        assert!(text.contains("rmc_op_get_us{layer=\"mc\",node=\"node0\",quantile=\"0.99\"} 7"));
        assert!(text.contains("rmc_op_get_us_count{layer=\"mc\",node=\"node0\"} 1"));
        // No duplicate TYPE lines.
        let types: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE ")).collect();
        let mut dedup = types.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(types.len(), dedup.len());
    }
}
