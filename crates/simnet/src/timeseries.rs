//! Time-series sampling and Prometheus-style exposition.
//!
//! The paper's whole evaluation is about *where the knee is*: latency flat
//! until the fabric saturates (§VI-B), throughput scaling with clients
//! until per-message overhead dominates (§VI-C). End-of-run aggregates
//! ([`crate::metrics`]) cannot show a knee — it lives in the *trajectory*.
//! This module samples every registered instrument on a virtual-time
//! interval into bounded per-metric rings, so the trajectory becomes data:
//!
//! * [`Sampler`] — periodic snapshots of all counters (as rates over the
//!   actual inter-sample interval), gauges (value + high/low watermarks),
//!   and histogram summaries. Sampling costs **zero virtual time**: ticks
//!   are raw scheduler events (no task, no polls, no wakeups shared with
//!   protocol code), so a sampled run and a bare run read identical
//!   clocks — the same discipline as [`crate::trace`].
//! * [`prometheus_text`] — the registry rendered in Prometheus text
//!   exposition format with `# TYPE`/`# HELP` lines and `node`/`worker`/
//!   `layer` labels recovered from the dotted metric names (surfaced as
//!   `stats prom` in the memcached protocol and
//!   `Cluster::export_prometheus`).
//!
//! A sampler re-arms itself until [`Sampler::stop`]: drive simulations
//! with `block_on`/`run_until` (leftover ticks are discarded), not the
//! run-to-empty `Sim::run`.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::rc::Rc;

use crate::engine::Sim;
use crate::metrics::Metrics;
use crate::time::{SimDuration, SimTime};

// ---------------------------------------------------------------------
// Sampler
// ---------------------------------------------------------------------

/// One sample of one series: a value at a virtual timestamp.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SamplePoint {
    /// Virtual time the snapshot was taken.
    pub at: SimTime,
    /// The sampled value.
    pub value: f64,
}

/// Sampler tuning.
#[derive(Clone, Copy, Debug)]
pub struct SamplerConfig {
    /// Virtual time between automatic snapshots.
    pub interval: SimDuration,
    /// Points kept per series; older points are dropped (and counted).
    pub capacity: usize,
}

impl Default for SamplerConfig {
    fn default() -> SamplerConfig {
        SamplerConfig {
            interval: SimDuration::from_micros(100),
            capacity: 512,
        }
    }
}

struct Ring {
    points: VecDeque<SamplePoint>,
}

struct SamplerInner {
    sim: Sim,
    metrics: Rc<Metrics>,
    cfg: SamplerConfig,
    series: RefCell<BTreeMap<String, Ring>>,
    last_counter: RefCell<HashMap<String, u64>>,
    last_at: Cell<Option<SimTime>>,
    running: Cell<bool>,
    ticks: Cell<u64>,
    dropped: Cell<u64>,
}

/// Periodic zero-virtual-time snapshots of a [`Metrics`] registry.
///
/// Counters are recorded as **rates** under `<name>.rate` (per second of
/// virtual time, over the actual — possibly irregular — interval since
/// the previous snapshot; the first snapshot only seeds the baseline).
/// Gauges are recorded under `<name>` plus `<name>.high`/`<name>.low`
/// watermarks; histograms under `<name>.{count,mean_us,p99_us}`.
pub struct Sampler {
    inner: Rc<SamplerInner>,
}

impl Sampler {
    /// A sampler over `metrics`, not yet started. Manual snapshots via
    /// [`sample_now`](Sampler::sample_now) work without starting it.
    pub fn new(sim: &Sim, metrics: &Rc<Metrics>, cfg: SamplerConfig) -> Sampler {
        Sampler {
            inner: Rc::new(SamplerInner {
                sim: sim.clone(),
                metrics: metrics.clone(),
                cfg,
                series: RefCell::new(BTreeMap::new()),
                last_counter: RefCell::new(HashMap::new()),
                last_at: Cell::new(None),
                running: Cell::new(false),
                ticks: Cell::new(0),
                dropped: Cell::new(0),
            }),
        }
    }

    /// Starts periodic snapshots, the first one `interval` from now.
    /// Idempotent while running.
    pub fn start(&self) {
        if self.inner.running.replace(true) {
            return;
        }
        Sampler::arm(self.inner.clone());
    }

    /// Stops re-arming. The one already-scheduled tick (if any) becomes a
    /// no-op when it fires.
    pub fn stop(&self) {
        self.inner.running.set(false);
    }

    /// Takes one snapshot immediately (usable whether or not the periodic
    /// schedule is running — tests drive irregular intervals this way).
    pub fn sample_now(&self) {
        SamplerInner::sample(&self.inner);
    }

    /// Snapshots taken so far.
    pub fn ticks(&self) -> u64 {
        self.inner.ticks.get()
    }

    /// Points discarded because their series ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.get()
    }

    /// The points of one series, oldest first; `None` if never written.
    pub fn series(&self, name: &str) -> Option<Vec<SamplePoint>> {
        self.inner
            .series
            .borrow()
            .get(name)
            .map(|r| r.points.iter().copied().collect())
    }

    /// Just the values of one series, oldest first (empty if absent).
    pub fn values(&self, name: &str) -> Vec<f64> {
        self.series(name)
            .map(|pts| pts.iter().map(|p| p.value).collect())
            .unwrap_or_default()
    }

    fn arm(inner: Rc<SamplerInner>) {
        let interval = inner.cfg.interval;
        let sim = inner.sim.clone();
        sim.schedule(interval, move || {
            if !inner.running.get() {
                return;
            }
            SamplerInner::sample(&inner);
            Sampler::arm(inner.clone());
        });
    }
}

impl SamplerInner {
    fn push(&self, name: &str, at: SimTime, value: f64) {
        let mut series = self.series.borrow_mut();
        let ring = series.entry(name.to_string()).or_insert_with(|| Ring {
            points: VecDeque::new(),
        });
        while ring.points.len() >= self.cfg.capacity.max(1) {
            ring.points.pop_front();
            self.dropped.set(self.dropped.get() + 1);
        }
        ring.points.push_back(SamplePoint { at, value });
    }

    fn sample(inner: &Rc<SamplerInner>) {
        let now = inner.sim.now();
        let dt_secs = inner
            .last_at
            .get()
            .map(|prev| now.saturating_since(prev).as_secs_f64());

        // Counters: rate over the actual interval since the previous
        // snapshot. A counter that moved backwards (a `stats reset`
        // between samples) restarts from zero instead of underflowing.
        {
            let mut last = inner.last_counter.borrow_mut();
            for (name, c) in inner.metrics.counters() {
                let cur = c.get();
                let prev = last.insert(name.clone(), cur);
                if let (Some(dt), Some(prev)) = (dt_secs, prev) {
                    if dt > 0.0 {
                        let delta = if cur >= prev { cur - prev } else { cur };
                        inner.push(&format!("{name}.rate"), now, delta as f64 / dt);
                    }
                }
            }
        }
        for (name, g) in inner.metrics.gauges() {
            inner.push(&name, now, g.get());
            inner.push(&format!("{name}.high"), now, g.high());
            inner.push(&format!("{name}.low"), now, g.low());
        }
        for (name, h) in inner.metrics.histograms() {
            let s = h.summary();
            inner.push(&format!("{name}.count"), now, s.count as f64);
            inner.push(&format!("{name}.mean_us"), now, s.mean.as_micros_f64());
            inner.push(&format!("{name}.p99_us"), now, s.p99.as_micros_f64());
        }
        inner.last_at.set(Some(now));
        inner.ticks.set(inner.ticks.get() + 1);
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

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1000)
    }

    #[test]
    fn counter_rates_over_irregular_intervals() {
        let sim = Sim::new(1);
        let metrics = Rc::new(Metrics::new());
        let c = metrics.counter("reqs");
        let sampler = Sampler::new(&sim, &metrics, SamplerConfig::default());

        // First sample at t=0 only seeds the baseline: no rate point.
        sampler.sample_now();
        assert!(sampler.series("reqs.rate").is_none());

        // 100 events over 1 ms → 100_000/s.
        c.add(100);
        let s = sim.clone();
        sim.block_on(async move { s.sleep(SimDuration::from_millis(1)).await });
        sampler.sample_now();
        // 30 more events over a *different* interval, 3 ms → 10_000/s.
        c.add(30);
        let s = sim.clone();
        sim.block_on(async move { s.sleep(SimDuration::from_millis(3)).await });
        sampler.sample_now();

        let rates = sampler.values("reqs.rate");
        assert_eq!(rates.len(), 2);
        assert!((rates[0] - 100_000.0).abs() < 1e-6, "{rates:?}");
        assert!((rates[1] - 10_000.0).abs() < 1e-6, "{rates:?}");
    }

    #[test]
    fn counter_reset_between_samples_restarts_rate_from_zero() {
        let sim = Sim::new(1);
        let metrics = Rc::new(Metrics::new());
        let c = metrics.counter("reqs");
        let sampler = Sampler::new(&sim, &metrics, SamplerConfig::default());
        c.add(50);
        sampler.sample_now();
        c.reset();
        c.add(7);
        let s = sim.clone();
        sim.block_on(async move { s.sleep(SimDuration::from_millis(1)).await });
        sampler.sample_now();
        let rates = sampler.values("reqs.rate");
        // Moved 50 → 7: treated as 7 fresh events, not an underflow.
        assert_eq!(rates.len(), 1);
        assert!((rates[0] - 7_000.0).abs() < 1e-6, "{rates:?}");
    }

    #[test]
    fn rings_are_bounded_and_count_drops() {
        let sim = Sim::new(1);
        let metrics = Rc::new(Metrics::new());
        metrics.gauge("depth").set(1.0);
        let sampler = Sampler::new(
            &sim,
            &metrics,
            SamplerConfig {
                capacity: 4,
                ..SamplerConfig::default()
            },
        );
        for _ in 0..10 {
            sampler.sample_now();
        }
        // Three series per gauge (value/high/low), each capped at 4.
        assert_eq!(sampler.values("depth").len(), 4);
        assert_eq!(sampler.dropped(), 6 * 3);
        assert_eq!(sampler.ticks(), 10);
    }

    #[test]
    fn periodic_sampler_runs_on_virtual_interval_and_stops() {
        let sim = Sim::new(1);
        let metrics = Rc::new(Metrics::new());
        let g = metrics.gauge("util");
        let sampler = Sampler::new(
            &sim,
            &metrics,
            SamplerConfig {
                interval: SimDuration::from_micros(10),
                capacity: 64,
            },
        );
        g.set(0.5);
        sampler.start();
        let s = sim.clone();
        sim.block_on(async move { s.sleep(SimDuration::from_micros(95)).await });
        assert_eq!(sampler.ticks(), 9); // t=10,20,...,90
        let pts = sampler.series("util").expect("series exists");
        assert_eq!(pts[0].at, t(10));
        assert_eq!(pts.last().expect("nonempty").at, t(90));
        sampler.stop();
        let s = sim.clone();
        sim.block_on(async move { s.sleep(SimDuration::from_micros(100)).await });
        assert_eq!(sampler.ticks(), 9, "stopped sampler must not tick");
    }

    #[test]
    fn gauge_series_include_watermarks() {
        let sim = Sim::new(1);
        let metrics = Rc::new(Metrics::new());
        let g = metrics.gauge("q");
        let sampler = Sampler::new(&sim, &metrics, SamplerConfig::default());
        g.set(3.0);
        g.set(9.0);
        g.set(2.0);
        sampler.sample_now();
        assert_eq!(sampler.values("q"), vec![2.0]);
        assert_eq!(sampler.values("q.high"), vec![9.0]);
        assert_eq!(sampler.values("q.low"), vec![2.0]);
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
