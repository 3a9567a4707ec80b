//! Time-series sampling, Prometheus-style exposition, and health rules.
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
//! * [`HealthMonitor`] — declarative rolling-window rules turning series
//!   into state: p99 inflation over a frozen baseline or a flat
//!   throughput derivative under growing queue depth ⇒
//!   [`Health::Saturated`]; error rate ⇒ [`Health::Degraded`] (which also
//!   dumps the flight recorder). Transitions are emitted into the
//!   [`Tracer`] so they land on the same timeline as the events that
//!   caused them.
//!
//! A sampler re-arms itself until [`Sampler::stop`]: drive simulations
//! with `block_on`/`run_until` (leftover ticks are discarded), not the
//! run-to-empty `Sim::run`.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::rc::Rc;

use crate::engine::Sim;
use crate::exemplar::{Exemplar, ExemplarRing};
use crate::fabric::NodeId;
use crate::metrics::Metrics;
use crate::time::{SimDuration, SimTime};
use crate::trace::{Layer, Tracer, Track};

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

/// Binds a [`HealthMonitor`] to named instruments: each tick the sampler
/// assembles a [`HealthInput`] from these and feeds the monitor.
pub struct MonitorBinding {
    /// The monitor to drive.
    pub monitor: Rc<HealthMonitor>,
    /// Counter whose rate is the throughput signal (ops completed).
    pub throughput_counter: String,
    /// Gauge read as the queue-depth signal (in-flight occupancy,
    /// worker backlog).
    pub queue_gauge: String,
    /// Histogram whose p99 (µs) is the latency signal, if any.
    pub latency_hist: Option<String>,
    /// Counter whose rate is the error/timeout signal, if any.
    pub error_counter: Option<String>,
    /// SLO trackers sampled each tick: compliance and burn-rate series
    /// are pushed per tracker, and the *worst* burn rate becomes the
    /// [`HealthInput::budget_burn`] signal.
    pub slos: Vec<Rc<SloTracker>>,
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
    binding: Option<MonitorBinding>,
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
    /// A sampler over `metrics`, not yet started, feeding `binding`'s
    /// health monitor (if any) on every snapshot. Manual snapshots via
    /// [`sample_now`](Sampler::sample_now) work without starting it.
    pub fn new(
        sim: &Sim,
        metrics: &Rc<Metrics>,
        cfg: SamplerConfig,
        binding: Option<MonitorBinding>,
    ) -> Sampler {
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
                binding,
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
        let mut rates: HashMap<String, f64> = HashMap::new();
        {
            let mut last = inner.last_counter.borrow_mut();
            for (name, c) in inner.metrics.counters() {
                let cur = c.get();
                let prev = last.insert(name.clone(), cur);
                if let (Some(dt), Some(prev)) = (dt_secs, prev) {
                    if dt > 0.0 {
                        let delta = if cur >= prev { cur - prev } else { cur };
                        let rate = delta as f64 / dt;
                        inner.push(&format!("{name}.rate"), now, rate);
                        rates.insert(name, rate);
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

        if let Some(b) = &inner.binding {
            let rate_of = |name: &Option<String>| {
                name.as_ref()
                    .and_then(|n| rates.get(n).copied())
                    .unwrap_or(0.0)
            };
            let mut worst_burn = 0.0f64;
            for slo in &b.slos {
                let compliance = slo.compliance(now);
                let burn = slo.burn_rate(now);
                inner.push(&format!("{}.compliance", slo.spec().name), now, compliance);
                inner.push(&format!("{}.burn", slo.spec().name), now, burn);
                worst_burn = worst_burn.max(burn);
            }
            let input = HealthInput {
                at: now,
                throughput: rates.get(&b.throughput_counter).copied().unwrap_or(0.0),
                queue_depth: inner.metrics.gauge_value(&b.queue_gauge).unwrap_or(0.0),
                p99_us: b
                    .latency_hist
                    .as_ref()
                    .map(|n| inner.metrics.histogram(n).percentile(0.99).as_micros_f64())
                    .unwrap_or(0.0),
                errors_per_sec: rate_of(&b.error_counter),
                budget_burn: worst_burn,
            };
            b.monitor.observe(input);
        }
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
    prometheus_text_with_exemplars(metrics, &[])
}

/// [`prometheus_text`] plus Prometheus-style exemplar annotations: each
/// [`Exemplar`] is rendered as a `# EXEMPLAR` comment line attached to
/// the summary family of the histogram it was captured from, carrying the
/// correlating span id, op, key hash, and the latency/threshold pair.
/// With an empty slice the output is byte-identical to
/// [`prometheus_text`].
pub fn prometheus_text_with_exemplars(metrics: &Metrics, exemplars: &[Exemplar]) -> String {
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

    // Exemplar annotations keyed by the summary family they exemplify
    // (in ring order — capture order is already deterministic).
    let mut notes: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for e in exemplars {
        let family = format!("{}_us", family_and_labels(&e.hist).0);
        notes.entry(family.clone()).or_default().push(format!(
            "# EXEMPLAR {family} span=\"{}\" op=\"{}\" key=\"0x{:016x}\" bytes=\"{}\" \
             value_us={} threshold_us={} at_us={}",
            e.span_id,
            e.op,
            e.key_hash,
            e.bytes,
            e.latency.as_micros_f64(),
            e.threshold.as_micros_f64(),
            e.at.as_micros_f64(),
        ));
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
        if let Some(lines) = notes.get(family) {
            for line in lines {
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// SLO / error-budget tracking
// ---------------------------------------------------------------------

/// Virtual-time buckets per rolling SLO window (compliance is evaluated
/// over the last `SLO_BUCKETS` buckets, so window resolution is
/// `window / SLO_BUCKETS`).
pub const SLO_BUCKETS: u64 = 16;

/// A per-op service-level objective: "`objective` of ops complete within
/// `latency_target`, judged over a rolling `window` of virtual time".
#[derive(Clone, Debug)]
pub struct SloSpec {
    /// Series-name stem for sampler output (e.g. `"slo.node1.get"`);
    /// the sampler derives `<name>.compliance` / `<name>.burn` from it.
    pub name: String,
    /// An op is *good* when its latency is ≤ this target.
    pub latency_target: SimDuration,
    /// Required good fraction (e.g. `0.99`); `1 - objective` is the
    /// error budget.
    pub objective: f64,
    /// Rolling window over which compliance is judged.
    pub window: SimDuration,
}

impl Default for SloSpec {
    fn default() -> SloSpec {
        SloSpec {
            name: "slo.op".to_string(),
            latency_target: SimDuration::from_micros(100),
            objective: 0.99,
            window: SimDuration::from_millis(10),
        }
    }
}

#[derive(Clone, Copy)]
struct SloBucket {
    idx: u64,
    good: u64,
    bad: u64,
}

/// Event-driven rolling compliance and burn rate for one [`SloSpec`].
///
/// Completed ops are fed via [`record`](SloTracker::record); samples land
/// in `SLO_BUCKETS` virtual-time buckets spanning the spec's window, so
/// memory is O(1) regardless of rate. *Burn rate* is the classic
/// error-budget multiplier: the observed bad fraction over the window
/// divided by the budget (`1 - objective`) — `1.0` means the budget is
/// being spent exactly as provisioned, `10.0` means ten times too fast.
pub struct SloTracker {
    spec: SloSpec,
    bucket_width: SimDuration,
    buckets: RefCell<VecDeque<SloBucket>>,
    total_good: Cell<u64>,
    total_bad: Cell<u64>,
}

impl SloTracker {
    /// A fresh tracker (compliance `1.0`, burn `0.0`).
    pub fn new(spec: SloSpec) -> Rc<SloTracker> {
        let width = SimDuration::from_nanos((spec.window.as_nanos() / SLO_BUCKETS).max(1));
        Rc::new(SloTracker {
            spec,
            bucket_width: width,
            buckets: RefCell::new(VecDeque::new()),
            total_good: Cell::new(0),
            total_bad: Cell::new(0),
        })
    }

    /// The objective this tracker judges against.
    pub fn spec(&self) -> &SloSpec {
        &self.spec
    }

    fn bucket_idx(&self, at: SimTime) -> u64 {
        at.as_nanos() / self.bucket_width.as_nanos().max(1)
    }

    fn prune(&self, now_idx: u64) {
        let mut b = self.buckets.borrow_mut();
        let oldest_kept = now_idx.saturating_sub(SLO_BUCKETS - 1);
        while b.front().is_some_and(|f| f.idx < oldest_kept) {
            b.pop_front();
        }
    }

    /// Feeds one completed op observed at virtual time `at`.
    pub fn record(&self, latency: SimDuration, at: SimTime) {
        let good = latency <= self.spec.latency_target;
        if good {
            self.total_good.set(self.total_good.get() + 1);
        } else {
            self.total_bad.set(self.total_bad.get() + 1);
        }
        let idx = self.bucket_idx(at);
        self.prune(idx);
        let mut b = self.buckets.borrow_mut();
        match b.back_mut() {
            Some(back) if back.idx == idx => {
                if good {
                    back.good += 1;
                } else {
                    back.bad += 1;
                }
            }
            _ => b.push_back(SloBucket {
                idx,
                good: good as u64,
                bad: !good as u64,
            }),
        }
    }

    fn window_counts(&self, now: SimTime) -> (u64, u64) {
        self.prune(self.bucket_idx(now));
        let b = self.buckets.borrow();
        b.iter()
            .fold((0, 0), |(g, e), bk| (g + bk.good, e + bk.bad))
    }

    /// Good fraction over the rolling window (`1.0` when idle).
    pub fn compliance(&self, now: SimTime) -> f64 {
        let (good, bad) = self.window_counts(now);
        if good + bad == 0 {
            return 1.0;
        }
        good as f64 / (good + bad) as f64
    }

    /// Error-budget burn multiplier over the rolling window.
    pub fn burn_rate(&self, now: SimTime) -> f64 {
        let bad_fraction = 1.0 - self.compliance(now);
        let budget = (1.0 - self.spec.objective).max(1e-9);
        bad_fraction / budget
    }

    /// Ops judged good since construction or the last reset.
    pub fn good(&self) -> u64 {
        self.total_good.get()
    }

    /// Ops judged bad since construction or the last reset.
    pub fn bad(&self) -> u64 {
        self.total_bad.get()
    }

    /// Clears the rolling window and lifetime totals (a `stats reset`).
    pub fn reset(&self) {
        self.buckets.borrow_mut().clear();
        self.total_good.set(0);
        self.total_bad.set(0);
    }
}

// ---------------------------------------------------------------------
// Health monitoring
// ---------------------------------------------------------------------

/// Overall system condition derived from rolling-window rules.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Health {
    /// No rule fires: latency near baseline, throughput still scaling.
    Healthy,
    /// The knee: more offered load buys no throughput while queues (or
    /// p99) grow — the §VI saturation regime.
    Saturated,
    /// Errors/timeouts above threshold: something is failing, not just
    /// full.
    Degraded,
}

impl Health {
    /// Stable lower-case name.
    pub fn label(self) -> &'static str {
        match self {
            Health::Healthy => "healthy",
            Health::Saturated => "saturated",
            Health::Degraded => "degraded",
        }
    }

    fn code(self) -> u64 {
        match self {
            Health::Healthy => 0,
            Health::Saturated => 1,
            Health::Degraded => 2,
        }
    }
}

/// Declarative thresholds evaluated over the rolling window.
#[derive(Clone, Debug)]
pub struct HealthRules {
    /// Rolling-window length in samples; rules fire only on a full
    /// window.
    pub window: usize,
    /// Number of leading samples (with a nonzero p99) frozen as the
    /// latency baseline.
    pub baseline_window: usize,
    /// Mean windowed p99 above `baseline × this` ⇒ [`Health::Saturated`].
    pub p99_inflation: f64,
    /// Relative throughput growth across the window below this, *while*
    /// queue depth grew, ⇒ [`Health::Saturated`] (derivative ≈ 0 under
    /// rising load).
    pub min_throughput_gain: f64,
    /// Queue-depth growth across the window that must accompany the flat
    /// throughput derivative.
    pub queue_growth: f64,
    /// Mean windowed error rate (per second) above this ⇒
    /// [`Health::Degraded`].
    pub max_error_rate: f64,
    /// Mean windowed error-budget burn multiplier above this ⇒
    /// [`Health::Degraded`] (the SLO is being violated fast enough to
    /// exhaust its budget `max_budget_burn`× too early).
    pub max_budget_burn: f64,
}

impl Default for HealthRules {
    fn default() -> HealthRules {
        HealthRules {
            window: 8,
            baseline_window: 4,
            p99_inflation: 3.0,
            min_throughput_gain: 0.15,
            queue_growth: 0.0,
            max_error_rate: 1.0,
            max_budget_burn: 8.0,
        }
    }
}

/// One observation fed to the monitor (one sampler tick, or one point of
/// an offered-load sweep).
#[derive(Clone, Copy, Debug)]
pub struct HealthInput {
    /// Virtual timestamp of the observation.
    pub at: SimTime,
    /// Throughput signal (ops per second).
    pub throughput: f64,
    /// Queue-depth signal (in-flight window, worker backlog).
    pub queue_depth: f64,
    /// p99 latency signal in microseconds (0 = unavailable; the latency
    /// rule is skipped).
    pub p99_us: f64,
    /// Error/timeout rate signal (per second).
    pub errors_per_sec: f64,
    /// Worst SLO error-budget burn multiplier across bound trackers
    /// (0 = no SLO bound or budget untouched).
    pub budget_burn: f64,
}

/// One recorded state change.
#[derive(Clone, Debug)]
pub struct HealthTransition {
    /// When the monitor switched state.
    pub at: SimTime,
    /// State before.
    pub from: Health,
    /// State after.
    pub to: Health,
    /// Which rule fired (human-readable).
    pub reason: String,
}

/// Evaluates [`HealthRules`] over a rolling window of [`HealthInput`]s.
///
/// On every state change the monitor emits a `health_transition`
/// [`Layer::Core`] instant into the attached tracer (`op` = new state
/// code, `bytes` = old state code) and, on a transition *to*
/// [`Health::Degraded`], triggers a flight-recorder dump via
/// [`Tracer::fault`] so the event history around the failure is
/// preserved.
pub struct HealthMonitor {
    rules: HealthRules,
    node: NodeId,
    tracer: Option<Rc<Tracer>>,
    exemplars: Option<Rc<ExemplarRing>>,
    exemplar_dumps: RefCell<Vec<String>>,
    state: Cell<Health>,
    window: RefCell<VecDeque<HealthInput>>,
    baseline_sum: Cell<f64>,
    baseline_n: Cell<usize>,
    transitions: RefCell<Vec<HealthTransition>>,
}

impl HealthMonitor {
    /// A monitor in [`Health::Healthy`], reporting as `node`: transition
    /// events and fault dumps go to `tracer`, and on every transition *to*
    /// [`Health::Degraded`] the contents of `exemplars` are dumped
    /// (rendered and stored, see
    /// [`exemplar_dumps`](HealthMonitor::exemplar_dumps)) — the tail
    /// records that explain the failure, frozen next to the
    /// flight-recorder dump.
    pub fn new(
        rules: HealthRules,
        node: NodeId,
        tracer: Option<Rc<Tracer>>,
        exemplars: Option<Rc<ExemplarRing>>,
    ) -> Rc<HealthMonitor> {
        Rc::new(HealthMonitor {
            rules,
            node,
            tracer,
            exemplars,
            exemplar_dumps: RefCell::new(Vec::new()),
            state: Cell::new(Health::Healthy),
            window: RefCell::new(VecDeque::new()),
            baseline_sum: Cell::new(0.0),
            baseline_n: Cell::new(0),
            transitions: RefCell::new(Vec::new()),
        })
    }

    /// Exemplar dumps captured so far, one rendered block per Degraded
    /// episode, oldest first.
    pub fn exemplar_dumps(&self) -> Vec<String> {
        self.exemplar_dumps.borrow().clone()
    }

    /// Current state.
    pub fn state(&self) -> Health {
        self.state.get()
    }

    /// Every state change so far, oldest first.
    pub fn transitions(&self) -> Vec<HealthTransition> {
        self.transitions.borrow().clone()
    }

    /// Feeds one observation and returns the (possibly new) state.
    pub fn observe(&self, input: HealthInput) -> Health {
        // Freeze the latency baseline from the first samples that carry
        // a latency signal at all.
        if input.p99_us > 0.0 && self.baseline_n.get() < self.rules.baseline_window {
            self.baseline_sum
                .set(self.baseline_sum.get() + input.p99_us);
            self.baseline_n.set(self.baseline_n.get() + 1);
        }
        {
            let mut w = self.window.borrow_mut();
            while w.len() >= self.rules.window.max(2) {
                w.pop_front();
            }
            w.push_back(input);
        }
        let (next, reason) = self.evaluate();
        let prev = self.state.replace(next);
        if prev != next {
            self.transitions.borrow_mut().push(HealthTransition {
                at: input.at,
                from: prev,
                to: next,
                reason: reason.clone(),
            });
            if let Some(tracer) = &self.tracer {
                tracer.instant(
                    Layer::Core,
                    "health_transition",
                    self.node,
                    Track::Main,
                    next.code(),
                    prev.code(),
                    input.at,
                );
                if next == Health::Degraded {
                    tracer.fault(&format!("health degraded: {reason}"));
                }
            }
            if next == Health::Degraded {
                if let Some(ring) = &self.exemplars {
                    self.exemplar_dumps.borrow_mut().push(ring.render());
                }
            }
        }
        next
    }

    fn evaluate(&self) -> (Health, String) {
        let w = self.window.borrow();
        if w.len() < self.rules.window.max(2) {
            return (Health::Healthy, String::new());
        }
        let mean =
            |f: fn(&HealthInput) -> f64| -> f64 { w.iter().map(f).sum::<f64>() / w.len() as f64 };
        let err_rate = mean(|i| i.errors_per_sec);
        if err_rate > self.rules.max_error_rate {
            return (
                Health::Degraded,
                format!(
                    "error rate {err_rate:.1}/s over window exceeds {:.1}/s",
                    self.rules.max_error_rate
                ),
            );
        }
        let burn = mean(|i| i.budget_burn);
        if burn > self.rules.max_budget_burn {
            return (
                Health::Degraded,
                format!(
                    "error-budget burn {burn:.1}x over window exceeds {:.1}x",
                    self.rules.max_budget_burn
                ),
            );
        }
        if self.baseline_n.get() >= self.rules.baseline_window {
            let baseline = self.baseline_sum.get() / self.baseline_n.get() as f64;
            let p99 = mean(|i| i.p99_us);
            if baseline > 0.0 && p99 > baseline * self.rules.p99_inflation {
                return (
                    Health::Saturated,
                    format!(
                        "p99 {p99:.1}us is {:.1}x the {baseline:.1}us baseline",
                        p99 / baseline
                    ),
                );
            }
        }
        let first = w.front().expect("window checked nonempty");
        let last = w.back().expect("window checked nonempty");
        if last.throughput > 0.0 {
            let gain =
                (last.throughput - first.throughput) / first.throughput.max(f64::MIN_POSITIVE);
            let queue_delta = last.queue_depth - first.queue_depth;
            if gain < self.rules.min_throughput_gain && queue_delta > self.rules.queue_growth {
                return (
                    Health::Saturated,
                    format!(
                        "throughput gain {:.0}% under queue growth {queue_delta:.1}",
                        gain * 100.0
                    ),
                );
            }
        }
        (Health::Healthy, String::new())
    }

    /// Replays an offered-load sweep (one [`HealthInput`] per load step,
    /// lightest first) through a fresh monitor with a two-step window and
    /// returns the index of the first step judged [`Health::Saturated`] —
    /// the knee: the first step whose marginal throughput gain fell below
    /// `rules.min_throughput_gain` while the queue signal kept growing.
    pub fn locate_knee(rules: &HealthRules, sweep: &[HealthInput]) -> Option<usize> {
        let m = HealthMonitor::new(
            HealthRules {
                window: 2,
                ..rules.clone()
            },
            NodeId(0),
            None,
            None,
        );
        for (i, input) in sweep.iter().enumerate() {
            if m.observe(*input) == Health::Saturated {
                return Some(i);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exemplar::ExemplarConfig;
    use crate::trace::EventRecorder;

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1000)
    }

    #[test]
    fn counter_rates_over_irregular_intervals() {
        let sim = Sim::new(1);
        let metrics = Rc::new(Metrics::new());
        let c = metrics.counter("reqs");
        let sampler = Sampler::new(&sim, &metrics, SamplerConfig::default(), None);

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
        let sampler = Sampler::new(&sim, &metrics, SamplerConfig::default(), None);
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
            None,
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
            None,
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
        let sampler = Sampler::new(&sim, &metrics, SamplerConfig::default(), None);
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

    fn input(at_us: u64, tput: f64, queue: f64) -> HealthInput {
        HealthInput {
            at: t(at_us),
            throughput: tput,
            queue_depth: queue,
            p99_us: 0.0,
            errors_per_sec: 0.0,
            budget_burn: 0.0,
        }
    }

    #[test]
    fn flat_throughput_with_queue_growth_saturates_then_recovers() {
        let m = HealthMonitor::new(
            HealthRules {
                window: 3,
                ..HealthRules::default()
            },
            NodeId(0),
            None,
            None,
        );
        // Throughput still doubling: healthy.
        assert_eq!(m.observe(input(0, 100.0, 1.0)), Health::Healthy);
        assert_eq!(m.observe(input(10, 200.0, 2.0)), Health::Healthy);
        assert_eq!(m.observe(input(20, 400.0, 4.0)), Health::Healthy);
        // Derivative collapses while the queue keeps growing.
        assert_eq!(m.observe(input(30, 410.0, 8.0)), Health::Healthy);
        assert_eq!(m.observe(input(40, 412.0, 16.0)), Health::Saturated);
        // Queue stops growing; once the growth ages out of the window the
        // flat derivative alone is not saturation.
        assert_eq!(m.observe(input(50, 413.0, 16.0)), Health::Saturated);
        assert_eq!(m.observe(input(60, 414.0, 16.0)), Health::Healthy);
        let trans = m.transitions();
        assert_eq!(trans.len(), 2);
        assert_eq!(trans[0].to, Health::Saturated);
        assert!(trans[0].reason.contains("throughput gain"));
    }

    #[test]
    fn p99_inflation_over_baseline_saturates() {
        let m = HealthMonitor::new(
            HealthRules {
                window: 2,
                baseline_window: 2,
                p99_inflation: 3.0,
                ..HealthRules::default()
            },
            NodeId(0),
            None,
            None,
        );
        let lat = |at_us: u64, p99: f64| HealthInput {
            at: t(at_us),
            throughput: 100.0,
            queue_depth: 1.0,
            p99_us: p99,
            errors_per_sec: 0.0,
            budget_burn: 0.0,
        };
        assert_eq!(m.observe(lat(0, 10.0)), Health::Healthy);
        assert_eq!(m.observe(lat(10, 12.0)), Health::Healthy); // baseline = 11
        assert_eq!(m.observe(lat(20, 20.0)), Health::Healthy);
        // Window mean p99 jumps past 3x the frozen baseline.
        assert_eq!(m.observe(lat(30, 80.0)), Health::Saturated);
        assert!(m.transitions()[0].reason.contains("baseline"));
    }

    #[test]
    fn error_rate_degrades_and_dumps_flight_recorder() {
        let tracer = Tracer::new(&Rc::new(Metrics::new()));
        let rec = EventRecorder::new();
        tracer.add_sink(rec.clone());
        let m = HealthMonitor::new(
            HealthRules {
                window: 2,
                max_error_rate: 5.0,
                ..HealthRules::default()
            },
            NodeId(3),
            Some(tracer.clone()),
            None,
        );
        let err = |at_us: u64, eps: f64| HealthInput {
            at: t(at_us),
            throughput: 100.0,
            queue_depth: 1.0,
            p99_us: 0.0,
            errors_per_sec: eps,
            budget_burn: 0.0,
        };
        assert_eq!(m.observe(err(0, 0.0)), Health::Healthy);
        assert_eq!(m.observe(err(10, 20.0)), Health::Degraded);
        assert_eq!(tracer.fault_count(), 1);
        assert!(tracer
            .last_fault()
            .expect("fault stored")
            .contains("health degraded"));
        let evs = rec.take();
        let ev = evs
            .iter()
            .find(|e| e.name == "health_transition")
            .expect("transition event emitted");
        assert_eq!(ev.op, Health::Degraded.code());
        assert_eq!(ev.bytes, Health::Healthy.code());
        assert_eq!(ev.node, Some(NodeId(3)));
    }

    #[test]
    fn slo_tracker_windows_compliance_and_burn() {
        let slo = SloTracker::new(SloSpec {
            name: "slo.get".to_string(),
            latency_target: SimDuration::from_micros(50),
            objective: 0.9,
            window: SimDuration::from_micros(160), // bucket width 10us
        });
        assert_eq!(slo.compliance(t(0)), 1.0, "idle tracker is compliant");
        assert_eq!(slo.burn_rate(t(0)), 0.0);
        // 8 good + 2 bad inside one window: compliance 0.8, and with a
        // 10% budget the 20% bad fraction burns 2x.
        for i in 0..8 {
            slo.record(SimDuration::from_micros(10), t(i));
        }
        slo.record(SimDuration::from_micros(500), t(8));
        slo.record(SimDuration::from_micros(500), t(9));
        assert!((slo.compliance(t(10)) - 0.8).abs() < 1e-9);
        assert!((slo.burn_rate(t(10)) - 2.0).abs() < 1e-9);
        assert_eq!(slo.good(), 8);
        assert_eq!(slo.bad(), 2);
        // The bad samples age out of the rolling window; lifetime totals
        // keep them.
        for i in 0..16 {
            slo.record(SimDuration::from_micros(10), t(200 + i * 10));
        }
        assert_eq!(slo.compliance(t(360)), 1.0);
        assert_eq!(slo.burn_rate(t(360)), 0.0);
        assert_eq!(slo.bad(), 2);
        slo.reset();
        assert_eq!(slo.good() + slo.bad(), 0);
        assert_eq!(slo.compliance(t(360)), 1.0);
    }

    #[test]
    fn budget_burn_degrades_then_recovers_with_exemplar_dump_per_episode() {
        let tracer = Tracer::new(&Rc::new(Metrics::new()));
        let ring = ExemplarRing::new(ExemplarConfig {
            min_samples: 0,
            ..ExemplarConfig::default()
        });
        let m = HealthMonitor::new(
            HealthRules {
                window: 2,
                max_budget_burn: 4.0,
                ..HealthRules::default()
            },
            NodeId(1),
            Some(tracer.clone()),
            Some(ring.clone()),
        );
        ring.push(Exemplar {
            op: "get",
            key_hash: 0xabc,
            bytes: 64,
            latency: SimDuration::from_micros(900),
            threshold: SimDuration::from_micros(100),
            at: t(5),
            span_id: 41,
            hist: "mc.node0.op_get".to_string(),
            path: None,
        });
        let burn = |at_us: u64, b: f64| HealthInput {
            at: t(at_us),
            throughput: 100.0,
            queue_depth: 1.0,
            p99_us: 0.0,
            errors_per_sec: 0.0,
            budget_burn: b,
        };
        // First episode.
        assert_eq!(m.observe(burn(0, 0.0)), Health::Healthy);
        assert_eq!(m.observe(burn(10, 20.0)), Health::Degraded);
        assert_eq!(tracer.fault_count(), 1);
        assert_eq!(m.exemplar_dumps().len(), 1);
        assert!(m.exemplar_dumps()[0].contains("span=41"));
        assert!(m.transitions()[0].reason.contains("error-budget burn"));
        // Burn clears: recovery to Healthy.
        assert_eq!(m.observe(burn(20, 0.0)), Health::Degraded);
        assert_eq!(m.observe(burn(30, 0.0)), Health::Healthy);
        // Second episode triggers a second fault and a second dump.
        assert_eq!(m.observe(burn(40, 30.0)), Health::Degraded);
        assert_eq!(tracer.fault_count(), 2);
        assert_eq!(m.exemplar_dumps().len(), 2);
        assert_eq!(m.transitions().len(), 3);
    }

    #[test]
    fn sampler_pushes_slo_series_and_feeds_budget_burn() {
        let sim = Sim::new(1);
        let metrics = Rc::new(Metrics::new());
        metrics.counter("ops");
        metrics.gauge("depth");
        let slo = SloTracker::new(SloSpec {
            name: "slo.node0.get".to_string(),
            latency_target: SimDuration::from_micros(10),
            objective: 0.5,
            window: SimDuration::from_millis(10),
        });
        let monitor = HealthMonitor::new(
            HealthRules {
                window: 2,
                max_budget_burn: 1.5,
                ..HealthRules::default()
            },
            NodeId(0),
            None,
            None,
        );
        let binding = MonitorBinding {
            monitor: monitor.clone(),
            throughput_counter: "ops".to_string(),
            queue_gauge: "depth".to_string(),
            latency_hist: None,
            error_counter: None,
            slos: vec![slo.clone()],
        };
        let sampler = Sampler::new(&sim, &metrics, SamplerConfig::default(), Some(binding));
        // All ops violate the target: compliance 0, burn 1/0.5 = 2x.
        slo.record(SimDuration::from_micros(100), SimTime::ZERO);
        slo.record(SimDuration::from_micros(100), SimTime::ZERO);
        sampler.sample_now();
        let s = sim.clone();
        sim.block_on(async move { s.sleep(SimDuration::from_micros(10)).await });
        sampler.sample_now();
        assert_eq!(sampler.values("slo.node0.get.compliance"), vec![0.0, 0.0]);
        assert_eq!(sampler.values("slo.node0.get.burn"), vec![2.0, 2.0]);
        assert_eq!(monitor.state(), Health::Degraded);
        assert!(monitor.transitions()[0].reason.contains("error-budget"));
    }

    #[test]
    fn prometheus_exemplar_annotations_attach_to_their_family() {
        let metrics = Metrics::new();
        metrics
            .histogram("mc.node0.op_get")
            .record(SimDuration::from_micros(7));
        metrics.counter("mc.node0.cmd_get").add(1);
        let bare = prometheus_text(&metrics);
        assert_eq!(
            bare,
            prometheus_text_with_exemplars(&metrics, &[]),
            "no exemplars must render byte-identically"
        );
        let e = Exemplar {
            op: "get",
            key_hash: 0x1f,
            bytes: 128,
            latency: SimDuration::from_micros(420),
            threshold: SimDuration::from_micros(100),
            at: t(9),
            span_id: 77,
            hist: "mc.node0.op_get".to_string(),
            path: None,
        };
        let text = prometheus_text_with_exemplars(&metrics, &[e]);
        let note = text
            .lines()
            .find(|l| l.starts_with("# EXEMPLAR"))
            .expect("annotation rendered");
        assert!(note.contains("rmc_op_get_us"), "{note}");
        assert!(note.contains("span=\"77\""));
        assert!(note.contains("key=\"0x000000000000001f\""));
        assert!(note.contains("value_us=420"));
        // The annotation lands inside the op_get family block, right
        // after its series lines.
        let lines: Vec<&str> = text.lines().collect();
        let idx = lines
            .iter()
            .position(|l| l.starts_with("# EXEMPLAR"))
            .expect("present");
        assert!(lines[idx - 1].starts_with("rmc_op_get_us"));
    }

    #[test]
    fn locate_knee_finds_first_flat_step() {
        // A depth sweep: throughput doubles, doubles, then stalls.
        let sweep: Vec<HealthInput> = [
            (1.0, 250.0),
            (2.0, 490.0),
            (4.0, 960.0),
            (8.0, 1650.0),
            (16.0, 1700.0),
        ]
        .iter()
        .enumerate()
        .map(|(i, &(depth, tput))| input(i as u64 * 10, tput, depth))
        .collect();
        let knee = HealthMonitor::locate_knee(&HealthRules::default(), &sweep);
        assert_eq!(knee, Some(4)); // depth 16: +3% over depth 8
                                   // A curve that never flattens has no knee.
        let rising: Vec<HealthInput> = (0..5)
            .map(|i| input(i * 10, 100.0 * 2f64.powi(i as i32), i as f64))
            .collect();
        assert_eq!(
            HealthMonitor::locate_knee(&HealthRules::default(), &rising),
            None
        );
    }
}
