//! The five workloads: what each one is, how a testbed is set up for it,
//! and the closed-loop measured phase.
//!
//! Load shape (all workloads): closed loop — a simulated client issues its
//! next operation when the previous one completes (the pipelined workload
//! keeps a fixed window of them), from one single-threaded host process.
//! The measured phase is a warm-up segment, then [`WINDOW_SEGMENTS`]
//! segments of a fixed number of completed operations, the window; then it
//! stops. Every count and every virtual-time number comes from the window,
//! so they repeat exactly for a seed, and a run that has more time repeats
//! the whole thing — set-up, warm-up, window — in a fresh world. The host
//! clock is read every [`SLICES_PER_SEGMENT`]th of a segment, and the host
//! rate is what the fastest slices reach ([`best_rate`]): this machine
//! shares its memory system with neighbours that slow it to 0.6 of its
//! speed for seconds or minutes at a time, with gaps of a tenth of a second,
//! and only the fastest slices see the simulator alone.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Instant;

use rmc::{
    InFlightGet, InFlightSet, McClient, McClientConfig, McError, McServer, McServerConfig,
    StoreModel, Transport, Value, World,
};
use simnet::{NetKind, NodeId, Sim, SimTime, Stack};

use crate::gen::{Digest, KeySpace, Popularity, Rng};
use crate::layers::{self, Counters, Tracing};
use crate::{alloc, host};

/// Segments after the warm-up that the counts and virtual-time metrics
/// are taken from.
pub const WINDOW_SEGMENTS: u64 = 5;

/// Host-clock readings per segment.
pub const SLICES_PER_SEGMENT: u64 = 16;

/// The common factor on every workload's operation count. 1.0 is the
/// issue's sizing (≥ 5 s of host time per workload); half of that lets a
/// run of 20 s repeat the window 3 to 7 times.
pub const OPS_SCALE: f64 = 0.5;

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Testbed {
    /// Clovertown + ConnectX DDR + 10GigE-TOE.
    A,
    /// Westmere + ConnectX QDR.
    B,
}

/// A figure of the paper a workload reproduces.
pub struct Reference {
    pub figure: &'static str,
    pub section: &'static str,
    /// What the paper reports, in `unit`.
    pub paper_value: f64,
    pub unit: &'static str,
    /// What the repo's committed `results/` hold for the same point.
    pub repo_value: f64,
}

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub testbed: Testbed,
    pub transport: Transport,
    pub clients: u32,
    pub ops_per_client: u64,
    pub value_size: usize,
    pub set_share: f64,
    pub keys: usize,
    /// Zipf exponent of key popularity; 0 is uniform.
    pub skew: f64,
    /// Operations each client keeps in flight (`issue_get`/`issue_set`
    /// handles when above 1).
    pub depth: usize,
    pub workers: usize,
    pub store_model: StoreModel,
    /// The working set exceeds the store, so a get may miss.
    pub misses_legal: bool,
    /// Simulated operations per host second of this workload's window on a
    /// quiet host, rounded, when the benchmark was added. `setup_s` is the
    /// set-up's share of the window's time scaled to it. It is a fixed
    /// scale and not a measurement: it stays when the simulator gets
    /// faster.
    pub nominal_ops_per_s: f64,
    pub reference: Option<Reference>,
}

pub static SPECS: [Spec; 5] = [
    Spec {
        name: "ucr_small_get_16c",
        why: "Paper Fig. 6(c) headline: 16 clients, 4 B gets. Per-message cost is everything; \
              server HCA, UCR progress and worker hand-off saturate, the store is idle.",
        testbed: Testbed::B,
        transport: Transport::Ucr,
        clients: 16,
        ops_per_client: 40_000,
        value_size: 4,
        set_share: 0.0,
        keys: 1_000,
        skew: 0.0,
        depth: 1,
        workers: 4,
        store_model: StoreModel::Idealized,
        misses_legal: false,
        nominal_ops_per_s: 110_000.0,
        reference: Some(Reference {
            figure: "Fig. 6(c)",
            section: "VI-D",
            paper_value: 1_800_000.0,
            unit: "ops/s",
            repo_value: 1_785_345.0,
        }),
    },
    Spec {
        name: "ucr_4k_get_1c",
        why: "Paper Fig. 4(c) headline: one client, 4 KB gets. Nothing queues, so latency is \
              the plain sum of stage costs; only a per-byte change may move it.",
        testbed: Testbed::B,
        transport: Transport::Ucr,
        clients: 1,
        ops_per_client: 600_000,
        value_size: 4096,
        set_share: 0.0,
        keys: 100,
        skew: 0.0,
        depth: 1,
        workers: 4,
        store_model: StoreModel::Idealized,
        misses_legal: false,
        nominal_ops_per_s: 105_000.0,
        reference: Some(Reference {
            figure: "Fig. 4(c)",
            section: "VI-B",
            paper_value: 12.0,
            unit: "us",
            repo_value: 12.3,
        }),
    },
    Spec {
        name: "ucr_large_mixed_4c",
        why: "64 KB values, half sets, working set 4x the store: rendezvous reads, MR cache, \
              slab eviction and real 64 KB copies. A get-side gain that costs sets shows here.",
        testbed: Testbed::B,
        transport: Transport::Ucr,
        clients: 4,
        ops_per_client: 40_000,
        value_size: 64 << 10,
        set_share: 0.5,
        keys: 4_000,
        skew: 0.99,
        depth: 1,
        workers: 4,
        store_model: StoreModel::Idealized,
        misses_legal: true,
        nominal_ops_per_s: 35_000.0,
        reference: None,
    },
    Spec {
        name: "sock_ascii_mixed_8c",
        why: "The paper's strongest baseline: ASCII over 10GigE-TOE sockets, 10% sets. Runs \
              socksim and mcproto and no verbs or UCR code; a UCR change predicts no change.",
        testbed: Testbed::A,
        transport: Transport::Sockets(Stack::TenGigEToe),
        clients: 8,
        ops_per_client: 100_000,
        value_size: 1024,
        set_share: 0.1,
        keys: 10_000,
        skew: 0.99,
        depth: 1,
        workers: 4,
        store_model: StoreModel::Idealized,
        misses_legal: false,
        nominal_ops_per_s: 120_000.0,
        reference: None,
    },
    Spec {
        name: "ucr_pipelined_sharded_16c",
        why: "The extension path: 8 handles in flight per client, 8 workers, 16 store shards. \
              The only workload taking store locks and queueing at workers; same wire as the small gets.",
        testbed: Testbed::B,
        transport: Transport::Ucr,
        clients: 16,
        ops_per_client: 40_000,
        value_size: 64,
        set_share: 0.05,
        keys: 100_000,
        skew: 0.99,
        depth: 8,
        workers: 8,
        store_model: StoreModel::Sharded(16),
        misses_legal: false,
        nominal_ops_per_s: 80_000.0,
        reference: None,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    /// Completed operations per slice at `scale`.
    fn slice_ops(&self, scale: f64) -> u64 {
        let total = u64::from(self.clients) as f64 * self.ops_per_client as f64 * scale;
        ((total / ((WINDOW_SEGMENTS + 1) * SLICES_PER_SEGMENT) as f64) as u64).max(1)
    }

    /// Completed operations per segment at `scale`.
    pub fn segment_ops(&self, scale: f64) -> u64 {
        self.slice_ops(scale) * SLICES_PER_SEGMENT
    }

    /// The network the workload's traffic crosses.
    pub fn net(&self) -> NetKind {
        match self.transport {
            Transport::Sockets(Stack::TenGigEToe) => NetKind::TenGigE,
            _ => NetKind::Ib,
        }
    }
}

/// How one run is made.
#[derive(Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    /// Attach the profiler and the counting sink (the traced run).
    pub traced: bool,
    pub scale: f64,
}

/// A testbed set up for a workload: server started, clients connected,
/// key space preloaded.
pub struct Bench {
    pub world: World,
    pub server: McServer,
    pub clients: Vec<McClient>,
    pub keys: Rc<KeySpace>,
    /// The profiler and counting sink of a traced run.
    pub tracing: Option<Tracing>,
    pub spec: &'static Spec,
    /// Host seconds building it took.
    pub build_s: f64,
}

const SERVER: NodeId = NodeId(0);

/// Builds the world, starts the server, preloads every key and connects
/// every client. Timed as `build_s`; generating the key names is the
/// benchmark's own work and is not.
pub fn setup(spec: &'static Spec, cfg: &RunConfig) -> Rc<Bench> {
    let mut rng = Rng::new(cfg.seed).fork(u64::MAX);
    let keys = Rc::new(KeySpace::new(&mut rng, spec.keys, spec.value_size));

    let started = Instant::now();
    let world = match spec.testbed {
        Testbed::A => World::cluster_a(cfg.seed, spec.clients + 2),
        Testbed::B => World::cluster_b(cfg.seed, spec.clients + 2),
    };
    // Before any client exists: clients seed their request ids from the
    // tracer's detail flag, which attaching the profiler sets.
    let tracing = cfg.traced.then(|| Tracing::attach(&world));
    let server = McServer::start(
        &world,
        SERVER,
        McServerConfig {
            workers: spec.workers,
            store_model: spec.store_model,
            ..McServerConfig::default()
        },
    );
    let loader = McClient::new(
        &world,
        NodeId(spec.clients + 1),
        McClientConfig {
            pipeline_depth: 32,
            ..McClientConfig::single(spec.transport, SERVER)
        },
    );
    let clients: Vec<McClient> = (0..spec.clients)
        .map(|c| {
            McClient::new(
                &world,
                NodeId(1 + c),
                McClientConfig::single(spec.transport, SERVER),
            )
        })
        .collect();

    let (ks, cl, misses_legal) = (keys.clone(), clients.clone(), spec.misses_legal);
    world.sim().block_on(async move {
        // Preload in batches that hold at most ~4 MB of values at a time.
        let batch = (4 << 20) / ks.value_size().max(1);
        let batch = batch.clamp(1, 256);
        let mut values: Vec<Vec<u8>> = vec![Vec::new(); batch];
        for first in (0..ks.len()).step_by(batch) {
            let n = batch.min(ks.len() - first);
            for (j, v) in values.iter_mut().take(n).enumerate() {
                ks.fill_value(first + j, v);
            }
            let items: Vec<(&[u8], &[u8])> = (0..n)
                .map(|j| (ks.key(first + j), values[j].as_slice()))
                .collect();
            let stored = loader.set_many(&items, 0, 0).await.expect("preload batch");
            for r in stored {
                r.expect("preload set");
            }
        }
        // One verified get per client establishes its connection.
        for (c, client) in cl.iter().enumerate() {
            let k = c % ks.len();
            match check_get(&ks, k, client.get(ks.key(k)).await) {
                Done::Ok => {}
                Done::Miss if misses_legal => {}
                other => panic!("connect get of client {c}: {other:?}"),
            }
        }
    });

    Rc::new(Bench {
        world,
        server,
        clients,
        keys,
        tracing,
        spec,
        build_s: started.elapsed().as_secs_f64(),
    })
}

/// How one operation ended, as the benchmark judges it.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Done {
    Ok,
    /// A get found nothing. A failure unless the workload can evict.
    Miss,
    /// `Err`, a timeout, or bytes that are not the key's value.
    Failed,
}

fn check_get(keys: &KeySpace, k: usize, got: Result<Option<Value>, McError>) -> Done {
    match got {
        Ok(Some(v)) if keys.value_matches(k, &v.data) => Done::Ok,
        Ok(Some(_)) | Err(_) => Done::Failed,
        Ok(None) => Done::Miss,
    }
}

fn check_set(stored: Result<(), McError>) -> Done {
    match stored {
        Ok(()) => Done::Ok,
        Err(_) => Done::Failed,
    }
}

/// A snapshot taken when the completed-operation count crosses a segment
/// boundary. Taking it allocates nothing.
#[derive(Clone, Copy)]
struct Edge {
    host: Instant,
    sim: SimTime,
    allocs: u64,
    alloc_bytes: u64,
    events: u64,
    polls: u64,
}

impl Edge {
    fn take(sim: &Sim) -> Edge {
        let (allocs, alloc_bytes) = alloc::counters();
        Edge {
            host: Instant::now(),
            sim: sim.now(),
            allocs,
            alloc_bytes,
            events: sim.events_executed(),
            polls: sim.task_polls(),
        }
    }
}

/// State the client tasks of a run share.
struct Shared {
    sim: Sim,
    bench: Rc<Bench>,
    popularity: Popularity,
    segment: u64,
    slice: u64,

    completed: Cell<u64>,
    failed: Cell<u64>,
    misses: Cell<u64>,
    stop: Cell<bool>,
    inflight_max: Cell<usize>,
    /// Virtual latency of every operation that completed in the window,
    /// nanoseconds, in completion order.
    latencies: RefCell<Vec<u64>>,
    digest: Cell<Digest>,
    edges: RefCell<Vec<Edge>>,
    /// The host clock at every slice boundary, from the start.
    ticks: RefCell<Vec<Instant>>,
    window_start: RefCell<Option<Counters>>,
    window_end: RefCell<Option<Counters>>,
    peak_rss_mb: Cell<Option<f64>>,
    cpu_start: Cell<Option<f64>>,
    cpu_end: Cell<Option<f64>>,
}

impl Shared {
    fn complete(&self, issued: SimTime, key: usize, set: bool, done: Done) {
        match done {
            Done::Ok => {}
            Done::Miss => {
                self.misses.set(self.misses.get() + 1);
                if !self.bench.spec.misses_legal {
                    self.failed.set(self.failed.get() + 1);
                }
            }
            Done::Failed => self.failed.set(self.failed.get() + 1),
        }
        let before = self.completed.get();
        let n = before + 1;
        self.completed.set(n);
        if (self.segment..self.segment * (WINDOW_SEGMENTS + 1)).contains(&before) {
            let latency = (self.sim.now() - issued).as_nanos();
            self.latencies.borrow_mut().push(latency);
            let mut digest = self.digest.get();
            digest.push((key as u64) << 1 | u64::from(set));
            digest.push(latency);
            self.digest.set(digest);
        }
        if n.is_multiple_of(self.slice) {
            self.ticks.borrow_mut().push(Instant::now());
        }
        if n.is_multiple_of(self.segment) {
            self.edge(n / self.segment);
        }
    }

    /// Segment boundary `index` (1 = end of the warm-up). The counters are
    /// read outside the window's allocation count: before its first
    /// snapshot and after its last.
    fn edge(&self, index: u64) {
        if index == 1 {
            layers::reset_watermarks(&self.bench);
            *self.window_start.borrow_mut() = Some(Counters::read(&self.bench));
            self.cpu_start.set(host::cpu_seconds());
        }
        self.edges.borrow_mut().push(Edge::take(&self.sim));
        if index == WINDOW_SEGMENTS + 1 {
            *self.window_end.borrow_mut() = Some(Counters::read(&self.bench));
            self.peak_rss_mb.set(host::peak_rss_mb());
            self.cpu_end.set(host::cpu_seconds());
            self.stop.set(true);
        }
    }

    fn note_inflight(&self, n: usize) {
        if n > self.inflight_max.get() {
            self.inflight_max.set(n);
        }
    }

    /// The next operation of a client: `(key index, is a set)`.
    fn draw(&self, rng: &mut Rng) -> (usize, bool) {
        let set = rng.next_f64() < self.bench.spec.set_share;
        (self.popularity.draw(rng), set)
    }
}

async fn one_at_a_time(sh: Rc<Shared>, client: McClient, mut rng: Rng) {
    let keys = &sh.bench.keys;
    let mut value = Vec::new();
    while !sh.stop.get() {
        let (k, set) = sh.draw(&mut rng);
        let issued = sh.sim.now();
        sh.note_inflight(1);
        let done = if set {
            keys.fill_value(k, &mut value);
            check_set(client.set(keys.key(k), &value, 0, 0).await)
        } else {
            check_get(keys, k, client.get(keys.key(k)).await)
        };
        sh.complete(issued, k, set, done);
    }
}

enum Handle {
    Get(InFlightGet),
    Set(InFlightSet),
}

/// Keeps `depth` handles in flight and claims them oldest first; an
/// operation's latency runs from its issue to its claim.
async fn windowed(sh: Rc<Shared>, client: McClient, mut rng: Rng) {
    let (keys, depth) = (&sh.bench.keys, sh.bench.spec.depth);
    let mut value = Vec::new();
    let mut window: VecDeque<(Handle, usize, bool, SimTime)> = VecDeque::with_capacity(depth);
    loop {
        while window.len() < depth && !sh.stop.get() {
            let (k, set) = sh.draw(&mut rng);
            let issued = sh.sim.now();
            let handle = if set {
                keys.fill_value(k, &mut value);
                client
                    .issue_set(keys.key(k), &value, 0, 0)
                    .await
                    .map(Handle::Set)
            } else {
                client.issue_get(keys.key(k)).await.map(Handle::Get)
            };
            match handle {
                Ok(h) => window.push_back((h, k, set, issued)),
                Err(_) => sh.complete(issued, k, set, Done::Failed),
            }
            sh.note_inflight(window.len());
        }
        let Some((handle, k, set, issued)) = window.pop_front() else {
            break;
        };
        let done = match handle {
            Handle::Get(h) => check_get(keys, k, h.complete().await),
            Handle::Set(h) => check_set(h.complete().await),
        };
        sh.complete(issued, k, set, done);
    }
}

/// What one measured phase produced. Everything but `attempted`, `failed`
/// and `misses` covers the window: the [`WINDOW_SEGMENTS`] segments after
/// the warm-up.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub misses: u64,
    pub window_ops: u64,
    pub sim_ops_per_s: f64,
    pub sim_mean_ns: f64,
    pub sim_p50_us: f64,
    pub sim_p99_us: f64,
    pub sim_p999_us: f64,
    pub sim_digest: u64,
    /// Simulated ops per host second: [`best_rate`] of the window's slices.
    pub host_ops_per_s: f64,
    /// Simulated ops per host second of each slice of the window, in order.
    pub host_slice_rates: Vec<f64>,
    pub host_allocs_per_op: f64,
    pub host_alloc_bytes_per_op: f64,
    pub events_per_op: f64,
    pub task_polls_per_op: f64,
    /// Process CPU seconds over wall seconds of the window; well below 1
    /// means the host ran something else meanwhile.
    pub cpu_over_wall: Option<f64>,
    pub inflight_max: usize,
    /// `VmHWM` when the window ended. Read there, not at exit: what a run
    /// does after its first window depends on the host's speed.
    pub peak_rss_mb: Option<f64>,
    pub sim_window_ns: u64,
    /// Host seconds the warm-up segment took, and the window after it.
    pub warmup_s: f64,
    pub window_s: f64,
    /// The layers' counters when the window started and when it ended.
    pub at_start: Counters,
    pub at_end: Counters,
}

/// Sorts `values` and returns their median.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of a sorted slice.
fn percentile<T: Copy>(sorted: &[T], q: f64) -> T {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The share of the slices that [`best_rate`] leaves above it.
pub const BEST_SHARE: f64 = 0.02;

/// The host rate of a set of slices: the rate their fastest fiftieth
/// reaches (the 98th percentile, nearest rank). While a neighbour of this
/// machine is busy the simulator runs at 0.6 of its speed, for minutes at a
/// time, but even then a few slices in a hundred fall into a gap, and they
/// agree with the slices of a quiet minute to a few percent; the median
/// does not, by a third. The very fastest slice would do as well but
/// climbs with the number of slices a run had time for.
pub fn best_rate(rates: &[f64]) -> f64 {
    let mut sorted = rates.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 1.0 - BEST_SHARE)
}

/// Runs the measured phase on a set-up testbed.
pub fn measure(bench: &Rc<Bench>, cfg: &RunConfig) -> Outcome {
    let spec = bench.spec;
    let sim = bench.world.sim().clone();
    let segment = spec.segment_ops(cfg.scale);
    let shared = Rc::new(Shared {
        sim: sim.clone(),
        bench: bench.clone(),
        popularity: Popularity::new(spec.keys, spec.skew),
        segment,
        slice: spec.slice_ops(cfg.scale),
        completed: Cell::new(0),
        failed: Cell::new(0),
        misses: Cell::new(0),
        stop: Cell::new(false),
        inflight_max: Cell::new(0),
        latencies: RefCell::new(Vec::with_capacity((segment * WINDOW_SEGMENTS) as usize)),
        digest: Cell::new(Digest::new()),
        edges: RefCell::new(Vec::with_capacity(WINDOW_SEGMENTS as usize + 2)),
        ticks: RefCell::new(Vec::with_capacity(
            ((WINDOW_SEGMENTS + 1) * SLICES_PER_SEGMENT) as usize,
        )),
        window_start: RefCell::new(None),
        window_end: RefCell::new(None),
        peak_rss_mb: Cell::new(None),
        cpu_start: Cell::new(None),
        cpu_end: Cell::new(None),
    });

    let rng = Rng::new(cfg.seed);
    shared.edges.borrow_mut().push(Edge::take(&sim));
    let tasks: Vec<_> = bench
        .clients
        .iter()
        .enumerate()
        .map(|(c, client)| {
            let (sh, client, rng) = (shared.clone(), client.clone(), rng.fork(c as u64));
            if spec.depth > 1 {
                sim.spawn(windowed(sh, client, rng))
            } else {
                sim.spawn(one_at_a_time(sh, client, rng))
            }
        })
        .collect();
    sim.block_on(async move {
        for t in tasks {
            t.await;
        }
    });

    let edges = shared.edges.borrow();
    let (first, last) = (edges[1], edges[(WINDOW_SEGMENTS + 1) as usize]);
    let window_ops = segment * WINDOW_SEGMENTS;
    let per_op = |delta: u64| delta as f64 / window_ops as f64;
    let sim_window_ns = (last.sim - first.sim).as_nanos();

    let mut sorted = shared.latencies.borrow().clone();
    let sim_mean_ns = sorted.iter().sum::<u64>() as f64 / sorted.len() as f64;
    sorted.sort_unstable();

    // One rate per slice of the window.
    let ticks = shared.ticks.borrow();
    let (from, to) = (
        SLICES_PER_SEGMENT as usize - 1,
        ((WINDOW_SEGMENTS + 1) * SLICES_PER_SEGMENT) as usize - 1,
    );
    let slice_rates: Vec<f64> = ticks[from..=to]
        .windows(2)
        .map(|w| shared.slice as f64 / w[1].duration_since(w[0]).as_secs_f64())
        .collect();

    let wall = last.host.duration_since(first.host).as_secs_f64();
    let cpu_over_wall = match (shared.cpu_start.get(), shared.cpu_end.get()) {
        (Some(a), Some(b)) if wall > 0.0 => Some((b - a) / wall),
        _ => None,
    };

    let at_start = shared.window_start.borrow_mut().take();
    let at_end = shared.window_end.borrow_mut().take();
    Outcome {
        attempted: shared.completed.get(),
        failed: shared.failed.get(),
        misses: shared.misses.get(),
        window_ops,
        sim_ops_per_s: window_ops as f64 * 1e9 / sim_window_ns as f64,
        sim_mean_ns,
        sim_p50_us: percentile(&sorted, 0.50) as f64 / 1e3,
        sim_p99_us: percentile(&sorted, 0.99) as f64 / 1e3,
        sim_p999_us: percentile(&sorted, 0.999) as f64 / 1e3,
        sim_digest: shared.digest.get().value(),
        host_ops_per_s: best_rate(&slice_rates),
        host_slice_rates: slice_rates,
        host_allocs_per_op: per_op(last.allocs - first.allocs),
        host_alloc_bytes_per_op: per_op(last.alloc_bytes - first.alloc_bytes),
        events_per_op: per_op(last.events - first.events),
        task_polls_per_op: per_op(last.polls - first.polls),
        cpu_over_wall,
        inflight_max: shared.inflight_max.get(),
        peak_rss_mb: shared.peak_rss_mb.get(),
        sim_window_ns,
        warmup_s: first.host.duration_since(edges[0].host).as_secs_f64(),
        window_s: wall,
        at_start: at_start.expect("window start was read"),
        at_end: at_end.expect("window end was read"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small window: these tests pin determinism, not performance.
    const TEST_SCALE: f64 = 0.02;

    fn run(spec: &'static Spec, seed: u64, traced: bool) -> Outcome {
        let cfg = RunConfig {
            seed,
            traced,
            scale: TEST_SCALE,
        };
        let bench = setup(spec, &cfg);
        let outcome = measure(&bench, &cfg);
        bench.server.shutdown();
        assert_eq!(outcome.failed, 0, "{}: every reply verifies", spec.name);
        assert!(outcome.attempted >= outcome.window_ops);
        outcome
    }

    #[test]
    fn a_seed_repeats_exactly_and_another_seed_differs_a_little() {
        for spec in &SPECS {
            let (a, b, other) = (
                run(spec, 7, false),
                run(spec, 7, false),
                run(spec, 8, false),
            );
            assert_eq!(a.sim_digest, b.sim_digest, "{}: digest", spec.name);
            assert_eq!(a.sim_ops_per_s, b.sim_ops_per_s, "{}: sim rate", spec.name);
            assert_eq!(a.events_per_op, b.events_per_op, "{}: events/op", spec.name);
            // Allocation counts repeat but for the standard hasher's
            // per-table seed: where deleted slots fall decides whether a
            // table rehashes in place or grows, an allocation or two apart
            // (and, in a window this small, a visible share of the bytes).
            let drift = (a.host_allocs_per_op - b.host_allocs_per_op).abs() / a.host_allocs_per_op;
            assert!(drift < 1e-3, "{}: allocs/op moved {drift:e}", spec.name);

            assert_ne!(
                a.sim_digest, other.sim_digest,
                "{}: seeds draw other keys",
                spec.name
            );
            let drift = (other.sim_ops_per_s - a.sim_ops_per_s).abs() / a.sim_ops_per_s;
            assert!(
                drift < 0.05,
                "{}: sim rate moved {drift:.3} between seeds",
                spec.name
            );
        }
    }

    #[test]
    fn tracing_costs_no_virtual_time_and_the_path_budget_is_exact() {
        for spec in &SPECS {
            let (bare, traced) = (run(spec, 7, false), run(spec, 7, true));
            assert_eq!(bare.sim_digest, traced.sim_digest, "{}", spec.name);
            let (t0, t1) = (&traced.at_start.trace, &traced.at_end.trace);
            let budget = crate::report::path_budget(t0.as_ref().unwrap(), t1.as_ref().unwrap());
            assert_eq!(
                budget.paths, traced.window_ops,
                "{}: one path per op",
                spec.name
            );
            assert_eq!(budget.inexact_paths, 0, "{}", spec.name);
            assert_eq!(
                budget.end_to_end_ns, traced.sim_mean_ns,
                "{}: both clocks agree",
                spec.name
            );
        }
    }

    #[test]
    fn each_workload_loads_the_layer_it_was_chosen_for() {
        let probes = crate::probes::Probes {
            values: crate::report::PER_LAYER
                .iter()
                .filter(|m| m.name.contains(".host_ns_per_") || m.name == "socksim.events_per_msg")
                .map(|m| (m.name, 1.0))
                .collect(),
        };
        for spec in &SPECS {
            let (bare, traced) = (run(spec, 7, false), run(spec, 7, true));
            let metrics = crate::report::per_layer(spec, &bare, &traced, &probes);
            let get = |name: &str| metrics.iter().find(|(n, _)| *n == name).unwrap().1;
            let ucr = spec.transport == Transport::Ucr;
            assert_eq!(
                get("ucr.msgs_per_op") > 0.0,
                ucr,
                "{}: UCR messages",
                spec.name
            );
            assert_eq!(
                get("verbs.events_per_op") > 0.0,
                ucr,
                "{}: verbs events",
                spec.name
            );
            let large = spec.value_size > 8 << 10;
            assert_eq!(
                get("ucr.eager_share") < 1.0,
                large || !ucr,
                "{}: eager",
                spec.name
            );
            assert_eq!(
                get("mcstore.evictions_per_kop") > 0.0,
                spec.misses_legal,
                "{}",
                spec.name
            );
            let locked = spec.store_model != StoreModel::Idealized;
            assert_eq!(
                get("simnet.vlock.acquires_per_op") > 0.0,
                locked,
                "{}: locks",
                spec.name
            );
            assert_eq!(
                get("rmc.client.inflight_max"),
                spec.depth as f64,
                "{}: window",
                spec.name
            );
        }
    }
}
