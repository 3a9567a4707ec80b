//! # rmc-bench — the evaluation harness (paper §VI)
//!
//! Regenerates every figure of the paper's evaluation:
//!
//! | Target | Paper figure | What it sweeps |
//! |---|---|---|
//! | `fig3_latency_a` | Fig. 3(a–d) | set/get latency vs size, Cluster A, 5 transports |
//! | `fig4_latency_b` | Fig. 4(a–d) | set/get latency vs size, Cluster B, 3 transports |
//! | `fig5_mixed`     | Fig. 5(a–d) | non-interleaved (10% set/90% get) and interleaved (50/50) small-message latency, both clusters |
//! | `fig6_throughput`| Fig. 6(a–d) | aggregate get TPS, 8/16 clients, 4 B and 4 KB, both clusters |
//! | `ablation_*`     | — | design-choice studies beyond the paper |
//!
//! The benchmarks follow the paper's methodology (§VI): they drive the
//! standard client API (as the authors' suite drives libmemcached, not raw
//! sockets), set `TCP_NODELAY`, use one warm-up pass, and report averages
//! over repeated operations. Latency and throughput are **simulated time**
//! — the quantity the paper measures — not host wall-clock.

#![cfg_attr(not(test), deny(clippy::iter_over_hash_type))]

use std::collections::VecDeque;
use std::rc::Rc;

pub mod json_out;

use json_out::Record;
use rmc::{
    McClient, McClientConfig, McError, McServer, McServerConfig, Scenario, StoreModel, Transport,
    World,
};
use simnet::metrics::Histogram;
use simnet::{
    AuditReport, Cluster, NodeId, PathStage, Profiler, ProfilerConfig, SimDuration, SimTime, Stack,
};

/// Which testbed to instantiate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ClusterKind {
    /// Clovertown + ConnectX DDR + 10GigE-TOE + 1GigE.
    A,
    /// Westmere + ConnectX QDR.
    B,
}

impl ClusterKind {
    /// Builds the world with `nodes` nodes.
    pub fn world(self, seed: u64, nodes: u32) -> World {
        match self {
            ClusterKind::A => World::cluster_a(seed, nodes),
            ClusterKind::B => World::cluster_b(seed, nodes),
        }
    }

    /// The transports the paper evaluates on this cluster, in plot order.
    pub fn transports(self) -> Vec<Transport> {
        match self {
            ClusterKind::A => vec![
                Transport::Ucr,
                Transport::Sockets(Stack::Sdp),
                Transport::Sockets(Stack::Ipoib),
                Transport::Sockets(Stack::TenGigEToe),
                Transport::Sockets(Stack::OneGigE),
            ],
            ClusterKind::B => vec![
                Transport::Ucr,
                Transport::Sockets(Stack::Sdp),
                Transport::Sockets(Stack::Ipoib),
            ],
        }
    }

    /// Display name matching the paper.
    pub fn label(self) -> &'static str {
        match self {
            ClusterKind::A => "Cluster A (DDR)",
            ClusterKind::B => "Cluster B (QDR)",
        }
    }
}

/// Instruction mixes of §VI-B and §VI-C.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mix {
    /// 100% set.
    SetOnly,
    /// 100% get.
    GetOnly,
    /// 10% set / 90% get as 1 set followed by 9 gets (non-interleaved).
    NonInterleaved,
    /// 50% set / 50% get alternating (interleaved).
    Interleaved,
}

impl Mix {
    /// Plot title fragment.
    pub fn label(self) -> &'static str {
        match self {
            Mix::SetOnly => "Set",
            Mix::GetOnly => "Get",
            Mix::NonInterleaved => "Non-Interleaved (Set 10% Get 90%)",
            Mix::Interleaved => "Interleaved (Set 50% Get 50%)",
        }
    }
}

/// The paper's small-message sweep (Figs. 3/4 a,c and Fig. 5).
pub const SMALL_SIZES: &[usize] = &[1, 4, 16, 64, 256, 1024, 2048, 4096];

/// The paper's large-message sweep (Figs. 3/4 b,d).
pub const LARGE_SIZES: &[usize] = &[8 << 10, 32 << 10, 128 << 10, 512 << 10];

/// A measured latency point.
#[derive(Clone, Copy, Debug)]
pub struct LatencyPoint {
    /// Value size in bytes.
    pub size: usize,
    /// Mean operation latency in microseconds (simulated).
    pub mean_us: f64,
}

/// A measured throughput point.
#[derive(Clone, Copy, Debug)]
pub struct ThroughputPoint {
    /// Number of concurrent clients.
    pub clients: u32,
    /// Aggregate transactions per second (simulated).
    pub tps: f64,
}

/// Single-client average latency for `mix` at one value size
/// (§VI-B/§VI-C methodology: repeat the operation `iters` times after one
/// warm-up pass, report the mean).
pub fn measure_latency(
    cluster: ClusterKind,
    transport: Transport,
    mix: Mix,
    size: usize,
    iters: u32,
    seed: u64,
) -> f64 {
    run_latency(cluster, transport, mix, size, iters, seed, false).0
}

/// The latency loop behind [`measure_latency`]: returns the mean and, with
/// `window`, the [`Attribution`] of the timed operations. The window opens
/// after the warm-up pass, so it decomposes exactly the timed operations;
/// attribution adds no virtual time, so the mean is identical either way.
pub fn run_latency(
    cluster: ClusterKind,
    transport: Transport,
    mix: Mix,
    size: usize,
    iters: u32,
    seed: u64,
    window: bool,
) -> (f64, Option<Attribution>) {
    let s = Scenario::start(cluster.world(seed, 4), transport);
    let (sim, client) = (s.world.sim().clone(), s.clients[0].clone());
    let sim2 = sim.clone();
    let nodes = s.world.cluster.clone();
    sim.block_on(async move {
        let value = vec![0x5au8; size];
        let key = b"bench-key";
        // Warm up: establish the connection and populate the item.
        client.set(key, &value, 0, 0).await.expect("warm-up set");
        client.get(key).await.expect("warm-up get");
        let window = window.then(|| Window::open(&nodes));

        let t0 = sim2.now();
        let mut ops = 0u32;
        while ops < iters {
            match mix {
                Mix::SetOnly => {
                    client.set(key, &value, 0, 0).await.expect("set");
                    ops += 1;
                }
                Mix::GetOnly => {
                    let v = client.get(key).await.expect("get").expect("hit");
                    assert_eq!(v.data, value, "get reply");
                    ops += 1;
                }
                Mix::NonInterleaved => {
                    // 1 set followed by 9 gets (§VI-C).
                    client.set(key, &value, 0, 0).await.expect("set");
                    ops += 1;
                    for _ in 0..9 {
                        if ops >= iters {
                            break;
                        }
                        client.get(key).await.expect("get");
                        ops += 1;
                    }
                }
                Mix::Interleaved => {
                    client.set(key, &value, 0, 0).await.expect("set");
                    client.get(key).await.expect("get");
                    ops += 2;
                }
            }
        }
        let elapsed = sim2.now() - t0;
        let attribution = window.map(|w| w.read(1, u64::from(ops), elapsed));
        (elapsed.as_micros_f64() / ops as f64, attribution)
    })
}

/// An attribution window: a [`Profiler`] on the cluster tracer and every
/// node's HCA and kernel accounting, opened together at one instant. Each
/// run loop opens it at its own point (after [`run_latency`]'s warm-up, once
/// every [`run_throughput`] client has populated, before any
/// [`run_mget_storm`] traffic) and reads it when its run is over.
struct Window {
    cluster: Rc<Cluster>,
    profiler: Rc<Profiler>,
    opened: SimTime,
}

impl Window {
    fn open(cluster: &Rc<Cluster>) -> Window {
        let opened = cluster.sim().now();
        for n in 0..cluster.len() {
            let node = cluster.node(NodeId(n));
            node.hca.reset(opened);
            node.kernel.reset(opened);
        }
        let profiler = Profiler::attach(cluster.tracer(), ProfilerConfig::default());
        let cluster = cluster.clone();
        Window {
            cluster,
            profiler,
            opened,
        }
    }

    /// The reading at the end of a run in which `clients` closed loops
    /// timed `ops` operations over `elapsed`. Utilization is read back from
    /// the cluster registry, where `stats` readers see it.
    fn read(self, clients: u32, ops: u64, elapsed: SimDuration) -> Attribution {
        self.cluster.export_node_metrics(self.opened);
        let utilization = |res: &str| {
            let name = format!("{}.{res}.utilization", NodeId(0));
            self.cluster.metrics().gauge_value(&name).expect("exported")
        };
        let tracer = self.cluster.tracer();
        Attribution {
            rate: per_second(ops, elapsed),
            mean_us: elapsed.as_micros_f64() * f64::from(clients) / ops as f64,
            audit: self.profiler.audit(),
            hca_utilization: utilization("hca"),
            kernel_utilization: utilization("kernel"),
            flight: (tracer.flight_len() as u64, tracer.flight_dropped()),
            profiler: self.profiler,
        }
    }
}

/// One attributed run, read through its window: the paper's §VI-D
/// argument in one row — where each operation's time went (the eight
/// [`PathStage`]s plus an explicit residual, summing to end-to-end) and
/// which server resource the run saturated.
pub struct Attribution {
    /// Timed operations (keys, for a multiget storm) per second of
    /// virtual time.
    pub rate: f64,
    /// Elapsed × clients / operations, microseconds: each client runs a
    /// closed loop, so with one client it is [`measure_latency`]'s mean.
    pub mean_us: f64,
    /// The profiler's audit of the ops it decomposed: how many, how many
    /// broke `Σ stages + residual == end-to-end` (always 0), and the time
    /// no stage claimed.
    pub audit: AuditReport,
    /// Server HCA work-request pipeline utilization in `[0, 1]`.
    pub hca_utilization: f64,
    /// Server kernel protocol-processing utilization in `[0, 1]`.
    pub kernel_utilization: f64,
    /// The tracer's flight recorder: events held, events overwritten.
    pub flight: (u64, u64),
    /// The window's profiler: stage totals and shares, signatures and
    /// folded stacks.
    pub profiler: Rc<Profiler>,
}

impl Attribution {
    /// Mean time in `stage` per decomposed op, microseconds.
    pub fn stage_us(&self, stage: PathStage) -> f64 {
        mean_us(self.profiler.stage_total(stage), self.audit.ops)
    }

    /// Mean absolute unaccounted time per decomposed op, microseconds.
    pub fn residual_us(&self) -> f64 {
        mean_us(self.audit.residual_abs_total, self.audit.ops)
    }

    /// Mean end-to-end time per decomposed op, microseconds.
    pub fn e2e_us(&self) -> f64 {
        mean_us(self.profiler.e2e_total(), self.audit.ops)
    }
}

/// `total / ops` at integer-nanosecond resolution, in microseconds.
fn mean_us(total: SimDuration, ops: u64) -> f64 {
    (total / ops.max(1)).as_micros_f64()
}

/// `ops` per second of `elapsed`.
fn per_second(ops: u64, elapsed: SimDuration) -> f64 {
    ops as f64 / elapsed.as_secs_f64()
}

/// Latency sweep over a size list.
pub fn latency_sweep(
    cluster: ClusterKind,
    transport: Transport,
    mix: Mix,
    sizes: &[usize],
    iters: u32,
    seed: u64,
) -> Vec<LatencyPoint> {
    sizes
        .iter()
        .map(|&size| LatencyPoint {
            size,
            mean_us: measure_latency(cluster, transport, mix, size, iters, seed),
        })
        .collect()
}

/// Figures 3 and 4: set and get latency of small (a, c) and large (b, d)
/// messages over every transport the paper runs on `cluster`, printed as
/// the four panels of Figure `figure` and written as `results/<name>.json`.
/// The figure number seeds every run.
pub fn latency_figure(cluster: ClusterKind, figure: u64, name: &str) {
    let testbed = match cluster {
        ClusterKind::A => "Cluster A",
        ClusterKind::B => "Cluster B",
    };
    let panels = [
        ('a', "Set", Mix::SetOnly, "Small", SMALL_SIZES),
        ('b', "Set", Mix::SetOnly, "Large", LARGE_SIZES),
        ('c', "Get", Mix::GetOnly, "Small", SMALL_SIZES),
        ('d', "Get", Mix::GetOnly, "Large", LARGE_SIZES),
    ];
    let mut records = Vec::new();
    for (panel, op, mix, scale, sizes) in panels {
        let columns: Vec<_> = cluster
            .transports()
            .into_iter()
            .map(|t| {
                let points = latency_sweep(cluster, t, mix, sizes, DEFAULT_ITERS, figure);
                (t.label().to_string(), points)
            })
            .collect();
        for (label, points) in &columns {
            for p in points {
                records.push(
                    Record::new()
                        .str("op", if mix == Mix::SetOnly { "set" } else { "get" })
                        .str("transport", label.as_str())
                        .str("cluster", cluster.label())
                        .int("size", p.size as u64)
                        .num("mean_us", p.mean_us),
                );
            }
        }
        let title =
            format!("Figure {figure}({panel}): Latency of {op} - {scale} Message, {testbed} (us)");
        println!("{}", render_latency_table(&title, sizes, &columns));
    }
    json_out::write(name, &records);
}

/// Aggregate get throughput with `clients` concurrent clients on distinct
/// nodes, all started simultaneously (§VI-D methodology). Returns
/// transactions per second across all clients.
pub fn measure_throughput(
    cluster: ClusterKind,
    transport: Transport,
    clients: u32,
    value_size: usize,
    ops_per_client: u32,
    seed: u64,
) -> f64 {
    let (world, ops) = (cluster.world(seed, clients + 1), ops_per_client);
    run_throughput(&world, transport, clients, value_size, ops, false).0
}

/// The [`measure_throughput`] workload on a world the caller built: the
/// rate, with `window` the run's [`Attribution`], and the server and
/// clients, so their counters can be read once the run is over. The timed
/// window opens once every client has connected and populated its key.
pub fn run_throughput(
    world: &World,
    transport: Transport,
    clients: u32,
    value_size: usize,
    ops_per_client: u32,
    window: bool,
) -> (f64, Option<Attribution>, McServer, Vec<McClient>) {
    let server = McServer::start(world, NodeId(0), McServerConfig::default());
    let sim = world.sim().clone();

    // Populate one key per client, then run the closed loops together.
    let mut handles = Vec::new();
    let mut ready = Vec::new();
    let mut testbed = Vec::new();
    for c in 0..clients {
        let client = McClient::new(
            world,
            NodeId(1 + c),
            McClientConfig::single(transport, NodeId(0)),
        );
        testbed.push(client.clone());
        let (ready_tx, ready_rx) = simnet::sync::oneshot::<()>();
        ready.push(ready_rx);
        let (go_tx, go_rx) = simnet::sync::oneshot::<()>();
        handles.push((
            go_tx,
            sim.spawn(async move {
                let key = format!("client-{c}");
                let value = vec![1u8; value_size];
                client
                    .set(key.as_bytes(), &value, 0, 0)
                    .await
                    .expect("populate");
                let _ = ready_tx.send(());
                let _ = go_rx.await;
                for _ in 0..ops_per_client {
                    client.get(key.as_bytes()).await.expect("get").expect("hit");
                }
            }),
        ));
    }
    let nodes = world.cluster.clone();
    let (tps, attribution) = sim.clone().block_on(async move {
        for r in ready {
            let _ = r.await;
        }
        let window = window.then(|| Window::open(&nodes));
        let t0 = sim.now();
        let mut joins = Vec::new();
        for (go, h) in handles {
            let _ = go.send(());
            joins.push(h);
        }
        for j in joins {
            j.await;
        }
        let ops = u64::from(clients) * u64::from(ops_per_client);
        let elapsed = sim.now() - t0;
        let attribution = window.map(|w| w.read(clients, ops, elapsed));
        (per_second(ops, elapsed), attribution)
    });
    (tps, attribution, server, testbed)
}

/// Convenience: run a full Fig.6-style sweep.
pub fn throughput_sweep(
    cluster: ClusterKind,
    transport: Transport,
    client_counts: &[u32],
    value_size: usize,
    ops_per_client: u32,
    seed: u64,
) -> Vec<ThroughputPoint> {
    client_counts
        .iter()
        .map(|&clients| ThroughputPoint {
            clients,
            tps: measure_throughput(
                cluster,
                transport,
                clients,
                value_size,
                ops_per_client,
                seed,
            ),
        })
        .collect()
}

// ---------------------------------------------------------------------
// Table rendering
// ---------------------------------------------------------------------

/// Renders a latency table: rows = sizes, columns = transports.
pub fn render_latency_table(
    title: &str,
    sizes: &[usize],
    columns: &[(String, Vec<LatencyPoint>)],
) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    out.push_str(&format!("{:>10}", "size"));
    for (name, _) in columns {
        out.push_str(&format!("{name:>12}"));
    }
    out.push('\n');
    for (i, &size) in sizes.iter().enumerate() {
        out.push_str(&format!("{:>10}", fmt_size(size)));
        for (_, points) in columns {
            out.push_str(&format!("{:>12.1}", points[i].mean_us));
        }
        out.push('\n');
    }
    out
}

/// Renders a throughput table: rows = client counts, columns = transports,
/// values in thousands of TPS (the paper's unit).
pub fn render_tps_table(
    title: &str,
    client_counts: &[u32],
    columns: &[(String, Vec<ThroughputPoint>)],
) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    out.push_str(&format!("{:>10}", "clients"));
    for (name, _) in columns {
        out.push_str(&format!("{name:>12}"));
    }
    out.push('\n');
    for (i, &n) in client_counts.iter().enumerate() {
        out.push_str(&format!("{n:>10}"));
        for (_, points) in columns {
            out.push_str(&format!("{:>11.1}K", points[i].tps / 1_000.0));
        }
        out.push('\n');
    }
    out
}

/// Formats a byte size the way the paper's axes do (1K, 32K, ...).
pub fn fmt_size(size: usize) -> String {
    if size >= 1024 && size.is_multiple_of(1024) {
        format!("{}K", size / 1024)
    } else {
        format!("{size}")
    }
}

/// Default iteration count for latency points (tuned so a full figure
/// regenerates in seconds of wall time while averaging enough samples).
pub const DEFAULT_ITERS: u32 = 200;

/// Default per-client ops for throughput points.
pub const DEFAULT_TPUT_OPS: u32 = 1_500;

// ---------------------------------------------------------------------
// Latency distributions (percentiles)
// ---------------------------------------------------------------------

/// Percentile summary of a latency sample.
#[derive(Clone, Copy, Debug)]
pub struct LatencyDistribution {
    /// Minimum, microseconds.
    pub min_us: f64,
    /// Median.
    pub p50_us: f64,
    /// 95th percentile.
    pub p95_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// Maximum.
    pub max_us: f64,
    /// Mean.
    pub mean_us: f64,
}

impl LatencyDistribution {
    /// Summarizes a [`simnet::metrics::Histogram`] of per-operation
    /// latencies (nearest-rank quantiles, converted to µs).
    pub fn from_histogram(h: &Histogram) -> LatencyDistribution {
        let s = h.summary();
        assert!(s.count > 0, "empty latency histogram");
        LatencyDistribution {
            min_us: s.min.as_micros_f64(),
            p50_us: s.p50.as_micros_f64(),
            p95_us: s.p95.as_micros_f64(),
            p99_us: s.p99.as_micros_f64(),
            max_us: s.max.as_micros_f64(),
            mean_us: s.mean.as_micros_f64(),
        }
    }
}

/// Per-operation get latencies for one transport (the distribution behind
/// the mean that `measure_latency` reports — how the SDP-on-QDR jitter of
/// §VI-B becomes visible).
pub fn measure_latency_distribution(
    cluster: ClusterKind,
    transport: Transport,
    size: usize,
    iters: u32,
    seed: u64,
) -> LatencyDistribution {
    let s = Scenario::start(cluster.world(seed, 4), transport);
    let (sim, client) = (s.world.sim().clone(), s.clients[0].clone());
    let sim2 = sim.clone();
    // Per-op latencies land in the cluster metrics registry so the
    // distribution is readable from the same place as every other metric.
    let hist = s.world.cluster.metrics().histogram("client.get_latency");
    sim.block_on(async move {
        let value = vec![0x5au8; size];
        client.set(b"bench-key", &value, 0, 0).await.expect("set");
        client.get(b"bench-key").await.expect("warm");
        for _ in 0..iters {
            let t0 = sim2.now();
            client.get(b"bench-key").await.expect("get").expect("hit");
            hist.record(sim2.now() - t0);
        }
        LatencyDistribution::from_histogram(&hist)
    })
}

// ---------------------------------------------------------------------
// Pipelined request engine (ext_pipeline_depth)
// ---------------------------------------------------------------------

/// Closed-loop pipelined get throughput from a single client on `world`
/// (one server, one client): `ops` gets over a 64-key working set with up
/// to `depth` requests kept in flight on the connection
/// ([`McClient::get_many`]). Depth 1 reproduces the classic synchronous
/// client, so the ratio between depths is exactly the per-connection
/// pipelining win the paper's Fig. 6 obtains by adding whole clients.
pub fn run_pipeline_gets(
    world: &World,
    transport: Transport,
    depth: usize,
    value_size: usize,
    ops: u32,
) -> f64 {
    let cfg = McClientConfig {
        pipeline_depth: depth,
        ..McClientConfig::single(transport, NodeId(0))
    };
    let s = Scenario::new(world.clone(), McServerConfig::default(), [cfg]);
    let (sim, client) = (world.sim().clone(), s.clients[0].clone());
    let sim2 = sim.clone();
    sim.block_on(async move {
        const KEYS: usize = 64;
        let value = vec![0x42u8; value_size];
        let names: Vec<String> = (0..KEYS).map(|i| format!("pipe-{i}")).collect();
        for name in &names {
            client
                .set(name.as_bytes(), &value, 0, 0)
                .await
                .expect("populate");
        }
        // One warm round trip so connection setup is outside the window.
        client
            .get(names[0].as_bytes())
            .await
            .expect("warm")
            .expect("hit");
        let batch: Vec<&[u8]> = (0..ops as usize)
            .map(|i| names[i % KEYS].as_bytes())
            .collect();
        let t0 = sim2.now();
        let got = client.get_many(&batch).await.expect("get_many");
        assert!(got.iter().all(Option::is_some), "every pipelined get hits");
        let elapsed = (sim2.now() - t0).as_secs_f64();
        ops as f64 / elapsed
    })
}

// ---------------------------------------------------------------------
// Windowed pipelined gets (the `ucr_pipelined_sharded_16c` shape)
// ---------------------------------------------------------------------

/// `(logical messages sent, eager work requests posted, messages that
/// rode behind another)` summed over the server's and every client's UCR
/// runtime.
pub fn ucr_totals(server: &McServer, clients: &[McClient]) -> (u64, u64, u64) {
    let mut totals = (0, 0, 0);
    let runtimes = clients
        .iter()
        .filter_map(McClient::ucr_runtime)
        .chain(server.ucr_runtime());
    for rt in runtimes {
        let st = rt.stats();
        totals.0 += st.messages_sent.get();
        totals.1 += st.eager_wrs_posted.get();
        totals.2 += st.eager_coalesced.get();
    }
    totals
}

/// A seed-dependent offset into the key space, so that different seeds
/// issue different request orders (splitmix64 finaliser).
fn mix(seed: u64, c: usize, n: usize) -> usize {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ ((c as u64) << 32 | n as u64);
    x ^= x >> 31;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 29;
    (x >> 16) as usize
}

/// Clients of [`run_windowed_gets`]; its world needs one node more.
pub const WINDOWED_CLIENTS: u32 = 16;

/// What one [`run_windowed_gets`] run measured.
#[derive(Debug, PartialEq)]
pub struct WindowedRun {
    /// Gets per second of virtual time over the second half of the run.
    pub tps: f64,
    /// Eager work requests posted per get, requests and replies together.
    pub wire_msgs_per_op: f64,
    /// Virtual clock when the last reply was claimed.
    pub end_ns: u64,
    /// Eager work requests posted since the runtimes started.
    pub posted: u64,
    /// Eager messages that rode behind another since then.
    pub coalesced: u64,
    /// Progress contexts of the server's UCR runtime.
    pub contexts: usize,
}

/// The `ucr_pipelined_sharded_16c` shape: 16 clients each keeping 8
/// `issue_get` handles in flight (claimed oldest first) against `workers`
/// workers over `Sharded(16)`, on `world` (17 nodes). `seed` picks the
/// request order. Every reply is verified byte for byte; the rate is
/// taken over the second half of the run.
pub fn run_windowed_gets(
    world: &World,
    workers: usize,
    ops_per_client: usize,
    seed: u64,
) -> WindowedRun {
    const CLIENTS: u32 = WINDOWED_CLIENTS;
    const DEPTH: usize = 8;
    const KEYS: usize = 512;
    let key = |i: usize| format!("key-{i:05}").into_bytes();
    let value = |i: usize| -> Vec<u8> { (0..64).map(|b| (i * 31 + b) as u8).collect() };

    let sim = world.sim().clone();
    let sharded = McServerConfig {
        workers,
        store_model: StoreModel::Sharded(16),
        ..Default::default()
    };
    let client = McClientConfig {
        pipeline_depth: DEPTH,
        ..McClientConfig::single(Transport::Ucr, NodeId(0))
    };
    let clients = vec![client; CLIENTS as usize];
    let Scenario {
        server, clients, ..
    } = Scenario::new(world.clone(), sharded, clients);
    let cl = clients.clone();
    sim.block_on(async move {
        for i in 0..KEYS {
            cl[0].set(&key(i), &value(i), 0, 0).await.expect("preload");
        }
        for client in &cl {
            assert!(matches!(client.get(&key(0)).await, Ok(Some(_))));
        }
    });
    let idle_events = sim.pending_events();
    let before = ucr_totals(&server, &clients);

    let half_done = Rc::new(std::cell::Cell::new(None));
    let completed = Rc::new(std::cell::Cell::new(0usize));
    let total = CLIENTS as usize * ops_per_client;
    let tasks: Vec<_> = clients
        .iter()
        .enumerate()
        .map(|(c, client)| {
            let (client, sim) = (client.clone(), sim.clone());
            let (half_done, completed) = (half_done.clone(), completed.clone());
            sim.clone().spawn(async move {
                let mut window = VecDeque::new();
                for n in 0..ops_per_client + DEPTH {
                    if n < ops_per_client {
                        let i = (c * 7919 + n * 13 + mix(seed, c, n)) % KEYS;
                        window.push_back((i, client.issue_get(&key(i)).await.expect("issue")));
                    }
                    if window.len() == DEPTH || n >= ops_per_client {
                        let Some((i, handle)) = window.pop_front() else {
                            break;
                        };
                        let got = handle.complete().await.expect("reply").expect("hit");
                        assert_eq!(got.data, value(i), "reply for key {i}");
                        completed.set(completed.get() + 1);
                        if completed.get() == total / 2 {
                            half_done.set(Some(sim.now()));
                        }
                    }
                }
            })
        })
        .collect();
    let sim2 = sim.clone();
    sim.block_on(async move {
        for t in tasks {
            t.await;
        }
    });
    let end = sim2.now();
    assert_eq!(completed.get(), total);
    let half = half_done.get().expect("half-way mark");
    let tps = (total - total / 2) as f64 / (end - half).as_secs_f64();

    // Quiesce: nothing parked at any client, no event left behind beyond
    // what the idle testbed already held.
    sim2.run();
    for client in &clients {
        assert_eq!(client.pending_responses(), 0);
    }
    assert!(
        sim2.pending_events() <= idle_events,
        "{} events pending at quiesce, {idle_events} before the run",
        sim2.pending_events()
    );
    let after = ucr_totals(&server, &clients);
    assert_eq!(after.0 - before.0, 2 * total as u64, "logical messages");
    assert_eq!(after.1 + after.2 - before.1 - before.2, 2 * total as u64);
    WindowedRun {
        tps,
        wire_msgs_per_op: (after.1 - before.1) as f64 / total as f64,
        end_ns: end.as_nanos(),
        posted: after.1,
        coalesced: after.2,
        contexts: server.ucr_runtime().map_or(0, |rt| rt.contexts()),
    }
}

// ---------------------------------------------------------------------
// Multiget storm (ablation_workers, ext_attribution)
// ---------------------------------------------------------------------

/// Clients of [`run_mget_storm`], on nodes 1 to 8 (the server is node 0).
pub const MGET_STORM_CLIENTS: u32 = 8;

/// The data of one [`run_mget_storm`] run.
pub struct MgetStorm {
    /// Server worker threads.
    pub workers: usize,
    /// Server store lock model.
    pub model: StoreModel,
    /// Node the preloading client runs on.
    pub loader: NodeId,
    /// Keys `k0000`, `k0001`, ... preloaded before the storm.
    pub keyspace: u64,
    /// The value every key is preloaded with.
    pub value: &'static [u8],
    /// Multigets each client issues.
    pub mgets_per_client: u32,
    /// Keys per multiget.
    pub keys_per_mget: usize,
}

/// Deterministic xorshift stream — the simulation is seeded and results
/// files must regenerate byte-identically, so no OS entropy anywhere.
pub fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// A store model's name in the results files.
pub fn model_label(model: StoreModel) -> String {
    match model {
        StoreModel::Idealized => "idealized".to_string(),
        StoreModel::GlobalLock => "global_lock".to_string(),
        StoreModel::Sharded(n) => format!("sharded{n}"),
    }
}

/// Preloads `storm.keyspace` keys, then has [`MGET_STORM_CLIENTS`] UCR
/// clients issue their multigets together, each drawing key indices with
/// `next_key` from its own [`xorshift`] state. Every key must hit. Returns
/// aggregate keys per second of virtual time, with `window` the run's
/// [`Attribution`], and the server, whose lock meters describe the run.
/// The window opens before any traffic, so the preload decomposes too.
pub fn run_mget_storm(
    world: &World,
    storm: &MgetStorm,
    next_key: impl Fn(&mut u64) -> u64 + Copy + 'static,
    window: bool,
) -> (f64, Option<Attribution>, McServer) {
    let window = window.then(|| Window::open(&world.cluster));
    let server = McServer::start(
        world,
        NodeId(0),
        McServerConfig {
            workers: storm.workers,
            store_model: storm.model,
            ..McServerConfig::default()
        },
    );
    let sim = world.sim().clone();

    // Preload the whole keyspace so the measured phase is pure hits.
    let loader = McClient::new(
        world,
        storm.loader,
        McClientConfig {
            pipeline_depth: 32,
            ..McClientConfig::single(Transport::Ucr, NodeId(0))
        },
    );
    let (keyspace, value) = (storm.keyspace, storm.value);
    sim.block_on(async move {
        let keys: Vec<String> = (0..keyspace).map(|i| format!("k{i:04}")).collect();
        let items: Vec<(&[u8], &[u8])> = keys.iter().map(|k| (k.as_bytes(), value)).collect();
        for r in loader.set_many(&items, 0, 0).await.expect("preload") {
            r.expect("preload set");
        }
    });

    let t0 = sim.now();
    let (mgets, keys_per_mget) = (storm.mgets_per_client, storm.keys_per_mget);
    let mut joins = Vec::new();
    for c in 0..MGET_STORM_CLIENTS {
        let client = McClient::new(
            world,
            NodeId(1 + c),
            McClientConfig::single(Transport::Ucr, NodeId(0)),
        );
        joins.push(sim.spawn(async move {
            let mut rng = 0x9e37_79b9_7f4a_7c15u64 ^ (u64::from(c) + 1);
            for _ in 0..mgets {
                let keys: Vec<String> = (0..keys_per_mget)
                    .map(|_| format!("k{:04}", next_key(&mut rng)))
                    .collect();
                let refs: Vec<&[u8]> = keys.iter().map(String::as_bytes).collect();
                let got = client.mget(&refs).await.expect("mget");
                assert_eq!(got.len(), keys_per_mget, "preloaded keys must all hit");
            }
        }));
    }
    let sim2 = sim.clone();
    let keys = u64::from(MGET_STORM_CLIENTS) * u64::from(mgets) * keys_per_mget as u64;
    let (rate, attribution) = sim.block_on(async move {
        for j in joins {
            j.await;
        }
        let elapsed = sim2.now() - t0;
        let attribution = window.map(|w| w.read(MGET_STORM_CLIENTS, keys, elapsed));
        (per_second(keys, elapsed), attribution)
    });
    (rate, attribution, server)
}

// ---------------------------------------------------------------------
// Server-CPU-bypass GET (ext_bypass_get)
// ---------------------------------------------------------------------

/// One bypass-vs-AM comparison cell: the latency distribution and
/// throughput of a read-heavy zipfian phase, plus the accounting that
/// attributes the work — one-sided read counters on the client runtime
/// and server worker wakes during the timed window.
#[derive(Clone, Debug)]
pub struct BypassRun {
    /// Per-get latency distribution over the timed pure-read phase.
    pub dist: LatencyDistribution,
    /// Gets per second over the timed pure-read phase.
    pub tps: f64,
    /// One-sided reads completed during the whole run.
    pub bypass_reads: u64,
    /// Version-skew retries during the whole run.
    pub bypass_retries: u64,
    /// Fallbacks to the AM get path during the whole run.
    pub bypass_fallbacks: u64,
    /// Server worker wakes during the timed pure-read phase only. With
    /// the bypass on this must be zero: a bypassed GET never costs
    /// server CPU.
    pub read_phase_worker_wakes: u64,
}

/// Sum of the server's per-worker wake counters.
fn worker_wakes(world: &World, node: NodeId, workers: usize) -> u64 {
    (0..workers)
        .map(|w| {
            world
                .cluster
                .metrics()
                .counter_value(&format!("mc.node{}.worker{w}.wakes", node.0))
        })
        .sum()
}

/// Runs the bypass-GET study: preload a key space, then a timed
/// pure-read zipfian phase (the paper-style latency/throughput numbers
/// plus the zero-worker-wake proof), then a mixed 10%-set phase that
/// exercises the seqlock retry path under concurrent writers. With
/// `bypass` off the same schedule runs over the ordinary two-sided AM
/// get, so the pair isolates exactly the server-CPU-bypass effect.
pub fn measure_bypass_get(
    cluster: ClusterKind,
    bypass: bool,
    value_size: usize,
    ops: u32,
    seed: u64,
) -> BypassRun {
    const KEY_SPACE: usize = 256;
    const ZIPF_SKEW: f64 = 0.99;
    let server_cfg = McServerConfig::default();
    let workers = server_cfg.workers;
    let client = McClientConfig {
        bypass_get: bypass,
        ..McClientConfig::single(Transport::Ucr, NodeId(0))
    };
    let s = Scenario::new(cluster.world(seed, 4), server_cfg, [client]);
    let (sim, client) = (s.world.sim().clone(), s.clients[0].clone());
    let sim2 = sim.clone();
    sim.block_on(async move {
        let world = &s.world;
        let value = vec![0x5au8; value_size];
        for k in 0..KEY_SPACE {
            let key = format!("bp-{k}");
            client
                .set(key.as_bytes(), &value, 0, 0)
                .await
                .expect("load");
        }
        // One warm read per key so cold descriptor lookups don't skew
        // the timed phase (the AM variant warms its connection the same
        // way, keeping the comparison honest).
        for k in 0..KEY_SPACE {
            let key = format!("bp-{k}");
            client
                .get(key.as_bytes())
                .await
                .expect("warm")
                .expect("hit");
        }
        // The load/warm phases keep workers busy; let them drain fully
        // before the wake snapshot.
        sim2.sleep(SimDuration::from_millis(10)).await;
        let wakes0 = worker_wakes(world, NodeId(0), workers);

        // Timed pure-read zipfian phase.
        let hist = world
            .cluster
            .metrics()
            .histogram("bench.bypass_get_latency");
        let t0 = sim2.now();
        for _ in 0..ops {
            let key_idx = sim2.with_rng(|r| r.gen_zipf(KEY_SPACE, ZIPF_SKEW));
            let key = format!("bp-{key_idx}");
            let op0 = sim2.now();
            client.get(key.as_bytes()).await.expect("get").expect("hit");
            hist.record(sim2.now() - op0);
        }
        let elapsed = sim2.now() - t0;
        sim2.sleep(SimDuration::from_millis(10)).await;
        let read_phase_worker_wakes = worker_wakes(world, NodeId(0), workers) - wakes0;

        // Mixed phase: concurrent writers force version-skew retries.
        for i in 0..ops / 2 {
            let key_idx = sim2.with_rng(|r| r.gen_zipf(KEY_SPACE, ZIPF_SKEW));
            let key = format!("bp-{key_idx}");
            if i % 10 == 0 {
                match client.set(key.as_bytes(), &value, 0, 0).await {
                    Ok(()) | Err(McError::OutOfMemory) => {}
                    Err(e) => panic!("set failed: {e}"),
                }
            } else {
                client.get(key.as_bytes()).await.expect("get").expect("hit");
            }
        }

        let (bypass_reads, bypass_retries, bypass_fallbacks) = client
            .ucr_runtime()
            .map(|rt| {
                let st = rt.stats();
                (
                    st.bypass_reads.get(),
                    st.bypass_retries.get(),
                    st.bypass_fallbacks.get(),
                )
            })
            .unwrap_or((0, 0, 0));
        BypassRun {
            dist: LatencyDistribution::from_histogram(&hist),
            tps: ops as f64 / elapsed.as_secs_f64(),
            bypass_reads,
            bypass_retries,
            bypass_fallbacks,
            read_phase_worker_wakes,
        }
    })
}
