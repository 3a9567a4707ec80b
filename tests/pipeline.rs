//! Acceptance tests for the pipelined request engine: a seeded sweep of
//! client streams over every wire, store model, depth and bypass setting
//! (`run_case`, whose oracle the fixed rows call), out-of-order response
//! correlation on one connection, the batch APIs over both
//! transport families (including rendezvous-size values mid-pipeline),
//! the invariants the engine must preserve — tracing still costs zero
//! virtual time and equal seeds give equal clocks — and UCR's eager
//! coalescing as the pipelined workloads see it: absent at depth 1, past
//! the server-HCA wall — and, with a second progress context polling for
//! the eight workers, past the progress-task wall — at 16 clients ×
//! depth 8, never a loss for a single pipelined client.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use rdma_memcached::mcproto::UDP_CHUNK_BYTES;
use rdma_memcached::rmc::{
    McClient, McClientConfig, McError, McServerConfig, Scenario, StoreModel, Transport, World,
};
use rdma_memcached::simnet::{
    check_cases, Event, EventRecorder, NodeId, Phase, SimDuration, SimRng, SimTime, Stack,
};
use rdma_memcached::socksim::STREAM_BUF_KEEP;
use rmc_bench::json::{self, Json};
use rmc_bench::{
    run_pipeline_gets, run_throughput, run_windowed_gets, ucr_totals, ClusterKind, WindowedRun,
    DEFAULT_TPUT_OPS, WINDOWED_CLIENTS,
};

/// A UCR client keeping up to `depth` requests in flight.
fn ucr(depth: usize) -> McClientConfig {
    McClientConfig {
        pipeline_depth: depth,
        ..McClientConfig::single(Transport::Ucr, NodeId(0))
    }
}

/// Two gets issued back-to-back on one UCR connection complete out of
/// order: the first names a 64 KB value whose response rides the
/// rendezvous path (an extra advertise + RDMA-read round trip), the
/// second a 4 B value answered eagerly. The small response lands while
/// the large one is still being pulled, and the in-flight table keyed by
/// request id hands each completion to the right caller.
#[test]
fn responses_correlate_out_of_order() {
    let s = Scenario::new(World::cluster_b(71, 4), McServerConfig::default(), [ucr(2)]);
    let (world, client) = (&s.world, s.clients[0].clone());
    let sim = world.sim().clone();
    sim.block_on(async move {
        let big = vec![0xb0u8; 64 * 1024];
        client.set(b"big", &big, 0, 0).await.unwrap();
        client.set(b"small", b"tiny", 0, 0).await.unwrap();

        let in_big = client.issue_get(b"big").await.unwrap();
        let in_small = client.issue_get(b"small").await.unwrap();
        assert_ne!(in_big.req_id(), in_small.req_id());

        // The second-issued op completes first; the first is still in
        // flight (its response has not landed) at that moment.
        let small = in_small.complete().await.unwrap().expect("hit");
        assert_eq!(small.data, b"tiny");
        assert!(
            !in_big.is_ready(),
            "the rendezvous response must still be in flight when the eager one lands"
        );
        let got_big = in_big.complete().await.unwrap().expect("hit");
        assert_eq!(got_big.data, big);
    });
}

/// The batch APIs at depth 4 with value sizes straddling the eager
/// threshold: sets and gets that mix eager and rendezvous transfers in
/// one pipeline window all land on the right keys, and a missing key
/// reports a miss.
#[test]
fn pipelined_batches_mix_eager_and_rendezvous() {
    run_case(&one_client(Transport::Ucr, 4, set_then_get(1, 6)), true);
}

/// The same batch APIs over both stream protocols: requests are written
/// ahead and replies read back in FIFO order off the connection's buffer.
/// A window of 8 returns what one-at-a-time returns, sooner.
#[test]
fn pipelined_batches_work_over_sockets() {
    for wire in [
        Transport::Sockets(Stack::Sdp),
        Transport::Binary(Stack::Sdp),
    ] {
        let case = |depth| one_client(wire, depth, set_then_get(0, 3));
        assert!(
            run_case(&case(8), false).0 < run_case(&case(1), false).0,
            "{wire:?}"
        );
    }
}

/// An ASCII/TCP window of 8 writes every request from the client's one
/// request buffer, and the server reads each command in place from the
/// buffer its connection read it into, however many commands one read
/// brought: a window of sets whose values grow past `STREAM_BUF_KEEP`
/// (9000 and 20 KB, so the kept buffers are freed and replaced
/// mid-window), then a window of gets, completes in request order with
/// every value intact.
#[test]
fn an_ascii_window_completes_in_request_order_through_kept_buffers() {
    const { assert!(VALUE_SIZES[4] > STREAM_BUF_KEEP) };
    let mut case = one_client(Transport::Sockets(Stack::TenGigEToe), 8, set_then_get(0, 6));
    case.cluster_b = false;
    run_case(&case, true);
}

/// Abandoned in-flight handles must not leak parked responses: dropping
/// an issued get before its response arrives flags the request id so
/// the handler discards the late response, and dropping one after the
/// response landed removes the parked entry — either way the in-flight
/// table drains to empty and the connection keeps working.
#[test]
fn dropped_in_flight_handles_leave_no_parked_responses() {
    let s = Scenario::new(World::cluster_b(78, 4), McServerConfig::default(), [ucr(2)]);
    let (world, client) = (&s.world, s.clients[0].clone());
    let sim = world.sim().clone();
    let sim2 = sim.clone();
    sim.block_on(async move {
        client.set(b"k", b"value", 0, 0).await.unwrap();

        // Dropped before the response arrives.
        let handle = client.issue_get(b"k").await.unwrap();
        drop(handle);
        sim2.sleep(SimDuration::from_millis(50)).await;
        assert_eq!(
            client.pending_responses(),
            0,
            "a late response for an abandoned op must be discarded"
        );

        // Dropped after the response arrives.
        let handle = client.issue_get(b"k").await.unwrap();
        while !handle.is_ready() {
            sim2.sleep(SimDuration::from_millis(1)).await;
        }
        assert_eq!(client.pending_responses(), 1);
        drop(handle);
        assert_eq!(
            client.pending_responses(),
            0,
            "dropping a ready handle must scrub its parked response"
        );

        // The connection is unaffected by the abandoned ops.
        let v = client.get(b"k").await.unwrap().expect("hit");
        assert_eq!(v.data, b"value");
    });
}

/// Tracing must not move the virtual clock on the new pipelined paths
/// either: a depth-8 batched workload mixing eager and rendezvous sizes
/// reaches the same end time traced and untraced.
#[test]
fn tracing_adds_no_virtual_time_to_pipelined_paths() {
    let case = mixed_rounds(75, 4);
    assert_eq!(run_case(&case, false).0, run_case(&case, true).0);
}

/// Equal seeds give bit-equal clocks: the pipelined engine (in-flight
/// table, registration cache, recv-buffer pool, batched worker drain) is
/// fully deterministic.
#[test]
fn pipelined_runs_are_deterministic() {
    let case = mixed_rounds(76, 3);
    assert_eq!(run_case(&case, true).0, run_case(&case, true).0);
}

/// One UCR client at depth 8 on Cluster B seeded `seed`: sets of every
/// key, a third of them past the eager threshold, then `rounds` gets of
/// all.
fn mixed_rounds(seed: u64, rounds: usize) -> Case {
    let mut stream = set_then_get(0, 6);
    stream.extend(std::iter::repeat_n(stream[1].clone(), rounds - 1));
    let mut case = one_client(Transport::Ucr, 8, stream);
    case.seed = seed;
    case
}

// ---------------------------------------------------------------------
// Eager coalescing, as the pipelined workloads see it
// ---------------------------------------------------------------------

/// The `tps` of the one record in a committed `results/<bench>.json`
/// that holds every field of `cell`.
fn committed_tps(bench: &str, cell: Json) -> f64 {
    let path = format!("{}/results/{bench}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).expect("committed results file");
    let doc = json::parse(&text).expect("a results twin");
    let records = doc.get("records").and_then(Json::as_arr).expect("records");
    let Json::Obj(want) = &cell else {
        panic!("a cell is an object");
    };
    let mut hits = records
        .iter()
        .filter(|r| want.iter().all(|(k, v)| r.get(k) == Some(v)));
    let hit = hits
        .next()
        .unwrap_or_else(|| panic!("no {cell:?} in {path}"));
    assert!(hits.next().is_none(), "{cell:?} is ambiguous in {path}");
    hit.get("tps").and_then(Json::as_f64).expect("tps")
}

/// Depth 1 never holds: with one request in flight per connection every
/// send finds its endpoint's queue empty, so the wire carries exactly two
/// messages per operation and Fig. 6(c)'s 16-client cell is the committed
/// one to the last bit.
#[test]
fn depth_one_holds_nothing() {
    const CLIENTS: u32 = 16;
    // Seed and operation count of `fig6_throughput`.
    let world = ClusterKind::B.world(6, CLIENTS + 1);
    let (tps, _, server, clients) =
        run_throughput(&world, Transport::Ucr, CLIENTS, 4, DEFAULT_TPUT_OPS, false);
    let (sent, posted, coalesced) = ucr_totals(&server, &clients);
    assert_eq!(coalesced, 0, "messages held at depth 1");
    // One set, then the gets, per client; a request and a reply each.
    let ops = (CLIENTS * (1 + DEFAULT_TPUT_OPS)) as u64;
    assert_eq!((sent, posted), (2 * ops, 2 * ops));
    let cell = Json::obj()
        .str("transport", "UCR")
        .str("cluster", "Cluster B (QDR)")
        .int("size", 4)
        .int("clients", 16);
    assert_eq!(tps, committed_tps("fig6_throughput", cell));
}

/// The `ucr_pipelined_sharded_16c` shape on Cluster B with the
/// benchmark's eight workers.
fn run_windowed(seed: u64, ops_per_client: usize) -> WindowedRun {
    let world = World::cluster_b(seed, WINDOWED_CLIENTS + 1);
    run_windowed_gets(&world, 8, ops_per_client, seed)
}

/// Past the wall: at 16 clients × depth 8 the server HCA's 2 × 280 ns per
/// operation used to pin throughput at 1.79 M ops/s whatever the workers
/// and shards did. With requests and replies sharing network buffers the
/// wire carries well under two messages per operation and the same
/// workload runs at least a quarter faster.
#[test]
fn sixteen_pipelined_clients_pass_the_server_hca_wall() {
    const PARENT_WALL: f64 = 1_785_805.0;
    let run = run_windowed(42, 1500);
    assert!(
        run.wire_msgs_per_op < 1.5,
        "{:.2} wire messages per op",
        run.wire_msgs_per_op
    );
    assert!(
        run.tps >= 1.25 * PARENT_WALL,
        "{:.0} ops/s is not 25 % past the {PARENT_WALL:.0} wall",
        run.tps
    );
}

/// Past the next wall: with coalescing the same workload was pinned at
/// 3.83 M ops/s by the server's single UCR progress task (260 ns per
/// operation: `am_dispatch` per request plus `poll_overhead` per
/// completion). Eight workers get two progress contexts (one per four):
/// the connections' handlers no longer all queue behind each other, the
/// HCA binds again, and the wire still carries less than one message per
/// operation.
#[test]
fn sixteen_pipelined_clients_pass_the_progress_task_wall() {
    const PARENT_WALL: f64 = 3_830_000.0;
    let run = run_windowed(42, 1500);
    assert!(
        run.wire_msgs_per_op < 1.0,
        "{:.2} wire messages per op",
        run.wire_msgs_per_op
    );
    assert!(
        run.tps >= 1.15 * PARENT_WALL,
        "{:.0} ops/s is not 15 % past the {PARENT_WALL:.0} wall",
        run.tps
    );
}

/// The regime past the wall does not depend on which keys were asked for
/// in which order: six request orders run within 1 % of each other. (Held
/// by the sender's completions alone the hold flips on and off around its
/// own threshold and the same six spread over 4 %, 3.13–3.26 M ops/s —
/// the peer's backed-up bit in every eager packet is what pins it.)
#[test]
fn the_coalesced_rate_is_steady_across_request_orders() {
    let rates: Vec<f64> = (1..=6).map(|seed| run_windowed(seed, 1500).tps).collect();
    let lo = rates.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = rates.iter().copied().fold(0.0, f64::max);
    assert!(
        hi <= 1.01 * lo,
        "rates spread over {lo:.0}..{hi:.0}: {rates:?}"
    );
}

/// Equal seeds: equal end clock, equal throughput, and the same messages
/// held and posted — the hold decision reads only virtual time.
#[test]
fn coalescing_is_deterministic() {
    assert_eq!(run_windowed(43, 400), run_windowed(43, 400));
}

/// A single pipelined client is the regime a naive hold-while-unacked
/// rule hurts (−29 % at depth 4–8). The backlog test leaves it alone:
/// every cell is the committed `ext_pipeline_depth` one or better.
#[test]
fn a_single_pipelined_client_loses_nothing() {
    // Seed and operation count of `ext_pipeline_depth`.
    for cluster in [ClusterKind::A, ClusterKind::B] {
        for size in [4usize, 4096] {
            for depth in [2usize, 4, 8] {
                let world = cluster.world(77, 4);
                let tps = run_pipeline_gets(&world, Transport::Ucr, depth, size, 1000);
                let cell = Json::obj()
                    .str("cluster", cluster.label())
                    .str("transport", "UCR")
                    .int("size", size as u64)
                    .int("depth", depth as u64);
                let committed = committed_tps("ext_pipeline_depth", cell);
                assert!(
                    tps >= committed,
                    "{} {size} B depth {depth}: {tps:.0} ops/s, committed {committed:.0}",
                    cluster.label()
                );
            }
        }
    }
}

/// A `set_many` then a `get_many` whose values straddle the eager
/// threshold, at depth 8: requests reach the server, and replies the
/// client, in the order they were sent — an eager message queued behind a
/// backed-up send is never overtaken by the rendezvous request after it.
/// (Header handlers run in wire-arrival order; a rendezvous *payload*
/// still lands later than the eager traffic around it.) The server half is
/// `run_case`'s; replies keep their order here because each eager one is
/// small enough to be staged before the next is posted.
#[test]
fn mixed_eager_and_rendezvous_stream_arrives_in_send_order() {
    let sizes: Vec<usize> = (0..KEYS).map(|k| [5, 0, 1, 4, 0, 1][k % 6]).collect();
    let sets = Call::SetMany(sizes.iter().copied().enumerate().collect());
    let case = one_client(
        Transport::Ucr,
        8,
        vec![sets, Call::GetMany((0..KEYS).collect())],
    );
    let (_, events) = run_case(&case, true);
    let replies = events.iter().filter(|e| {
        e.name == "header_handler" && e.phase == Phase::Begin && e.node == Some(NodeId(1))
    });
    let replies = replies
        .map(|e| e.bytes as usize)
        .filter(|b| VALUE_SIZES.contains(b));
    let sent = sizes.iter().map(|&z| VALUE_SIZES[z]);
    assert!(replies.eq(sent), "get replies at the client, in send order");
}

// ---------------------------------------------------------------------
// The scenario sweep: each wire, store model, depth and bypass setting,
// with drawn streams of batch and single calls
// ---------------------------------------------------------------------

/// Value sizes the sweep draws from: three eager on UCR, three past its
/// 8 KB threshold (a reply adds its header). Client `i` stores values of
/// these sizes plus `i`, so a length names its client.
const VALUE_SIZES: [usize; 6] = [1, 100, 1000, 8000, 9000, 20 << 10];

/// Keys each client draws from; no two clients share one.
const KEYS: usize = 48;

/// One call of a client's stream, over its own keys `0..KEYS`; a batch
/// names each key once.
#[derive(Debug, Clone)]
enum Call {
    /// `(key, index into VALUE_SIZES)` pairs.
    SetMany(Vec<(usize, usize)>),
    GetMany(Vec<usize>),
    Get(usize),
    Mget(Vec<usize>),
    Delete(usize),
}

/// A server and one client per stream, all on the same settings.
#[derive(Debug, Clone)]
struct Case {
    seed: u64,
    /// Cluster B (QDR, sockets over IPoIB) or A (DDR, sockets over
    /// 10GigE-TOE).
    cluster_b: bool,
    wire: Transport,
    store: StoreModel,
    depth: usize,
    bypass: bool,
    streams: Vec<Vec<Call>>,
}

impl Case {
    fn draw(r: &mut SimRng) -> Case {
        let pick = |r: &mut SimRng, n: usize| r.gen_range_u64(0, n as u64) as usize;
        let keys = |r: &mut SimRng| {
            let mut keys = r.vec_of(1..25, |r| pick(r, KEYS));
            keys.sort_unstable();
            keys.dedup();
            keys
        };
        let call = |r: &mut SimRng| match pick(r, 5) {
            0 => Call::SetMany(keys(r).into_iter().map(|k| (k, pick(r, 6))).collect()),
            1 => Call::GetMany(keys(r)),
            2 => Call::Get(pick(r, KEYS)),
            3 => Call::Mget(keys(r)),
            _ => Call::Delete(pick(r, KEYS)),
        };
        let cluster_b = r.gen_bool(0.5);
        let stack = [Stack::TenGigEToe, Stack::Ipoib][cluster_b as usize];
        let wires = [
            Transport::Ucr,
            Transport::Sockets(stack),
            Transport::Binary(stack),
            Transport::Udp(stack),
        ];
        let stores = [
            StoreModel::Idealized,
            StoreModel::GlobalLock,
            StoreModel::Sharded(4),
        ];
        Case {
            seed: r.gen_range_u64(0, 1000),
            cluster_b,
            wire: wires[pick(r, 4)],
            store: stores[pick(r, 3)],
            depth: if r.gen_bool(0.5) { 1 } else { 8 },
            bypass: r.gen_bool(0.5),
            streams: r.vec_of(1..5, |r| r.vec_of(1..8, call)),
        }
    }
}

/// Runs client `i`'s calls (on node `i + 1`) against a model of its keys:
/// every call completes once, with the model's values; after each one
/// `monotone` checks the registry. Over UDP a set larger than one datagram
/// is refused and stores nothing. Returns the length of each value set, in
/// the order the sets were issued.
async fn run_stream(
    client: McClient,
    calls: Vec<Call>,
    udp: bool,
    monotone: Rc<dyn Fn()>,
) -> Vec<usize> {
    let i = client.node().0 as usize - 1;
    let key = |k: usize| format!("c{i}-k{k}").into_bytes();
    let mut model: BTreeMap<usize, Vec<u8>> = BTreeMap::new();
    let (mut written, mut sets) = (0u8, Vec::new());
    for call in calls {
        match &call {
            Call::SetMany(items) => {
                let kv: Vec<(Vec<u8>, Vec<u8>)> = items
                    .iter()
                    .map(|&(k, z)| {
                        written = written.wrapping_add(1);
                        sets.push(VALUE_SIZES[z] + i);
                        (key(k), vec![written; VALUE_SIZES[z] + i])
                    })
                    .collect();
                let refs: Vec<(&[u8], &[u8])> = kv.iter().map(|(k, v)| (&k[..], &v[..])).collect();
                let stored = client.set_many(&refs, 0, 0).await.unwrap();
                for ((&(k, _), (_, v)), got) in items.iter().zip(&kv).zip(stored) {
                    if !udp || v.len() < UDP_CHUNK_BYTES {
                        assert_eq!(got, Ok(()), "{call:?}");
                        model.insert(k, v.clone());
                    } else {
                        assert_eq!(got, Err(McError::TooLarge), "{call:?}");
                    }
                }
            }
            Call::GetMany(keys) => {
                let names: Vec<Vec<u8>> = keys.iter().map(|&k| key(k)).collect();
                let refs: Vec<&[u8]> = names.iter().map(Vec::as_slice).collect();
                let got = client.get_many(&refs).await.unwrap();
                let got: Vec<_> = got
                    .into_iter()
                    .map(|v| v.map(|v| v.data.into_vec()))
                    .collect();
                let want: Vec<_> = keys.iter().map(|k| model.get(k).cloned()).collect();
                assert_eq!(got, want, "{call:?}");
            }
            Call::Get(k) => {
                let got = client
                    .get(&key(*k))
                    .await
                    .unwrap()
                    .map(|v| v.data.into_vec());
                assert_eq!(got, model.get(k).cloned(), "{call:?}");
            }
            Call::Mget(keys) => {
                let names: Vec<Vec<u8>> = keys.iter().map(|&k| key(k)).collect();
                let refs: Vec<&[u8]> = names.iter().map(Vec::as_slice).collect();
                let got = client.mget(&refs).await.unwrap();
                let got: Vec<_> = got
                    .into_iter()
                    .map(|(k, v)| (k, v.data.into_vec()))
                    .collect();
                let want: Vec<_> = keys
                    .iter()
                    .filter_map(|k| Some((key(*k), model.get(k)?.clone())))
                    .collect();
                assert_eq!(got, want, "{call:?}");
            }
            Call::Delete(k) => {
                let got = client.delete(&key(*k)).await.unwrap();
                assert_eq!(got, model.remove(k).is_some(), "{call:?}");
            }
        }
        monotone();
    }
    sets
}

/// Runs `c`, `traced` or not: each client's stream at once, then, at
/// quiesce, nothing parked in any client's in-flight table and, traced on
/// UCR at depth 8, each connection's set requests announced to the
/// server's header handlers in the order the client issued them. Returns
/// the virtual time the last stream ended, and what the tracer recorded.
fn run_case(c: &Case, traced: bool) -> (SimTime, Vec<Event>) {
    let store_model = c.store;
    let server = McServerConfig {
        store_model,
        ..McServerConfig::default()
    };
    let mut client = McClientConfig::single(c.wire, NodeId(0));
    (client.pipeline_depth, client.bypass_get) = (c.depth, c.bypass);
    let (n, world) = (
        c.streams.len(),
        [World::cluster_a, World::cluster_b][c.cluster_b as usize],
    );
    let s = Scenario::new(world(c.seed, n as u32 + 1), server, vec![client; n]);
    let recorder = EventRecorder::new();
    if traced {
        s.world.cluster.tracer().add_sink(recorder.clone());
    }
    let sim = s.world.sim().clone();
    let (metrics, last) = (
        s.world.cluster.metrics().clone(),
        RefCell::new(BTreeMap::new()),
    );
    let monotone: Rc<dyn Fn()> = Rc::new(move || {
        for (name, counter) in metrics.counters() {
            let (now, before) = (
                counter.get(),
                last.borrow_mut().insert(name.clone(), counter.get()),
            );
            assert!(now >= before.unwrap_or(0), "{name} fell to {now}");
        }
    });
    let udp = matches!(c.wire, Transport::Udp(_));
    let streams: Vec<_> = (s.clients.iter().cloned().zip(c.streams.clone()))
        .map(|(client, calls)| sim.spawn(run_stream(client, calls, udp, monotone.clone())))
        .collect();
    let sim2 = sim.clone();
    let (sets, end) = sim.block_on(async move {
        let mut sets = Vec::new();
        for stream in streams {
            sets.push(stream.await);
        }
        (sets, sim2.now())
    });
    sim.run();
    for client in &s.clients {
        assert_eq!(client.pending_responses(), 0);
    }
    let events = recorder.events();
    assert_eq!(traced, !events.is_empty());
    if traced && c.wire == Transport::Ucr && c.depth == 8 {
        let begun = events
            .iter()
            .filter(|e| e.name == "header_handler" && e.phase == Phase::Begin);
        let at_server: Vec<usize> = begun
            .filter(|e| e.node == Some(NodeId(0)))
            .map(|e| e.bytes as usize)
            .collect();
        for (i, sets) in sets.iter().enumerate() {
            let mine = at_server
                .iter()
                .filter(|&&b| VALUE_SIZES.iter().any(|&v| v + i == b));
            assert_eq!(
                mine.copied().collect::<Vec<_>>(),
                *sets,
                "client {i}'s sets at the server"
            );
        }
    }
    (end, events)
}

/// Sets keys `from..KEYS`, key `k` to a value of `VALUE_SIZES[k % sizes]`
/// bytes, in one batch, then gets every key in one.
fn set_then_get(from: usize, sizes: usize) -> Vec<Call> {
    let sets = (from..KEYS).map(|k| (k, k % sizes)).collect();
    vec![Call::SetMany(sets), Call::GetMany((0..KEYS).collect())]
}

/// One client on Cluster B, at `depth`, with the default server.
fn one_client(wire: Transport, depth: usize, stream: Vec<Call>) -> Case {
    let (store, streams) = (StoreModel::Idealized, vec![stream]);
    let (seed, cluster_b, bypass) = (7, true, false);
    Case {
        seed,
        cluster_b,
        wire,
        store,
        depth,
        bypass,
        streams,
    }
}

/// Any case: every op completes once with the model's value, nothing is
/// left parked, counters only grow, and UCR's pipelined requests reach
/// the server in the order they were issued.
#[test]
fn drawn_scenarios_complete_every_op_once_in_order() {
    let name = "drawn_scenarios_complete_every_op_once_in_order";
    check_cases(name, 16, Case::draw, |c| _ = run_case(c, true));
}

/// The same, over more cases; CI runs it in release.
#[test]
#[ignore]
fn wide_scenario_sweep() {
    check_cases("wide_scenario_sweep", 64, Case::draw, |c| {
        _ = run_case(c, true)
    });
}

/// Over UDP a batch whose middle value does not fit one datagram: that
/// item is refused, as its own outcome, and the items around it are
/// stored.
#[test]
fn a_udp_batch_refuses_only_its_oversized_item() {
    let stream = vec![
        Call::SetMany(vec![(0, 0), (1, 4), (2, 1)]),
        Call::GetMany(vec![0, 1, 2]),
    ];
    let mut case = one_client(Transport::Udp(Stack::TenGigEToe), 8, stream);
    case.cluster_b = false;
    run_case(&case, true);
}
