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

use rdma_memcached::rmc::{McClientConfig, McServerConfig, Scenario, Transport, World};
use rdma_memcached::simnet::{check_cases, NodeId, Phase, SimDuration, Stack};
use rdma_memcached::socksim::STREAM_BUF_KEEP;
use rmc_bench::json::{self, Json};
use rmc_bench::{
    run_pipeline_gets, run_throughput, run_windowed_gets, ucr_totals, ClusterKind, WindowedRun,
    DEFAULT_TPUT_OPS, WINDOWED_CLIENTS,
};

#[path = "../crates/core/tests/cells/scenario.rs"]
mod scenario;
use scenario::{run_case, Call, Case, Val, KEYS, VALUE_SIZES};

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
            run_case(&case(8), false).end < run_case(&case(1), false).end,
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
    assert_eq!(run_case(&case, false).end, run_case(&case, true).end);
}

/// Equal seeds give bit-equal clocks: the pipelined engine (in-flight
/// table, registration cache, recv-buffer pool, batched worker drain) is
/// fully deterministic.
#[test]
fn pipelined_runs_are_deterministic() {
    let case = mixed_rounds(76, 3);
    assert_eq!(run_case(&case, true).end, run_case(&case, true).end);
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
    let sets = Call::SetMany((0..KEYS).map(|k| (k, Val(sizes[k], k as u8))).collect());
    let case = one_client(
        Transport::Ucr,
        8,
        vec![sets, Call::GetMany((0..KEYS).collect())],
    );
    let events = run_case(&case, true).events;
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
// The scenario sweep: drawn cases of `run_case`
// ---------------------------------------------------------------------

/// Sets keys `from..KEYS`, key `k` to a value of `VALUE_SIZES[k % sizes]`
/// bytes, in one batch, then gets every key in one.
fn set_then_get(from: usize, sizes: usize) -> Vec<Call> {
    let sets = (from..KEYS).map(|k| (k, Val(k % sizes, k as u8))).collect();
    vec![Call::SetMany(sets), Call::GetMany((0..KEYS).collect())]
}

/// One client on Cluster B, at `depth`, with the default server.
fn one_client(wire: Transport, depth: usize, stream: Vec<Call>) -> Case {
    Case {
        depth,
        ..Case::fixed(true, vec![(wire, stream)])
    }
}

/// Any case: every call answers what the store answers, nothing is left
/// parked, counters only grow, and UCR's pipelined values reach the server
/// in the order they were sent.
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
        Call::SetMany(vec![(0, Val(0, 1)), (1, Val(4, 2)), (2, Val(1, 3))]),
        Call::GetMany(vec![0, 1, 2]),
    ];
    let mut case = one_client(Transport::Udp(Stack::TenGigEToe), 8, stream);
    case.cluster_b = false;
    run_case(&case, true);
}
