//! Acceptance tests for the cross-layer tracing subsystem: the Perfetto
//! export of one traced get carries correlated events from every layer,
//! tracing costs zero virtual time, the flight recorder captures the
//! QP-level tail of a forced endpoint failure, and the `stats trace` /
//! per-op histogram surfaces report through the memcached protocol.

use rdma_memcached::rmc::{McClientConfig, McServerConfig, Scenario, Transport, World};
use rdma_memcached::simnet::trace::{Layer, Phase};
use rdma_memcached::simnet::trace_export::{chrome_trace_json, parse_json, Json};
use rdma_memcached::simnet::{EventRecorder, NodeId, Stack};

/// Items of the exported `traceEvents` array matching a predicate.
fn items<'a>(trace: &'a Json, pred: impl Fn(&Json) -> bool + 'a) -> Vec<&'a Json> {
    trace
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents array")
        .iter()
        .filter(|it| pred(it))
        .collect()
}

fn field<'a>(item: &'a Json, key: &str) -> &'a str {
    item.get(key).and_then(|v| v.as_str()).unwrap_or("")
}

#[test]
fn four_kb_get_trace_correlates_all_three_layers() {
    let s = Scenario::start(World::cluster_b(61, 4), Transport::Ucr);
    let (world, client) = (&s.world, s.clients[0].clone());
    let recorder = EventRecorder::new();
    world.cluster.tracer().add_sink(recorder.clone());
    let sim = world.sim().clone();
    sim.block_on(async move {
        client.set(b"k", &vec![0x4bu8; 4096], 0, 0).await.unwrap();
        recorder.take(); // trace exactly the one get
        client.get(b"k").await.unwrap().unwrap();

        let trace = parse_json(&chrome_trace_json(&recorder.events())).expect("valid JSON");

        // Core: the client op span, the server dispatch marker, and the
        // worker service span all share the request id.
        let begins = items(&trace, |it| {
            field(it, "ph") == "b" && field(it, "name") == "client_op"
        });
        assert_eq!(begins.len(), 1, "exactly one traced client op");
        let req_id = field(begins[0], "id").to_string();
        assert!(!req_id.is_empty());
        for (name, ph) in [
            ("client_op", "e"),
            ("dispatch", "i"),
            ("worker_service", "b"),
            ("worker_service", "e"),
        ] {
            let matching = items(&trace, |it| {
                field(it, "name") == name && field(it, "ph") == ph && field(it, "id") == req_id
            });
            assert_eq!(matching.len(), 1, "core event {name}/{ph} with id {req_id}");
        }

        // Verbs: the request's RC send posts and completes (begin + end
        // pairs sharing an id), on both directions of the exchange.
        let sends = items(&trace, |it| {
            field(it, "cat") == "verbs" && field(it, "name") == "send" && field(it, "ph") == "b"
        });
        assert!(sends.len() >= 2, "request and response sends traced");
        for s in &sends {
            let id = field(s, "id");
            let ends = items(&trace, |it| {
                field(it, "cat") == "verbs"
                    && field(it, "name") == "send"
                    && field(it, "ph") == "e"
                    && field(it, "id") == id
            });
            assert_eq!(ends.len(), 1, "send span {id} completes");
        }

        // UCR: the 4 KB payload rides the eager path, and the client's
        // counter is bumped when the response lands.
        assert!(
            !items(&trace, |it| field(it, "name") == "am_send_eager").is_empty(),
            "eager AM send traced"
        );
        assert!(
            !items(&trace, |it| field(it, "name") == "counter_bump").is_empty(),
            "counter bump traced"
        );

        // The UCR request send shares its wr_id with the verbs-level
        // send span: the same transfer, seen by both layers.
        let am = items(&trace, |it| field(it, "name") == "am_send_eager");
        let am_id = field(am[0], "id");
        assert!(
            sends.iter().any(|s| field(s, "id") == am_id),
            "AM send {am_id} has a matching verbs send span"
        );
    });
}

#[test]
fn tracing_adds_no_virtual_time() {
    let run = |traced: bool| {
        let s = Scenario::start(World::cluster_b(62, 4), Transport::Ucr);
        let (world, client) = (&s.world, s.clients[0].clone());
        let recorder = EventRecorder::new();
        if traced {
            world.cluster.tracer().add_sink(recorder.clone());
        }
        let sim = world.sim().clone();
        let sim2 = sim.clone();
        let end = sim.block_on(async move {
            client.set(b"k", &vec![7u8; 4096], 0, 0).await.unwrap();
            for _ in 0..20 {
                client.get(b"k").await.unwrap().unwrap();
            }
            sim2.now().as_nanos()
        });
        (end, recorder.len())
    };
    let (untraced_end, _) = run(false);
    let (traced_end, recorded) = run(true);
    assert!(recorded > 0, "the traced run actually recorded events");
    assert_eq!(
        untraced_end, traced_end,
        "tracing must not move the virtual clock"
    );
}

#[test]
fn bypass_tracing_adds_no_virtual_time() {
    // The clock-equality guarantee extends to the server-CPU-bypass GET
    // path: descriptor lookups, one-sided reads, and their spans must
    // cost zero virtual time when a sink is attached.
    let run = |traced: bool| {
        let bypass = McClientConfig {
            bypass_get: true,
            ..McClientConfig::single(Transport::Ucr, NodeId(0))
        };
        let s = Scenario::new(World::cluster_b(64, 4), McServerConfig::default(), [bypass]);
        let (world, client) = (&s.world, s.clients[0].clone());
        let recorder = EventRecorder::new();
        if traced {
            world.cluster.tracer().add_sink(recorder.clone());
        }
        let sim = world.sim().clone();
        let sim2 = sim.clone();
        let end = sim.block_on(async move {
            client.set(b"k", &vec![7u8; 4096], 0, 0).await.unwrap();
            for _ in 0..20 {
                client.get(b"k").await.unwrap().unwrap();
            }
            let bypassed = client.ucr_runtime().unwrap().stats().bypass_reads.get();
            assert_eq!(bypassed, 20, "every get rode the one-sided path");
            sim2.now().as_nanos()
        });
        (end, recorder.len())
    };
    let (untraced_end, _) = run(false);
    let (traced_end, recorded) = run(true);
    assert!(recorded > 0, "the traced run actually recorded events");
    assert_eq!(
        untraced_end, traced_end,
        "tracing must not move the virtual clock on the bypass path"
    );
}

#[test]
fn flight_recorder_captures_failed_send_tail() {
    let s = Scenario::start(World::cluster_b(63, 4), Transport::Ucr);
    let (sim, client) = (s.world.sim().clone(), s.clients[0].clone());
    let tracer = s.world.cluster.tracer().clone();
    sim.block_on(async move {
        client.set(b"k", b"v", 0, 0).await.unwrap();
        client.get(b"k").await.unwrap().unwrap();

        // Kill the server's HCA: the next send exhausts RC retries, the
        // completion carries an error, and UCR fails the endpoint.
        s.world.crash_node(NodeId(0));
        assert!(client.get(b"k").await.is_err());

        assert!(tracer.fault_count() >= 1, "endpoint failure raised a fault");
        let dump = tracer.last_fault().expect("fault dump stored");
        assert!(dump.contains("failed"), "dump names the failure: {dump}");

        // The ring's tail holds the failed send's QP-level story: the
        // posted send, its error completion, the closed span, and the
        // endpoint teardown — in virtual-time order.
        let flight = tracer.flight_snapshot();
        let err_idx = flight
            .iter()
            .rposition(|ev| ev.name == "wc_error")
            .expect("error completion in the flight ring");
        let wr = flight[err_idx].op;
        let story: Vec<_> = flight.iter().filter(|ev| ev.op == wr).collect();
        assert!(
            story
                .iter()
                .any(|ev| ev.name == "send" && ev.phase == Phase::Begin),
            "the failed send's post is in the ring"
        );
        assert!(
            story
                .iter()
                .any(|ev| ev.name == "send" && ev.phase == Phase::End),
            "the failed send's (error) completion closes its span"
        );
        assert!(
            story.windows(2).all(|w| w[0].at <= w[1].at),
            "the failed send's events are in virtual-time order"
        );
        assert!(
            flight[err_idx..]
                .iter()
                .any(|ev| ev.layer == Layer::Ucr && ev.name == "ep_failed"),
            "the endpoint failure marker follows the error completion"
        );
    });
}

/// A crash replays from its seed event for event: the same seeded
/// shutdown and crash, built twice in one process, emits the same stream.
/// Teardown walks only ordered tables, so neither the server's endpoint
/// closes nor the dead node's socket resets depend on a hasher's seed.
#[test]
fn a_crash_replays_event_for_event() {
    let run = || {
        let world = World::cluster_a(5, 10);
        let recorder = EventRecorder::new();
        world.cluster.tracer().add_sink(recorder.clone());
        // Eight server endpoints: two runs closing them in hash order
        // agree by chance once in 8! = 40 320.
        let mut wires = vec![Transport::Ucr; 8];
        wires.push(Transport::Sockets(Stack::TenGigEToe));
        let clients = wires
            .into_iter()
            .map(|t| McClientConfig::single(t, NodeId(0)));
        let s = Scenario::new(world, McServerConfig::default(), clients);
        let sim = s.world.sim().clone();
        sim.block_on(async move {
            for c in &s.clients {
                c.set(b"k", b"v", 0, 0).await.unwrap();
            }
            s.server.shutdown();
            s.world.crash_node(NodeId(0));
            for c in &s.clients {
                assert!(c.get(b"k").await.is_err(), "the server is gone");
            }
        });
        let events: Vec<String> = recorder.events().iter().map(|e| format!("{e:?}")).collect();
        assert_eq!(recorder.dropped(), 0, "the recorder kept the whole run");
        events
    };
    let (first, second) = (run(), run());
    assert!(first.iter().any(|e| e.contains("qp_close")));
    for (i, (a, b)) in first.iter().zip(&second).enumerate() {
        assert_eq!(a, b, "event {i} differs between two runs of one seed");
    }
    assert_eq!(first.len(), second.len());
}

#[test]
fn stats_trace_and_per_op_histograms_surface_through_protocol() {
    let s = Scenario::start(World::cluster_b(64, 4), Transport::Ucr);
    let (sim, client) = (s.world.sim().clone(), s.clients[0].clone());
    sim.block_on(async move {
        client.set(b"k", &[1u8; 128], 0, 0).await.unwrap();
        for _ in 0..5 {
            client.get(b"k").await.unwrap().unwrap();
        }

        // `stats trace`: per-layer event counts plus flight-ring state.
        let trace_stats = client.stats_report("trace").await.unwrap();
        let lookup = |key: &str| {
            trace_stats
                .iter()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("missing {key}"))
                .1
                .clone()
        };
        for layer in ["wire", "verbs", "ucr", "core"] {
            let n: u64 = lookup(&format!("trace.events.{layer}")).parse().unwrap();
            assert!(n > 0, "layer {layer} has emitted events");
        }
        assert!(lookup("trace.flight.len").parse::<u64>().unwrap() > 0);

        // The plain `stats` report carries per-op service-time summaries.
        let stats = client.stats().await.unwrap();
        let get_mean: f64 = stats
            .iter()
            .find(|(k, _)| k == "op.get.service_us.mean")
            .expect("per-op get histogram")
            .1
            .parse()
            .unwrap();
        assert!(get_mean > 0.0);
        let get_count: u64 = stats
            .iter()
            .find(|(k, _)| k == "op.get.count")
            .expect("per-op get count")
            .1
            .parse()
            .unwrap();
        assert!(get_count >= 5);
    });
}
