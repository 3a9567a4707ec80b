//! Acceptance tests for the virtual-time profiler: profiling costs zero
//! virtual time (bare vs traced vs profiled end clocks are bit-identical),
//! every completed request decomposes exactly into critical-path stages
//! plus an explicit residual, the folded collapsed-stack export round-trips
//! through its parser, the `stats profile` verb reports on both client
//! families, and the slowest paths it keeps name ops on the trace.

use rdma_memcached::rmc::{
    McClient, McClientConfig, McServerConfig, Scenario, StoreModel, Transport, World,
};
use rdma_memcached::simnet::profiler::SLOWEST_KEPT;
use rdma_memcached::simnet::trace_export::folded_text;
use rdma_memcached::simnet::{
    Event, EventRecorder, Layer, NodeId, PathStage, Phase, Profiler, ProfilerConfig, Stack,
};
use rmc_bench::json::parse_folded;

/// Two workers behind one store lock, and one client over `transport`.
fn global_lock(seed: u64, transport: Transport) -> Scenario {
    let server = McServerConfig {
        workers: 2,
        store_model: StoreModel::GlobalLock,
        ..McServerConfig::default()
    };
    let client = McClientConfig::single(transport, NodeId(0));
    Scenario::new(World::cluster_b(seed, 4), server, [client])
}

/// Sequential set + `gets` reads; returns the end-of-run virtual clock.
fn run_gets(world: &World, client: McClient, gets: usize) -> u64 {
    let sim = world.sim().clone();
    let sim2 = sim.clone();
    sim.block_on(async move {
        client.set(b"k", &vec![0x5au8; 512], 0, 0).await.unwrap();
        for _ in 0..gets {
            client.get(b"k").await.unwrap().unwrap();
        }
        sim2.now().as_nanos()
    })
}

#[test]
fn profiling_adds_no_virtual_time() {
    // Bare, traced (recorder sink), and profiled runs of the same workload
    // must end at the same virtual nanosecond: every profiler hook is
    // host-side bookkeeping.
    let run = |mode: u8| {
        let s = Scenario::start(World::cluster_b(71, 4), Transport::Ucr);
        let (world, client) = (&s.world, s.clients[0].clone());
        match mode {
            1 => {
                world.cluster.tracer().add_sink(EventRecorder::new());
            }
            2 => {
                let _ = Profiler::attach(world.cluster.tracer(), ProfilerConfig::default());
            }
            _ => {}
        }
        run_gets(world, client, 20)
    };
    let bare = run(0);
    let traced = run(1);
    let profiled = run(2);
    assert_eq!(bare, traced, "tracing must not move the virtual clock");
    assert_eq!(bare, profiled, "profiling must not move the virtual clock");
}

#[test]
fn ucr_paths_decompose_exactly_under_global_lock() {
    let s = global_lock(72, Transport::Ucr);
    let (world, client) = (&s.world, s.clients[0].clone());
    let profiler = Profiler::attach(world.cluster.tracer(), ProfilerConfig::default());
    let sim = world.sim().clone();
    sim.block_on(async move {
        client.set(b"k", &[7u8; 256], 0, 0).await.unwrap();
        for _ in 0..30 {
            client.get(b"k").await.unwrap().unwrap();
        }

        let audit = profiler.audit();
        assert_eq!(audit.ops, 31, "set + 30 gets all retired");
        assert_eq!(audit.inexact_ops, 0, "stage sum + residual == e2e, always");
        // Request ids are on the UCR wire, so every stage correlates
        // directly: wire, service, and lock-hold time are all attributed.
        assert!(profiler.stage_total(PathStage::RequestWire).as_nanos() > 0);
        assert!(profiler.stage_total(PathStage::ResponseWire).as_nanos() > 0);
        assert!(profiler.stage_total(PathStage::Service).as_nanos() > 0);
        assert!(
            profiler.stage_total(PathStage::LockHold).as_nanos() > 0,
            "GlobalLock charges every op a lock hold"
        );
        assert_eq!(profiler.unmatched_events(), 0, "ids correlate end to end");

        // The `stats profile` verb surfaces the same audit through the
        // protocol.
        let stats = client.stats_report("profile").await.unwrap();
        let lookup = |key: &str| {
            stats
                .iter()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("missing {key}"))
                .1
                .clone()
        };
        // The stats op itself is mid-flight while the report renders.
        assert_eq!(lookup("profile.ops"), "31");
        assert_eq!(lookup("profile.inexact_ops"), "0");
        assert!(lookup("profile.stage.lock_hold").starts_with("share="));
        assert!(lookup("profile.signature.0").contains('x'));
    });
}

#[test]
fn sockets_paths_decompose_exactly_via_single_op_fallback() {
    // The ASCII wire carries no request id: the profiler attributes
    // server-side events to the one open client op. Sequential load keeps
    // that attribution sound, and the exactness identity holds regardless.
    let s = global_lock(73, Transport::Sockets(Stack::Sdp));
    let (world, client) = (&s.world, s.clients[0].clone());
    let sim = world.sim().clone();
    // Before any profiler attaches, the verb answers "profiler off".
    let off = {
        let client = client.clone();
        sim.block_on(async move { client.stats_report("profile").await.unwrap() })
    };
    assert_eq!(off, vec![("profiler".to_string(), "off".to_string())]);

    let profiler = Profiler::attach(world.cluster.tracer(), ProfilerConfig::default());
    sim.block_on(async move {
        client.set(b"k", &[9u8; 128], 0, 0).await.unwrap();
        for _ in 0..20 {
            client.get(b"k").await.unwrap().unwrap();
        }
        let audit = profiler.audit();
        assert_eq!(audit.ops, 21);
        assert_eq!(audit.inexact_ops, 0);
        assert!(
            profiler.stage_total(PathStage::Service).as_nanos() > 0,
            "sockets worker_service span attributed via the fallback"
        );
        assert!(profiler.stage_total(PathStage::LockHold).as_nanos() > 0);

        // The same verb works over the ASCII protocol.
        let stats = client.stats_report("profile").await.unwrap();
        assert!(
            stats.iter().any(|(k, v)| k == "profile.ops" && v == "21"),
            "stats profile reports over ASCII: {stats:?}"
        );
    });
}

#[test]
fn folded_profile_round_trips_and_nests_lock_frames() {
    let s = global_lock(74, Transport::Ucr);
    let profiler = Profiler::attach(s.world.cluster.tracer(), ProfilerConfig::default());
    run_gets(&s.world, s.clients[0].clone(), 10);

    let lines = profiler.folded_lines();
    assert!(!lines.is_empty());
    // Lock holds share their op id with the service span, so they fold
    // as children of `core:worker_service` on the worker lane.
    assert!(
        lines
            .iter()
            .any(|(p, n)| p.contains("core:worker_service;core:lock_hold") && *n > 0),
        "lock_hold nests under worker_service: {lines:?}"
    );
    assert!(lines
        .iter()
        .any(|(p, n)| p.ends_with("core:client_op") && *n > 0));

    // Collapsed-stack round-trip: parse(fold(x)) refolds to the same text.
    let text = folded_text(&lines);
    let parsed = parse_folded(&text).expect("well-formed folded output");
    assert_eq!(parsed, lines);
    assert_eq!(folded_text(&parsed), text);
}

#[test]
fn slowest_paths_are_exact_sorted_and_resolve_in_the_trace() {
    // The profiler's tail record: the slowest completed paths, each an
    // exact decomposition whose op id finds its `client_op` span on the
    // trace timeline.
    let s = global_lock(75, Transport::Ucr);
    let (world, client) = (&s.world, s.clients[0].clone());
    let recorder = EventRecorder::new();
    world.cluster.tracer().add_sink(recorder.clone());
    let profiler = Profiler::attach(world.cluster.tracer(), ProfilerConfig::default());
    run_gets(world, client.clone(), 40);

    let slowest = profiler.slowest();
    assert_eq!(
        slowest.len(),
        SLOWEST_KEPT,
        "41 ops retired, the slowest kept"
    );
    assert!(
        slowest
            .windows(2)
            .all(|w| w[0].end_to_end >= w[1].end_to_end),
        "sorted by end_to_end, descending"
    );
    let events = recorder.events();
    let is_client_op = |e: &Event, phase: Phase| {
        e.layer == Layer::Core && e.name == "client_op" && e.phase == phase
    };
    // An op's `client_op` span on the trace timeline, begin to end.
    let span = |op: u64| {
        let at = |phase: Phase| {
            let found = events.iter().find(|e| is_client_op(e, phase) && e.op == op);
            found
                .unwrap_or_else(|| panic!("op {op} has no client_op {phase:?}"))
                .at
        };
        at(Phase::End) - at(Phase::Begin)
    };
    let ends = events.iter().filter(|e| is_client_op(e, Phase::End));
    let max = ends.map(|e| span(e.op)).max();
    assert_eq!(
        Some(slowest[0].end_to_end),
        max,
        "the largest end-to-end on the trace"
    );
    for cp in &slowest {
        assert!(cp.is_exact(), "path {cp:?} violates the exactness identity");
        assert_eq!(span(cp.op), cp.end_to_end);
    }

    let stats = world
        .sim()
        .block_on(async move { client.stats_report("profile").await.unwrap() });
    let top = stats
        .iter()
        .find(|(k, _)| k == "profile.slowest.0")
        .map(|(_, v)| v.as_str())
        .expect("stats profile lists the slowest paths");
    assert!(top.starts_with(&format!("op={} ", slowest[0].op)), "{top}");
    assert!(top.contains("dominant="), "{top}");
}

#[test]
fn stats_reset_restarts_every_stage_figure_together() {
    // A stage's share, total, p50 and p99 come from one histogram, so
    // `stats reset` restarts all four: after 4 KB gets, a reset and 4 B
    // gets, `profile.stage.response_wire` reads as if the 4 KB gets had
    // never run.
    let response_wire_after = |big_gets: usize| {
        let s = Scenario::start(World::cluster_b(76, 4), Transport::Ucr);
        let client = s.clients[0].clone();
        let _profiler = Profiler::attach(s.world.cluster.tracer(), ProfilerConfig::default());
        s.world.sim().block_on(async move {
            client.set(b"big", &[1u8; 4096], 0, 0).await.unwrap();
            client.set(b"small", &[2u8; 4], 0, 0).await.unwrap();
            for _ in 0..big_gets {
                client.get(b"big").await.unwrap().unwrap();
            }
            client.stats_report("reset").await.unwrap();
            for _ in 0..20 {
                client.get(b"small").await.unwrap().unwrap();
            }
            let stats = client.stats_report("profile").await.unwrap();
            let line = stats
                .into_iter()
                .find(|(k, _)| k == "profile.stage.response_wire");
            line.expect("stats profile lists every stage").1
        })
    };
    let small_only = response_wire_after(0);
    let after_big = response_wire_after(30);
    assert_eq!(
        after_big, small_only,
        "share, total, p50 and p99 all restart"
    );
}
