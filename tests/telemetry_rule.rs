//! The telemetry rule: the events a run emits, the request ids it carries
//! and the metric names it registers do not depend on who is watching.
//! Attaching a `Profiler` adds the `profile.*` family and nothing else,
//! and it may attach after the client exists.

use rdma_memcached::rmc::{McClient, McClientConfig, McServer, McServerConfig, Transport, World};
use rdma_memcached::simnet::trace::{Event, Layer, Phase, Track};
use rdma_memcached::simnet::{
    EventRecorder, NodeId, PathStage, Profiler, ProfilerConfig, Sampler, SamplerConfig, Stack,
};

#[derive(Clone, Copy, PartialEq, Debug)]
enum Watch {
    Nobody,
    RecorderAndSampler,
    ProfilerToo,
}

const CLIENT: NodeId = NodeId(2);
const GETS: u64 = 24;

/// Everything an event says.
type Said = (
    Layer,
    &'static str,
    Phase,
    Option<NodeId>,
    Track,
    u64,
    u64,
    u64,
);

fn said(e: &Event) -> Said {
    let at = e.at.as_nanos();
    (e.layer, e.name, e.phase, e.node, e.track, e.op, e.bytes, at)
}

struct Run {
    end_ns: u64,
    events: Vec<Said>,
    /// Every registered instrument's name: counters, gauges, histograms.
    names: Vec<String>,
    profiler: Option<std::rc::Rc<Profiler>>,
}

fn run(transport: Transport, watch: Watch) -> Run {
    let world = World::cluster_a(97, 4);
    let _server = McServer::start(&world, NodeId(0), McServerConfig::default());
    let client = McClient::new(&world, CLIENT, McClientConfig::single(transport, NodeId(0)));
    let tracer = world.cluster.tracer().clone();
    let metrics = world.cluster.metrics().clone();

    let recorder = EventRecorder::new();
    let sampler = Sampler::new(world.sim(), &metrics, SamplerConfig::default());
    if watch != Watch::Nobody {
        tracer.add_sink(recorder.clone());
        sampler.start();
    }
    // After the client exists: its request ids must not care.
    let profiler =
        (watch == Watch::ProfilerToo).then(|| Profiler::attach(&tracer, ProfilerConfig::default()));

    let sim = world.sim().clone();
    let sim2 = sim.clone();
    let end_ns = sim.block_on(async move {
        client.set(b"k", &[0x5au8; 512], 0, 0).await.unwrap();
        for _ in 0..GETS {
            client.get(b"k").await.unwrap().unwrap();
        }
        sim2.now().as_nanos()
    });
    sampler.stop();

    // The always-on flight ring is how a run nobody watches is read.
    assert_eq!(tracer.flight_dropped(), 0, "the run fits the flight ring");
    let events: Vec<Said> = tracer.flight_snapshot().iter().map(said).collect();
    if watch != Watch::Nobody {
        assert!(sampler.ticks() > 0, "the sampler ran");
        let recorded: Vec<Said> = recorder.events().iter().map(said).collect();
        assert_eq!(
            recorded, events,
            "{watch:?}: a sink sees what the ring holds"
        );
    }

    // Every instrument of every kind (each listing is sorted by name).
    let names = (metrics.counters().into_iter().map(|(n, _)| n))
        .chain(metrics.gauges().into_iter().map(|(n, _)| n))
        .chain(metrics.histograms().into_iter().map(|(n, _)| n))
        .collect();
    Run {
        end_ns,
        events,
        names,
        profiler,
    }
}

fn is_profile(name: &str) -> bool {
    name.starts_with("profile.")
}

/// Runs `transport` all three ways, checks the rule, and hands back the
/// profiled run.
fn three_ways(transport: Transport) -> Run {
    let bare = run(transport, Watch::Nobody);
    let watched = run(transport, Watch::RecorderAndSampler);
    let profiled = run(transport, Watch::ProfilerToo);

    for other in [&watched, &profiled] {
        assert_eq!(bare.end_ns, other.end_ns, "{transport:?}: same end clock");
        assert_eq!(bare.events.len(), other.events.len(), "{transport:?}");
        for (i, (a, b)) in bare.events.iter().zip(&other.events).enumerate() {
            assert_eq!(a, b, "{transport:?}: event {i} differs");
        }
    }

    // Request ids are node-prefixed whoever watches.
    let ops: Vec<&Said> = bare
        .events
        .iter()
        .filter(|e| e.1 == "client_op" && e.2 == Phase::Begin)
        .collect();
    assert_eq!(
        ops.len() as u64,
        1 + GETS,
        "{transport:?}: every op is a span"
    );
    for op in ops {
        assert_eq!(
            op.5 >> 32,
            u64::from(CLIENT.0),
            "{transport:?}: id {:#x}",
            op.5
        );
    }

    // Same registered names; the profiler adds its family and only that.
    assert_eq!(bare.names, watched.names, "{transport:?}");
    assert!(!bare.names.iter().any(|n| is_profile(n)));
    let (family, rest): (Vec<_>, Vec<_>) =
        profiled.names.iter().cloned().partition(|n| is_profile(n));
    assert_eq!(rest, bare.names, "{transport:?}");
    assert!(family.contains(&"profile.paths".to_string()));
    profiled
}

#[test]
fn ucr_telemetry_does_not_depend_on_who_watches() {
    let profiled = three_ways(Transport::Ucr);
    let p = profiled.profiler.expect("profiled run");
    let audit = p.audit();
    assert_eq!(audit.ops, 1 + GETS, "every op decomposed");
    assert_eq!(audit.inexact_ops, 0);
    assert_eq!(p.unmatched_events(), 0, "ids correlate end to end");
    for stage in [
        PathStage::RequestWire,
        PathStage::Service,
        PathStage::ResponseWire,
    ] {
        assert!(p.stage_total(stage).as_nanos() > 0, "{stage:?} attributed");
    }
}

#[test]
fn ascii_toe_telemetry_does_not_depend_on_who_watches() {
    let profiled = three_ways(Transport::Sockets(Stack::TenGigEToe));
    let p = profiled.profiler.expect("profiled run");
    assert_eq!(p.audit().ops, 1 + GETS);
    assert_eq!(p.audit().inexact_ops, 0);
}
