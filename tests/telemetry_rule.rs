//! The telemetry rule: the events a run emits, the request ids it carries
//! and the metric names it registers do not depend on who is watching.
//! Attaching a `Profiler` adds the `profile.*` family and nothing else,
//! and it may attach after the client exists. Nor do they depend on the
//! wire: an operation is one `client_op` span holding one `client_sent`
//! and one `client_reply`, on all four and at any window, and every span
//! a run opens it closes.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use rdma_memcached::rmc::{McClientConfig, McServerConfig, Scenario, StoreModel, Transport, World};
use rdma_memcached::simnet::trace::{Event, Layer, Phase, Track};
use rdma_memcached::simnet::{EventRecorder, NodeId, PathStage, Profiler, ProfilerConfig, Stack};

#[derive(Clone, Copy, PartialEq, Debug)]
enum Watch {
    Nobody,
    Recorder,
    ProfilerToo,
}

/// A scenario's one client runs on node 1.
const CLIENT: NodeId = NodeId(1);
const GETS: u64 = 24;

const UCR: Transport = Transport::Ucr;
const ASCII_TCP: Transport = Transport::Sockets(Stack::TenGigEToe);
const BINARY_TCP: Transport = Transport::Binary(Stack::TenGigEToe);
const ASCII_UDP: Transport = Transport::Udp(Stack::TenGigEToe);

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

fn run(wire: Transport, watch: Watch) -> Run {
    let s = Scenario::start(World::cluster_a(97, 4), wire);
    let (world, client) = (&s.world, s.clients[0].clone());
    let tracer = world.cluster.tracer().clone();
    let metrics = world.cluster.metrics().clone();

    let recorder = EventRecorder::new();
    if watch != Watch::Nobody {
        tracer.add_sink(recorder.clone());
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

    // The always-on flight ring is how a run nobody watches is read.
    assert_eq!(tracer.flight_dropped(), 0, "the run fits the flight ring");
    let events: Vec<Said> = tracer.flight_snapshot().iter().map(said).collect();
    if watch != Watch::Nobody {
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

/// Runs `wire` all three ways, checks the rule, and hands back the
/// profiled run.
fn three_ways(wire: Transport) -> Run {
    let bare = run(wire, Watch::Nobody);
    let watched = run(wire, Watch::Recorder);
    let profiled = run(wire, Watch::ProfilerToo);

    for other in [&watched, &profiled] {
        assert_eq!(bare.end_ns, other.end_ns, "{wire:?}: same end clock");
        assert_eq!(bare.events.len(), other.events.len(), "{wire:?}");
        for (i, (a, b)) in bare.events.iter().zip(&other.events).enumerate() {
            assert_eq!(a, b, "{wire:?}: event {i} differs");
        }
    }

    // Request ids are node-prefixed whoever watches.
    let ops: Vec<&Said> = bare
        .events
        .iter()
        .filter(|e| e.1 == "client_op" && e.2 == Phase::Begin)
        .collect();
    assert_eq!(ops.len() as u64, 1 + GETS, "{wire:?}: every op is a span");
    for op in ops {
        assert_eq!(op.5 >> 32, u64::from(CLIENT.0), "{wire:?}: id {:#x}", op.5);
    }

    // Same registered names; the profiler adds its family and only that.
    assert_eq!(bare.names, watched.names, "{wire:?}");
    assert!(!bare.names.iter().any(|n| is_profile(n)));
    let (family, rest): (Vec<_>, Vec<_>) =
        profiled.names.iter().cloned().partition(|n| is_profile(n));
    assert_eq!(rest, bare.names, "{wire:?}");
    assert!(family.contains(&"profile.paths".to_string()));
    profiled
}

#[test]
fn ucr_telemetry_does_not_depend_on_who_watches() {
    let profiled = three_ways(UCR);
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

/// The three socket wires decompose like the ASCII/TCP one always did.
fn socket_wire_decomposes(wire: Transport) {
    let profiled = three_ways(wire);
    let p = profiled.profiler.expect("profiled run");
    assert_eq!(p.audit().ops, 1 + GETS, "{wire:?}");
    assert_eq!(p.audit().inexact_ops, 0, "{wire:?}");
}

#[test]
fn ascii_toe_telemetry_does_not_depend_on_who_watches() {
    socket_wire_decomposes(ASCII_TCP);
}

#[test]
fn binary_toe_telemetry_does_not_depend_on_who_watches() {
    socket_wire_decomposes(BINARY_TCP);
}

#[test]
fn ascii_udp_telemetry_does_not_depend_on_who_watches() {
    socket_wire_decomposes(ASCII_UDP);
}

/// The spans of `events` left open: every `Begin` must meet exactly one
/// `End` with the same `(layer, name, node, track, op)` after it, and every
/// `End` close one such `Begin`. Returns the keys unbalanced either way.
fn unbalanced_spans(events: &[Event]) -> Vec<String> {
    let mut open: HashMap<(Layer, &str, Option<NodeId>, Track, u64), i64> = HashMap::new();
    let mut stray = Vec::new();
    for e in events {
        let key = (e.layer, e.name, e.node, e.track, e.op);
        match e.phase {
            Phase::Begin => *open.entry(key).or_default() += 1,
            Phase::End => match open.get_mut(&key) {
                Some(n) if *n > 0 => *n -= 1,
                _ => stray.push(format!("end without a begin: {key:?}")),
            },
            Phase::Instant => {}
        }
    }
    let left = open.iter().filter(|(_, n)| **n > 0);
    stray.extend(left.map(|(key, n)| format!("{n} left open: {key:?}")));
    stray.sort();
    stray
}

/// One op lifecycle on every wire, whatever the window: each operation is
/// exactly one `client_op` begin/end pair, one `client_sent` and — it
/// succeeded — one `client_reply`, and nothing is left open or parked when
/// the run goes quiet — no span of any layer either. A 16 KB value on UCR
/// and a two-shard store put the rendezvous and lock spans in the stream.
#[test]
fn every_wire_runs_an_op_through_one_lifecycle() {
    const KEYS: usize = 20;
    let mut seen = BTreeSet::new();
    let models = [StoreModel::Idealized, StoreModel::Sharded(2)];
    for wire in [UCR, ASCII_TCP, BINARY_TCP, ASCII_UDP] {
        for (model, depth) in models.into_iter().flat_map(|m| [(m, 1), (m, 8)]) {
            let config = McServerConfig {
                store_model: model,
                ..McServerConfig::default()
            };
            let client = McClientConfig {
                pipeline_depth: depth,
                ..McClientConfig::single(wire, NodeId(0))
            };
            let s = Scenario::new(World::cluster_a(97, 4), config, [client]);
            let (world, client) = (&s.world, s.clients[0].clone());
            let c = client.clone();
            let ucr = wire == UCR;
            let sim = world.sim().clone();
            sim.clone().block_on(async move {
                let keys: Vec<Vec<u8>> =
                    (0..KEYS).map(|i| format!("key-{i}").into_bytes()).collect();
                let items: Vec<(&[u8], &[u8])> =
                    keys.iter().map(|k| (k.as_slice(), &b"value"[..])).collect();
                // On UCR a `stats` locks every shard on the connection's
                // worker while the sets hold their shards on the shards'
                // workers: the two collide.
                let c2 = c.clone();
                let stats = ucr.then(|| sim.spawn(async move { c2.stats().await.is_ok() }));
                let stored = c.set_many(&items, 0, 0).await.unwrap();
                assert!(stored.iter().all(Result::is_ok));
                if let Some(stats) = stats {
                    assert!(stats.await);
                }
                let mut asked: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
                asked.push(b"absent");
                let got = c.get_many(&asked).await.unwrap();
                assert_eq!(got.iter().flatten().count(), KEYS);
                assert!(c.get(b"key-0").await.unwrap().is_some());
                assert!(c.delete(b"key-0").await.unwrap());
                if ucr {
                    let value = vec![0xa5u8; 16 << 10];
                    c.set(b"large", &value, 0, 0).await.unwrap();
                    assert_eq!(c.get(b"large").await.unwrap().unwrap().data, value);
                }
            });
            // Quiesce: completions still in flight when the last reply
            // landed (a send's ACK) close their spans.
            world.sim().run();

            // [begins, ends, sents, replies] per op id.
            let mut ops: BTreeMap<u64, [u32; 4]> = BTreeMap::new();
            let tracer = world.cluster.tracer();
            assert_eq!(tracer.flight_dropped(), 0);
            let events = tracer.flight_snapshot();
            let at = format!("{wire:?} on {model:?} at depth {depth}");
            assert_eq!(unbalanced_spans(&events), Vec::<String>::new(), "{at}");
            seen.extend(events.iter().map(|e| e.name));
            for e in events {
                let slot = match (e.name, e.phase) {
                    ("client_op", Phase::Begin) => 0,
                    ("client_op", Phase::End) => 1,
                    ("client_sent", _) => 2,
                    ("client_reply", _) => 3,
                    _ => continue,
                };
                assert_eq!(e.node, Some(CLIENT));
                ops.entry(e.op).or_default()[slot] += 1;
            }
            // UCR adds the `stats` (not a keyed op: `ops_issued` skips it)
            // and the 16 KB set and get.
            let stats = usize::from(ucr);
            assert_eq!(ops.len() - stats, client.ops_issued() as usize, "{at}");
            assert_eq!(ops.len(), 2 * KEYS + 3 + 3 * stats, "{at}");
            for (id, counts) in ops {
                assert_eq!(counts, [1, 1, 1, 1], "{at}: op {id:#x}");
            }
            assert_eq!(client.pending_responses(), 0, "{at}");
        }
    }
    for name in ["rndv_window", "rdma_read", "lock_wait", "lock_hold"] {
        assert!(seen.contains(name), "no {name} span was checked");
    }
}
