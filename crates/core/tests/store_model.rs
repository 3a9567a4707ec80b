//! Acceptance tests for the store lock-contention models (`StoreModel`):
//! schedule equivalence of `Sharded(1)` and the default `Idealized`
//! model, global-lock serialization and its contention counters, mget
//! scatter/gather over shard-affine workers, per-shard metrics on the
//! `stats prom` surface, socket-path ordering under sharding, and bypass
//! GET invalidation against a segmented store on both clusters.

use std::cell::RefCell;
use std::rc::Rc;

use rmc::{
    McClient, McClientConfig, McServerConfig, Scenario, StoreModel, Transport, Value, World,
};
use simnet::{Event, EventSink, Metrics, NodeId, Phase, SimDuration, SimTime, Stack};

const SRV: NodeId = NodeId(0);
const CLI: NodeId = NodeId(1);

/// Runs the same concurrent keyed workload under `model` and returns the
/// end-of-run virtual clock plus every response, in a deterministic
/// order.
fn run_workload(model: StoreModel, workers: usize) -> (SimTime, Vec<(String, Option<Value>)>) {
    let config = McServerConfig {
        workers,
        store_model: model,
        ..McServerConfig::default()
    };
    let s = Scenario::new(World::cluster_b(7, 8), config, []);
    let sim = s.world.sim().clone();
    let results = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    for cli in 0..3u32 {
        let c = McClient::new(&s.world, CLI, McClientConfig::single(Transport::Ucr, SRV));
        let out = results.clone();
        sim.spawn(async move {
            for i in 0..40u32 {
                let key = format!("c{cli}-k{i}");
                let val = format!("v{cli}-{i}");
                c.set(key.as_bytes(), val.as_bytes(), 0, 0).await.unwrap();
                let got = c.get(key.as_bytes()).await.unwrap();
                out.borrow_mut().push((key, got));
            }
        });
    }
    let end = sim.run();
    let mut out = std::rc::Rc::try_unwrap(results).unwrap().into_inner();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    (end, out)
}

#[test]
fn sharded_one_matches_idealized_schedule() {
    // With one worker, `Sharded(1)` routes everything exactly where the
    // round-robin binding would have: the lock is never contended, costs
    // zero virtual time, and the split fixed+hash sleep sums to the
    // idealized single charge — so the virtual-time schedule (end clock)
    // and every response must be identical.
    let (end_ideal, out_ideal) = run_workload(StoreModel::Idealized, 1);
    let (end_sharded, out_sharded) = run_workload(StoreModel::Sharded(1), 1);
    assert_eq!(end_ideal, end_sharded, "virtual end clocks diverged");
    // The end clock is the workload's last event. Each op's 250 ms timeout
    // is cancelled when the op completes; were it left to expire, every run
    // would end at "last op + 250 ms" and the equality above would compare
    // little else.
    assert!(
        end_ideal < SimTime::ZERO + SimDuration::from_millis(250),
        "run ended at {end_ideal:?}: a dead timeout timer set the end clock"
    );
    assert_eq!(out_ideal.len(), out_sharded.len());
    for (a, b) in out_ideal.iter().zip(&out_sharded) {
        assert_eq!(a.0, b.0);
        let (va, vb) = (a.1.as_ref().unwrap(), b.1.as_ref().unwrap());
        assert_eq!(va.data, vb.data, "key {}", a.0);
        assert_eq!(va.cas, vb.cas, "key {}", a.0);
    }
}

#[test]
fn global_lock_flattens_worker_scaling() {
    // The same parallel workload under the global lock must finish no
    // faster with 8 workers than the contention ceiling allows, and the
    // lock's own accounting must show the contention.
    let (end_ideal, _) = run_workload(StoreModel::Idealized, 8);
    let (end_locked, _) = run_workload(StoreModel::GlobalLock, 8);
    assert!(
        end_locked >= end_ideal,
        "a lock cannot make the run faster: {end_locked:?} < {end_ideal:?}"
    );
}

/// Spawns three clients that each keep a deep pipeline of sets in
/// flight, so three worker threads stay busy back-to-back and collide on
/// the one lock. `tag` keeps the keys of successive rounds apart.
fn spawn_contended_sets(world: &World, tag: &'static str) {
    for cli in 0..3u32 {
        let c = McClient::new(
            world,
            CLI,
            McClientConfig {
                pipeline_depth: 8,
                ..McClientConfig::single(Transport::Ucr, SRV)
            },
        );
        world.sim().spawn(async move {
            let keys: Vec<String> = (0..30u32).map(|i| format!("{tag}{cli}-{i}")).collect();
            let items: Vec<(&[u8], &[u8])> =
                keys.iter().map(|k| (k.as_bytes(), b"x" as &[u8])).collect();
            for r in c.set_many(&items, 0, 0).await.unwrap() {
                r.unwrap();
            }
        });
    }
}

#[test]
fn global_lock_contention_counters_and_prom() {
    let global = McServerConfig {
        store_model: StoreModel::GlobalLock,
        ..McServerConfig::default()
    };
    let s = Scenario::new(World::cluster_b(11, 8), global, []);
    let (world, sim) = (&s.world, s.world.sim().clone());
    spawn_contended_sets(world, "g");
    sim.run();
    let stats = s.server.lock_stats();
    assert_eq!(stats.len(), 1, "GlobalLock has exactly one lock");
    assert_eq!(stats[0].acquires, 90, "every op acquires the lock once");
    assert!(
        stats[0].contended > 0,
        "parallel workers must have collided"
    );
    assert!(stats[0].wait_total > SimDuration::ZERO);
    assert!(stats[0].hold_total > SimDuration::ZERO);
    // The same numbers must be visible on the metrics surface.
    let m = world.cluster.metrics();
    assert_eq!(m.counter_value("mc.node0.shard0.ops"), 90);
    assert_eq!(
        m.counter_value("mc.node0.shard0.contended"),
        stats[0].contended
    );
    assert_eq!(
        m.counter_value("mc.node0.shard0.lock_wait_ns"),
        stats[0].wait_total.as_nanos()
    );
}

#[test]
fn stats_reset_resets_the_lock_with_its_shard_counters() {
    // `stats reset` zeroes the registry; the lock counts in those very
    // counters, so its own totals restart with them instead of drifting
    // apart from the `mc.node0.shard0.*` series for good.
    let global = McServerConfig {
        store_model: StoreModel::GlobalLock,
        ..McServerConfig::default()
    };
    let s = Scenario::new(World::cluster_b(11, 8), global, []);
    let (world, server, sim) = (&s.world, &s.server, s.world.sim().clone());
    spawn_contended_sets(world, "a");
    sim.run();
    assert!(server.lock_stats()[0].contended > 0);
    let c = McClient::new(world, CLI, McClientConfig::single(Transport::Ucr, SRV));
    let reply = sim.block_on(async move { c.stats_report("reset").await.unwrap() });
    assert_eq!(reply, vec![("reset".to_string(), "ok".to_string())]);
    spawn_contended_sets(world, "b");
    sim.run();
    let st = server.lock_stats()[0];
    let m = world.cluster.metrics();
    assert!(st.acquires >= 90 && st.contended > 0, "{st:?}");
    assert_eq!(st.acquires, m.counter_value("mc.node0.shard0.ops"));
    assert_eq!(st.contended, m.counter_value("mc.node0.shard0.contended"));
    assert_eq!(
        st.wait_total.as_nanos(),
        m.counter_value("mc.node0.shard0.lock_wait_ns")
    );
    assert_eq!(
        st.hold_total.as_nanos(),
        m.counter_value("mc.node0.shard0.lock_hold_ns")
    );
}

#[test]
fn idealized_registers_no_shard_metrics() {
    let s = Scenario::start(World::cluster_b(11, 8), Transport::Ucr);
    let c = s.clients[0].clone();
    let lines = s.world.sim().block_on(async move {
        c.set(b"k", b"v", 0, 0).await.unwrap();
        c.stats_report("prom").await.unwrap()
    });
    assert!(s.server.lock_stats().is_empty());
    assert!(
        !lines.iter().any(|(k, v)| {
            k.contains(".shard") || v.contains(".shard") || k.contains("lock_wait")
        }),
        "default model must not leak shard series into prom output"
    );
}

#[test]
fn sharded_prom_exposes_per_shard_series() {
    let sharded = McServerConfig {
        store_model: StoreModel::Sharded(4),
        ..McServerConfig::default()
    };
    let client = McClientConfig::single(Transport::Ucr, SRV);
    let s = Scenario::new(World::cluster_b(13, 8), sharded, [client]);
    let (server, c) = (&s.server, s.clients[0].clone());
    let lines = s.world.sim().block_on(async move {
        for i in 0..64u32 {
            let key = format!("spread-{i}");
            c.set(key.as_bytes(), b"v", 0, 0).await.unwrap();
        }
        c.stats_report("prom").await.unwrap()
    });
    assert_eq!(server.shard_count(), 4);
    let stats = server.lock_stats();
    assert_eq!(stats.len(), 4);
    // Uniform keys must spread over all shards (balance at server level).
    for (s, st) in stats.iter().enumerate() {
        assert!(st.acquires > 0, "shard {s} never acquired its lock");
    }
    let text: String = lines
        .iter()
        .map(|(k, v)| format!("{k} {v}\n"))
        .collect::<String>();
    for s in 0..4 {
        for series in ["ops", "lock_wait_ns", "lock_hold_ns", "contended"] {
            let labelled = format!("shard=\"{s}\"");
            assert!(
                text.contains(&labelled),
                "prom output missing shard label {s}"
            );
            assert!(
                text.contains(&format!("mc_{series}")) || text.contains(series),
                "prom output missing {series} family"
            );
        }
    }
}

#[test]
fn sharded_mget_preserves_per_key_results() {
    // The same mget must return identical entries, in identical order,
    // whether it is served whole (Idealized) or split per shard and
    // merged (Sharded with multiple workers).
    let mut reference: Option<Vec<(Vec<u8>, Vec<u8>)>> = None;
    for model in [StoreModel::Idealized, StoreModel::Sharded(8)] {
        let config = McServerConfig {
            store_model: model,
            ..McServerConfig::default()
        };
        let client = McClientConfig::single(Transport::Ucr, SRV);
        let s = Scenario::new(World::cluster_b(17, 8), config, [client]);
        let c = s.clients[0].clone();
        let got = s.world.sim().block_on(async move {
            for i in 0..24u32 {
                let key = format!("mg-{i}");
                let val = format!("val-{i}");
                c.set(key.as_bytes(), val.as_bytes(), 0, 0).await.unwrap();
            }
            // Mixed hits and misses, shard-interleaved request order.
            let keys: Vec<Vec<u8>> = (0..24u32)
                .map(|i| format!("mg-{i}").into_bytes())
                .chain([b"mg-miss-a".to_vec(), b"mg-miss-b".to_vec()])
                .collect();
            let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
            c.mget(&refs).await.unwrap()
        });
        let entries: Vec<(Vec<u8>, Vec<u8>)> = got.into_iter().map(|(k, v)| (k, v.data)).collect();
        assert_eq!(entries.len(), 24, "misses are dropped, hits kept");
        match &reference {
            None => reference = Some(entries),
            Some(want) => assert_eq!(want, &entries, "{model:?} diverged"),
        }
    }
}

#[test]
fn sharded_sockets_keep_request_order() {
    // ASCII multi-key get over a byte-stream transport visits shards
    // group by group but must still answer in request order.
    let sharded = McServerConfig {
        workers: 2,
        store_model: StoreModel::Sharded(4),
        ..McServerConfig::default()
    };
    let client = McClientConfig::single(Transport::Sockets(Stack::Sdp), SRV);
    let s = Scenario::new(World::cluster_a(19, 8), sharded, [client]);
    let c = s.clients[0].clone();
    s.world.sim().block_on(async move {
        for i in 0..16u32 {
            let key = format!("sk-{i}");
            let val = format!("sv-{i}");
            c.set(key.as_bytes(), val.as_bytes(), 0, 0).await.unwrap();
        }
        let keys: Vec<Vec<u8>> = (0..16u32).map(|i| format!("sk-{i}").into_bytes()).collect();
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let got = c.mget(&refs).await.unwrap();
        assert_eq!(got.len(), 16);
        for (i, (k, v)) in got.iter().enumerate() {
            assert_eq!(k, &format!("sk-{i}").into_bytes(), "order broke at {i}");
            assert_eq!(v.data, format!("sv-{i}").into_bytes());
        }
        // Full command set still behaves through the shard router.
        c.incr(b"sk-n", 1).await.unwrap_err();
        c.set(b"sk-n", b"41", 0, 0).await.unwrap();
        assert_eq!(c.incr(b"sk-n", 1).await.unwrap(), 42);
        assert!(c.delete(b"sk-3").await.unwrap());
        assert_eq!(c.get(b"sk-3").await.unwrap(), None);
    });
}

#[test]
fn bypass_get_invalidates_per_segment() {
    // The one-sided GET path against a segmented store, on both clusters:
    // descriptors resolve through the owning segment's mirror, and every
    // mutation path (overwrite, delete) invalidates only that segment's
    // pages — readers see fresh data or fall back, never stale bytes.
    for (name, world) in [
        ("cluster_a", World::cluster_a(23, 8)),
        ("cluster_b", World::cluster_b(23, 8)),
    ] {
        let sharded = McServerConfig {
            store_model: StoreModel::Sharded(4),
            ..McServerConfig::default()
        };
        let bypass = McClientConfig {
            bypass_get: true,
            ..McClientConfig::single(Transport::Ucr, SRV)
        };
        let s = Scenario::new(world, sharded, [bypass]);
        let c = s.clients[0].clone();
        s.world.sim().block_on(async move {
            for i in 0..16u32 {
                let key = format!("bp-{i}");
                let val = format!("bv-{i}");
                c.set(key.as_bytes(), val.as_bytes(), i, 0).await.unwrap();
            }
            // First reads warm the per-segment descriptors; repeats hit
            // the one-sided path.
            for round in 0..2 {
                for i in 0..16u32 {
                    let key = format!("bp-{i}");
                    let v = c.get(key.as_bytes()).await.unwrap().unwrap();
                    assert_eq!(v.data, format!("bv-{i}").into_bytes(), "{name} r{round}");
                }
            }
            // Overwrites must invalidate the owning segment's mirror.
            for i in 0..16u32 {
                let key = format!("bp-{i}");
                let val = format!("NEW-{i}");
                c.set(key.as_bytes(), val.as_bytes(), 0, 0).await.unwrap();
                let v = c.get(key.as_bytes()).await.unwrap().unwrap();
                assert_eq!(v.data, format!("NEW-{i}").into_bytes(), "{name} stale");
            }
            // Deletes: the bypass read must fall back to a miss.
            for i in 0..16u32 {
                let key = format!("bp-{i}");
                assert!(c.delete(key.as_bytes()).await.unwrap());
                assert_eq!(c.get(key.as_bytes()).await.unwrap(), None, "{name}");
            }
        });
    }
}

/// Which shard's lock each `lock_hold` span opened or closed. The span
/// names no shard, so the sink reads it off the shard's registry counters
/// as the event fires: a grant counts into `shardS.ops` just before its
/// span begins, a release into `shardS.lock_hold_ns` just before it ends.
struct LockLog {
    metrics: Rc<Metrics>,
    seen: RefCell<[(u64, u64); 4]>,
    log: RefCell<Vec<(Phase, usize)>>,
}

impl EventSink for LockLog {
    fn on_event(&self, ev: &Event) {
        if ev.name != "lock_hold" {
            return;
        }
        for (s, seen) in self.seen.borrow_mut().iter_mut().enumerate() {
            let read = |field: &str| {
                let name = format!("mc.node{}.shard{s}.{field}", SRV.0);
                self.metrics.counter_value(&name)
            };
            let now = (read("ops"), read("lock_hold_ns"));
            if std::mem::replace(seen, now) != now {
                self.log.borrow_mut().push((ev.phase, s));
            }
        }
    }
}

#[test]
fn all_shard_requests_lock_ascending_and_a_socket_mget_holds_one_lock_at_a_time() {
    let sharded = McServerConfig {
        workers: 2,
        store_model: StoreModel::Sharded(4),
        ..McServerConfig::default()
    };
    let s = Scenario::new(World::cluster_a(29, 8), sharded, []);
    let world = &s.world;
    let log = Rc::new(LockLog {
        metrics: world.cluster.metrics().clone(),
        seen: RefCell::default(),
        log: RefCell::default(),
    });
    world.cluster.tracer().add_sink(log.clone());
    let socket = Transport::Sockets(Stack::Sdp);
    let ascii = McClient::new(world, CLI, McClientConfig::single(socket, SRV));
    let ucr = McClient::new(world, CLI, McClientConfig::single(Transport::Ucr, SRV));
    let taken = log.clone();
    let sim = world.sim().clone();
    sim.block_on(async move {
        let keys: Vec<Vec<u8>> = (0..16u32).map(|i| format!("lk-{i}").into_bytes()).collect();
        for key in &keys {
            ascii.set(key, b"v", 0, 0).await.unwrap();
        }

        // A socket multiget stays on its connection's worker and visits
        // the shards one after the other: each lock is released before
        // the next is taken, and the visits ascend.
        taken.log.borrow_mut().clear();
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        assert_eq!(ascii.mget(&refs).await.unwrap().len(), 16);
        let visits = taken.log.take();
        let shards: Vec<usize> = visits.chunks(2).map(|visit| visit[0].1).collect();
        assert!(shards.len() >= 2, "the keys span shards: {visits:?}");
        assert!(shards.windows(2).all(|w| w[0] < w[1]), "{visits:?}");
        for (visit, s) in visits.chunks(2).zip(&shards) {
            assert_eq!(visit, [(Phase::Begin, *s), (Phase::End, *s)], "{visits:?}");
        }

        // A request touching every shard takes all four locks in ascending
        // order and gives them back in the order it took them (release
        // order decides who is woken first), whichever front-end holds
        // the guards.
        let all: Vec<(Phase, usize)> = [Phase::Begin, Phase::End]
            .into_iter()
            .flat_map(|phase| (0..4).map(move |s| (phase, s)))
            .collect();
        ascii.stats().await.unwrap();
        assert_eq!(taken.log.take(), all, "stats over a socket");
        ascii.flush_all().await.unwrap();
        assert_eq!(taken.log.take(), all, "flush_all over a socket");
        ucr.stats().await.unwrap();
        assert_eq!(taken.log.take(), all, "stats over UCR");
        ucr.flush_all().await.unwrap();
        assert_eq!(taken.log.take(), all, "flush_all over UCR");
    });
}
