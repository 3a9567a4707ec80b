//! Acceptance tests for the server-CPU-bypass GET path: client-direct
//! RDMA reads of the server's item memory, seqlock version validation,
//! descriptor invalidation on every mutation path (set / delete /
//! expiry / `flush_all` / slab migration), and the accounting that
//! proves a bypassed read never woke a server worker.

use rmc::{McClientConfig, McError, McServerConfig, Scenario, Transport, World};
use simnet::{NodeId, SimDuration, Stack};

const SRV: NodeId = NodeId(0);

fn worlds() -> Vec<(&'static str, World)> {
    vec![
        ("cluster_a", World::cluster_a(77, 8)),
        ("cluster_b", World::cluster_b(77, 8)),
    ]
}

/// A default server on `world` and one UCR client that reads one-sidedly.
fn bypass(world: World) -> Scenario {
    let client = McClientConfig {
        bypass_get: true,
        ..McClientConfig::single(Transport::Ucr, SRV)
    };
    Scenario::new(world, McServerConfig::default(), [client])
}

/// Total progress-engine wakes across the server's worker pool.
fn worker_wakes(world: &World) -> u64 {
    (0..4)
        .map(|w| {
            world
                .cluster
                .metrics()
                .counter_value(&format!("mc.node{}.worker{w}.wakes", SRV.0))
        })
        .sum()
}

#[test]
fn bypass_get_reads_without_waking_workers() {
    for (name, world) in worlds() {
        let s = bypass(world);
        let (sim, c) = (s.world.sim().clone(), s.clients[0].clone());
        sim.block_on(async move {
            let world = &s.world;
            for i in 0..8u32 {
                let key = format!("k{i}");
                let val = format!("value-{i}");
                c.set(key.as_bytes(), val.as_bytes(), i, 0).await.unwrap();
            }
            // Let the worker pool drain completely before snapshotting.
            world.sim().sleep(SimDuration::from_millis(10)).await;
            let wakes_before = worker_wakes(world);

            let rt = c.ucr_runtime().unwrap();
            let reads_before = rt.stats().bypass_reads.get();
            for round in 0..3 {
                for i in 0..8u32 {
                    let key = format!("k{i}");
                    let v = c.get(key.as_bytes()).await.unwrap().unwrap();
                    assert_eq!(v.data, format!("value-{i}").as_bytes(), "{name} r{round}");
                    assert_eq!(v.flags, i, "{name}");
                }
            }
            // Every one of the 24 gets travelled the one-sided path…
            assert_eq!(
                rt.stats().bypass_reads.get() - reads_before,
                24,
                "{name}: all gets bypassed"
            );
            assert_eq!(rt.stats().bypass_fallbacks.get(), 0, "{name}");
            // …and not a single server worker woke up for them.
            assert_eq!(
                worker_wakes(world),
                wakes_before,
                "{name}: bypassed reads must not wake workers"
            );
        });
    }
}

/// Reads in flight at once on one client each land in a region of their
/// own. The server's HCA copies a value into the landing window when it
/// serves the read, well before the reader wakes, so two reads sharing one
/// window would each risk returning the other's value — with a version
/// word that matches, since every key here is written once.
#[test]
fn concurrent_bypass_reads_land_in_windows_of_their_own() {
    const KEYS: usize = 8;
    const TASKS: usize = 8;
    const GETS: usize = 20;
    fn value(i: usize) -> Vec<u8> {
        vec![b'a' + i as u8; 100 + 37 * i]
    }
    for (name, world) in worlds() {
        let s = bypass(world);
        let (sim, c) = (s.world.sim().clone(), s.clients[0].clone());
        sim.clone().block_on(async move {
            for i in 0..KEYS {
                c.set(format!("k{i}").as_bytes(), &value(i), 0, 0)
                    .await
                    .unwrap();
            }
            let tasks: Vec<_> = (0..TASKS)
                .map(|t| {
                    let c = c.clone();
                    sim.spawn(async move {
                        for n in 0..GETS {
                            let i = (t + n) % KEYS;
                            let got = c.get(format!("k{i}").as_bytes()).await.unwrap();
                            assert_eq!(got.unwrap().data, value(i), "{name}: task {t}, get {n}");
                        }
                    })
                })
                .collect();
            for t in tasks {
                t.await;
            }
            let rt = c.ucr_runtime().unwrap();
            let st = rt.stats();
            assert_eq!(st.bypass_reads.get(), (TASKS * GETS) as u64, "{name}");
            assert_eq!(st.bypass_retries.get(), 0, "{name}");
            assert_eq!(st.bypass_fallbacks.get(), 0, "{name}");
        });
    }
}

#[test]
fn concurrent_set_forces_version_skew_retry() {
    for (name, world) in worlds() {
        let s = bypass(world);
        let c = s.clients[0].clone();
        s.world.sim().block_on(async move {
            c.set(b"race", b"old-value", 0, 0).await.unwrap();
            // Prime the descriptor cache with the old chunk + version.
            assert_eq!(c.get(b"race").await.unwrap().unwrap().data, b"old-value");

            let rt = c.ucr_runtime().unwrap();
            let retries_before = rt.stats().bypass_retries.get();

            // The "concurrent" writer: by the time the client issues its
            // next one-sided read from the cached descriptor, the item has
            // been rewritten and the chunk's seqlock version bumped.
            c.set(b"race", b"new-value", 0, 0).await.unwrap();
            let v = c.get(b"race").await.unwrap().unwrap();
            assert_eq!(
                v.data, b"new-value",
                "{name}: skew retry returns fresh value"
            );
            assert!(
                rt.stats().bypass_retries.get() > retries_before
                    || rt.stats().bypass_fallbacks.get() > 0,
                "{name}: the stale descriptor was detected, not silently trusted"
            );
        });
    }
}

#[test]
fn delete_invalidates_descriptor_and_read_misses() {
    for (name, world) in worlds() {
        let s = bypass(world);
        let c = s.clients[0].clone();
        s.world.sim().block_on(async move {
            c.set(b"gone", b"short-lived", 0, 0).await.unwrap();
            assert!(c.get(b"gone").await.unwrap().is_some());

            assert!(c.delete(b"gone").await.unwrap());
            // The cached descriptor now names retired (deregistered)
            // mirror memory; the one-sided read must fault — never return
            // the old bytes — and the AM fallback reports the miss.
            assert_eq!(c.get(b"gone").await.unwrap(), None, "{name}");

            // The client recovers fully: store again, bypass again.
            c.set(b"gone", b"back", 0, 0).await.unwrap();
            let rt = c.ucr_runtime().unwrap();
            let reads_before = rt.stats().bypass_reads.get();
            assert_eq!(c.get(b"gone").await.unwrap().unwrap().data, b"back");
            assert!(
                rt.stats().bypass_reads.get() > reads_before,
                "{name}: bypass path healthy again after the fault"
            );
        });
    }
}

#[test]
fn expiry_is_honored_without_trusting_cached_descriptors() {
    let s = bypass(World::cluster_b(77, 8));
    let (sim, c) = (s.world.sim().clone(), s.clients[0].clone());
    sim.clone().block_on(async move {
        c.set(b"ttl", b"soon-gone", 0, 1).await.unwrap();
        assert!(c.get(b"ttl").await.unwrap().is_some());

        // Lazy expiry never bumps the chunk version, so the client must
        // apply the expiry clock check locally before trusting the cache.
        sim.sleep(SimDuration::from_secs(2)).await;
        assert_eq!(c.get(b"ttl").await.unwrap(), None);
    });
}

#[test]
fn flush_all_invalidates_every_published_descriptor() {
    let s = bypass(World::cluster_b(77, 8));
    let (sim, c) = (s.world.sim().clone(), s.clients[0].clone());
    sim.clone().block_on(async move {
        c.set(b"f1", b"alpha", 0, 0).await.unwrap();
        c.set(b"f2", b"beta", 0, 0).await.unwrap();
        assert!(c.get(b"f1").await.unwrap().is_some());
        assert!(c.get(b"f2").await.unwrap().is_some());

        // flush_all only invalidates items stored in strictly earlier
        // seconds; cross the boundary first.
        sim.sleep(SimDuration::from_secs(2)).await;
        c.flush_all().await.unwrap();

        assert_eq!(c.get(b"f1").await.unwrap(), None, "flushed via bypass path");
        assert_eq!(c.get(b"f2").await.unwrap(), None, "flushed via bypass path");
    });
}

#[test]
fn delayed_flush_retires_descriptors_fetched_before_its_deadline() {
    let s = bypass(World::cluster_a(77, 8));
    let (sim, c) = (s.world.sim().clone(), s.clients[0].clone());
    sim.block_on(async move {
        let world = &s.world;
        c.set(b"doomed", b"still-here", 0, 0).await.unwrap();
        // Items stored within the flush's own second are spared.
        world.sim().sleep(SimDuration::from_secs(1)).await;

        // `flush_all 2`, which the client API cannot express, over a raw
        // ASCII connection.
        let addr = socksim::SocketAddr {
            node: SRV,
            port: 11211,
        };
        let timeout = SimDuration::from_millis(250);
        let raw = world
            .socks
            .connect(Stack::TenGigEToe, NodeId(2), addr, timeout)
            .await
            .unwrap();
        raw.write_all(b"flush_all 2\r\n").await.unwrap();
        let mut reply = Vec::new();
        raw.read(&mut reply, 64).await.unwrap();
        assert_eq!(reply, b"OK\r\n");
        raw.close();

        // The request bumped the version, so this get re-fetches the
        // descriptor — between the request and the deadline, when the
        // item is still live.
        let rt = c.ucr_runtime().unwrap();
        let v = c.get(b"doomed").await.unwrap().unwrap();
        assert_eq!(v.data, b"still-here");
        let reads = rt.stats().bypass_reads.get();
        assert!(reads >= 1, "the hit was a one-sided read");

        // Nothing bumps versions at the deadline: the re-cached
        // descriptor has to know when it dies.
        world.sim().sleep(SimDuration::from_secs(3)).await;
        assert_eq!(c.get(b"doomed").await.unwrap(), None, "stale read");
        assert_eq!(
            rt.stats().bypass_reads.get(),
            reads,
            "no one-sided read of the dead value"
        );
    });
}

#[test]
fn slab_migration_falls_back_then_republishes() {
    for (name, world) in worlds() {
        let s = bypass(world);
        let c = s.clients[0].clone();
        s.world.sim().block_on(async move {
            c.set(b"mover", b"tiny", 0, 0).await.unwrap();
            assert_eq!(c.get(b"mover").await.unwrap().unwrap().data, b"tiny");

            // Rewrite into a different slab class: the old chunk (and with
            // it the cached descriptor's page) is retired.
            let big = vec![0x5au8; 8 * 1024];
            c.set(b"mover", &big, 0, 0).await.unwrap();
            let v = c.get(b"mover").await.unwrap().unwrap();
            assert_eq!(v.data, big, "{name}: correct value after the move");

            // And the item is served one-sided again from its new home.
            let rt = c.ucr_runtime().unwrap();
            let reads_before = rt.stats().bypass_reads.get();
            assert_eq!(c.get(b"mover").await.unwrap().unwrap().data, big);
            assert!(
                rt.stats().bypass_reads.get() > reads_before,
                "{name}: new location republished for bypass"
            );
        });
    }
}

#[test]
fn bypass_disabled_client_is_unaffected() {
    // Control: the same workload with `bypass_get: false` never touches
    // the one-sided counters and still sees identical values.
    let s = Scenario::start(World::cluster_b(77, 8), Transport::Ucr);
    let c = s.clients[0].clone();
    s.world.sim().block_on(async move {
        c.set(b"plain", b"value", 0, 0).await.unwrap();
        assert_eq!(c.get(b"plain").await.unwrap().unwrap().data, b"value");
        let rt = c.ucr_runtime().unwrap();
        assert_eq!(rt.stats().bypass_reads.get(), 0);
        assert_eq!(rt.stats().bypass_retries.get(), 0);
        assert_eq!(rt.stats().bypass_fallbacks.get(), 0);
    });
}

#[test]
fn fallback_after_server_crash_reports_error_not_stale_value() {
    // Hard-fault path: the server dies between the directory lookup and
    // the next read. The bypass path must not fabricate a hit.
    let s = bypass(World::cluster_b(77, 8));
    let (sim, c) = (s.world.sim().clone(), s.clients[0].clone());
    sim.block_on(async move {
        c.set(b"k", b"v", 0, 0).await.unwrap();
        assert!(c.get(b"k").await.unwrap().is_some());
        s.world.crash_node(SRV);
        match c.get(b"k").await {
            Err(McError::Timeout) | Err(McError::Disconnected) => {}
            other => panic!("crashed server must surface an error, got {other:?}"),
        }
    });
}
