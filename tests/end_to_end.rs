//! Cross-crate end-to-end tests through the facade crate: the full stack
//! (simnet → verbs → ucr → rmc, and simnet → socksim → rmc) exercised the
//! way a downstream user would drive it.

use rdma_memcached::rmc::{
    Distribution, McClient, McClientConfig, McServer, McServerConfig, Scenario, Transport, World,
};
use rdma_memcached::simnet::{NodeId, SimDuration, Stack};

#[test]
fn facade_reexports_work() {
    // Types from every layer are reachable through the facade.
    let _ = rdma_memcached::simnet::SimTime::ZERO;
    let _ = rdma_memcached::verbs::Access::ALL;
    let _ = rdma_memcached::ucr::PACKET_HEADER_BYTES;
    let _ = rdma_memcached::mcstore::MAX_KEY_LEN;
    let _ = rdma_memcached::mcproto::Command::Stats { arg: None };
    let _ = rdma_memcached::socksim::DEFAULT_CONNECT_TIMEOUT;
}

#[test]
fn cache_aside_pattern_end_to_end() {
    // The canonical usage from the paper's introduction: cache database
    // results, serve reads from memory.
    let s = Scenario::start(World::cluster_b(123, 4), Transport::Ucr);
    let (sim, cache) = (s.world.sim().clone(), s.clients[0].clone());
    let sim2 = sim.clone();
    sim.block_on(async move {
        let mut db_lookups = 0u32;
        for round in 0..3 {
            for user in 0..20u32 {
                let key = format!("user:{user}");
                if cache.get(key.as_bytes()).await.unwrap().is_none() {
                    // "Database" work.
                    sim2.sleep(SimDuration::from_millis(1)).await;
                    db_lookups += 1;
                    cache
                        .set(key.as_bytes(), format!("row-{user}").as_bytes(), 0, 0)
                        .await
                        .unwrap();
                }
            }
            if round == 0 {
                assert_eq!(db_lookups, 20, "cold cache misses everything");
            }
        }
        assert_eq!(db_lookups, 20, "warm rounds never touch the database");
    });
}

#[test]
fn eight_servers_sixteen_clients_mixed_transports() {
    // A deployment-shaped scenario: a farm of servers, many clients, both
    // client families, multi-server routing, all on one simulated fabric.
    let world = World::cluster_a(321, 28);
    let servers: Vec<NodeId> = (0..8).map(NodeId).collect();
    let handles: Vec<_> = servers
        .iter()
        .map(|&n| McServer::start(&world, n, McServerConfig::default()))
        .collect();

    let sim = world.sim().clone();
    let mut joins = Vec::new();
    for i in 0..16u32 {
        let transport = if i % 2 == 0 {
            Transport::Ucr
        } else {
            Transport::Sockets(Stack::Sdp)
        };
        let cfg = McClientConfig {
            transport,
            servers: servers.clone(),
            port: 11211,
            op_timeout: SimDuration::from_millis(250),
            distribution: if i % 4 < 2 {
                Distribution::Modula
            } else {
                Distribution::Ketama
            },
            ..McClientConfig::single(transport, servers[0])
        };
        let client = McClient::new(&world, NodeId(8 + i), cfg);
        joins.push(sim.spawn(async move {
            for j in 0..40u32 {
                let key = format!("client{i}:item{j}");
                client
                    .set(key.as_bytes(), key.as_bytes(), 0, 0)
                    .await
                    .unwrap();
            }
            for j in 0..40u32 {
                let key = format!("client{i}:item{j}");
                let v = client.get(key.as_bytes()).await.unwrap().unwrap();
                assert_eq!(v.data, key.as_bytes());
            }
        }));
    }
    sim.block_on(async move {
        for j in joins {
            j.await;
        }
    });
    let total: u64 = handles.iter().map(|s| s.curr_items()).sum();
    assert_eq!(total, 16 * 40);
    // Both request families hit the farm.
    let ucr: u64 = handles.iter().map(|s| s.stats().ucr_requests.get()).sum();
    let sock: u64 = handles.iter().map(|s| s.stats().sock_requests.get()).sum();
    assert!(ucr > 0 && sock > 0);
}

#[test]
fn expiry_is_visible_through_the_client() {
    let s = Scenario::start(World::cluster_b(9, 3), Transport::Ucr);
    let (sim, client) = (s.world.sim().clone(), s.clients[0].clone());
    let sim2 = sim.clone();
    sim.block_on(async move {
        client.set(b"ephemeral", b"v", 0, 2).await.unwrap(); // 2 s TTL
        assert!(client.get(b"ephemeral").await.unwrap().is_some());
        sim2.sleep(SimDuration::from_secs(3)).await;
        assert!(
            client.get(b"ephemeral").await.unwrap().is_none(),
            "item must expire after its TTL"
        );
        // touch extends lifetimes.
        client.set(b"kept", b"v", 0, 2).await.unwrap();
        sim2.sleep(SimDuration::from_secs(1)).await;
        assert!(client.touch(b"kept", 60).await.unwrap());
        sim2.sleep(SimDuration::from_secs(3)).await;
        assert!(client.get(b"kept").await.unwrap().is_some());
    });
}

#[test]
fn counters_session_pattern() {
    // Rate-limiter / counter usage: atomic incr across a shared key.
    let s = Scenario::new(World::cluster_b(8, 5), McServerConfig::default(), []);
    let (world, sim) = (&s.world, s.world.sim().clone());
    let mut joins = Vec::new();
    for i in 0..3u32 {
        let client = McClient::new(
            world,
            NodeId(1 + i),
            McClientConfig::single(Transport::Ucr, NodeId(0)),
        );
        joins.push(sim.spawn(async move {
            let _ = client.add(b"hits", b"0", 0, 0).await;
            for _ in 0..100 {
                client.incr(b"hits", 1).await.unwrap();
            }
        }));
    }
    let checker = McClient::new(
        world,
        NodeId(4),
        McClientConfig::single(Transport::Ucr, NodeId(0)),
    );
    sim.block_on(async move {
        for j in joins {
            j.await;
        }
        let v = checker.get(b"hits").await.unwrap().unwrap();
        let n: u64 = String::from_utf8(v.data).unwrap().parse().unwrap();
        assert_eq!(n, 300, "no lost increments");
    });
}
