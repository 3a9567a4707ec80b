//! End-to-end tests for the RDMA-capable Memcached: every transport on
//! Cluster A through the command set, large-value rendezvous, mixed
//! client families, multi-server routing, fault tolerance, the RoCE
//! extension and fabric message counts. What each reply says, on every
//! wire, is `tests/wire_parity.rs`; the paper's latency figures are
//! `tests/experiments.rs`.

use rmc::{
    Distribution, McClient, McClientConfig, McError, McServer, McServerConfig, ReqHeader,
    RespHeader, RespStatus, Scenario, Transport, World, MSG_MC_REQ, MSG_MC_RESP,
};
use simnet::{EventRecorder, Layer, NodeId, SimDuration, Stack, Tracer};
use ucr::{AmData, Endpoint, FnHandler, SendOptions, UcrRuntime, SEND_POOL_CAP};

#[path = "cells/oversize.rs"]
mod oversize;
#[path = "cells/scenario.rs"]
mod scenario;
use scenario::{command_set, run_case, Call, Case, Val};

const SRV: NodeId = NodeId(0);
const CLI: NodeId = NodeId(1);

fn world_a() -> World {
    World::cluster_a(77, 8)
}

fn world_b() -> World {
    World::cluster_b(77, 8)
}

/// UCR connections go to workers in round-robin order (§V-A) and every
/// request of a connection is served by its worker — with one progress
/// context polling for the four default workers, and with two for eight.
#[test]
fn ucr_connections_go_to_workers_round_robin() {
    const CLIENTS: u32 = 8;
    const OPS: u64 = 5;
    for workers in [4usize, 8] {
        let Scenario {
            world,
            server,
            clients,
        } = Scenario::new(
            World::cluster_b(77, CLIENTS + 1),
            McServerConfig {
                workers,
                ..McServerConfig::default()
            },
            vec![McClientConfig::single(Transport::Ucr, SRV); CLIENTS as usize],
        );
        let contexts = server.ucr_runtime().unwrap().contexts();
        assert_eq!(contexts, workers / 4);
        world.sim().block_on(async move {
            // Connect one after the other, then everybody talks.
            for (i, c) in clients.iter().enumerate() {
                c.set(format!("k{i}").as_bytes(), b"v", 0, 0).await.unwrap();
            }
            for _ in 0..OPS {
                for (i, c) in clients.iter().enumerate() {
                    assert!(c.get(format!("k{i}").as_bytes()).await.unwrap().is_some());
                }
            }
        });
        let served: Vec<u64> = (0..workers)
            .map(|w| {
                world
                    .cluster
                    .metrics()
                    .counter_value(&format!("mc.node0.worker{w}.batch_items"))
            })
            .collect();
        let each = u64::from(CLIENTS) / workers as u64 * (1 + OPS);
        assert_eq!(served, vec![each; workers], "{workers} workers");
    }
}

/// One client per wire on Cluster A, each running the command set on keys
/// of its own.
fn command_sets(wires: &[Transport]) -> Case {
    Case::fixed(false, wires.iter().map(|&w| (w, command_set())).collect())
}

/// The design goal of §V-A: one server serves every client family, on the
/// same data. Clients on `a`, `b` and `a` again run the command set in
/// turn on one key space, each reading what the one before it left.
fn shared_by(a: Transport, b: Transport) -> Case {
    Case {
        shared: true,
        ..command_sets(&[a, b, a])
    }
}

/// Sets then gets each of keys `0..n` in turn.
fn set_and_get(n: usize) -> Vec<Call> {
    let pair = |k: usize| [Call::Set(k, Val(k % 3, k as u8)), Call::Get(k)];
    (0..n).flat_map(pair).collect()
}

#[test]
fn full_command_set_over_every_transport() {
    let stacks = [Stack::Sdp, Stack::Ipoib, Stack::TenGigEToe, Stack::OneGigE];
    let wires: Vec<_> = [Transport::Ucr]
        .into_iter()
        .chain(stacks.map(Transport::Sockets))
        .collect();
    run_case(&command_sets(&wires), false);
}

/// A client counts an op in `ops_completed` once, when the call that
/// counted it in `ops_issued` gets its reply back, a refusal included:
/// after the command set, its pipelined batches and (on UCR) bypass gets
/// and an issued get, the two counters agree on every wire.
#[test]
fn every_issued_op_is_counted_completed_once() {
    let toe = Stack::TenGigEToe;
    let wires = [
        Transport::Ucr,
        Transport::Sockets(toe),
        Transport::Binary(toe),
        Transport::Udp(toe),
    ];
    let case = Case {
        depth: 4,
        bypass: true,
        ..command_sets(&wires)
    };
    let s = run_case(&case, false).bed;
    let ucr = s.clients[0].clone();
    s.world.sim().block_on(async move {
        let hit = ucr.issue_get(b"c0-k0").await.unwrap().complete().await;
        assert!(hit.unwrap().is_some());
    });
    s.world.sim().run();
    for c in &s.clients {
        let name = format!("client.node{}.ops_completed", c.node().0);
        let completed = s.world.cluster.metrics().counter_value(&name);
        assert_eq!(completed, c.ops_issued(), "{name}");
    }
}

#[test]
fn large_values_travel_by_rendezvous() {
    // 64 KB and 300 KB: both directions of the UCR path must use the
    // RDMA-read rendezvous (set: server pulls; get: client pulls).
    let s = Scenario::start(world_b(), Transport::Ucr);
    let c = s.clients[0].clone();
    s.world.sim().block_on(async move {
        for size in [64 * 1024usize, 300 * 1024] {
            let value: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
            let key = format!("big-{size}");
            c.set(key.as_bytes(), &value, 0, 0).await.unwrap();
            let got = c.get(key.as_bytes()).await.unwrap().unwrap();
            assert_eq!(got.data, value, "size {size}");
        }
    });
}

#[test]
fn oversized_value_is_rejected() {
    oversize::oversize_is_refused(Transport::Ucr);
}

/// Over UCR a key of `MAX_KEY_LEN` bytes, the longest whose header a
/// server holds in a pooled key list without growing it, is served; a key
/// one byte longer gets the store's refusal it has always had: not stored,
/// and not found by any read or update.
#[test]
fn ucr_serves_the_longest_key_and_refuses_one_past_it() {
    let s = Scenario::start(world_a(), Transport::Ucr);
    let c = s.clients[0].clone();
    s.world.sim().block_on(async move {
        let longest = vec![b'k'; mcstore::MAX_KEY_LEN];
        c.set(&longest, b"v", 0, 0).await.unwrap();
        let hit = c.get(&longest).await.unwrap().expect("served");
        assert_eq!(hit.data, b"v");
        assert_eq!(c.add(&longest, b"w", 0, 0).await, Err(McError::NotStored));
        assert_eq!(c.touch(&longest, 9).await, Ok(true));
        assert_eq!(c.incr(&longest, 1).await, Err(McError::NotNumeric));
        let hits = c.mget(&[&longest[..], b"x"]).await.unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(c.delete(&longest).await, Ok(true));

        let past = vec![b'k'; mcstore::MAX_KEY_LEN + 1];
        assert_eq!(c.set(&past, b"v", 0, 0).await, Err(McError::NotStored));
        assert_eq!(c.get(&past).await, Ok(None));
        assert_eq!(c.add(&past, b"w", 0, 0).await, Err(McError::NotStored));
        assert_eq!(c.touch(&past, 9).await, Ok(false));
        assert_eq!(c.incr(&past, 1).await, Err(McError::NotFound));
        assert_eq!(c.delete(&past).await, Ok(false));
        assert_eq!(c.mget(&[&past[..], b"x"]).await, Ok(Vec::new()));
    });
}

#[test]
fn sockets_and_ucr_clients_share_one_server() {
    let s = run_case(
        &shared_by(Transport::Ucr, Transport::Sockets(Stack::Sdp)),
        false,
    )
    .bed;
    assert!(s.server.stats().ucr_requests.get() >= 2);
    assert!(s.server.stats().sock_requests.get() >= 2);
}

#[test]
fn keys_distribute_across_servers() {
    let world = world_a();
    let s1 = McServer::start(&world, NodeId(0), McServerConfig::default());
    let s2 = McServer::start(&world, NodeId(1), McServerConfig::default());
    let s3 = McServer::start(&world, NodeId(2), McServerConfig::default());
    let cfg = McClientConfig {
        transport: Transport::Ucr,
        servers: vec![NodeId(0), NodeId(1), NodeId(2)],
        port: 11211,
        op_timeout: SimDuration::from_millis(250),
        distribution: Distribution::Modula,
        ..McClientConfig::single(Transport::Ucr, NodeId(0))
    };
    let c = McClient::new(&world, NodeId(3), cfg);
    // Routing must cover all three servers.
    let mut seen = [false; 3];
    for i in 0..100 {
        seen[c.route(format!("key-{i}").as_bytes())] = true;
    }
    assert_eq!(seen, [true; 3], "modula must spread keys");

    world.sim().block_on({
        let c = c.clone();
        async move {
            for i in 0..60 {
                let key = format!("key-{i}");
                c.set(key.as_bytes(), key.as_bytes(), 0, 0).await.unwrap();
            }
            for i in 0..60 {
                let key = format!("key-{i}");
                let v = c.get(key.as_bytes()).await.unwrap().unwrap();
                assert_eq!(v.data, key.as_bytes());
            }
            // mget across servers groups per server and merges.
            let keys: Vec<String> = (0..20).map(|i| format!("key-{i}")).collect();
            let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_bytes()).collect();
            let got = c.mget(&refs).await.unwrap();
            assert_eq!(got.len(), 20);
        }
    });
    let total = s1.curr_items() + s2.curr_items() + s3.curr_items();
    assert_eq!(total, 60);
    assert!(s1.curr_items() > 0 && s2.curr_items() > 0 && s3.curr_items() > 0);
}

/// A UCR multiget whose keys overflow one request header goes as several
/// requests whose headers fit, and every hit comes back, in key order:
/// 48 keys of 200 bytes make a 9 740-byte header, past the 8 192 bytes a
/// network buffer has after its packet header. Sent whole, the receiver's
/// buffer refused it while the sender's completion said `Success`, and the
/// call timed out.
#[test]
fn ucr_mget_past_one_header_of_keys_returns_every_hit() {
    let s = Scenario::start(world_b(), Transport::Ucr);
    let c = s.clients[0].clone();
    s.world.sim().block_on(async move {
        let keys: Vec<Vec<u8>> = (0..48)
            .map(|i| {
                let mut key = format!("key-{i:02}-").into_bytes();
                key.resize(200, b'k');
                key
            })
            .collect();
        for key in &keys {
            c.set(key, key, 0, 0).await.unwrap();
        }
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let got = c.mget(&refs).await.expect("every part answered");
        assert_eq!(got.len(), keys.len());
        for ((key, value), want) in got.iter().zip(&keys) {
            assert_eq!((key, &value.data[..]), (want, &want[..]));
        }
    });
}

#[test]
fn ketama_distribution_is_stable_under_server_loss() {
    let world = world_a();
    let servers = vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)];
    let cfg = |srvs: Vec<NodeId>| McClientConfig {
        transport: Transport::Ucr,
        servers: srvs,
        port: 11211,
        op_timeout: SimDuration::from_millis(100),
        distribution: Distribution::Ketama,
        ..McClientConfig::single(Transport::Ucr, NodeId(0))
    };
    let c4 = McClient::new(&world, NodeId(4), cfg(servers.clone()));
    let c3 = McClient::new(&world, NodeId(5), cfg(servers[..3].to_vec()));
    // With one server removed, most keys must keep their mapping —
    // the consistent-hashing property (and why libmemcached offers it).
    let n = 1000;
    let moved = (0..n)
        .filter(|i| {
            let key = format!("item:{i}");
            let a = c4.route(key.as_bytes());
            let b = c3.route(key.as_bytes());
            a != b && a != 3 // keys on the removed server must move
        })
        .count();
    let on_removed = (0..n)
        .filter(|i| c4.route(format!("item:{i}").as_bytes()) == 3)
        .count();
    assert!(on_removed > 100, "removed server held {on_removed} keys");
    assert!(
        moved < n / 8,
        "ketama moved {moved}/{n} keys not on the removed server"
    );
}

/// A crashed server fails the next operation of its clients on `wire` —
/// a timeout or a disconnection, never an answer — and nobody else's: a
/// client of a healthy second server on the same wire still reads its key
/// (fault isolation, §IV-A).
fn a_dead_server_fails_only_its_own_clients(wire: Transport) {
    let world = world_a();
    let dying = McServer::start(&world, NodeId(0), McServerConfig::default());
    let _healthy = McServer::start(&world, NodeId(1), McServerConfig::default());
    let c_dead = McClient::new(&world, NodeId(2), McClientConfig::single(wire, NodeId(0)));
    let c_ok = McClient::new(&world, NodeId(3), McClientConfig::single(wire, NodeId(1)));
    let sim = world.sim().clone();
    sim.block_on(async move {
        c_dead.set(b"k", b"v", 0, 0).await.unwrap();
        c_ok.set(b"k", b"v", 0, 0).await.unwrap();
        dying.shutdown();
        world.crash_node(NodeId(0));
        match c_dead.get(b"k").await {
            Err(McError::Timeout) | Err(McError::Disconnected) => {}
            other => panic!("{wire:?}: expected failure against the dead server, got {other:?}"),
        }
        let v = c_ok.get(b"k").await.unwrap();
        assert_eq!(v.unwrap().data, b"v", "{wire:?}: the healthy server");
    });
}

#[test]
fn server_death_times_out_and_isolates() {
    a_dead_server_fails_only_its_own_clients(Transport::Ucr);
}

#[test]
fn sockets_client_sees_server_death_too() {
    a_dead_server_fails_only_its_own_clients(Transport::Sockets(Stack::TenGigEToe));
}

#[test]
fn udp_loss_to_dead_server_times_out() {
    a_dead_server_fails_only_its_own_clients(Transport::Udp(Stack::Ipoib));
}

/// A reply whose request already has its answer is dropped: against a
/// server that answers every get twice, the get returns the first answer
/// and nothing stays parked in the client's in-flight table.
#[test]
fn a_duplicated_ucr_reply_is_dropped() {
    let world = world_b();
    let sim = world.sim().clone();
    let srv = UcrRuntime::new(&world.ib, SRV);
    srv.register_handler(
        MSG_MC_REQ,
        FnHandler(|ep: &Endpoint, hdr: &[u8], _: AmData| {
            let req = ReqHeader::decode(hdr).expect("a request header");
            let resp = RespHeader {
                req_id: req.req_id,
                status: RespStatus::Miss,
                flags: 0,
                cas: 0,
                number: 0,
                nvalues: 0,
            };
            for _ in 0..2 {
                let opts = SendOptions {
                    target_ctr: req.ctr_id,
                    ..SendOptions::default()
                };
                ep.post_message(MSG_MC_RESP, resp.encode(), &[][..], opts);
            }
        }),
    );
    let listener = srv.listen(11211).expect("port 11211 is free");
    sim.spawn(async move {
        let mut eps = Vec::new();
        while let Ok(ep) = listener.accept().await {
            eps.push(ep);
        }
    });
    let client = McClient::new(&world, CLI, McClientConfig::single(Transport::Ucr, SRV));
    let c = client.clone();
    sim.block_on(async move { assert_eq!(c.get(b"k").await, Ok(None)) });
    sim.run();
    assert_eq!(client.pending_responses(), 0);
}

/// A client outlives its server's restart, on every wire: the server it
/// shut down freed its ports, so the one started on the node binds them.
/// A UCR client's first operation goes out on the endpoint to the old
/// server and fails: the send's error completion is how the client learns
/// the server is gone. A stream client's first operation meets the old
/// connection's EOF. Every later operation dials the new server and reads
/// what that server holds; a UDP client has nothing to dial, and its first
/// request already reaches the new server.
#[test]
fn a_ucr_client_redials_a_restarted_server() {
    let toe = Stack::TenGigEToe;
    let wires = [
        Transport::Ucr,
        Transport::Sockets(toe),
        Transport::Binary(toe),
        Transport::Udp(toe),
    ];
    for wire in wires {
        let s = Scenario::start(world_a(), wire);
        let (sim, c) = (s.world.sim().clone(), s.clients[0].clone());
        sim.block_on(async move {
            c.set(b"k", b"old", 0, 0).await.unwrap();
            s.server.shutdown();
            let _restarted = McServer::start(&s.world, SRV, McServerConfig::default());
            let loader = McClient::new(&s.world, NodeId(2), McClientConfig::single(wire, SRV));
            let stored = loader.set(b"k", b"new", 0, 0).await;
            stored.unwrap_or_else(|e| panic!("{wire:?}: the new server: {e:?}"));
            match (wire, c.get(b"k").await) {
                (Transport::Udp(_), Ok(Some(v))) if v.data == b"new" => {}
                (Transport::Udp(_), other) => panic!("{wire:?}: {other:?}"),
                (_, Err(McError::Timeout) | Err(McError::Disconnected)) => {}
                (_, other) => panic!("{wire:?}: the old connection answered: {other:?}"),
            }
            assert_eq!(c.get(b"k").await.unwrap().unwrap().data, b"new", "{wire:?}");
            c.set(b"k", b"newer", 0, 0).await.unwrap();
            let got = loader.get(b"k").await.unwrap().unwrap();
            assert_eq!(got.data, b"newer", "{wire:?}");
        });
    }
}

/// Registered memory follows live state. The server's adapter holds its
/// UCR runtime's receive pool, its idle send buffers (at most
/// [`SEND_POOL_CAP`]) and one region per published bypass mirror page, and a
/// client's adapter its runtime's two pools; each table is back at that
/// baseline once traffic quiesces. The traffic takes every registration a
/// runtime keeps past one call: an endpoint's advertised rendezvous
/// sources (a 64 KB set from the client, a 64 KB get reply from the
/// server), the receive buffers, and a mirror page, which the bypass
/// reader's get publishes and the key's delete retires.
#[test]
fn registered_memory_returns_to_its_baseline_at_quiesce() {
    let reader = McClientConfig {
        bypass_get: true,
        ..McClientConfig::single(Transport::Ucr, SRV)
    };
    let plain = McClientConfig::single(Transport::Ucr, SRV);
    let s = Scenario::new(world_a(), McServerConfig::default(), [reader, plain]);
    let (sim, world) = (s.world.sim().clone(), s.world.clone());
    let (reader, plain) = (s.clients[0].clone(), s.clients[1].clone());
    let (srv_rt, plain_rt) = (
        s.server.ucr_runtime().unwrap(),
        plain.ucr_runtime().unwrap(),
    );
    // (live regions, the baseline) of one adapter, given its published
    // mirror pages.
    let table = move |node: NodeId, rt: &ucr::UcrRuntime, pages: usize| {
        assert!(rt.idle_send_buffers() <= SEND_POOL_CAP);
        let baseline = rt.recv_buffers() + rt.idle_send_buffers() + pages;
        (world.ib.open(node).registered_regions(), baseline)
    };
    let settle = sim.clone();
    sim.block_on(async move {
        let quiesce = || settle.sleep(SimDuration::from_millis(1));
        let big = vec![9u8; 64 << 10];
        plain.set(b"big", &big, 0, 0).await.unwrap();
        reader.set(b"k", b"small", 0, 0).await.unwrap();
        assert_eq!(reader.get(b"k").await.unwrap().unwrap().data, b"small");
        quiesce().await;
        let (live, baseline) = table(SRV, &srv_rt, 1);
        assert_eq!(live, baseline, "the reader's page is published");
        for _ in 0..3 {
            assert_eq!(plain.get(b"big").await.unwrap().unwrap().data, big);
            plain.set(b"big", &big, 0, 0).await.unwrap();
        }
        quiesce().await;
        let (live, baseline) = table(SRV, &srv_rt, 1);
        assert_eq!(live, baseline, "the server's sources were released");
        let (live, baseline) = table(NodeId(2), &plain_rt, 0);
        assert_eq!(live, baseline, "the client's sources were released");
        assert!(reader.delete(b"k").await.unwrap());
        quiesce().await;
        let (live, baseline) = table(SRV, &srv_rt, 0);
        assert_eq!(live, baseline, "the retired page was deregistered");
    });
}

/// A stream reply that outlives its operation's timeout must not be
/// handed to the next caller: the late 256 KB of `big` are still on their
/// way when the connection is given up, so whoever asks next gets their
/// own answer over a fresh connection.
#[test]
fn timed_out_stream_op_does_not_poison_the_next_one() {
    for wire in [
        Transport::Sockets(Stack::OneGigE),
        Transport::Binary(Stack::OneGigE),
    ] {
        let impatient = McClientConfig {
            op_timeout: SimDuration::from_micros(400),
            pipeline_depth: 4,
            ..McClientConfig::single(wire, SRV)
        };
        let loader = McClientConfig::single(Transport::Sockets(Stack::OneGigE), SRV);
        let s = Scenario::new(world_a(), McServerConfig::default(), [impatient, loader]);
        let (impatient, loader) = (s.clients[0].clone(), s.clients[1].clone());
        let sim = s.world.sim().clone();
        sim.clone().block_on(async move {
            loader.set(b"big", &[7u8; 256 << 10], 0, 0).await.unwrap();
            loader.set(b"small", b"tiny", 0, 0).await.unwrap();
            let c = impatient;
            assert_eq!(c.get(b"small").await.unwrap().unwrap().data, b"tiny");

            assert_eq!(c.get(b"big").await, Err(McError::Timeout), "{wire:?}");
            sim.sleep(SimDuration::from_millis(50)).await;
            let next = c.get(b"small").await.unwrap().unwrap();
            assert_eq!(next.data.len(), 4, "{wire:?}: somebody else's value");
            assert_eq!(next.data, b"tiny");

            // The same in a window: the third op's timeout surfaces, and the
            // replies left unread behind it are nobody's.
            let keys: [&[u8]; 4] = [b"small", b"small", b"big", b"small"];
            assert_eq!(c.get_many(&keys).await, Err(McError::Timeout), "{wire:?}");
            sim.sleep(SimDuration::from_millis(50)).await;
            let again = c.get_many(&keys[..2]).await.unwrap();
            assert!(again.iter().all(|v| v.as_ref().unwrap().data == b"tiny"));
        });
    }
}

#[test]
fn many_clients_one_server_all_complete() {
    let s = run_case(
        &Case::fixed(true, vec![(Transport::Ucr, set_and_get(50)); 8]),
        false,
    )
    .bed;
    assert_eq!(s.server.curr_items(), 8 * 50);
    assert_eq!(s.server.store_stats().get_hits, 8 * 50);
}

// ---------------------------------------------------------------------
// RoCE extension (paper §VII)
// ---------------------------------------------------------------------

#[test]
fn ucr_roce_serves_the_full_workload() {
    // Same UCR code, converged Ethernet adapters (Cluster A only).
    let s = Scenario::start(world_a(), Transport::UcrRoce);
    let c = s.clients[0].clone();
    s.world.sim().block_on(async move {
        c.set(b"k", b"roce-value", 7, 0).await.unwrap();
        let v = c.get(b"k").await.unwrap().unwrap();
        assert_eq!(v.data, b"roce-value");
        assert_eq!(v.flags, 7);
        // Large value: rendezvous over RoCE.
        let big = vec![3u8; 100_000];
        c.set(b"big", &big, 0, 0).await.unwrap();
        assert_eq!(c.get(b"big").await.unwrap().unwrap().data, big);
    });
    assert!(s.server.roce_runtime().is_some());
    assert!(s.server.stats().ucr_requests.get() >= 4);
}

#[test]
fn roce_latency_sits_between_native_ib_and_toe() {
    fn get_lat(world: &World, transport: Transport) -> f64 {
        let c = McClient::new(world, CLI, McClientConfig::single(transport, SRV));
        let sim = world.sim().clone();
        let sim2 = sim.clone();
        sim.block_on(async move {
            c.set(b"probe", &vec![1u8; 1024], 0, 0).await.unwrap();
            c.get(b"probe").await.unwrap();
            let t0 = sim2.now();
            for _ in 0..20 {
                c.get(b"probe").await.unwrap().unwrap();
            }
            (sim2.now() - t0).as_micros_f64() / 20.0
        })
    }
    let s = Scenario::new(world_a(), McServerConfig::default(), []);
    let ib = get_lat(&s.world, Transport::Ucr);
    let roce = get_lat(&s.world, Transport::UcrRoce);
    let toe = get_lat(&s.world, Transport::Sockets(Stack::TenGigEToe));
    assert!(
        ib < roce && roce < toe,
        "expected IB {ib:.1} < RoCE {roce:.1} < TOE {toe:.1}"
    );
}

#[test]
fn roce_unavailable_on_cluster_b() {
    let s = Scenario::new(world_b(), McServerConfig::default(), []);
    assert!(s.world.roce.is_none());
    assert!(s.server.roce_runtime().is_none());
    assert!(s.server.ucr_runtime().is_some());
}

#[test]
fn mixed_roce_and_ib_clients_share_data() {
    run_case(&shared_by(Transport::Ucr, Transport::UcrRoce), false);
}

#[test]
fn transport_labels_and_stacks() {
    assert_eq!(Transport::Ucr.label(), "UCR");
    assert_eq!(Transport::UcrRoce.label(), "UCR-RoCE");
    assert_eq!(Transport::Sockets(Stack::Sdp).label(), "SDP");
    assert_eq!(Transport::UcrRoce.stack(), Stack::Ucr);
}

// ---------------------------------------------------------------------
// Server behaviour details
// ---------------------------------------------------------------------

#[test]
fn stats_reflect_server_activity() {
    let s = Scenario::start(world_b(), Transport::Ucr);
    let c = s.clients[0].clone();
    s.world.sim().block_on(async move {
        c.set(b"a", b"1", 0, 0).await.unwrap();
        c.get(b"a").await.unwrap();
        c.get(b"missing").await.unwrap();
        let stats = c.stats().await.unwrap();
        let get = |name: &str| -> u64 {
            stats
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.parse().unwrap())
                .unwrap_or_else(|| panic!("stat {name} missing"))
        };
        assert_eq!(get("get_hits"), 1);
        assert_eq!(get("get_misses"), 1);
        assert_eq!(get("cmd_set"), 1);
        assert_eq!(get("curr_items"), 1);
        assert!(get("ucr_requests") >= 3);
    });
}

/// `stats` answers for the process, not for the InfiniBand runtime: a
/// client served over RoCE sees its own traffic in the `ucr_*` lines.
#[test]
fn roce_client_stats_report_the_runtime_that_served_it() {
    const N: u64 = 10;
    let s = Scenario::start(world_a(), Transport::UcrRoce);
    let c = s.clients[0].clone();
    s.world.sim().block_on(async move {
        for i in 0..N {
            let key = format!("roce-{i}");
            c.set(key.as_bytes(), b"v", 0, 0).await.unwrap();
            c.get(key.as_bytes()).await.unwrap().unwrap();
        }
        let stats = c.stats().await.unwrap();
        let sent = stats.iter().find(|(k, _)| k == "ucr_messages_sent");
        let sent: u64 = sent.expect("ucr_messages_sent").1.parse().unwrap();
        assert!(sent >= 2 * N, "one reply per request, got {sent}");
    });
}

#[test]
fn server_evicts_under_memory_pressure_end_to_end() {
    use mcstore::{SlabConfig, StoreConfig};
    let server = McServerConfig {
        store: StoreConfig {
            slab: SlabConfig {
                mem_limit: 256 << 10,
                page_size: 64 << 10,
                ..SlabConfig::default()
            },
            ..StoreConfig::default()
        },
        ..McServerConfig::default()
    };
    let client = McClientConfig::single(Transport::Ucr, SRV);
    let s = Scenario::new(world_b(), server, [client]);
    let c = s.clients[0].clone();
    s.world.sim().block_on(async move {
        // Push far more than fits: the server must keep accepting (LRU
        // eviction), never erroring out.
        for i in 0..600u32 {
            let key = format!("flood-{i}");
            c.set(key.as_bytes(), &vec![1u8; 1000], 0, 0).await.unwrap();
        }
        // Recent keys are present; the earliest were evicted.
        assert!(c.get(b"flood-599").await.unwrap().is_some());
        assert!(c.get(b"flood-0").await.unwrap().is_none());
    });
    assert!(s.server.store_stats().evictions > 0);
}

/// §V-A: "a worker thread can handle several clients at a time."
#[test]
fn workers_one_still_serves_many_clients() {
    let clients = vec![(Transport::Ucr, set_and_get(20)); 6];
    run_case(
        &Case {
            workers: 1,
            ..Case::fixed(true, clients)
        },
        false,
    );
}

// ---------------------------------------------------------------------
// Binary protocol (libmemcached MEMCACHED_BEHAVIOR_BINARY_PROTOCOL)
// ---------------------------------------------------------------------

#[test]
fn binary_protocol_full_command_set() {
    run_case(
        &command_sets(&[Transport::Binary(Stack::TenGigEToe)]),
        false,
    );
}

#[test]
fn ascii_and_binary_clients_coexist_on_one_server() {
    let toe = Stack::TenGigEToe;
    run_case(
        &shared_by(Transport::Binary(toe), Transport::Sockets(toe)),
        false,
    );
}

#[test]
fn binary_multiget_pipelines_quietly() {
    let s = Scenario::start(world_a(), Transport::Binary(Stack::Sdp));
    let c = s.clients[0].clone();
    s.world.sim().block_on(async move {
        for i in 0..10u32 {
            let key = format!("bm-{i}");
            c.set(key.as_bytes(), key.as_bytes(), i, 0).await.unwrap();
        }
        let keys: Vec<String> = (0..12).map(|i| format!("bm-{i}")).collect();
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_bytes()).collect();
        // 12 requested, 10 exist: quiet misses never produce frames.
        let got = c.mget(&refs).await.unwrap();
        assert_eq!(got.len(), 10);
        for (key, v) in got {
            assert_eq!(key, v.data);
        }
    });
    assert!(s.server.stats().sock_requests.get() >= 10);
}

// ---------------------------------------------------------------------
// UDP protocol (the SIII Facebook baseline)
// ---------------------------------------------------------------------

#[test]
fn udp_transport_serves_the_command_set() {
    run_case(&command_sets(&[Transport::Udp(Stack::TenGigEToe)]), false);
}

#[test]
fn udp_and_tcp_share_the_same_store() {
    let toe = Stack::TenGigEToe;
    run_case(
        &shared_by(Transport::Udp(toe), Transport::Sockets(toe)),
        false,
    );
}

#[test]
fn udp_reassembles_multi_datagram_responses() {
    // The Facebook deployment pattern: sets over TCP, gets over UDP.
    // A 10 KB value forces the UDP response to span ~8 datagrams.
    let wires = [
        Transport::Sockets(Stack::TenGigEToe),
        Transport::Udp(Stack::TenGigEToe),
    ];
    let clients = wires.map(|wire| McClientConfig::single(wire, SRV));
    let s = Scenario::new(world_a(), McServerConfig::default(), clients);
    let (tcp, udp) = (s.clients[0].clone(), s.clients[1].clone());
    s.world.sim().block_on(async move {
        let value: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        tcp.set(b"big", &value, 0, 0).await.unwrap();
        let got = udp.get(b"big").await.unwrap().unwrap();
        assert_eq!(got.data, value);
    });
}

#[test]
fn udp_oversized_requests_are_rejected_client_side() {
    let s = Scenario::start(world_a(), Transport::Udp(Stack::TenGigEToe));
    let c = s.clients[0].clone();
    s.world.sim().block_on(async move {
        // Requests must fit one datagram (real memcached's rule).
        let big = vec![1u8; 2000];
        assert_eq!(c.set(b"k", &big, 0, 0).await, Err(McError::TooLarge));
    });
}

// ---------------------------------------------------------------------
// Client behaviors: hash functions
// ---------------------------------------------------------------------

#[test]
fn key_hash_functions_are_correct_and_distinct() {
    use rmc::{crc32, fnv1a_32, one_at_a_time, KeyHash};
    // Known-answer tests.
    assert_eq!(fnv1a_32(b""), 0x811c_9dc5);
    assert_eq!(fnv1a_32(b"a"), 0xe40c_292c);
    assert_eq!(crc32(b""), 0);
    assert_eq!(crc32(b"123456789"), 0xcbf4_3926); // the classic check value
    assert_eq!(one_at_a_time(b""), 0);
    // The three functions route differently in general.
    let key = b"some-key";
    let hashes = [
        KeyHash::OneAtATime.hash(key),
        KeyHash::Fnv1a32.hash(key),
        KeyHash::Crc32.hash(key),
    ];
    assert_ne!(hashes[0], hashes[1]);
    assert_ne!(hashes[1], hashes[2]);
}

#[test]
fn key_hash_behavior_changes_routing() {
    use rmc::KeyHash;
    let world = world_a();
    let servers: Vec<NodeId> = (0..4).map(NodeId).collect();
    let mk = |h: KeyHash, node: u32| {
        McClient::new(
            &world,
            NodeId(node),
            McClientConfig {
                servers: servers.clone(),
                key_hash: h,
                ..McClientConfig::single(Transport::Ucr, NodeId(0))
            },
        )
    };
    let a = mk(KeyHash::OneAtATime, 4);
    let b = mk(KeyHash::Fnv1a32, 5);
    let mut diff = 0;
    let mut spread = [[false; 4]; 2];
    for i in 0..200 {
        let key = format!("route-{i}");
        let ra = a.route(key.as_bytes());
        let rb = b.route(key.as_bytes());
        spread[0][ra] = true;
        spread[1][rb] = true;
        if ra != rb {
            diff += 1;
        }
    }
    assert!(diff > 50, "different hashes should route differently");
    assert_eq!(spread[0], [true; 4], "one-at-a-time covers all servers");
    assert_eq!(spread[1], [true; 4], "fnv1a covers all servers");
}

#[test]
fn stats_subreports_expose_slabs_and_items() {
    for transport in [Transport::Ucr, Transport::Sockets(Stack::TenGigEToe)] {
        let s = Scenario::start(world_a(), transport);
        let c = s.clients[0].clone();
        s.world.sim().block_on(async move {
            c.set(b"a", &[1u8; 100], 0, 0).await.unwrap();
            c.set(b"b", &vec![1u8; 5000], 0, 0).await.unwrap();
            let slabs = c.stats_report("slabs").await.unwrap();
            assert!(
                slabs
                    .iter()
                    .filter(|(k, _)| k.ends_with(":chunk_size"))
                    .count()
                    >= 2,
                "{transport:?}: two size classes in use: {slabs:?}"
            );
            let items = c.stats_report("items").await.unwrap();
            let total: u32 = items
                .iter()
                .filter(|(k, _)| k.ends_with(":number"))
                .map(|(_, v)| v.parse::<u32>().unwrap())
                .sum();
            assert_eq!(total, 2, "{transport:?}");
            // Unknown sub-report: empty but well-formed.
            assert!(c.stats_report("bogus").await.unwrap().is_empty());
        });
    }
}

// ---------------------------------------------------------------------
// Protocol efficiency: fabric message counts (tracer wire events)
// ---------------------------------------------------------------------

/// One fabric message, rebuilt from its `wire_tx`/`wire_rx` event pair.
#[derive(Debug)]
struct WireMsg {
    src: NodeId,
    dst: NodeId,
    bytes: u64,
}

/// Starts recording the cluster's trace stream.
fn record_wire(tracer: &Tracer) -> std::rc::Rc<EventRecorder> {
    let rec = EventRecorder::new();
    tracer.add_sink(rec.clone());
    rec
}

/// Drains the fabric messages `rec` saw: `Network::transmit` reports each
/// as one `Layer::Wire` pair, `wire_tx` on the sender then `wire_rx` on
/// the receiver.
fn take_wire(rec: &EventRecorder) -> Vec<WireMsg> {
    let wire: Vec<_> = rec
        .take()
        .into_iter()
        .filter(|e| e.layer == Layer::Wire)
        .collect();
    wire.chunks(2)
        .map(|pair| {
            assert_eq!((pair[0].name, pair[1].name), ("wire_tx", "wire_rx"));
            assert_eq!(pair[0].bytes, pair[1].bytes);
            WireMsg {
                src: pair[0].node.unwrap(),
                dst: pair[1].node.unwrap(),
                bytes: pair[0].bytes,
            }
        })
        .collect()
}

#[test]
fn ucr_get_costs_exactly_two_fabric_messages() {
    // §V-C: get = AM 1 (request) + AM 2 (response). Eager, no counters on
    // the request, no Fin — exactly two messages on the wire.
    let s = Scenario::start(world_b(), Transport::Ucr);
    let (c, tracer) = (s.clients[0].clone(), s.world.cluster.tracer().clone());
    s.world.sim().block_on(async move {
        c.set(b"k", &vec![1u8; 512], 0, 0).await.unwrap();
        c.get(b"k").await.unwrap().unwrap(); // warm
        let rec = record_wire(&tracer);
        c.get(b"k").await.unwrap().unwrap();
        let trace = take_wire(&rec);
        assert_eq!(
            trace.len(),
            2,
            "eager get must be exactly AM1 + AM2: {trace:#?}"
        );
        // Request goes client→server, response server→client.
        assert_eq!((trace[0].src, trace[0].dst), (CLI, SRV));
        assert_eq!((trace[1].src, trace[1].dst), (SRV, CLI));
        // The response carries the 512-byte value (+ headers).
        assert!(trace[1].bytes > 512 && trace[1].bytes < 800);
    });
}

#[test]
fn ucr_large_set_uses_rendezvous_message_pattern() {
    // §V-B: large set = AM1 header + server RDMA read (request + data
    // response) + Fin + AM2 status = 5 fabric messages.
    let s = Scenario::start(world_b(), Transport::Ucr);
    let (c, tracer) = (s.clients[0].clone(), s.world.cluster.tracer().clone());
    s.world.sim().block_on(async move {
        c.set(b"warm", b"x", 0, 0).await.unwrap();
        let rec = record_wire(&tracer);
        c.set(b"big", &vec![7u8; 64 * 1024], 0, 0).await.unwrap();
        let trace = take_wire(&rec);
        assert_eq!(trace.len(), 5, "rendezvous set message pattern: {trace:#?}");
        // Exactly one transfer carries the bulk data, flowing toward the
        // server (the RDMA read response).
        let bulk: Vec<_> = trace.iter().filter(|t| t.bytes > 60_000).collect();
        assert_eq!(bulk.len(), 1);
        assert_eq!(bulk[0].dst, SRV);
    });
}

#[test]
fn wire_overhead_is_fixed_for_ucr_and_grows_for_sockets() {
    // UCR frames a get with fixed-size typed headers, so its wire
    // overhead (bytes beyond the value) is constant in the value size.
    // Byte-stream stacks re-frame through MTU segments, so their overhead
    // grows with the value — one face of the semantic mismatch (SIII).
    fn overhead(world: &World, transport: Transport, size: u64) -> i64 {
        let c = McClient::new(world, CLI, McClientConfig::single(transport, SRV));
        let tracer = world.cluster.tracer().clone();
        world.sim().block_on(async move {
            c.set(b"k", &vec![1u8; size as usize], 0, 0).await.unwrap();
            c.get(b"k").await.unwrap().unwrap();
            let rec = record_wire(&tracer);
            c.get(b"k").await.unwrap().unwrap();
            let total: u64 = take_wire(&rec).iter().map(|t| t.bytes).sum();
            tracer.clear_sinks();
            total as i64 - size as i64
        })
    }
    let s = Scenario::new(world_a(), McServerConfig::default(), []);
    let world = &s.world;
    let ucr_small = overhead(world, Transport::Ucr, 64);
    let ucr_big = overhead(world, Transport::Ucr, 4096);
    assert_eq!(ucr_small, ucr_big, "UCR overhead must not grow with size");

    let sdp_small = overhead(world, Transport::Sockets(Stack::Sdp), 64);
    let sdp_big = overhead(world, Transport::Sockets(Stack::Sdp), 4096);
    assert!(
        sdp_big > sdp_small,
        "segmented byte streams pay per-MTU overhead: {sdp_small} vs {sdp_big}"
    );
}
