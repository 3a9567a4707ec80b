//! Integration tests for UCR: active-message delivery (eager and
//! rendezvous), counter semantics, handler destinations, fault isolation,
//! and the latency behaviour the Memcached design depends on.

use std::cell::RefCell;
use std::rc::Rc;

use simnet::{Cluster, EventRecorder, Layer, NodeId, SimDuration};
use ucr::{AmData, AmDest, AmHandler, Endpoint, FnHandler, SendOptions, UcrError, UcrRuntime};
use verbs::{Access, IbFabric};

const PORT: u16 = 11211;
const ECHO: u16 = 1;
const SINK: u16 = 2;

fn world(cluster_b: bool, nodes: u32) -> (Rc<Cluster>, IbFabric) {
    let cluster = Rc::new(if cluster_b {
        Cluster::cluster_b(21, nodes)
    } else {
        Cluster::cluster_a(21, nodes)
    });
    let fabric = IbFabric::new(cluster.clone());
    (cluster, fabric)
}

/// An echo service: replies to msg ECHO with the same header and data,
/// targeting the counter id named in the first 8 header bytes.
struct EchoHandler;

impl AmHandler for EchoHandler {
    fn on_complete(&self, ep: &Endpoint, hdr: &[u8], data: AmData) {
        let ctr_id = u64::from_le_bytes(hdr[..8].try_into().unwrap());
        let payload = match data {
            AmData::Pool(v) => v,
            _ => Vec::new(),
        };
        ep.post_message(
            ECHO + 100,
            hdr.to_vec(),
            payload,
            SendOptions {
                target_ctr: ctr_id,
                ..Default::default()
            },
        );
    }
}

/// Sets up a server runtime with the echo handler and accepts `n` clients.
fn start_echo_server(fabric: &IbFabric, node: NodeId, clients: usize) -> UcrRuntime {
    let rt = UcrRuntime::new(fabric, node);
    rt.register_handler(ECHO, EchoHandler);
    let listener = rt.listen(PORT).unwrap();
    rt.sim().spawn(async move {
        for _ in 0..clients {
            if listener.accept().await.is_err() {
                break;
            }
        }
    });
    rt
}

/// One echoed round trip from a fresh client; returns (latency, reply).
async fn echo_once(
    client: &UcrRuntime,
    server_node: NodeId,
    data: Vec<u8>,
) -> (SimDuration, Vec<u8>) {
    let sim = client.sim();
    let got: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
    let got2 = got.clone();
    client.register_handler(
        ECHO + 100,
        FnHandler(move |_ep: &Endpoint, _hdr: &[u8], data: AmData| {
            *got2.borrow_mut() = data.into_vec().unwrap_or_default();
        }),
    );
    let ep = client
        .connect(server_node, PORT, SimDuration::from_millis(100))
        .await
        .unwrap();
    let ctr = client.counter();
    let t0 = sim.now();
    let hdr = ctr.id().to_le_bytes().to_vec();
    ep.send_message(ECHO, &hdr, &data, SendOptions::default())
        .await
        .unwrap();
    ctr.wait_for(1, SimDuration::from_millis(500))
        .await
        .unwrap();
    let dt = sim.now() - t0;
    let reply = got.borrow().clone();
    (dt, reply)
}

#[test]
fn eager_round_trip_delivers_data_and_counter() {
    let (cluster, fabric) = world(false, 2);
    let _server = start_echo_server(&fabric, NodeId(1), 1);
    let client = UcrRuntime::new(&fabric, NodeId(0));
    let payload: Vec<u8> = (0..2048u32).map(|i| (i * 7) as u8).collect();
    let p2 = payload.clone();
    let (dt, reply) = cluster
        .sim()
        .block_on(async move { echo_once(&client, NodeId(1), p2).await });
    assert_eq!(reply, payload);
    assert!(dt.as_micros_f64() > 1.0, "RTT {dt} suspiciously fast");
}

#[test]
fn rendezvous_moves_large_payloads() {
    let (cluster, fabric) = world(false, 2);
    let server = start_echo_server(&fabric, NodeId(1), 1);
    let client = UcrRuntime::new(&fabric, NodeId(0));
    // 64 KB: far past the 8 KB eager threshold in both directions.
    let payload: Vec<u8> = (0..65536u32).map(|i| (i % 251) as u8).collect();
    let p2 = payload.clone();
    let client2 = client.clone();
    let (_dt, reply) = cluster
        .sim()
        .block_on(async move { echo_once(&client2, NodeId(1), p2).await });
    assert_eq!(reply, payload);
    // Both directions used the rendezvous path.
    assert!(server.stats().rndv_delivered.get() >= 1);
    assert!(client.stats().rndv_delivered.get() >= 1);
    assert_eq!(server.stats().unknown_msg_dropped.get(), 0);
}

#[test]
fn eager_and_rendezvous_deliver_identical_bytes() {
    // Same content through both paths must be byte-identical.
    for size in [64usize, 8 * 1024 - 200, 8 * 1024 + 1, 100_000] {
        let (cluster, fabric) = world(true, 2);
        let _server = start_echo_server(&fabric, NodeId(1), 1);
        let client = UcrRuntime::new(&fabric, NodeId(0));
        let payload: Vec<u8> = (0..size).map(|i| (i % 253) as u8).collect();
        let p2 = payload.clone();
        let (_, reply) = cluster
            .sim()
            .block_on(async move { echo_once(&client, NodeId(1), p2).await });
        assert_eq!(reply, payload, "size {size}");
    }
}

#[test]
fn origin_counter_bumps_on_local_completion() {
    let (cluster, fabric) = world(false, 2);
    let server = UcrRuntime::new(&fabric, NodeId(1));
    server.register_handler(SINK, FnHandler(|_: &Endpoint, _: &[u8], _: AmData| {}));
    let listener = server.listen(PORT).unwrap();
    server.sim().spawn(async move {
        let _ = listener.accept().await;
    });
    let client = UcrRuntime::new(&fabric, NodeId(0));
    cluster.sim().block_on(async move {
        let ep = client
            .connect(NodeId(1), PORT, SimDuration::from_millis(100))
            .await
            .unwrap();
        let origin = client.counter();
        ep.send_message(
            SINK,
            b"hdr",
            &vec![1u8; 256],
            SendOptions {
                origin: Some(origin.clone()),
                ..Default::default()
            },
        )
        .await
        .unwrap();
        origin
            .wait_for(1, SimDuration::from_millis(100))
            .await
            .unwrap();
        assert_eq!(origin.value(), 1);
    });
}

#[test]
fn origin_counter_bumps_for_rendezvous_via_fin() {
    let (cluster, fabric) = world(false, 2);
    let server = UcrRuntime::new(&fabric, NodeId(1));
    server.register_handler(SINK, FnHandler(|_: &Endpoint, _: &[u8], _: AmData| {}));
    let listener = server.listen(PORT).unwrap();
    server.sim().spawn(async move {
        let _ = listener.accept().await;
    });
    let client = UcrRuntime::new(&fabric, NodeId(0));
    let client2 = client.clone();
    cluster.sim().block_on(async move {
        let ep = client2
            .connect(NodeId(1), PORT, SimDuration::from_millis(100))
            .await
            .unwrap();
        let origin = client2.counter();
        ep.send_message(
            SINK,
            b"hdr",
            &vec![9u8; 50_000],
            SendOptions {
                origin: Some(origin.clone()),
                ..Default::default()
            },
        )
        .await
        .unwrap();
        origin
            .wait_for(1, SimDuration::from_millis(100))
            .await
            .unwrap();
    });
    assert!(server.stats().fins_sent.get() >= 1);
}

#[test]
fn completion_counter_requires_internal_message() {
    let (cluster, fabric) = world(false, 2);
    let server = UcrRuntime::new(&fabric, NodeId(1));
    server.register_handler(SINK, FnHandler(|_: &Endpoint, _: &[u8], _: AmData| {}));
    let listener = server.listen(PORT).unwrap();
    server.sim().spawn(async move {
        let _ = listener.accept().await;
    });
    let client = UcrRuntime::new(&fabric, NodeId(0));
    let server2 = server.clone();
    cluster.sim().block_on(async move {
        let ep = client
            .connect(NodeId(1), PORT, SimDuration::from_millis(100))
            .await
            .unwrap();
        let fins_before = server2.stats().fins_sent.get();

        // Without a completion counter: no internal message for eager.
        ep.send_message(SINK, b"h", b"data", SendOptions::default())
            .await
            .unwrap();
        client
            .sim()
            .run_until(client.sim().now() + SimDuration::from_millis(1));
        assert_eq!(server2.stats().fins_sent.get(), fins_before);

        // With one: the target sends Fin and the counter fires.
        let completion = client.counter();
        ep.send_message(
            SINK,
            b"h",
            b"data",
            SendOptions {
                completion: Some(completion.clone()),
                ..Default::default()
            },
        )
        .await
        .unwrap();
        completion
            .wait_for(1, SimDuration::from_millis(100))
            .await
            .unwrap();
        assert_eq!(server2.stats().fins_sent.get(), fins_before + 1);
    });
}

#[test]
fn header_handler_can_place_into_registered_buffer() {
    struct IntoBuffer {
        mr: Rc<RefCell<Option<verbs::Mr>>>,
        pd: verbs::Pd,
        placed: Rc<std::cell::Cell<usize>>,
    }
    impl AmHandler for IntoBuffer {
        fn on_header(&self, _ep: &Endpoint, _hdr: &[u8], data_len: usize) -> AmDest {
            // Allocate exactly data_len, as a Memcached client does once
            // the item length is known (paper §V-C).
            let mr = self.pd.register(data_len, Access::LOCAL_WRITE);
            let slice = mr.full();
            *self.mr.borrow_mut() = Some(mr);
            AmDest::Buffer(slice)
        }
        fn on_complete(&self, _ep: &Endpoint, _hdr: &[u8], data: AmData) {
            if let AmData::Placed(n) = data {
                self.placed.set(n);
            }
        }
    }

    let (cluster, fabric) = world(false, 2);
    let server = UcrRuntime::new(&fabric, NodeId(1));
    let mr_cell = Rc::new(RefCell::new(None));
    let placed = Rc::new(std::cell::Cell::new(0usize));
    server.register_handler(
        SINK,
        IntoBuffer {
            mr: mr_cell.clone(),
            pd: {
                let f2 = IbFabric::new(cluster.clone());
                let _ = f2;
                fabric.open(NodeId(1)).alloc_pd()
            },
            placed: placed.clone(),
        },
    );
    let listener = server.listen(PORT).unwrap();
    server.sim().spawn(async move {
        let _ = listener.accept().await;
    });
    let client = UcrRuntime::new(&fabric, NodeId(0));
    let payload: Vec<u8> = (0..3000).map(|i| (i % 7) as u8).collect();
    let p2 = payload.clone();
    cluster.sim().block_on(async move {
        let ep = client
            .connect(NodeId(1), PORT, SimDuration::from_millis(100))
            .await
            .unwrap();
        let origin = client.counter();
        ep.send_message(
            SINK,
            b"h",
            &p2,
            SendOptions {
                origin: Some(origin.clone()),
                ..Default::default()
            },
        )
        .await
        .unwrap();
        origin
            .wait_for(1, SimDuration::from_millis(100))
            .await
            .unwrap();
    });
    cluster.sim().run();
    assert_eq!(placed.get(), payload.len());
    let mr = mr_cell.borrow_mut().take().unwrap();
    assert_eq!(mr.read_at(0, payload.len()), payload);
}

#[test]
fn unknown_msg_id_is_counted_and_dropped() {
    let (cluster, fabric) = world(false, 2);
    let server = UcrRuntime::new(&fabric, NodeId(1));
    let listener = server.listen(PORT).unwrap();
    server.sim().spawn(async move {
        let _ = listener.accept().await;
    });
    let client = UcrRuntime::new(&fabric, NodeId(0));
    let server2 = server.clone();
    cluster.sim().block_on(async move {
        let ep = client
            .connect(NodeId(1), PORT, SimDuration::from_millis(100))
            .await
            .unwrap();
        ep.send_message(999, b"h", b"d", SendOptions::default())
            .await
            .unwrap();
        client
            .sim()
            .run_until(client.sim().now() + SimDuration::from_millis(1));
        assert_eq!(server2.stats().unknown_msg_dropped.get(), 1);
    });
}

#[test]
fn counter_wait_times_out_when_server_dies() {
    let (cluster, fabric) = world(false, 3);
    let server = start_echo_server(&fabric, NodeId(1), 1);
    let client = UcrRuntime::new(&fabric, NodeId(0));
    cluster.sim().block_on(async move {
        let ep = client
            .connect(NodeId(1), PORT, SimDuration::from_millis(100))
            .await
            .unwrap();
        // Server dies before the request.
        server.shutdown();
        let ctr = client.counter();
        let hdr = ctr.id().to_le_bytes().to_vec();
        // The send itself may succeed (fire into the void) or fail fast.
        let _ = ep
            .send_message(ECHO, &hdr, b"x", SendOptions::default())
            .await;
        let err = ctr
            .wait_for(1, SimDuration::from_millis(5))
            .await
            .unwrap_err();
        assert_eq!(err, UcrError::Timeout);
        // The endpoint eventually observes the failure.
        client
            .sim()
            .run_until(client.sim().now() + SimDuration::from_millis(5));
        let err2 = ep
            .send_message(ECHO, &hdr, b"y", SendOptions::default())
            .await
            .map(|_| ());
        // Either already failed, or will fail on completion; both accepted.
        let _ = err2;
    });
}

#[test]
fn one_failing_endpoint_does_not_break_others() {
    let (cluster, fabric) = world(false, 4);
    // Two servers; one will die.
    let dying = start_echo_server(&fabric, NodeId(1), 1);
    let healthy = {
        let rt = UcrRuntime::new(&fabric, NodeId(2));
        rt.register_handler(ECHO, EchoHandler);
        let l = rt.listen(PORT).unwrap();
        rt.sim().spawn(async move {
            let _ = l.accept().await;
        });
        rt
    };
    let _ = healthy;
    let client = UcrRuntime::new(&fabric, NodeId(0));
    cluster.sim().block_on(async move {
        let ep_dying = client
            .connect(NodeId(1), PORT, SimDuration::from_millis(100))
            .await
            .unwrap();
        dying.shutdown();
        let ctr = client.counter();
        let hdr = ctr.id().to_le_bytes().to_vec();
        let _ = ep_dying
            .send_message(ECHO, &hdr, b"x", SendOptions::default())
            .await;
        assert!(ctr.wait_for(1, SimDuration::from_millis(5)).await.is_err());

        // The same client runtime still works against the healthy server.
        let (dt, reply) = echo_once(&client, NodeId(2), b"still-alive".to_vec()).await;
        assert_eq!(reply, b"still-alive");
        assert!(dt.as_micros_f64() < 100.0);
    });
}

#[test]
fn connect_times_out_against_dead_node() {
    let (cluster, fabric) = world(false, 3);
    // Node 1 never opens a runtime; its HCA is never brought up.
    let client = UcrRuntime::new(&fabric, NodeId(0));
    let err = cluster.sim().block_on(async move {
        client
            .connect(NodeId(1), PORT, SimDuration::from_millis(2))
            .await
            .unwrap_err()
    });
    assert!(matches!(
        err,
        UcrError::Timeout | UcrError::ConnectionRefused
    ));
}

#[test]
fn am_latency_bands_match_the_papers_order_of_magnitude() {
    // Small AM round trip should be single-digit microseconds. The 4 KB
    // echo carries data in BOTH directions, so it lands near twice the
    // per-direction data cost of the paper's Memcached get (20 us DDR /
    // 12 us QDR, which carry data one way): expect roughly 26-44 us DDR
    // and 14-28 us QDR, with QDR strictly faster.
    fn round_trip(cluster_b: bool, bytes: usize) -> f64 {
        let (cluster, fabric) = world(cluster_b, 2);
        let _server = start_echo_server(&fabric, NodeId(1), 1);
        let client = UcrRuntime::new(&fabric, NodeId(0));
        let (dt, _) = cluster
            .sim()
            .block_on(async move { echo_once(&client, NodeId(1), vec![7u8; bytes]).await });
        dt.as_micros_f64()
    }
    let small_ddr = round_trip(false, 4);
    let small_qdr = round_trip(true, 4);
    let big_ddr = round_trip(false, 4096);
    let big_qdr = round_trip(true, 4096);
    assert!(small_qdr < small_ddr, "QDR {small_qdr} vs DDR {small_ddr}");
    assert!(big_qdr < big_ddr, "QDR 4K {big_qdr} vs DDR 4K {big_ddr}");
    assert!(small_ddr < 10.0, "small DDR AM RTT {small_ddr} us too slow");
    assert!((26.0..44.0).contains(&big_ddr), "4K DDR echo {big_ddr} us");
    assert!((14.0..28.0).contains(&big_qdr), "4K QDR echo {big_qdr} us");
}

// ---------------------------------------------------------------------
// Unreliable (UD) endpoints — the paper's §VII scaling direction
// ---------------------------------------------------------------------

#[test]
fn ud_endpoints_round_trip_with_counters() {
    let (cluster, fabric) = world(true, 2);
    let server = UcrRuntime::new(&fabric, NodeId(1));
    server.register_handler(ECHO, EchoHandler);
    let server_qpn = server.ud_bind();

    let client = UcrRuntime::new(&fabric, NodeId(0));
    let got: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
    let got2 = got.clone();
    client.register_handler(
        ECHO + 100,
        FnHandler(move |_ep: &Endpoint, _hdr: &[u8], data: AmData| {
            *got2.borrow_mut() = data.into_vec().unwrap_or_default();
        }),
    );
    cluster.sim().block_on({
        let client = client.clone();
        async move {
            let ep = client.ud_endpoint(NodeId(1), server_qpn);
            assert!(ep.is_unreliable());
            let ctr = client.counter();
            let hdr = ctr.id().to_le_bytes().to_vec();
            ep.send_message(ECHO, &hdr, b"dgram-payload", SendOptions::default())
                .await
                .unwrap();
            ctr.wait_for(1, SimDuration::from_millis(50)).await.unwrap();
        }
    });
    assert_eq!(*got.borrow(), b"dgram-payload");
    // The whole exchange used exactly one QP on each side.
    assert_eq!(server.qp_count(), 1);
    assert_eq!(client.qp_count(), 1);
}

#[test]
fn ud_rejects_messages_beyond_one_mtu() {
    let (cluster, fabric) = world(false, 2);
    let server = UcrRuntime::new(&fabric, NodeId(1));
    let qpn = server.ud_bind();
    let client = UcrRuntime::new(&fabric, NodeId(0));
    let mtu = cluster.profile().ib.mtu as usize;
    cluster.sim().block_on(async move {
        let ep = client.ud_endpoint(NodeId(1), qpn);
        let err = ep
            .send_message(SINK, b"h", &vec![0u8; mtu + 1], SendOptions::default())
            .await
            .unwrap_err();
        assert_eq!(err, UcrError::MessageTooLarge);
    });
}

#[test]
fn ud_loss_is_detected_by_counter_timeout() {
    let (cluster, fabric) = world(false, 3);
    let server = UcrRuntime::new(&fabric, NodeId(1));
    server.register_handler(ECHO, EchoHandler);
    let qpn = server.ud_bind();
    let client = UcrRuntime::new(&fabric, NodeId(0));
    cluster.sim().block_on(async move {
        let ep = client.ud_endpoint(NodeId(1), qpn);
        // Kill the server's HCA: datagrams now vanish silently — no
        // RetryExceeded on UD, only the counter timeout notices.
        server.shutdown();
        let ctr = client.counter();
        let hdr = ctr.id().to_le_bytes().to_vec();
        ep.send_message(ECHO, &hdr, b"lost", SendOptions::default())
            .await
            .unwrap();
        let err = ctr
            .wait_for(1, SimDuration::from_millis(5))
            .await
            .unwrap_err();
        assert_eq!(err, UcrError::Timeout);
    });
}

#[test]
fn many_ud_clients_share_one_server_qp() {
    let (cluster, fabric) = world(true, 10);
    let server = UcrRuntime::new(&fabric, NodeId(0));
    server.register_handler(ECHO, EchoHandler);
    let qpn = server.ud_bind();
    let sim = cluster.sim().clone();
    let mut joins = Vec::new();
    for c in 1..10u32 {
        let client = UcrRuntime::new(&fabric, NodeId(c));
        client.register_handler(
            ECHO + 100,
            FnHandler(|_: &Endpoint, _: &[u8], _: AmData| {}),
        );
        joins.push(sim.spawn(async move {
            let ep = client.ud_endpoint(NodeId(0), qpn);
            for _ in 0..20 {
                let ctr = client.counter();
                let hdr = ctr.id().to_le_bytes().to_vec();
                ep.send_message(ECHO, &hdr, b"ping", SendOptions::default())
                    .await
                    .unwrap();
                ctr.wait_for(1, SimDuration::from_millis(50)).await.unwrap();
            }
        }));
    }
    sim.block_on(async move {
        for j in joins {
            j.await;
        }
    });
    // Nine clients, still one server QP — the SVII scaling claim. RC
    // would hold nine.
    assert_eq!(server.qp_count(), 1);
    assert_eq!(server.stats().eager_delivered.get(), 9 * 20);
}

// ---------------------------------------------------------------------
// One-sided put/get (paper §IV-B: "UCR provides interfaces for Active
// Messages as well as one-sided put/get operations")
// ---------------------------------------------------------------------

#[test]
fn one_sided_put_and_get_move_bytes_without_remote_handlers() {
    let (cluster, fabric) = world(true, 2);
    // The "server" registers memory and otherwise runs NO handlers: pure
    // one-sided access.
    let server = UcrRuntime::new(&fabric, NodeId(1));
    let region = server.register_memory(4096);
    region.write(0, b"initial-content!");
    let desc_all = region.descriptor(0, 4096);
    let desc_head = region.descriptor(0, 16);

    let listener = server.listen(PORT).unwrap();
    server.sim().spawn(async move {
        let _ = listener.accept().await;
    });

    let client = UcrRuntime::new(&fabric, NodeId(0));
    let client2 = client.clone();
    cluster.sim().block_on(async move {
        let ep = client2
            .connect(NodeId(1), PORT, SimDuration::from_millis(100))
            .await
            .unwrap();

        // get: pull the head of the region.
        let local = client2.register_memory(4096);
        let done = client2.counter();
        ep.get(&local, 0, desc_head, Some(done.clone())).unwrap();
        done.wait_for(1, SimDuration::from_millis(50))
            .await
            .unwrap();
        assert_eq!(local.read(0, 16), b"initial-content!");

        // put: write into the middle of the region.
        let done = client2.counter();
        ep.put(
            region_window(&desc_all, 100, 11),
            b"put-payload",
            Some(done.clone()),
        )
        .unwrap();
        done.wait_for(1, SimDuration::from_millis(50))
            .await
            .unwrap();
    });
    assert_eq!(region.read(100, 11), b"put-payload");
    // No active messages were dispatched for any of this.
    assert_eq!(server.stats().eager_delivered.get(), 0);
    assert_eq!(server.stats().rndv_delivered.get(), 0);
}

/// Narrows a descriptor to a sub-window (helper: descriptors are plain
/// data, so arithmetic on them is the application's business).
fn region_window(d: &ucr::MemoryDescriptor, offset: u64, len: u64) -> ucr::MemoryDescriptor {
    ucr::MemoryDescriptor {
        node: d.node,
        rkey: d.rkey,
        offset: d.offset + offset,
        len,
    }
}

#[test]
fn one_sided_ops_rejected_on_unreliable_endpoints() {
    let (cluster, fabric) = world(false, 2);
    let server = UcrRuntime::new(&fabric, NodeId(1));
    let region = server.register_memory(64);
    let desc = region.descriptor(0, 64);
    let qpn = server.ud_bind();
    let client = UcrRuntime::new(&fabric, NodeId(0));
    cluster.sim().block_on(async move {
        let ep = client.ud_endpoint(NodeId(1), qpn);
        let local = client.register_memory(64);
        assert!(ep.put(desc, b"x", None).is_err());
        assert!(ep.get(&local, 0, desc, None).is_err());
    });
}

#[test]
fn one_sided_get_latency_is_a_pure_round_trip() {
    // A one-sided get should cost less than an active-message echo: no
    // handler dispatch, no worker, no reply message.
    let (cluster, fabric) = world(true, 2);
    let server = UcrRuntime::new(&fabric, NodeId(1));
    let region = server.register_memory(4096);
    let desc = region.descriptor(0, 4096);
    let listener = server.listen(PORT).unwrap();
    server.sim().spawn(async move {
        let _ = listener.accept().await;
    });
    let client = UcrRuntime::new(&fabric, NodeId(0));
    let dt = cluster.sim().block_on(async move {
        let ep = client
            .connect(NodeId(1), PORT, SimDuration::from_millis(100))
            .await
            .unwrap();
        let local = client.register_memory(4096);
        // Warm.
        let done = client.counter();
        ep.get(&local, 0, desc, Some(done.clone())).unwrap();
        done.wait_for(1, SimDuration::from_millis(50))
            .await
            .unwrap();
        let sim = client.sim();
        let t0 = sim.now();
        let done = client.counter();
        ep.get(&local, 0, desc, Some(done.clone())).unwrap();
        done.wait_for(1, SimDuration::from_millis(50))
            .await
            .unwrap();
        (sim.now() - t0).as_micros_f64()
    });
    assert!(
        dt < 12.0,
        "4 KB one-sided get on QDR took {dt} us; should beat the 12 us AM get"
    );
}

// ---------------------------------------------------------------------
// Property: exactly-once, in-order delivery across arbitrary size mixes
// ---------------------------------------------------------------------

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Any sequence of message sizes (spanning eager and rendezvous)
        /// arrives exactly once with intact bytes. Ordering holds within
        /// each protocol path (eager stream; rendezvous stream) but not
        /// across them — a small eager message can legally overtake an
        /// in-flight rendezvous transfer, exactly as in GASNet-style
        /// active-message runtimes.
        #[test]
        fn messages_arrive_exactly_once_in_order(
            sizes in proptest::collection::vec(0usize..20_000, 1..12),
            seed in 0u64..1000,
        ) {
            let cluster = Rc::new(Cluster::cluster_b(seed, 2));
            let fabric = IbFabric::new(cluster.clone());
            let server = UcrRuntime::new(&fabric, NodeId(1));
            let received: Rc<RefCell<Vec<Vec<u8>>>> = Rc::new(RefCell::new(Vec::new()));
            let received2 = received.clone();
            server.register_handler(
                SINK,
                FnHandler(move |_: &Endpoint, _: &[u8], data: AmData| {
                    received2.borrow_mut().push(data.into_vec().unwrap_or_default());
                }),
            );
            let listener = server.listen(PORT).unwrap();
            server.sim().spawn(async move {
                let _ = listener.accept().await;
            });

            let client = UcrRuntime::new(&fabric, NodeId(0));
            let expected: Vec<Vec<u8>> = sizes
                .iter()
                .enumerate()
                .map(|(i, &n)| (0..n).map(|j| ((i * 31 + j) % 251) as u8).collect())
                .collect();
            let exp2 = expected.clone();
            cluster.sim().block_on(async move {
                let ep = client
                    .connect(NodeId(1), PORT, SimDuration::from_millis(100))
                    .await
                    .unwrap();
                let origin = client.counter();
                for msg in &exp2 {
                    ep.send_message(
                        SINK,
                        b"h",
                        msg,
                        SendOptions {
                            origin: Some(origin.clone()),
                            ..Default::default()
                        },
                    )
                    .await
                    .unwrap();
                }
                origin
                    .wait_for(exp2.len() as u64, SimDuration::from_millis(500))
                    .await
                    .unwrap();
            });
            cluster.sim().run();
            let received = received.borrow().clone();
            // Exactly once: multiset equality.
            let mut a = received.clone();
            let mut b = expected.clone();
            a.sort();
            b.sort();
            prop_assert_eq!(a, b);
            // In order within each protocol path. The eager threshold
            // applies to the payload (app header, 1 byte here, + data);
            // the 64-byte packet header rides in the receive buffers'
            // extra headroom.
            // payload = 1 + m.len() <= 8192, i.e. m.len() < 8192.
            let is_eager = |m: &Vec<u8>| m.len() < 8192;
            let eager_sent: Vec<&Vec<u8>> = expected.iter().filter(|m| is_eager(m)).collect();
            let eager_recv: Vec<&Vec<u8>> = received.iter().filter(|m| is_eager(m)).collect();
            prop_assert_eq!(eager_sent, eager_recv);
            let rndv_sent: Vec<&Vec<u8>> = expected.iter().filter(|m| !is_eager(m)).collect();
            let rndv_recv: Vec<&Vec<u8>> = received.iter().filter(|m| !is_eager(m)).collect();
            prop_assert_eq!(rndv_sent, rndv_recv);
        }
    }
}

// ---------------------------------------------------------------------
// Eager/rendezvous boundary semantics
// ---------------------------------------------------------------------

/// Sends one message of exactly `payload` bytes (empty app header) at
/// eager threshold `thr` and reports what the receiver saw:
/// `(eager_delivered, rndv_delivered, fabric_messages)`.
fn boundary_probe(payload: usize, thr: usize) -> (u64, u64, usize) {
    let (cluster, fabric) = world(false, 2);
    let receiver = UcrRuntime::new(&fabric, NodeId(1));
    receiver.register_handler(SINK, FnHandler(|_: &Endpoint, _: &[u8], _: AmData| {}));
    let listener = receiver.listen(PORT).unwrap();
    cluster.sim().spawn(async move {
        let _ = listener.accept().await;
    });
    let sender = UcrRuntime::new(&fabric, NodeId(0));
    sender.set_eager_threshold(thr);
    let recorder = EventRecorder::new();
    let data = vec![0xabu8; payload];
    let cluster2 = cluster.clone();
    let rec2 = recorder.clone();
    let sender2 = sender.clone();
    cluster.sim().block_on(async move {
        let ep = sender2
            .connect(NodeId(1), PORT, SimDuration::from_millis(100))
            .await
            .unwrap();
        // Count only the message itself (not connection setup).
        cluster2.tracer().add_sink(rec2);
        let done = sender2.counter();
        ep.send_message(
            SINK,
            &[],
            &data,
            SendOptions {
                completion: Some(done.clone()),
                ..Default::default()
            },
        )
        .await
        .unwrap();
        done.wait_for(1, SimDuration::from_millis(500))
            .await
            .unwrap();
        cluster2.tracer().clear_sinks();
    });
    (
        receiver.stats().eager_delivered.get(),
        receiver.stats().rndv_delivered.get(),
        // One `wire_tx`/`wire_rx` pair per fabric message: count deliveries.
        recorder.count(|e| e.layer == Layer::Wire && e.name == "wire_rx"),
    )
}

#[test]
fn eager_boundary_applies_to_payload_bytes() {
    let thr = 4096;
    // thr-1 and exactly thr ride the eager path: the payload plus the
    // 64-byte packet header still fits the receive buffers, which are
    // sized `PACKET_HEADER_BYTES + threshold`. One eager message plus
    // the completion Fin = 2 fabric messages.
    for payload in [thr - 1, thr] {
        let (eager, rndv, msgs) = boundary_probe(payload, thr);
        assert_eq!((eager, rndv), (1, 0), "payload {payload} must be eager");
        assert_eq!(msgs, 2, "eager send = message + Fin, payload {payload}");
    }
    // One byte past the threshold switches to rendezvous: RndvReq +
    // RDMA read request + read response + Fin = 4 fabric messages.
    let (eager, rndv, msgs) = boundary_probe(thr + 1, thr);
    assert_eq!(
        (eager, rndv),
        (0, 1),
        "payload past threshold must rendezvous"
    );
    assert_eq!(msgs, 4, "rendezvous = RndvReq + read req/resp + Fin");
}

#[test]
fn paper_8kb_payload_rides_eager_at_default_threshold() {
    // §IV-C: the design point is an 8 KB eager threshold. A payload of
    // exactly 8 KB must go eagerly — 2 fabric messages, not the
    // rendezvous 4.
    let thr = 8192;
    let (eager, rndv, msgs) = boundary_probe(thr, thr);
    assert_eq!((eager, rndv), (1, 0));
    assert_eq!(msgs, 2);
}

// ---------------------------------------------------------------------
// Counter edge cases
// ---------------------------------------------------------------------

#[test]
fn counter_wait_for_zero_on_fresh_counter_is_immediate() {
    let (cluster, fabric) = world(false, 2);
    let rt = UcrRuntime::new(&fabric, NodeId(0));
    cluster.sim().block_on(async move {
        let ctr = rt.counter();
        let t0 = rt.sim().now();
        // A fresh counter already satisfies target 0: no suspension, no
        // virtual time consumed, even with a zero deadline.
        ctr.wait_for(0, SimDuration::ZERO).await.unwrap();
        assert_eq!(rt.sim().now(), t0);
        assert_eq!(ctr.value(), 0);
    });
}

#[test]
fn counter_wait_past_tracks_concurrent_bumps() {
    let (cluster, fabric) = world(false, 2);
    let receiver = UcrRuntime::new(&fabric, NodeId(1));
    receiver.register_handler(SINK, FnHandler(|_: &Endpoint, _: &[u8], _: AmData| {}));
    let listener = receiver.listen(PORT).unwrap();
    cluster.sim().spawn(async move {
        let _ = listener.accept().await;
    });
    let sender = UcrRuntime::new(&fabric, NodeId(0));
    let ctr = receiver.counter();
    let ctr_id = ctr.id();
    let sim = cluster.sim().clone();
    // A sender task streams 5 messages at the counter while the main
    // task is already waiting.
    sim.spawn(async move {
        let ep = sender
            .connect(NodeId(1), PORT, SimDuration::from_millis(100))
            .await
            .unwrap();
        for _ in 0..5 {
            ep.send_message(
                SINK,
                &[],
                b"bump",
                SendOptions {
                    target_ctr: ctr_id,
                    ..Default::default()
                },
            )
            .await
            .unwrap();
        }
    });
    cluster.sim().block_on(async move {
        ctr.wait_past(0, 3, SimDuration::from_millis(500))
            .await
            .unwrap();
        let seen = ctr.value();
        assert!(seen >= 3, "waited past 3, saw {seen}");
        // Wait for the remainder relative to the live snapshot.
        ctr.wait_past(seen, 5 - seen, SimDuration::from_millis(500))
            .await
            .unwrap();
        assert_eq!(ctr.value(), 5);
    });
}

#[test]
fn counter_timeout_then_late_bump_does_not_stale_notify() {
    let (cluster, fabric) = world(false, 2);
    let receiver = UcrRuntime::new(&fabric, NodeId(1));
    receiver.register_handler(SINK, FnHandler(|_: &Endpoint, _: &[u8], _: AmData| {}));
    let listener = receiver.listen(PORT).unwrap();
    cluster.sim().spawn(async move {
        let _ = listener.accept().await;
    });
    let sender = UcrRuntime::new(&fabric, NodeId(0));
    let ctr = receiver.counter();
    cluster.sim().block_on(async move {
        let ep = sender
            .connect(NodeId(1), PORT, SimDuration::from_millis(100))
            .await
            .unwrap();
        // Nothing in flight: the wait must time out.
        assert!(matches!(
            ctr.wait_for(1, SimDuration::from_micros(50)).await,
            Err(UcrError::Timeout)
        ));
        // The bump arrives after the waiter gave up.
        ep.send_message(
            SINK,
            &[],
            b"late",
            SendOptions {
                target_ctr: ctr.id(),
                ..Default::default()
            },
        )
        .await
        .unwrap();
        ctr.wait_for(1, SimDuration::from_millis(100))
            .await
            .unwrap();
        assert_eq!(ctr.value(), 1);
        // The late bump's notification must not satisfy a *new* waiter
        // whose target is still ahead of the counter.
        assert!(matches!(
            ctr.wait_for(2, SimDuration::from_millis(1)).await,
            Err(UcrError::Timeout)
        ));
        assert_eq!(ctr.value(), 1, "no phantom bump from a stale notify");
    });
}
