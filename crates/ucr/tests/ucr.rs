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
        ep.post_message(
            ECHO + 100,
            hdr,
            data.into_vec().unwrap_or_default(),
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

/// Whatever its kind, a message's headers travel in one network buffer: an
/// application header of `MAX_HEADER_BYTES` is delivered, eagerly with no
/// data and in a rendezvous request with 64 KB of it; one byte more is
/// refused at the send, before anything is posted.
#[test]
fn a_header_past_one_network_buffer_is_refused_at_the_send() {
    let (cluster, fabric) = world(true, 2);
    let server = UcrRuntime::new(&fabric, NodeId(1));
    let seen = Rc::new(RefCell::new(Vec::new()));
    let log = seen.clone();
    server.register_handler(
        SINK,
        FnHandler(move |_: &Endpoint, hdr: &[u8], data: AmData| {
            log.borrow_mut().push((hdr.len(), data.len()));
        }),
    );
    let listener = server.listen(PORT).unwrap();
    server.sim().spawn(async move { listener.accept().await });
    let client = UcrRuntime::new(&fabric, NodeId(0));
    let sender = client.clone();
    let big = vec![5u8; 64 << 10];
    cluster.sim().block_on(async move {
        let timeout = SimDuration::from_millis(100);
        let ep = sender.connect(NodeId(1), PORT, timeout).await.unwrap();
        let (fits, over) = (
            vec![1u8; ucr::MAX_HEADER_BYTES],
            vec![1u8; ucr::MAX_HEADER_BYTES + 1],
        );
        for data in [&[][..], &big] {
            let opts = SendOptions::default;
            ep.send_message(SINK, &fits, data, opts()).await.unwrap();
            let refused = ep.send_message(SINK, &over, data, opts()).await;
            assert_eq!(refused, Err(UcrError::MessageTooLarge));
        }
        sender.sim().sleep(SimDuration::from_millis(1)).await;
    });
    let max = ucr::MAX_HEADER_BYTES;
    assert_eq!(*seen.borrow(), [(max, 0), (max, 64 << 10)]);
    assert_eq!(client.stats().messages_sent.get(), 2);
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

        /// Any sequence of message sizes (spanning eager and rendezvous),
        /// sent by three endpoints at once to a runtime with 1, 2 or 4
        /// progress contexts, arrives exactly once with intact bytes.
        /// Ordering holds per endpoint within each protocol path (eager
        /// stream; rendezvous stream) but not across them — a small eager
        /// message can legally overtake an in-flight rendezvous transfer,
        /// exactly as in GASNet-style active-message runtimes.
        #[test]
        fn messages_arrive_exactly_once_in_order(
            sizes in proptest::collection::vec(0usize..20_000, 1..12),
            seed in 0u64..1000,
            contexts_log2 in 0u32..3,
        ) {
            const SENDERS: usize = 3;
            let cluster = Rc::new(Cluster::cluster_b(seed, 1 + SENDERS as u32));
            let fabric = IbFabric::new(cluster.clone());
            let server = UcrRuntime::with_contexts(&fabric, NodeId(0), 1 << contexts_log2);
            // What each sender's endpoint delivered, keyed by the sender
            // index in the application header.
            let received: Rc<RefCell<Vec<Vec<Vec<u8>>>>> =
                Rc::new(RefCell::new(vec![Vec::new(); SENDERS]));
            let received2 = received.clone();
            server.register_handler(
                SINK,
                FnHandler(move |_: &Endpoint, hdr: &[u8], data: AmData| {
                    received2.borrow_mut()[hdr[0] as usize]
                        .push(data.into_vec().unwrap_or_default());
                }),
            );
            let listener = server.listen(PORT).unwrap();
            server.sim().spawn(async move {
                for _ in 0..SENDERS {
                    let _ = listener.accept().await;
                }
            });

            let expected: Vec<Vec<Vec<u8>>> = (0..SENDERS)
                .map(|c| {
                    sizes
                        .iter()
                        .enumerate()
                        .map(|(i, &n)| (0..n).map(|j| ((c * 7 + i * 31 + j) % 251) as u8).collect())
                        .collect()
                })
                .collect();
            let senders: Vec<_> = expected
                .iter()
                .enumerate()
                .map(|(c, msgs)| {
                    let client = UcrRuntime::new(&fabric, NodeId(1 + c as u32));
                    let msgs = msgs.clone();
                    cluster.sim().spawn(async move {
                        let ep = client
                            .connect(NodeId(0), PORT, SimDuration::from_millis(100))
                            .await
                            .unwrap();
                        let origin = client.counter();
                        for msg in &msgs {
                            ep.send_message(
                                SINK,
                                &[c as u8],
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
                            .wait_for(msgs.len() as u64, SimDuration::from_millis(500))
                            .await
                            .unwrap();
                    })
                })
                .collect();
            cluster.sim().block_on(async move {
                for sender in senders {
                    sender.await;
                }
            });
            cluster.sim().run();
            let received = received.borrow();
            for (received, expected) in received.iter().zip(&expected) {
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

// ---------------------------------------------------------------------
// Eager coalescing: messages queued behind a backed-up send queue share
// one network buffer, in send order, and are never silently lost
// ---------------------------------------------------------------------

/// A sender on node 0 connected to a receiver on node 1 whose SINK
/// handler records the leading `u32` of every message in arrival order.
struct Stream {
    cluster: Rc<Cluster>,
    sender: UcrRuntime,
    receiver: UcrRuntime,
    got: Rc<RefCell<Vec<u32>>>,
}

fn stream() -> Stream {
    let (cluster, fabric) = world(false, 2);
    let receiver = UcrRuntime::new(&fabric, NodeId(1));
    let got: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
    let got2 = got.clone();
    receiver.register_handler(
        SINK,
        FnHandler(move |_: &Endpoint, _: &[u8], data: AmData| {
            let data = data.into_vec().unwrap_or_default();
            got2.borrow_mut()
                .push(u32::from_le_bytes(data[..4].try_into().unwrap()));
        }),
    );
    let listener = receiver.listen(PORT).unwrap();
    cluster.sim().spawn(async move {
        let mut eps = Vec::new();
        while let Ok(ep) = listener.accept().await {
            eps.push(ep);
        }
    });
    let sender = UcrRuntime::new(&fabric, NodeId(0));
    Stream {
        cluster,
        sender,
        receiver,
        got,
    }
}

async fn send_seq(ep: &Endpoint, seq: u32, opts: SendOptions) {
    ep.send_message(SINK, &[], &seq.to_le_bytes(), opts)
        .await
        .unwrap();
}

/// Messages [`back_up`] sends: sequence numbers `0..BACKED_UP`.
const BACKED_UP: u32 = 201;

/// Backs `ep`'s send queue up. One lone message shows how fast a send can
/// complete; then a burst of 200 queues in the HCA (0.4 µs each), so its
/// later completions take many times as long. Returns 30 µs into the
/// 80 µs drain — slow completions reaped, more in flight: exactly the
/// state in which the next eager sends are held. None of these is held
/// itself (the burst is posted before its first completion is reaped).
async fn back_up(rt: &UcrRuntime, ep: &Endpoint) {
    let lone = rt.counter();
    send_seq(
        ep,
        0,
        SendOptions {
            origin: Some(lone.clone()),
            ..Default::default()
        },
    )
    .await;
    lone.wait_for(1, SimDuration::from_millis(1)).await.unwrap();
    for seq in 1..BACKED_UP {
        send_seq(ep, seq, SendOptions::default()).await;
    }
    assert_eq!(rt.stats().eager_coalesced.get(), 0);
    assert_eq!(rt.stats().eager_wrs_posted.get(), BACKED_UP as u64);
    rt.sim().sleep(SimDuration::from_micros(30)).await;
}

async fn connect_to(rt: &UcrRuntime, node: NodeId) -> Endpoint {
    rt.connect(node, PORT, SimDuration::from_millis(100))
        .await
        .unwrap()
}

async fn connect(rt: &UcrRuntime) -> Endpoint {
    connect_to(rt, NodeId(1)).await
}

#[test]
fn held_messages_share_a_work_request_in_send_order() {
    let s = stream();
    let recorder = EventRecorder::new();
    s.cluster.tracer().add_sink(recorder.clone());
    let sender = s.sender.clone();
    let origins = s.cluster.sim().block_on(async move {
        let ep = connect(&sender).await;
        back_up(&sender, &ep).await;
        let origins: Vec<_> = (0..5).map(|_| sender.counter()).collect();
        for (i, origin) in origins.iter().enumerate() {
            send_seq(
                &ep,
                BACKED_UP + i as u32,
                SendOptions {
                    origin: Some(origin.clone()),
                    ..Default::default()
                },
            )
            .await;
        }
        // Accepted, not posted: no work request carries them yet, so no
        // local completion can have bumped their origin counters.
        let st = sender.stats();
        assert_eq!(st.eager_wrs_posted.get(), BACKED_UP as u64);
        assert_eq!(st.messages_sent.get(), BACKED_UP as u64 + 5);
        assert!(origins.iter().all(|o| o.value() == 0));
        origins
    });
    s.cluster.sim().run();
    let total = BACKED_UP as u64 + 5;
    assert_eq!(*s.got.borrow(), (0..total as u32).collect::<Vec<_>>());
    assert_eq!(s.receiver.stats().eager_delivered.get(), total);
    let st = s.sender.stats();
    assert!(st.eager_coalesced.get() >= 3, "the five shared buffers");
    // Every logical message either opened a work request or rode behind
    // one that did.
    assert_eq!(st.eager_wrs_posted.get() + st.eager_coalesced.get(), total);
    assert_eq!(st.messages_sent.get(), total);
    assert_eq!(st.send_failures.get(), 0);
    // Origin counters bumped exactly once, at the carrying completion.
    assert!(origins.iter().all(|o| o.value() == 1));

    // One `am_send_eager` per logical message, keyed by a work request
    // verbs really posted; handler spans balanced per sub-message.
    let events = recorder.events();
    let sends: Vec<_> = events
        .iter()
        .filter(|e| e.layer == Layer::Ucr && e.name == "am_send_eager")
        .collect();
    assert_eq!(sends.len() as u64, total);
    for am in &sends {
        assert!(
            events.iter().any(|e| e.layer == Layer::Verbs
                && e.name == "send"
                && e.phase == simnet::trace::Phase::Begin
                && e.node == am.node
                && e.op == am.op),
            "am_send_eager names wr {} that verbs never posted",
            am.op
        );
    }
    for name in ["header_handler", "completion_handler"] {
        let count = |phase| {
            events
                .iter()
                .filter(|e| e.name == name && e.phase == phase)
                .count() as u64
        };
        assert_eq!(count(simnet::trace::Phase::Begin), total);
        assert_eq!(count(simnet::trace::Phase::End), total);
    }
}

/// Records the data length each header handler invocation announced.
struct HeaderOrder(Rc<RefCell<Vec<usize>>>);

impl AmHandler for HeaderOrder {
    fn on_header(&self, _: &Endpoint, _: &[u8], data_len: usize) -> AmDest {
        self.0.borrow_mut().push(data_len);
        AmDest::Discard
    }
    fn on_complete(&self, _: &Endpoint, _: &[u8], _: AmData) {}
}

#[test]
fn rendezvous_request_does_not_overtake_held_messages() {
    const ORDERED: u16 = 40;
    let s = stream();
    let headers = Rc::new(RefCell::new(Vec::new()));
    s.receiver
        .register_handler(ORDERED, HeaderOrder(headers.clone()));
    let sender = s.sender.clone();
    s.cluster.sim().block_on(async move {
        let ep = connect(&sender).await;
        back_up(&sender, &ep).await;
        let posted = sender.stats().eager_wrs_posted.get();
        ep.send_message(ORDERED, &[], b"small", SendOptions::default())
            .await
            .unwrap();
        assert_eq!(sender.stats().eager_wrs_posted.get(), posted, "held");
        let big = vec![7u8; 64 * 1024];
        ep.send_message(ORDERED, &[], &big, SendOptions::default())
            .await
            .unwrap();
        // The rendezvous request pushed the held message out first.
        assert_eq!(sender.stats().eager_wrs_posted.get(), posted + 1);
    });
    s.cluster.sim().run();
    assert_eq!(*headers.borrow(), vec![5, 64 * 1024]);
}

/// While node 0 streams to node 1 faster than its HCA drains, node 1
/// sends node 0 messages that ask for a completion counter — so node 0's
/// progress engine sends Fins on the same endpoint its stream is being
/// held on. Everything node 0 had accepted when it delivered such a
/// message (and so before it sent the Fin) must have arrived by the time
/// the Fin's counter bumps.
///
/// Paced, the stream runs at 3.3 M msgs/s against the HCA's 2.5 M work
/// requests/s and the receiver keeps up. Un-paced, 4000 messages are
/// accepted faster than anything drains and the receiver falls more than
/// the 128 buffers its pool can grow to behind: UCR has no credit flow
/// control, so the overflow waits at the receiver's HCA (parked on the
/// SRQ, in arrival order) and the guarantee is the same.
fn fin_never_overtakes_held_messages(msgs: u32, pace: SimDuration) {
    const PING: u16 = 41;
    let s = stream();
    let accepted = Rc::new(std::cell::Cell::new(0u32));
    let accepted_at_ping: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
    let (acc, at_ping) = (accepted.clone(), accepted_at_ping.clone());
    s.sender.register_handler(
        PING,
        FnHandler(move |_: &Endpoint, _: &[u8], _: AmData| {
            at_ping.borrow_mut().push(acc.get());
        }),
    );
    // Node 1's side of the connection, to send the pings on.
    let fabric_ep: Rc<RefCell<Option<Endpoint>>> = Rc::new(RefCell::new(None));
    let slot = fabric_ep.clone();
    s.receiver.register_handler(
        SINK + 1,
        FnHandler(move |ep: &Endpoint, _: &[u8], _: AmData| {
            *slot.borrow_mut() = Some(ep.clone());
        }),
    );
    let sim = s.cluster.sim().clone();
    let sender = s.sender.clone();
    let flood = sim.spawn(async move {
        let ep = connect(&sender).await;
        ep.send_message(SINK + 1, &[], b"", SendOptions::default())
            .await
            .unwrap();
        for seq in 0..msgs {
            send_seq(&ep, seq, SendOptions::default()).await;
            accepted.set(seq + 1);
            sender.sim().sleep(pace).await;
        }
        ep
    });
    let (receiver, got) = (s.receiver.clone(), s.got.clone());
    let arrived_at_fin = sim.block_on(async move {
        let sim = receiver.sim();
        let back = loop {
            if let Some(ep) = fabric_ep.borrow_mut().take() {
                break ep;
            }
            sim.sleep(SimDuration::from_micros(1)).await;
        };
        let mut arrived_at_fin = Vec::new();
        for _ in 0..12 {
            let done = receiver.counter();
            back.send_message(
                PING,
                &[],
                b"",
                SendOptions {
                    completion: Some(done.clone()),
                    ..Default::default()
                },
            )
            .await
            .unwrap();
            done.wait_for(1, SimDuration::from_millis(10))
                .await
                .unwrap();
            arrived_at_fin.push(got.borrow().len() as u32);
        }
        let _ep = flood.await;
        arrived_at_fin
    });
    s.cluster.sim().run();
    assert!(s.sender.stats().eager_coalesced.get() > 0, "the flood held");
    assert_eq!(s.got.borrow().len(), msgs as usize);
    assert!(s.got.borrow().iter().copied().eq(0..msgs), "send order");
    let accepted_at_ping = accepted_at_ping.borrow();
    assert_eq!(accepted_at_ping.len(), arrived_at_fin.len());
    for (accepted, arrived) in accepted_at_ping.iter().zip(&arrived_at_fin) {
        assert!(
            arrived >= accepted,
            "Fin overtook held messages: {accepted} accepted before it, {arrived} arrived"
        );
    }
}

#[test]
fn fin_does_not_overtake_held_messages() {
    fin_never_overtakes_held_messages(400, SimDuration::from_nanos(300));
}

#[test]
fn fin_does_not_overtake_held_messages_unpaced() {
    fin_never_overtakes_held_messages(4000, SimDuration::ZERO);
}

/// Three 4000-byte messages become ready to send in the same instant,
/// behind a backed-up queue. Two fit one 8 KB network buffer; the third
/// would overflow it, so the two are posted and it starts a new buffer.
#[test]
fn a_message_that_would_overflow_the_buffer_starts_a_new_one() {
    let s = stream();
    let sender = s.sender.clone();
    s.cluster.sim().block_on(async move {
        let ep = connect(&sender).await;
        back_up(&sender, &ep).await;
        for i in 0..3u32 {
            let mut data = vec![i as u8; 4000];
            data[..4].copy_from_slice(&(BACKED_UP + i).to_le_bytes());
            ep.post_message(SINK, Vec::new(), data, SendOptions::default());
        }
    });
    s.cluster.sim().run();
    let st = s.sender.stats();
    assert_eq!(st.eager_coalesced.get(), 1, "two shared, the third alone");
    assert_eq!(st.eager_wrs_posted.get(), BACKED_UP as u64 + 2);
    assert_eq!(
        s.receiver.stats().eager_delivered.get(),
        BACKED_UP as u64 + 3
    );
    assert_eq!(*s.got.borrow(), (0..BACKED_UP + 3).collect::<Vec<_>>());
}

#[test]
fn close_posts_what_is_held() {
    let s = stream();
    let sender = s.sender.clone();
    s.cluster.sim().block_on(async move {
        let ep = connect(&sender).await;
        back_up(&sender, &ep).await;
        for i in 0..3 {
            send_seq(&ep, BACKED_UP + i, SendOptions::default()).await;
        }
        assert_eq!(sender.stats().eager_wrs_posted.get(), BACKED_UP as u64);
        ep.close();
        assert_eq!(sender.stats().eager_wrs_posted.get(), BACKED_UP as u64 + 1);
    });
    s.cluster.sim().run();
    assert_eq!(*s.got.borrow(), (0..BACKED_UP + 3).collect::<Vec<_>>());
}

/// The held variant of `counter_wait_past_tracks_concurrent_bumps`: the
/// sender drops its runtime right after five sends that were all held,
/// and the receiver still sees five.
#[test]
fn dropping_the_runtime_posts_what_is_held() {
    let Stream {
        cluster,
        sender,
        receiver,
        got,
    } = stream();
    let ctr = receiver.counter();
    let ctr_id = ctr.id();
    cluster.sim().spawn(async move {
        let ep = connect(&sender).await;
        back_up(&sender, &ep).await;
        for i in 0..5 {
            send_seq(
                &ep,
                BACKED_UP + i,
                SendOptions {
                    target_ctr: ctr_id,
                    ..Default::default()
                },
            )
            .await;
        }
        assert_eq!(sender.stats().eager_wrs_posted.get(), BACKED_UP as u64);
        // `ep` and `sender`, the last handle, drop here.
    });
    cluster.sim().block_on(async move {
        ctr.wait_for(5, SimDuration::from_millis(500))
            .await
            .unwrap();
    });
    assert_eq!(*got.borrow(), (0..BACKED_UP + 5).collect::<Vec<_>>());
}

#[test]
fn shutdown_discards_what_is_held_and_counts_it() {
    let s = stream();
    let sender = s.sender.clone();
    let origins = s.cluster.sim().block_on(async move {
        let ep = connect(&sender).await;
        back_up(&sender, &ep).await;
        let origins: Vec<_> = (0..3).map(|_| sender.counter()).collect();
        for (i, origin) in origins.iter().enumerate() {
            send_seq(
                &ep,
                BACKED_UP + i as u32,
                SendOptions {
                    origin: Some(origin.clone()),
                    ..Default::default()
                },
            )
            .await;
        }
        assert_eq!(sender.stats().eager_wrs_posted.get(), BACKED_UP as u64);
        assert_eq!(sender.stats().send_failures.get(), 0);
        sender.shutdown();
        assert_eq!(sender.stats().send_failures.get(), 3);
        origins
    });
    s.cluster.sim().run();
    // What was on the wire still lands; what was held is gone.
    assert_eq!(*s.got.borrow(), (0..BACKED_UP).collect::<Vec<_>>());
    assert!(origins.iter().all(|o| o.value() == 0));
}

#[test]
fn endpoint_failure_discards_what_is_held_and_counts_it() {
    let s = stream();
    let (sender, receiver) = (s.sender.clone(), s.receiver.clone());
    let (ep, origins) = s.cluster.sim().block_on(async move {
        let ep = connect(&sender).await;
        back_up(&sender, &ep).await;
        // The peer dies mid-drain. Sends accepted from now on go out
        // behind the still-succeeding completions and are doomed; once
        // those are all reaped the queue is quiet but not empty.
        receiver.shutdown();
        for i in 0..10 {
            send_seq(&ep, BACKED_UP + i, SendOptions::default()).await;
        }
        sender.sim().sleep(SimDuration::from_micros(100)).await;
        assert!(!ep.is_failed());
        // Held behind the doomed sends; their error completion finds
        // them.
        let posted = sender.stats().eager_wrs_posted.get();
        let origins: Vec<_> = (0..3).map(|_| sender.counter()).collect();
        for origin in &origins {
            send_seq(
                &ep,
                999,
                SendOptions {
                    origin: Some(origin.clone()),
                    ..Default::default()
                },
            )
            .await;
        }
        assert_eq!(sender.stats().eager_wrs_posted.get(), posted, "held");
        (ep, origins)
    });
    s.cluster.sim().run();
    assert!(ep.is_failed());
    assert!(
        s.sender.stats().send_failures.get() >= 4,
        "the failed work request and the three it stranded"
    );
    assert!(origins.iter().all(|o| o.value() == 0));
    assert!(matches!(
        s.cluster.sim().block_on(async move {
            ep.send_message(SINK, &[], b"late", SendOptions::default())
                .await
        }),
        Err(UcrError::EndpointFailed)
    ));
}

/// UD sends complete at the local HCA, so a burst "backs up" by the same
/// measure — but that says nothing about the path, and UD endpoints
/// never hold.
#[test]
fn ud_endpoints_never_hold() {
    let (cluster, fabric) = world(true, 2);
    let server = UcrRuntime::new(&fabric, NodeId(0));
    server.register_handler(SINK, FnHandler(|_: &Endpoint, _: &[u8], _: AmData| {}));
    let qpn = server.ud_bind();
    let client = UcrRuntime::new(&fabric, NodeId(1));
    let client2 = client.clone();
    cluster.sim().block_on(async move {
        let ep = client2.ud_endpoint(NodeId(0), qpn);
        for round in 0..3 {
            for _ in 0..40 {
                ep.send_message(SINK, &[], b"dgram", SendOptions::default())
                    .await
                    .unwrap();
            }
            // Let some of the burst's (ever slower) completions be reaped
            // with the rest still in flight, then burst again.
            let pause = if round == 0 { 5 } else { 3 };
            client2.sim().sleep(SimDuration::from_micros(pause)).await;
        }
    });
    cluster.sim().run();
    assert_eq!(client.stats().eager_coalesced.get(), 0);
    assert_eq!(client.stats().eager_wrs_posted.get(), 120);
    assert_eq!(server.stats().eager_delivered.get(), 120);
}

/// Five back-to-back messages from the stream's *receiver* to its sender,
/// on the endpoint the sender's traffic arrived on, after everything else
/// has drained; returns how many of them rode behind another. The
/// receiver's own completions are never slow, so only the peer's word —
/// the backed-up bit of the last eager packet it got — can make it hold.
fn answers_coalesced(s: &Stream, sender_recovers: bool) -> u64 {
    const HELLO: u16 = 3;
    let back: Rc<RefCell<Option<Endpoint>>> = Rc::default();
    let back2 = back.clone();
    s.receiver.register_handler(
        HELLO,
        FnHandler(move |ep: &Endpoint, _: &[u8], _: AmData| {
            *back2.borrow_mut() = Some(ep.clone());
        }),
    );
    s.sender
        .register_handler(SINK, FnHandler(|_: &Endpoint, _: &[u8], _: AmData| {}));
    let (sender, receiver) = (s.sender.clone(), s.receiver.clone());
    s.cluster.sim().block_on(async move {
        let ep = connect(&sender).await;
        back_up(&sender, &ep).await;
        sender.sim().sleep(SimDuration::from_millis(1)).await;
        // All drained, but the last completion reaped was one of the
        // burst's slow ones: the next message still says "backed up".
        ep.send_message(HELLO, &[], &[], SendOptions::default())
            .await
            .unwrap();
        sender.sim().sleep(SimDuration::from_millis(1)).await;
        if sender_recovers {
            // That message completed fast, so this one takes the word back.
            send_seq(&ep, BACKED_UP, SendOptions::default()).await;
            sender.sim().sleep(SimDuration::from_millis(1)).await;
        }
        let answer = back.borrow().clone().expect("HELLO delivered");
        for seq in 0..5 {
            send_seq(&answer, seq, SendOptions::default()).await;
        }
        assert_eq!(receiver.stats().messages_sent.get(), 5);
    });
    s.cluster.sim().run();
    assert_eq!(s.sender.stats().eager_delivered.get(), 5);
    s.receiver.stats().eager_coalesced.get()
}

/// An end whose own sends complete fast still holds behind its in-flight
/// send while the peer says it is backed up — the bottleneck may be one
/// only the peer can see — and stops as soon as the peer says otherwise.
#[test]
fn a_backed_up_peer_makes_this_end_hold_too() {
    // First answer posted, the other four share the next work request.
    assert_eq!(answers_coalesced(&stream(), false), 3);
    assert_eq!(answers_coalesced(&stream(), true), 0);
}

// ---------------------------------------------------------------------
// A receiver that falls behind its buffer pool
// ---------------------------------------------------------------------

/// Four senders flood one receiver with 8 KB eager messages, 300 in all.
/// The link delivers one every 4 µs; the receiver's progress engine
/// spends 12 µs staging each off its network buffer, so it falls further
/// behind than the 128 buffers on its SRQ (by 15 messages at the end).
/// The overflow waits at the HCA and is handed the buffers the engine
/// re-posts, oldest first: every message is delivered exactly once, in
/// its endpoint's send order. (The SRQ used to pool those buffers
/// instead, stranding the 15 and letting later arrivals overtake them.)
#[test]
fn a_receiver_far_behind_its_buffer_pool_loses_and_reorders_nothing() {
    const SENDERS: u32 = 4;
    const EACH: u32 = 75;
    let (cluster, fabric) = world(false, 1 + SENDERS);
    let receiver = UcrRuntime::new(&fabric, NodeId(0));
    // (sending node, sequence number) in delivery order.
    let got: Rc<RefCell<Vec<(u32, u32)>>> = Rc::new(RefCell::new(Vec::new()));
    let got2 = got.clone();
    receiver.register_handler(
        SINK,
        FnHandler(move |ep: &Endpoint, _: &[u8], data: AmData| {
            let data = data.into_vec().unwrap_or_default();
            assert_eq!(data.len(), 8192);
            let seq = u32::from_le_bytes(data[..4].try_into().unwrap());
            got2.borrow_mut().push((ep.peer().0, seq));
        }),
    );
    let listener = receiver.listen(PORT).unwrap();
    let sim = cluster.sim().clone();
    sim.spawn(async move {
        for _ in 0..SENDERS {
            let _ = listener.accept().await;
        }
    });
    let senders: Vec<UcrRuntime> = (1..=SENDERS)
        .map(|n| UcrRuntime::new(&fabric, NodeId(n)))
        .collect();
    let senders2 = senders.clone();
    let eps = sim.block_on(async move {
        let mut eps = Vec::new();
        for rt in &senders2 {
            eps.push(connect_to(rt, NodeId(0)).await);
        }
        eps
    });
    sim.run();
    let idle_events = sim.pending_events();
    for ep in eps {
        sim.spawn(async move {
            let mut msg = vec![0u8; 8192];
            for seq in 0..EACH {
                msg[..4].copy_from_slice(&seq.to_le_bytes());
                ep.send_message(SINK, &[], &msg, SendOptions::default())
                    .await
                    .unwrap();
            }
        });
    }
    sim.run();
    let got = got.borrow();
    assert_eq!(got.len(), (SENDERS * EACH) as usize, "exactly once");
    for node in 1..=SENDERS {
        let seqs = got.iter().filter(|(n, _)| *n == node).map(|(_, s)| *s);
        assert!(seqs.eq(0..EACH), "node {node}'s messages out of order");
    }
    assert_eq!(receiver.stats().eager_delivered.get(), got.len() as u64);
    assert_eq!(sim.pending_events(), idle_events);
}

// ---------------------------------------------------------------------
// Progress contexts: one completion queue and progress task per context
// ---------------------------------------------------------------------

/// Who sends the probe of [`probe_script`], and how.
#[derive(Clone, Copy)]
enum Probe {
    /// Nobody: the script only times the big message.
    None,
    /// Node 2, on a reliable endpoint, this long after the script starts.
    Rc(SimDuration),
    /// Node 2, on an unreliable endpoint to the receiver's shared UD QP.
    Ud(SimDuration),
}

/// When the receiver's handlers saw the big and the probe message, from
/// the start of the script.
#[derive(Default, Clone, Copy)]
struct Seen {
    big: Option<SimDuration>,
    probe: Option<SimDuration>,
}

/// Handlers are synchronous and cost no time of their own; what occupies
/// a progress task is the delivery charge around them. A 256 KB
/// rendezvous message is the slow one here: once its RDMA read completes
/// the task spends `am_dispatch + ucr_rdma_cost(256 KB)` = 77 µs on it,
/// with the wire idle again.
const BIG: usize = 256 * 1024;

/// Node 0 receives with `contexts` progress contexts. Nodes 1 and 2 each
/// connect one endpoint, node 1 first iff `big_first`, so with two
/// contexts the first to connect is on context 0 and the other on
/// context 1. Then node 1 sends the big message (iff `big`) and node 2
/// its 4-byte probe.
fn probe_script(contexts: usize, big_first: bool, big: bool, probe: Probe) -> Seen {
    let (cluster, fabric) = world(false, 3);
    let receiver = UcrRuntime::with_contexts(&fabric, NodeId(0), contexts);
    let sim = cluster.sim().clone();
    let seen = Rc::new(std::cell::Cell::new(Seen::default()));
    let start = Rc::new(std::cell::Cell::new(sim.now()));
    let (seen2, start2, sim2) = (seen.clone(), start.clone(), sim.clone());
    receiver.register_handler(
        SINK,
        FnHandler(move |_: &Endpoint, _: &[u8], data: AmData| {
            let at = Some(sim2.now() - start2.get());
            let mut seen = seen2.get();
            if data.len() == BIG {
                seen.big = at;
            } else {
                seen.probe = at;
            }
            seen2.set(seen);
        }),
    );
    let listener = receiver.listen(PORT).unwrap();
    sim.spawn(async move {
        for _ in 0..2 {
            let _ = listener.accept().await;
        }
    });
    let ud_qpn = receiver.ud_bind();
    // Handles kept past `block_on`: the senders outlive the transfer.
    let senders = (
        UcrRuntime::new(&fabric, NodeId(1)),
        UcrRuntime::new(&fabric, NodeId(2)),
    );
    let (big_rt, probe_rt) = senders.clone();
    let sim2 = sim.clone();
    sim.block_on(async move {
        let (big_ep, probe_ep) = if big_first {
            let big_ep = connect_to(&big_rt, NodeId(0)).await;
            (big_ep, connect_to(&probe_rt, NodeId(0)).await)
        } else {
            let probe_ep = connect_to(&probe_rt, NodeId(0)).await;
            (connect_to(&big_rt, NodeId(0)).await, probe_ep)
        };
        start.set(sim2.now());
        if big {
            let payload = vec![1u8; BIG];
            big_ep
                .send_message(SINK, &[], &payload, SendOptions::default())
                .await
                .unwrap();
        }
        let (ep, after) = match probe {
            Probe::None => return,
            Probe::Rc(after) => (probe_ep, after),
            Probe::Ud(after) => (probe_rt.ud_endpoint(NodeId(0), ud_qpn), after),
        };
        sim2.sleep_until(start.get() + after).await;
        ep.send_message(SINK, &[], b"ping", SendOptions::default())
            .await
            .unwrap();
    });
    sim.run();
    seen.get()
}

/// Two endpoints on two contexts: while one context's progress task is
/// busy with the big message, the other endpoint's probe is delivered at
/// the very nanosecond it is when nothing else is going on. On a single
/// context the same script makes the probe wait for the big message.
#[test]
fn a_busy_context_delays_only_its_own_endpoints() {
    let big_done = probe_script(2, true, true, Probe::None).big.unwrap();
    // Sent 50 µs before the big message is done: the probe arrives well
    // inside the 77 µs the progress task spends on it.
    let probe = Probe::Rc(big_done - SimDuration::from_micros(50));
    let alone = probe_script(2, true, false, probe).probe.unwrap();
    assert!(alone + SimDuration::from_micros(40) < big_done);

    let two = probe_script(2, true, true, probe);
    assert_eq!(two.big, Some(big_done));
    assert_eq!(two.probe, Some(alone), "delayed by another context");

    let one = probe_script(1, true, true, probe);
    assert_eq!(one.big, Some(big_done));
    assert!(
        one.probe.unwrap() > big_done,
        "one progress task serves both endpoints in turn"
    );
}

/// The shared UD queue pair completes on context 0: a datagram waits for
/// a big message on context 0's endpoint and not for one on context 1's.
#[test]
fn the_ud_queue_pair_is_reaped_by_context_zero() {
    let big_done = probe_script(2, true, true, Probe::None).big.unwrap();
    let probe = Probe::Ud(big_done - SimDuration::from_micros(50));
    let alone = probe_script(2, true, false, probe).probe.unwrap();
    // Big message on context 0 (its sender connected first) ...
    let behind = probe_script(2, true, true, probe).probe.unwrap();
    assert!(behind > big_done);
    // ... and on context 1.
    assert_eq!(probe_script(2, false, true, probe).probe, Some(alone));
}

/// Endpoints are bound to contexts round-robin, at accept and at connect:
/// any two contexts' endpoint counts differ by at most one.
#[test]
fn endpoints_spread_round_robin_over_contexts() {
    const CONTEXTS: usize = 3;
    const ENDPOINTS: usize = 8;
    let (cluster, fabric) = world(false, 2);
    let server = UcrRuntime::with_contexts(&fabric, NodeId(1), CONTEXTS);
    let listener = server.listen(PORT).unwrap();
    let sim = cluster.sim().clone();
    let accepted = sim.spawn(async move {
        let mut contexts = Vec::new();
        for _ in 0..ENDPOINTS {
            contexts.push(listener.accept().await.unwrap().context());
        }
        contexts
    });
    let client = UcrRuntime::with_contexts(&fabric, NodeId(0), 2);
    let (accepted, connected) = sim.block_on(async move {
        let mut contexts = Vec::new();
        for _ in 0..ENDPOINTS {
            contexts.push(connect(&client).await.context());
        }
        (accepted.await, contexts)
    });
    let round_robin = |n: usize| (0..ENDPOINTS).map(|i| i % n).collect::<Vec<_>>();
    assert_eq!(accepted, round_robin(CONTEXTS));
    assert_eq!(connected, round_robin(2));
}

/// An endpoint failing on one context (its peer died) leaves the traffic
/// of an endpoint on another context exactly as it is without the fault
/// (§IV fault model): same replies, same round-trip times.
#[test]
fn a_failure_on_one_context_leaves_the_others_untouched() {
    // Round-trip times of eight echoes against a two-context server
    // which, iff `fault`, meanwhile sends to a client that has died.
    fn echoes(fault: bool) -> Vec<SimDuration> {
        let (cluster, fabric) = world(false, 3);
        let server = UcrRuntime::with_contexts(&fabric, NodeId(0), 2);
        server.register_handler(ECHO, EchoHandler);
        let listener = server.listen(PORT).unwrap();
        let sim = cluster.sim().clone();
        let accepted = sim.spawn(async move {
            let doomed = listener.accept().await.unwrap();
            let healthy = listener.accept().await.unwrap();
            (doomed, healthy)
        });
        let dying = UcrRuntime::new(&fabric, NodeId(1));
        let client = UcrRuntime::new(&fabric, NodeId(2));
        client.register_handler(
            ECHO + 100,
            FnHandler(|_: &Endpoint, _: &[u8], _: AmData| {}),
        );
        let server2 = server.clone();
        let rtts = sim.block_on(async move {
            let _dying_ep = connect_to(&dying, NodeId(0)).await;
            let ep = connect_to(&client, NodeId(0)).await;
            let (doomed, healthy) = accepted.await;
            assert_eq!((doomed.context(), healthy.context()), (0, 1));
            if fault {
                dying.shutdown();
                doomed
                    .send_message(SINK, &[], b"anyone?", SendOptions::default())
                    .await
                    .unwrap();
            }
            let sim = client.sim();
            let mut rtts = Vec::new();
            for _ in 0..8 {
                let ctr = client.counter();
                let t0 = sim.now();
                ep.send_message(ECHO, &ctr.id().to_le_bytes(), b"x", SendOptions::default())
                    .await
                    .unwrap();
                ctr.wait_for(1, SimDuration::from_millis(1)).await.unwrap();
                rtts.push(sim.now() - t0);
                // Spread the echoes over the 200 µs the dead peer's
                // retries take to exhaust.
                sim.sleep(SimDuration::from_micros(40)).await;
            }
            assert_eq!(doomed.is_failed(), fault);
            assert!(!healthy.is_failed() && !ep.is_failed());
            rtts
        });
        assert_eq!(server2.stats().send_failures.get(), u64::from(fault));
        assert_eq!(server2.endpoints(), if fault { 1 } else { 2 });
        rtts
    }
    assert_eq!(echoes(true), echoes(false));
}

/// `shutdown` ends every progress task, and so does dropping the last
/// handle of a runtime that was never shut down; either way nothing of it
/// stays scheduled.
#[test]
fn shutdown_or_the_last_handle_going_ends_every_progress_task() {
    let (cluster, fabric) = world(false, 3);
    let sim = cluster.sim().clone();
    let (idle_tasks, idle_events) = (sim.live_tasks(), sim.pending_events());
    let a = UcrRuntime::with_contexts(&fabric, NodeId(0), 4);
    let b = UcrRuntime::with_contexts(&fabric, NodeId(1), 3);
    assert_eq!(sim.live_tasks(), idle_tasks + 7);
    // Some traffic first, so the tasks have been through their loops.
    let listener = a.listen(PORT).unwrap();
    let got = Rc::new(std::cell::Cell::new(0u32));
    let got2 = got.clone();
    a.register_handler(
        SINK,
        FnHandler(move |_: &Endpoint, _: &[u8], _: AmData| got2.set(got2.get() + 1)),
    );
    sim.spawn(async move {
        for _ in 0..3 {
            listener.accept().await.unwrap();
        }
    });
    let b2 = b.clone();
    sim.block_on(async move {
        for _ in 0..3 {
            let ep = connect_to(&b2, NodeId(0)).await;
            ep.send_message(SINK, &[], b"hello", SendOptions::default())
                .await
                .unwrap();
        }
    });
    sim.run();
    assert_eq!(got.get(), 3);
    assert_eq!(sim.live_tasks(), idle_tasks + 7);

    a.shutdown();
    sim.run();
    assert_eq!(sim.live_tasks(), idle_tasks + 3, "a's four tasks ended");
    drop(b);
    sim.run();
    assert_eq!(sim.live_tasks(), idle_tasks, "b's three tasks ended");
    assert_eq!(sim.pending_events(), idle_events);
}

mod hostile_bytes {
    use super::*;
    use proptest::prelude::*;
    use ucr::{PacketHeader, PacketKind, PACKET_HEADER_BYTES};

    /// Everything the receiver's handlers were given for one wire buffer.
    #[derive(Default)]
    struct Delivered {
        msgs: usize,
        bytes: usize,
    }

    /// Posts `wire` to a UCR runtime as one raw verbs SEND — no UCR on the
    /// sending side, so nothing vouches for the lengths inside — and
    /// returns what its handlers saw plus its drop counter.
    fn receive_raw(wire: Vec<u8>) -> (Delivered, u64) {
        let (cluster, fabric) = world(true, 2);
        let receiver = UcrRuntime::new(&fabric, NodeId(1));
        let seen: Rc<RefCell<Delivered>> = Rc::default();
        // Any msg_id below 4 has a handler; the rest drop as unknown.
        for msg_id in 0..4 {
            let seen = seen.clone();
            receiver.register_handler(
                msg_id,
                FnHandler(move |_: &Endpoint, hdr: &[u8], data: AmData| {
                    let mut seen = seen.borrow_mut();
                    seen.msgs += 1;
                    seen.bytes += hdr.len() + data.len();
                }),
            );
        }
        let listener = receiver.listen(PORT).unwrap();
        cluster.sim().spawn(async move {
            let _ep = listener.accept().await;
            std::future::pending::<()>().await;
        });
        let hca = fabric.open(NodeId(0));
        let (pd, cq) = (hca.alloc_pd(), hca.create_cq());
        cluster.sim().block_on(async move {
            let qp = verbs::connect(
                &hca,
                &pd,
                &cq,
                &cq,
                None,
                NodeId(1),
                PORT,
                SimDuration::from_millis(100),
            )
            .await
            .unwrap();
            let op = verbs::SendOp::SendInline {
                data: wire,
                imm: None,
            };
            qp.post_send(verbs::SendWr::new(1, op)).unwrap();
            cq.next().await;
        });
        cluster.sim().run();
        // The runtime survived and still restocks its receive pool.
        let dropped = receiver.stats().unknown_msg_dropped.get();
        let seen = std::mem::take(&mut *seen.borrow_mut());
        (seen, dropped)
    }

    fn eager_packet(msg_id: u16, hdr: &[u8], data: &[u8]) -> Vec<u8> {
        let mut pkt = PacketHeader::new(PacketKind::Eager, msg_id);
        pkt.hdr_len = hdr.len() as u32;
        pkt.data_len = data.len() as u64;
        let mut wire = pkt.encode().to_vec();
        wire.extend_from_slice(hdr);
        wire.extend_from_slice(data);
        wire
    }

    /// Handlers are only ever given bytes that were in the buffer, each
    /// at most once: what they saw, plus a packet header per message,
    /// fits inside what arrived.
    fn assert_within(wire_len: usize, seen: &Delivered) -> Result<(), String> {
        prop_assert!(
            seen.bytes + seen.msgs * PACKET_HEADER_BYTES <= wire_len,
            "{} messages / {} bytes delivered out of a {wire_len}-byte buffer",
            seen.msgs,
            seen.bytes
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary bytes, biased towards plausible headers (a valid
        /// kind byte, a registered msg_id): never a panic, never more
        /// delivered than arrived.
        #[test]
        fn arbitrary_bytes_never_over_deliver(
            wire in proptest::collection::vec(any::<u8>(), 0..600),
            kind in 0u8..5,
            msg_id in 0u16..6,
        ) {
            let mut wire = wire;
            if wire.len() >= 4 {
                wire[0] = kind;
                wire[2..4].copy_from_slice(&msg_id.to_le_bytes());
            }
            let len = wire.len();
            let (seen, _) = receive_raw(wire);
            assert_within(len, &seen)?;
        }

        /// A well-formed multi-packet buffer with one length field
        /// overwritten or its tail cut: the packets ahead of the damage
        /// are delivered, nothing past the end is, and a damaged
        /// remainder is counted.
        #[test]
        fn mutated_multi_packet_buffers_never_over_deliver(
            parts in proptest::collection::vec((0u16..4, 0usize..40, 0usize..300), 1..6),
            victim in 0usize..6,
            field in 0usize..3,
            value in any::<u64>(),
            cut in 0usize..80,
        ) {
            let mut wire = Vec::new();
            let mut starts = Vec::new();
            for (msg_id, hdr, data) in &parts {
                starts.push(wire.len());
                wire.extend(eager_packet(*msg_id, &vec![0xaa; *hdr], &vec![0xbb; *data]));
            }
            let intact = wire.clone();
            let at = starts[victim % starts.len()];
            match field {
                0 => wire[at + 4..at + 8].copy_from_slice(&(value as u32).to_le_bytes()),
                1 => wire[at + 8..at + 16].copy_from_slice(&value.to_le_bytes()),
                _ => wire.truncate(wire.len().saturating_sub(cut)),
            }
            let len = wire.len();
            let damaged = wire != intact;
            let (seen, dropped) = receive_raw(wire);
            assert_within(len, &seen)?;
            if damaged {
                prop_assert!(seen.msgs < parts.len() || dropped > 0);
            } else {
                prop_assert_eq!(seen.msgs, parts.len());
                prop_assert_eq!(dropped, 0);
            }
        }
    }

    /// The overflow the old unchecked `hdr_end + data_len` hit: a
    /// `data_len` of `u64::MAX` wrapped in release builds and sliced out
    /// of bounds. Now it is one dropped buffer.
    #[test]
    fn wrapping_data_len_is_dropped_not_sliced() {
        let mut wire = eager_packet(1, b"hdr", b"data");
        wire[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        let (seen, dropped) = receive_raw(wire);
        assert_eq!((seen.msgs, dropped), (0, 1));
        // And a good packet ahead of the bad one is still delivered.
        let mut wire = eager_packet(1, b"hdr", b"data");
        let bad_at = wire.len();
        wire.extend(eager_packet(1, b"", b"x"));
        wire[bad_at + 8..bad_at + 16].copy_from_slice(&(u64::MAX - 60).to_le_bytes());
        let (seen, dropped) = receive_raw(wire);
        assert_eq!((seen.msgs, seen.bytes, dropped), (1, 7, 1));
    }
}
