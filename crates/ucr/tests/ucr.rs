//! Integration tests for UCR: active-message delivery (eager and
//! rendezvous) and eager coalescing, swept over seeded scripts against one
//! oracle (`run_script`), counter semantics, handler destinations, fault
//! isolation, and the latency behaviour the Memcached design depends on.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use simnet::{
    Cluster, ClusterProfile, EventRecorder, Layer, NodeId, Phase, SimDuration, SimRng, SimTime,
};
use ucr::{
    AmData, AmDest, AmHandler, Counter, Endpoint, FnHandler, SendOptions, UcrError, UcrRuntime,
};
use verbs::IbFabric;

#[path = "cells/header_choice.rs"]
mod header_choice;

const PORT: u16 = 11211;
const ECHO: u16 = 1;
const SINK: u16 = 2;
/// How long a test waits for a counter or a connection.
const WAIT: SimDuration = SimDuration::from_millis(100);

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
    let ep = connect_to(client, server_node).await;
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
        let ep = connect(&sender).await;
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

/// A header handler takes a message's data into a pool buffer or drops
/// it, at 4 B, at exactly the eager threshold and at 50 000 B: its
/// completion handler gets the bytes sent or `Discarded`, the endpoint
/// stays up, and every rendezvous buffer goes back to its pool.
#[test]
fn header_handler_can_place_into_registered_buffer() {
    header_choice::pool_delivers_the_bytes_sent();
    header_choice::discard_delivers_nothing();
}

#[test]
fn unknown_msg_id_is_counted_and_dropped() {
    let (cluster, fabric) = world(false, 2);
    let server = UcrRuntime::new(&fabric, NodeId(1));
    accept_one(&server);
    let client = UcrRuntime::new(&fabric, NodeId(0));
    let server2 = server.clone();
    cluster.sim().block_on(async move {
        let ep = connect(&client).await;
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
        let ep = connect(&client).await;
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
        let ep_dying = connect(&client).await;
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

/// Replies a handler posts on an unreliable endpoint are staged records of
/// the endpoint, as on a reliable one, not tasks: `N` of them leave
/// `Sim::live_tasks()` where it was, and they arrive in post order. One
/// posted after the runtime's `shutdown` counts one `send_failures`.
#[test]
fn ud_replies_are_records_not_tasks() {
    const N: u32 = 8;
    let (cluster, fabric) = world(true, 2);
    let server = UcrRuntime::new(&fabric, NodeId(1));
    let qpn = server.ud_bind();
    let sim = cluster.sim().clone();
    let tasks: Rc<Cell<Option<(usize, usize)>>> = Rc::default();
    let replier: Rc<RefCell<Option<Endpoint>>> = Rc::default();
    let (tasks2, replier2) = (tasks.clone(), replier.clone());
    server.register_handler(
        ECHO,
        FnHandler(move |ep: &Endpoint, _: &[u8], _: AmData| {
            let before = sim.live_tasks();
            for i in 0..N {
                let none = SendOptions::default();
                ep.post_message(ECHO + 100, i.to_le_bytes(), &b"reply"[..], none);
            }
            tasks2.set(Some((before, sim.live_tasks())));
            *replier2.borrow_mut() = Some(ep.clone());
        }),
    );
    let client = UcrRuntime::new(&fabric, NodeId(0));
    let seen: Rc<RefCell<Vec<u32>>> = Rc::default();
    let seen2 = seen.clone();
    client.register_handler(
        ECHO + 100,
        FnHandler(move |_: &Endpoint, hdr: &[u8], _: AmData| {
            seen2
                .borrow_mut()
                .extend(hdr.try_into().map(u32::from_le_bytes));
        }),
    );
    let sending = client.clone();
    cluster.sim().block_on(async move {
        let ep = sending.ud_endpoint(NodeId(1), qpn);
        let sent = ep.send_message(ECHO, b"go", b"", SendOptions::default());
        sent.await.unwrap();
        sending.sim().sleep(SimDuration::from_millis(1)).await;
    });
    let (before, after) = tasks.get().expect("the handler ran");
    assert_eq!(after, before, "no task per reply");
    assert!(seen.borrow().iter().copied().eq(0..N), "in post order");
    assert_eq!(server.stats().send_failures.get(), 0);

    server.shutdown();
    let ep = replier.borrow_mut().take().expect("the handler's endpoint");
    ep.post_message(ECHO + 100, b"late", &b"reply"[..], SendOptions::default());
    cluster.sim().run();
    assert_eq!(server.stats().send_failures.get(), 1);
    assert_eq!(seen.borrow().len(), N as usize, "nothing more arrived");
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

    accept_one(&server);

    let client = UcrRuntime::new(&fabric, NodeId(0));
    let client2 = client.clone();
    cluster.sim().block_on(async move {
        let ep = connect(&client2).await;

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
    accept_one(&server);
    let client = UcrRuntime::new(&fabric, NodeId(0));
    let dt = cluster.sim().block_on(async move {
        let ep = connect(&client).await;
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
        let ep = connect(&sender2).await;
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
        let ep = connect(&sender).await;
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
        let ep = connect(&sender).await;
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
        ctr.wait_for(1, WAIT).await.unwrap();
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
// The stream sweep: delivery both ways, and eager coalescing's hold, flush
// and discard, over seeded scripts, checked by one oracle
// ---------------------------------------------------------------------

/// A ping, a message from the receiver back to a sender, names a completion
/// counter, so the sender's progress engine answers it with a Fin on the
/// endpoint its own stream may be held on.
const PING: u16 = 41;

/// Data lengths a script draws from, after each message's 4-byte header
/// (its sequence number): empty and tiny; two that share one network
/// buffer; one whose packet header takes its buffer past 8 KB; payloads of
/// 8 KB − 1 and 8 KB (the eager threshold), then 8 KB + 1 and two more
/// rendezvous sizes.
const SIZES: [usize; 9] = [0, 4, 4000, 8128, 8187, 8188, 8189, 12 << 10, 64 << 10];

/// One message of a script.
#[derive(Debug, Clone, Copy)]
struct Msg {
    /// Data bytes after the header.
    len: usize,
    /// Names an origin counter.
    origin: bool,
    /// Goes by `post_message` rather than `send_message`.
    post: bool,
    /// How long its sender waits before sending it.
    pace: SimDuration,
}

/// A `send_message` of 4 data bytes, with no counter and no pause.
const SMALL: Msg = Msg {
    len: 4,
    origin: false,
    post: false,
    pace: SimDuration::ZERO,
};

impl Msg {
    fn of(len: usize) -> Msg {
        Msg { len, ..SMALL }
    }

    fn origin(mut self) -> Msg {
        self.origin = true;
        self
    }

    fn after(mut self, pace: SimDuration) -> Msg {
        self.pace = pace;
        self
    }
}

/// How a script's stream ends: right after each sender's last message is
/// accepted.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ending {
    Quiesce,
    /// Each sender closes its endpoint.
    Close,
    /// Each sender drops its runtime, the last handle.
    DropRuntime,
    /// Each sender shuts its runtime down: a process exit. What it held is
    /// discarded and counted; what it had in flight may be lost uncounted,
    /// at its adapter or at a receiver whose read of a released source
    /// fails and ends its endpoint.
    SenderShutdown,
    /// The receiver shuts down just before the first sender's `n`th message
    /// (and its pause).
    PeerShutdown(usize),
}

/// Senders on nodes `1..=senders` each stream `msgs` (after backing their
/// queues up, with `back_up`) to a receiver on node 0 with `contexts`
/// progress contexts, which meanwhile sends them `pings`, in turn and back
/// to back.
#[derive(Debug, Clone)]
struct Script {
    seed: u64,
    cluster_b: bool,
    contexts: usize,
    senders: u32,
    back_up: bool,
    msgs: Vec<Msg>,
    pings: Vec<Msg>,
    ending: Ending,
}

impl Script {
    /// One sender on Cluster A that sends `msgs`.
    fn plain(msgs: Vec<Msg>) -> Script {
        Script {
            seed: 21,
            cluster_b: false,
            contexts: 1,
            senders: 1,
            back_up: false,
            msgs,
            pings: Vec::new(),
            ending: Ending::Quiesce,
        }
    }

    /// The same, after backing its queue up.
    fn backed_up(msgs: Vec<Msg>) -> Script {
        let mut s = Script::plain(msgs);
        s.back_up = true;
        s
    }

    fn ending(self, ending: Ending) -> Script {
        Script { ending, ..self }
    }

    fn pings(self, pings: Vec<Msg>) -> Script {
        Script { pings, ..self }
    }

    fn draw(r: &mut SimRng) -> Script {
        let pick = |r: &mut SimRng, n: usize| r.gen_range_u64(0, n as u64) as usize;
        // Half the scripts stay eager, so that more endings find messages
        // held.
        let sizes = &SIZES[..if r.gen_bool(0.5) { 9 } else { 6 }];
        let msg = |r: &mut SimRng, pace| Msg {
            len: sizes[pick(r, sizes.len())],
            origin: r.gen_bool(0.5),
            post: r.gen_bool(0.3),
            pace,
        };
        let msgs = r.vec_of(1..16, |r| {
            let pace = r.gen_range_u64(0, 1001).saturating_sub(500);
            msg(r, SimDuration::from_nanos(pace))
        });
        let ending = match pick(r, 5) {
            0 => Ending::Close,
            1 => Ending::DropRuntime,
            2 => Ending::SenderShutdown,
            3 => Ending::PeerShutdown(pick(r, msgs.len())),
            _ => Ending::Quiesce,
        };
        let mut s = Script::plain(msgs).ending(ending);
        (s.seed, s.cluster_b, s.contexts) =
            (r.gen_range_u64(0, 1000), r.gen_bool(0.5), 1 + pick(r, 2));
        (s.senders, s.back_up) = (1 + pick(r, 4) as u32, r.gen_bool(0.5));
        // Half the pings go with no pause, and the rest reach past a
        // backed-up stream's drain, which ends some 100 µs in.
        s.pings = r.vec_of(0..9, |r| {
            let pace = r.gen_range_u64(0, 161).saturating_sub(80);
            msg(r, SimDuration::from_micros(pace))
        });
        s
    }
}

/// The `len` data bytes of message `seq` of flow `dir` of sender `i`'s
/// connection: a cut of a cycle of 251 at an offset set by all three.
fn stream_data(i: usize, dir: usize, seq: u32, len: usize) -> &'static [u8] {
    static CYCLE: std::sync::LazyLock<Vec<u8>> =
        std::sync::LazyLock::new(|| (0..251 + (1 << 17)).map(|k| (k % 251) as u8).collect());
    let at = (i * 7 + dir * 101 + seq as usize * 31) % 251;
    &CYCLE[at..at + len]
}

/// A message the sending runtime took, by sequence number.
struct Accepted {
    /// When `send_message` resolved, or when the staging delay of a posted
    /// eager message ends: messages leave an endpoint in the order of this
    /// instant, ties in send order.
    at: SimTime,
    len: usize,
    eager: bool,
    origin: Option<Counter>,
    /// The origin counter's value when the send returned.
    origin_then: u64,
    /// The completion counter a ping names, and how many messages of the
    /// other flow its sender had seen announced when the Fin bumped it.
    completion: Option<Counter>,
    at_fin: Option<usize>,
}

/// One direction of one sender's connection, by sequence number: what its
/// sending runtime accepted; the headers its receiver announced; and the
/// messages delivered, with their lengths, whether their bytes were the
/// ones sent, and the receiving runtime's `messages_sent` when it answered.
#[derive(Default)]
struct Flow {
    log: Vec<Accepted>,
    announced: Vec<u32>,
    delivered: Vec<(u32, usize, bool, u64)>,
}

/// Per sender, by node less one: its stream and the receiver's pings to it;
/// and when the receiver was shut down in a `PeerShutdown` ending.
#[derive(Default)]
struct Inbox {
    flows: RefCell<Vec<[Flow; 2]>>,
    killed: Cell<SimTime>,
}

/// A runtime's handler: files each message it gets in its flow — the
/// receiver's (node 0) by the sending node, a sender's as a ping.
struct Sink {
    inbox: Rc<Inbox>,
    node: u32,
    sent: Rc<simnet::metrics::Counter>,
}

impl Sink {
    /// Runs `f` on the flow of `ep`'s message with header `hdr`, with the
    /// flow's sender index and direction and the message's sequence number.
    fn file(&self, ep: &Endpoint, hdr: &[u8], f: impl FnOnce(&mut Flow, (usize, usize), u32)) {
        let (i, dir) = match self.node {
            0 => (ep.peer().0 as usize - 1, 0),
            n => (n as usize - 1, 1),
        };
        let seq = u32::from_le_bytes(hdr.try_into().unwrap());
        f(&mut self.inbox.flows.borrow_mut()[i][dir], (i, dir), seq);
    }
}

impl AmHandler for Sink {
    fn on_header(&self, ep: &Endpoint, hdr: &[u8], _: usize) -> AmDest {
        self.file(ep, hdr, |flow, _, seq| flow.announced.push(seq));
        AmDest::Pool
    }

    fn on_complete(&self, ep: &Endpoint, hdr: &[u8], data: AmData) {
        let data = data.into_vec().unwrap_or_default();
        self.file(ep, hdr, |flow, (i, dir), seq| {
            let intact = data == stream_data(i, dir, seq, data.len());
            (flow.delivered).push((seq, data.len(), intact, self.sent.get()));
        });
    }
}

/// A runtime's sending half. It writes every message into its one buffer
/// and rewrites it as soon as the send returns, so a source the runtime
/// did not copy or own arrives corrupted.
struct Tx {
    rt: UcrRuntime,
    profile: ClusterProfile,
    inbox: Rc<Inbox>,
    buf: Cell<Vec<u8>>,
}

/// Messages [`Tx::back_up`] sends.
const BACKED_UP: usize = 201;

impl Tx {
    /// A sending half for `rt`, whose handler files into `inbox`.
    fn new(rt: UcrRuntime, profile: &ClusterProfile, inbox: &Rc<Inbox>) -> Tx {
        let (node, sent) = (rt.node().0, rt.stats().messages_sent.clone());
        let inbox = inbox.clone();
        let sink = Sink {
            inbox: inbox.clone(),
            node,
            sent,
        };
        rt.register_handler(if node == 0 { SINK } else { PING }, sink);
        let (profile, buf) = (profile.clone(), Cell::default());
        Tx {
            rt,
            profile,
            inbox,
            buf,
        }
    }

    /// Sends `m` on `ep` as the next message of flow `dir` of sender `i`'s
    /// connection: 0, its stream; 1, a ping. `Err` if it was refused.
    async fn send(&self, ep: &Endpoint, (i, dir): (usize, usize), m: Msg) -> Result<(), UcrError> {
        let sim = self.rt.sim();
        sim.sleep(m.pace).await;
        let seq = self.inbox.flows.borrow()[i][dir].log.len() as u32;
        let mut buf = self.buf.take();
        buf.clear();
        buf.extend_from_slice(stream_data(i, dir, seq, m.len));
        let (hdr, counter) = (seq.to_le_bytes(), || self.rt.counter());
        let (origin, completion) = (m.origin.then(counter), (dir == 1).then(counter));
        let opts = SendOptions {
            origin: origin.clone(),
            completion: completion.clone(),
            ..Default::default()
        };
        let msg_id = [SINK, PING][dir];
        let eager = hdr.len() + m.len <= self.rt.eager_threshold();
        let sent = if m.post {
            ep.post_message(msg_id, hdr, &buf[..], opts);
            Ok(())
        } else {
            ep.send_message(msg_id, &hdr, &buf, opts).await
        };
        buf.fill(0xa5);
        self.buf.set(buf);
        sent?;
        let at = if m.post && eager {
            // The staging delay `post_message` documents.
            let (p, len) = (&self.profile, m.len as u64);
            let copy = SimDuration::for_bytes_at(len, p.host.copy_bw_bps);
            sim.now() + copy + p.ucr_eager_cost(len) / 2
        } else {
            sim.now()
        };
        let (len, origin_then) = (m.len, origin.as_ref().map_or(0, Counter::value));
        if let Some(done) = completion.clone() {
            let inbox = self.inbox.clone();
            sim.spawn(async move {
                if done.wait_for(1, WAIT).await.is_ok() {
                    let flows = &mut inbox.flows.borrow_mut()[i];
                    flows[dir].log[seq as usize].at_fin = Some(flows[1 - dir].announced.len());
                }
            });
        }
        self.inbox.flows.borrow_mut()[i][dir].log.push(Accepted {
            at,
            len,
            eager,
            origin,
            origin_then,
            completion,
            at_fin: None,
        });
        Ok(())
    }

    /// Backs `ep`'s send queue up. One lone message shows how fast a send
    /// can complete; then a burst of 200 queues in the HCA (0.4 µs each),
    /// so its later completions take many times as long. Returns 30 µs into
    /// the 80 µs drain — slow completions reaped, more in flight: exactly
    /// the state in which the next eager sends are held. None of these is
    /// held itself (the burst is posted before its first completion is
    /// reaped).
    async fn back_up(&self, ep: &Endpoint, i: usize) {
        self.send(ep, (i, 0), SMALL.origin()).await.unwrap();
        let lone = self.inbox.flows.borrow()[i][0].log[0].origin.clone();
        let lone = lone.unwrap();
        lone.wait_for(1, SimDuration::from_millis(1)).await.unwrap();
        for _ in 1..BACKED_UP {
            self.send(ep, (i, 0), SMALL).await.unwrap();
        }
        self.rt.sim().sleep(SimDuration::from_micros(30)).await;
    }

    /// Runs this sender's part of `s` on `ep` to receiver `rx`.
    async fn stream(self, ep: Endpoint, s: Script, rx: UcrRuntime) {
        let (sim, i) = (self.rt.sim(), self.rt.node().0 as usize - 1);
        if s.back_up {
            self.back_up(&ep, i).await;
        }
        for (k, m) in s.msgs.iter().enumerate() {
            if i == 0 && s.ending == Ending::PeerShutdown(k) {
                rx.shutdown();
                self.inbox.killed.set(sim.now());
            }
            if self.send(&ep, (i, 0), *m).await.is_err() {
                break;
            }
        }
        let last = self.inbox.flows.borrow()[i][0]
            .log
            .iter()
            .map(|a| a.at)
            .max();
        sim.sleep_until(last.unwrap_or(SimTime::ZERO)).await;
        match s.ending {
            Ending::Close => ep.close(),
            Ending::SenderShutdown => self.rt.shutdown(),
            _ => {}
        }
    }
}

/// Counts a row pins: summed over a script's senders, `eager_coalesced`,
/// `send_failures`, and the eager messages accepted and never posted (held,
/// then discarded); and the receiver's `eager_coalesced`.
type Tally = (u64, u64, u64, u64);

/// Runs `s` and checks it against the one oracle. A failed clause panics
/// with the flight recorder's dump, which `check_cases` prints beside the
/// case's index and inputs.
fn run_script(s: &Script) -> Tally {
    let nodes = 1 + s.senders;
    let cluster = Rc::new(match s.cluster_b {
        true => Cluster::cluster_b(s.seed, nodes),
        false => Cluster::cluster_a(s.seed, nodes),
    });
    let (fabric, sim) = (IbFabric::new(cluster.clone()), cluster.sim().clone());
    let recorder = EventRecorder::new();
    cluster.tracer().add_sink(recorder.clone());
    let rx = UcrRuntime::with_contexts(&fabric, NodeId(0), s.contexts);
    let (inbox, profile) = (Rc::new(Inbox::default()), cluster.profile().clone());
    (inbox.flows.borrow_mut()).resize_with(s.senders as usize, Default::default);
    let pinger = Tx::new(rx.clone(), &profile, &inbox);
    let (listener, accepted) = (rx.listen(PORT).unwrap(), Rc::new(RefCell::new(Vec::new())));
    let eps = accepted.clone();
    sim.spawn(async move {
        while let Ok(ep) = listener.accept().await {
            eps.borrow_mut().push(ep);
        }
    });
    let into = inbox.clone();
    let txs: Vec<(Tx, Endpoint)> = sim.block_on(async move {
        let mut txs = Vec::new();
        for n in 1..nodes {
            let tx = Tx::new(UcrRuntime::new(&fabric, NodeId(n)), &profile, &into);
            let ep = connect_to(&tx.rt, NodeId(0)).await;
            txs.push((tx, ep));
        }
        txs
    });
    sim.run();
    let idle_events = sim.pending_events();
    let eps: Vec<Endpoint> = txs.iter().map(|(_, ep)| ep.clone()).collect();
    // What a `DropRuntime` ending lets go of is kept otherwise.
    let kept: Vec<UcrRuntime> = txs.iter().map(|(tx, _)| tx.rt.clone()).collect();
    let kept = (s.ending != Ending::DropRuntime).then_some(kept);
    for (tx, ep) in txs {
        sim.spawn(tx.stream(ep, s.clone(), rx.clone()));
    }
    let pings = s.pings.clone();
    sim.spawn(async move {
        for (k, m) in pings.into_iter().enumerate() {
            let ep = accepted.borrow()[k % accepted.borrow().len()].clone();
            let i = ep.peer().0 as usize - 1;
            if pinger.send(&ep, (i, 1), m).await.is_err() {
                break;
            }
        }
    });
    sim.run();

    // The oracle. A clause that fails raises a fault with the flight
    // recorder's dump.
    let (t, flows, events) = (cluster.tracer(), inbox.flows.borrow(), recorder.events());
    let stat = |n: usize, name: &str| {
        let metrics = cluster.metrics();
        metrics.counter_value(&format!("ucr.ib.node{n}.{name}"))
    };
    macro_rules! ensure {
        ($ok:expr => $($why:tt)+) => {
            if !$ok {
                panic!("{}", t.fault(&format!($($why)+)));
            }
        };
    }
    let clean = !matches!(s.ending, Ending::SenderShutdown | Ending::PeerShutdown(_));
    // Per runtime, from what was delivered to it: its rendezvous messages,
    // and the Fins it owes — one per rendezvous read and per message that
    // named a completion counter. A stream's eager message never owes one.
    let (mut rndv, mut owed) = (vec![0; nodes as usize], vec![0; nodes as usize]);
    // One flow, either way. Its delivery order, whatever the ending: what
    // was announced is the head of the send order; each eager message is
    // delivered as it is announced; each message at most once, intact. An
    // origin counter bumps at the carrying completion, never when its
    // message is accepted; a completion counter only for a message
    // delivered, its Fin arriving after what the receiving runtime had
    // accepted the other way when it answered was announced. With
    // `complete`, every message arrives and each counter bumps once — an
    // origin counter unless the progress engine that would reap its
    // completion went with a dropped runtime. Returns the send order.
    let mut check = |flow: &Flow, (node, to): (usize, usize), complete: bool| {
        let (log, announced, arrived) = (&flow.log, &flow.announced, &flow.delivered);
        let mut order: Vec<u32> = (0..log.len() as u32).collect();
        order.sort_by_key(|&q| (log[q as usize].at, q));
        let eager = |seqs: &[u32]| -> Vec<u32> {
            (seqs.iter().copied())
                .filter(|&q| log[q as usize].eager)
                .collect()
        };
        let delivered: Vec<u32> = arrived.iter().map(|d| d.0).collect();
        let head = order.get(..announced.len()) == Some(announced);
        ensure!(head => "{node}→{to}: announced {announced:?}, sent {order:?}");
        let once: std::collections::BTreeSet<_> = delivered.iter().collect();
        let intact = arrived
            .iter()
            .all(|&(q, len, bytes, _)| bytes && log[q as usize].len == len);
        let intact = intact && once.len() == delivered.len();
        let in_order = eager(&delivered) == eager(announced);
        ensure!(intact && in_order => "{node}→{to}: delivered {arrived:?}");
        let early = log.iter().any(|a| a.origin_then > 0);
        let fins = log.iter().zip(0..).all(|(a, q)| {
            let answered = |f: usize| arrived.iter().any(|d| d.0 == q && f as u64 >= d.3);
            a.at_fin.is_none_or(answered)
        });
        ensure!(!early && fins => "{node}→{to}: a counter bumped early");
        for &(q, ..) in arrived {
            let a = &log[q as usize];
            rndv[to] += u64::from(!a.eager);
            owed[to] += u64::from(!a.eager || a.completion.is_some());
        }
        if complete {
            let dropped = s.ending == Ending::DropRuntime;
            let bumped = |c: &Option<Counter>| c.as_ref().is_none_or(|c| c.value() == 1);
            let once =
                (log.iter()).all(|a| bumped(&a.completion) && (dropped || bumped(&a.origin)));
            let all = delivered.len() == log.len() && announced.len() == log.len();
            ensure!(all && once => "{node}→{to}: delivered {delivered:?}, counters not bumped once");
        }
        order
    };
    // How many of `seqs` went eagerly.
    let eager_of = |log: &[Accepted], seqs: &[u32]| {
        let eager = seqs.iter().filter(|&&q| log[q as usize].eager);
        eager.count() as u64
    };
    let (mut eager_left, mut pings) = (0, 0);
    let mut tally = (0, 0, 0, stat(0, "eager_coalesced"));
    for (node, (ep, [stream, back])) in (1..).zip(eps.iter().zip(flows.iter())) {
        let (order, log) = (check(stream, (node, 0), clean), &stream.log);
        // A sender may close or drop its runtime under pings on their way.
        let back_order = check(back, (0, node), s.ending == Ending::Quiesce);
        pings += eager_of(&back.log, &back_order);
        eager_left += eager_of(log, &stream.announced);
        let (coalesced, failed) = (stat(node, "eager_coalesced"), stat(node, "send_failures"));
        let wrs = stat(node, "eager_wrs_posted") + coalesced;
        let discarded = eager_of(log, &order) - wrs;
        tally.0 += coalesced;
        tally.1 += failed;
        tally.2 += discarded;
        if clean {
            // Everything accepted arrives, with no send failure.
            ensure!(discarded == 0 && failed == 0 => "node {node}: {wrs} work requests, {failed} failures");
        } else {
            // Lost: never announced. One accepted before a peer's shutdown
            // may have reached its HCA and been lost there, its sender
            // seeing success; one accepted after cannot have.
            let lost = order[stream.announced.len()..]
                .iter()
                .map(|&q| &log[q as usize]);
            let lost: Vec<&Accepted> = lost.filter(|a| a.at >= inbox.killed.get()).collect();
            let bumped = lost
                .iter()
                .any(|a| a.origin.as_ref().is_some_and(|o| o.value() > 0));
            let n = lost.len() as u64;
            let counted = match s.ending {
                Ending::SenderShutdown => failed == discarded && n >= discarded,
                _ => failed >= n,
            };
            ensure!(counted && !bumped => "node {node}: {n} lost, {discarded} discarded, {failed} failures");
            // The endpoint refuses whatever comes next.
            if sim.block_on(late(ep.clone())).is_ok() {
                sim.run();
            }
            let refused = sim.block_on(late(ep.clone())) == Err(UcrError::EndpointFailed);
            ensure!(refused => "node {node}: a failed endpoint still takes sends");
        }
    }
    if s.ending == Ending::Quiesce {
        let wrs = stat(0, "eager_wrs_posted") + tally.3;
        let failed = stat(0, "send_failures");
        ensure!(wrs == pings && failed == 0 => "node 0: {wrs} work requests for {pings} pings, {failed} failures");
    }
    if clean {
        // No message is dropped unhandled, and a Fin answers what owes one
        // and nothing else, but for the one a `close` sends to a peer
        // still holding an unacknowledged source.
        for n in 0..nodes as usize {
            let (fins, closed) = (stat(n, "fins_sent"), s.ending == Ending::Close && n > 0);
            let fins = (owed[n]..=owed[n] + u64::from(closed)).contains(&fins);
            let handled = stat(n, "unknown_msg_dropped") == 0;
            let read = stat(n, "rndv_delivered") == rndv[n];
            ensure!(fins && handled && read => "node {n}: {} Fins for {}, {} reads for {}",
                stat(n, "fins_sent"), owed[n], stat(n, "rndv_delivered"), rndv[n]);
        }
    }
    // Trace: one `am_send_eager` per eager message that left a sender,
    // keyed by a work request verbs posted; no SEND past a receive buffer;
    // each endpoint failed at most once; handler spans balanced.
    let of = |name, phase| {
        events
            .iter()
            .filter(move |e| e.name == name && e.phase == phase)
    };
    let sends = || of("send", Phase::Begin).filter(|e| e.layer == Layer::Verbs);
    let wrs: std::collections::HashSet<_> = sends().map(|e| (e.node, e.op)).collect();
    let ams = of("am_send_eager", Phase::Instant).filter(|e| e.node != Some(NodeId(0)));
    let n = ams.clone().count() as u64;
    let keyed = ams.clone().all(|am| wrs.contains(&(am.node, am.op)));
    ensure!((!clean || n == eager_left) && keyed => "{n} am_send_eager for {eager_left}");
    let buf = (ucr::PACKET_HEADER_BYTES + rx.eager_threshold()) as u64;
    ensure!(sends().all(|e| e.bytes <= buf) => "a SEND larger than a receive buffer");
    let ended = of("ep_failed", Phase::Instant).map(|e| (e.node, e.op));
    let (failed, ended) = (
        ended.clone().count(),
        ended.collect::<std::collections::BTreeSet<_>>(),
    );
    ensure!(ended.len() == failed => "{failed} failures of {} endpoints", ended.len());
    for name in ["header_handler", "completion_handler"] {
        let balanced = of(name, Phase::Begin).count() == of(name, Phase::End).count();
        ensure!(balanced => "{name} spans unbalanced");
    }
    let pending = sim.pending_events();
    ensure!(pending == idle_events => "{pending} events pending at quiesce");
    drop(kept);
    tally
}

/// A send after the end of a stream.
async fn late(ep: Endpoint) -> Result<(), UcrError> {
    ep.send_message(SINK, &[9; 4], &[], SendOptions::default())
        .await
}

/// Has `server` accept one endpoint on [`PORT`].
fn accept_one(server: &UcrRuntime) {
    let listener = server.listen(PORT).unwrap();
    server.sim().spawn(async move {
        let _ = listener.accept().await;
    });
}

async fn connect_to(rt: &UcrRuntime, node: NodeId) -> Endpoint {
    rt.connect(node, PORT, WAIT).await.unwrap()
}

async fn connect(rt: &UcrRuntime) -> Endpoint {
    connect_to(rt, NodeId(1)).await
}

mod properties {
    use super::*;
    use simnet::check_cases;

    /// Any script: message sizes across the eager threshold each way, by
    /// either send call, paced or not, from 1–4 senders to a receiver with
    /// 1 or 2 progress contexts that pings them back, behind a backed-up
    /// queue or not, with each ending.
    #[test]
    fn messages_arrive_exactly_once_in_order() {
        let name = "messages_arrive_exactly_once_in_order";
        check_cases(name, 48, Script::draw, |s| _ = run_script(s));
    }

    /// The same, over more scripts; CI runs it in release.
    #[test]
    #[ignore]
    fn wide_stream_sweep() {
        check_cases("wide_stream_sweep", 512, Script::draw, |s| {
            _ = run_script(s)
        });
    }

    /// A case an earlier generator once recorded as failing: a message
    /// whose packet header takes its buffer past 8 KB, then an empty one,
    /// from three senders.
    #[test]
    fn an_8128_byte_message_then_an_empty_one_arrive_exactly_once() {
        for contexts in [1, 2, 4] {
            let mut s = Script::plain(vec![Msg::of(8128), Msg::of(0)]);
            (s.seed, s.cluster_b, s.contexts, s.senders) = (0, true, contexts, 3);
            run_script(&s);
        }
    }
}

/// 64 KB each way, far past the 8 KB eager threshold: both go by
/// rendezvous.
#[test]
fn rendezvous_moves_large_payloads() {
    run_script(&Script::plain(vec![Msg::of(64 << 10)]).pings(vec![Msg::of(64 << 10)]));
}

/// The same bytes through either path, each way, on Cluster B.
#[test]
fn eager_and_rendezvous_deliver_identical_bytes() {
    let msgs = [64, 8 * 1024 - 200, 8 * 1024 + 1, 100_000]
        .map(Msg::of)
        .to_vec();
    let mut s = Script::plain(msgs.clone()).pings(msgs);
    s.cluster_b = true;
    run_script(&s);
}

#[test]
fn origin_counter_bumps_on_local_completion() {
    run_script(&Script::plain(vec![Msg::of(256).origin()]));
}

#[test]
fn origin_counter_bumps_for_rendezvous_via_fin() {
    run_script(&Script::plain(vec![Msg::of(50_000).origin()]));
}

/// An eager message sends no Fin; one that names a completion counter (a
/// ping) is answered by one.
#[test]
fn completion_counter_requires_internal_message() {
    run_script(&Script::plain(vec![SMALL]).pings(vec![SMALL]));
}

/// Overlapping rendezvous sends from one buffer each own their source: a
/// send copies the caller's bytes into a region its endpoint holds until
/// the target's Fin, and the caller rewrites the buffer as soon as the send
/// returns. The second is sent before the first's Fin; each arrives with
/// the payload it was sent with.
#[test]
fn overlapping_rendezvous_sends_each_own_their_source() {
    let mut s = Script::plain(vec![Msg::of(64 << 10); 2]);
    (s.seed, s.cluster_b) = (77, true);
    run_script(&s);
}

/// Five held messages share work requests, in send order; their origin
/// counters bump at the carrying completion.
#[test]
fn held_messages_share_a_work_request_in_send_order() {
    assert!(run_script(&Script::backed_up(vec![SMALL.origin(); 5])).0 >= 3);
}

/// A rendezvous request posts the two held messages ahead of itself.
#[test]
fn rendezvous_request_does_not_overtake_held_messages() {
    let msgs = vec![SMALL, SMALL, Msg::of(64 << 10)];
    assert_eq!(run_script(&Script::backed_up(msgs)).0, 1);
}

/// A sender streams faster than its HCA drains while the receiver pings it
/// twelve times, every 10 µs, so its progress engine sends Fins on the
/// endpoint its stream is held on. Un-paced, the receiver falls more than
/// the 128 buffers its pool can grow to behind, and the overflow waits,
/// parked in arrival order, at its HCA.
fn flood(msgs: usize, pace: SimDuration) -> Script {
    let ping = Msg::of(0).after(SimDuration::from_micros(10));
    Script::plain(vec![SMALL.after(pace); msgs]).pings(vec![ping; 12])
}

#[test]
fn fin_does_not_overtake_held_messages() {
    assert!(run_script(&flood(400, SimDuration::from_nanos(300))).0 > 0);
}

#[test]
fn fin_does_not_overtake_held_messages_unpaced() {
    assert!(run_script(&flood(4000, SimDuration::ZERO)).0 > 0);
}

/// Three 4000-byte messages become ready to send in the same instant,
/// behind a backed-up queue. Two fit one 8 KB network buffer; the third
/// would overflow it, so the two are posted and it starts a new buffer.
#[test]
fn a_message_that_would_overflow_the_buffer_starts_a_new_one() {
    let mut posted = Msg::of(4000);
    posted.post = true;
    assert_eq!(run_script(&Script::backed_up(vec![posted; 3])).0, 1);
}

#[test]
fn close_posts_what_is_held() {
    let tally = run_script(&Script::backed_up(vec![SMALL; 3]).ending(Ending::Close));
    assert_eq!(tally, (2, 0, 0, 0));
}

/// A close while the peer still reads a rendezvous source keeps the
/// endpoint until the Fin: the read completes, and the held messages
/// posted behind the request arrive too. Were the source released at the
/// close, the read would fail, losing the message and ending the peer's
/// endpoint before the eager messages still on their way arrived.
#[test]
fn close_lets_the_peer_finish_reading() {
    let msgs = vec![SMALL, Msg::of(64 << 10), SMALL, SMALL, SMALL];
    let tally = run_script(&Script::backed_up(msgs).ending(Ending::Close));
    assert_eq!(tally, (2, 0, 0, 0));
}

#[test]
fn dropping_the_runtime_posts_what_is_held() {
    let tally = run_script(&Script::backed_up(vec![SMALL; 5]).ending(Ending::DropRuntime));
    assert_eq!(tally, (4, 0, 0, 0));
}

#[test]
fn shutdown_discards_what_is_held_and_counts_it() {
    let s = Script::backed_up(vec![SMALL.origin(); 3]).ending(Ending::SenderShutdown);
    assert_eq!(run_script(&s), (0, 3, 3, 0));
}

/// The peer dies mid-drain. Sends accepted from then on go out behind the
/// still-succeeding completions and are doomed; 100 µs later the queue is
/// quiet but not empty, and three more are held behind the doomed sends
/// until their error completion finds them.
#[test]
fn endpoint_failure_discards_what_is_held_and_counts_it() {
    let mut msgs = vec![SMALL; 10];
    msgs.extend([SMALL.origin(); 3]);
    msgs[10].pace = SimDuration::from_micros(100);
    let tally = run_script(&Script::backed_up(msgs).ending(Ending::PeerShutdown(0)));
    assert!(tally.2 == 3 && tally.1 >= 13, "{tally:?}");
}

/// The peer dies while some 150 work requests of the backed-up queue are
/// in flight: each fails and counts, and only the first ends the endpoint
/// and raises a fault.
#[test]
fn an_endpoint_ends_once_however_many_sends_it_strands() {
    let tally = run_script(&Script::backed_up(vec![SMALL]).ending(Ending::PeerShutdown(0)));
    assert!(tally.1 >= 99, "{tally:?}");
}

/// The peer dies while a sender's queue is backed up behind its own 8 KB
/// messages, so the messages after them are held and go out together in
/// one work request, which fails: each message it carried counts in
/// `send_failures`, not the work request once.
#[test]
fn a_failed_batch_counts_each_of_its_messages() {
    let mut s = Script::plain([0, 8128, 8187, 4, 8188, 4].map(Msg::of).to_vec());
    (s.msgs[3].post, s.msgs[4].post) = (true, true);
    (s.seed, s.cluster_b, s.senders) = (440, true, 2);
    assert_eq!(run_script(&s.ending(Ending::PeerShutdown(3))).0, 1);
}

/// Four senders flood one receiver with 8 KB eager messages, 300 in all.
/// The link delivers one every 4 µs; the receiver's progress engine
/// spends 12 µs staging each off its network buffer, so it falls further
/// behind than the 128 buffers on its SRQ (by 15 messages at the end).
/// The overflow waits at the HCA and is handed the buffers the engine
/// re-posts, oldest first. (The SRQ used to pool those buffers instead,
/// stranding the 15 and letting later arrivals overtake them.)
#[test]
fn a_receiver_far_behind_its_buffer_pool_loses_and_reorders_nothing() {
    let mut s = Script::plain(vec![Msg::of(8188); 75]);
    s.senders = 4;
    run_script(&s);
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

/// An end whose own sends complete fast still holds behind its in-flight
/// send while the peer says it is backed up — the bottleneck may be one
/// only the peer can see — and stops as soon as the peer says otherwise.
/// The sender backs up and, once drained, sends an empty message, whose
/// packet still says "backed up" (the last completion reaped was one of
/// the burst's slow ones); then, if it recovers, a small one, which takes
/// the word back. Then the receiver answers five times back to back.
#[test]
fn a_backed_up_peer_makes_this_end_hold_too() {
    let (ms, empty) = (SimDuration::from_millis, Msg::of(0));
    let answers = [vec![empty.after(ms(3))], vec![empty; 4]].concat();
    let drained = empty.after(ms(1));
    // First answer posted, the other four share the next work request.
    for (msgs, coalesced) in [(vec![drained], 3), (vec![drained, SMALL.after(ms(1))], 0)] {
        let s = Script::backed_up(msgs).pings(answers.clone());
        assert_eq!(run_script(&s).3, coalesced);
    }
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

/// `shutdown` ends every progress task and the rendezvous sender, and so
/// does dropping the last handle of a runtime that was never shut down;
/// either way nothing of it stays scheduled. A runtime runs one task per
/// context and the sender.
#[test]
fn shutdown_or_the_last_handle_going_ends_every_progress_task() {
    let (cluster, fabric) = world(false, 3);
    let sim = cluster.sim().clone();
    let (idle_tasks, idle_events) = (sim.live_tasks(), sim.pending_events());
    let a = UcrRuntime::with_contexts(&fabric, NodeId(0), 4);
    let b = UcrRuntime::with_contexts(&fabric, NodeId(1), 3);
    assert_eq!(sim.live_tasks(), idle_tasks + 9);
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
    assert_eq!(sim.live_tasks(), idle_tasks + 9);

    a.shutdown();
    sim.run();
    assert_eq!(sim.live_tasks(), idle_tasks + 4, "a's five tasks ended");
    drop(b);
    sim.run();
    assert_eq!(sim.live_tasks(), idle_tasks, "b's four tasks ended");
    assert_eq!(sim.pending_events(), idle_events);
}

mod hostile_bytes {
    use super::*;
    use simnet::{check_cases, SimRng};
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
            let qp = verbs::connect(&hca, &pd, &cq, &cq, None, NodeId(1), PORT, WAIT)
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
    fn assert_within(wire_len: usize, seen: &Delivered) {
        assert!(
            seen.bytes + seen.msgs * PACKET_HEADER_BYTES <= wire_len,
            "{} messages / {} bytes delivered out of a {wire_len}-byte buffer",
            seen.msgs,
            seen.bytes
        );
    }

    /// Arbitrary bytes, biased towards plausible headers (a valid
    /// kind byte, a registered msg_id): never a panic, never more
    /// delivered than arrived.
    #[test]
    fn arbitrary_bytes_never_over_deliver() {
        let draw = |r: &mut SimRng| {
            let wire = r.vec_of(0..600, |r| r.next_u64() as u8);
            let kind = r.gen_range_u64(0, 5) as u8;
            (wire, kind, r.gen_range_u64(0, 6) as u16)
        };
        check_cases(
            "arbitrary_bytes_never_over_deliver",
            64,
            draw,
            |(wire, kind, msg_id)| {
                let mut wire = wire.clone();
                if wire.len() >= 4 {
                    wire[0] = *kind;
                    wire[2..4].copy_from_slice(&msg_id.to_le_bytes());
                }
                let len = wire.len();
                let (seen, _) = receive_raw(wire);
                assert_within(len, &seen);
            },
        );
    }

    /// A well-formed multi-packet buffer with one length field
    /// overwritten or its tail cut: the packets ahead of the damage
    /// are delivered, nothing past the end is, and a damaged
    /// remainder is counted.
    #[test]
    fn mutated_multi_packet_buffers_never_over_deliver() {
        let draw = |r: &mut SimRng| {
            let parts = r.vec_of(1..6, |r| {
                let msg_id = r.gen_range_u64(0, 4) as u16;
                let hdr = r.gen_range_u64(0, 40) as usize;
                (msg_id, hdr, r.gen_range_u64(0, 300) as usize)
            });
            let (victim, field) = (r.gen_range_u64(0, 6) as usize, r.gen_range_u64(0, 3));
            let (value, cut) = (r.next_u64(), r.gen_range_u64(0, 80) as usize);
            (parts, victim, field, value, cut)
        };
        check_cases(
            "mutated_multi_packet_buffers_never_over_deliver",
            64,
            draw,
            |(parts, victim, field, value, cut)| {
                let mut wire = Vec::new();
                let mut starts = Vec::new();
                for (msg_id, hdr, data) in parts {
                    starts.push(wire.len());
                    wire.extend(eager_packet(*msg_id, &vec![0xaa; *hdr], &vec![0xbb; *data]));
                }
                let intact = wire.clone();
                let at = starts[victim % starts.len()];
                match field {
                    0 => wire[at + 4..at + 8].copy_from_slice(&(*value as u32).to_le_bytes()),
                    1 => wire[at + 8..at + 16].copy_from_slice(&value.to_le_bytes()),
                    _ => wire.truncate(wire.len().saturating_sub(*cut)),
                }
                let len = wire.len();
                let damaged = wire != intact;
                let (seen, dropped) = receive_raw(wire);
                assert_within(len, &seen);
                if damaged {
                    assert!(seen.msgs < parts.len() || dropped > 0);
                } else {
                    assert_eq!(seen.msgs, parts.len());
                    assert_eq!(dropped, 0);
                }
            },
        );
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

// ---------------------------------------------------------------------
// Replies posted from handlers: the order they reach the wire
// ---------------------------------------------------------------------

const FAN: u16 = 3;

/// What one burst of handler replies left on the wire: the server's send
/// events (name, endpoint track, work request, instant in ns) in emission
/// order, and the tags the client's handler saw, in arrival order.
type WireOrder = (Vec<(&'static str, String, u64, u64)>, Vec<String>);

/// A client with two connections to a server whose FAN handler, on the
/// first message, posts 64 KB (rendezvous) and 16 B (eager) replies across
/// both of its endpoints in one instant, with a task of its own spawned
/// between two of the posts.
fn fan_out_order() -> WireOrder {
    const BIG: usize = 64 << 10;
    let (cluster, fabric) = world(true, 2);
    let recorder = EventRecorder::new();
    cluster.tracer().add_sink(recorder.clone());
    let server = UcrRuntime::new(&fabric, NodeId(1));
    let client = UcrRuntime::new(&fabric, NodeId(0));
    let accepted: Rc<RefCell<Vec<Endpoint>>> = Rc::default();
    let eps = accepted.clone();
    let sim = server.sim();
    server.register_handler(
        FAN,
        FnHandler(move |_: &Endpoint, _: &[u8], _: AmData| {
            let eps = eps.borrow();
            let (a, b) = (&eps[0], &eps[1]);
            let big = |fill: u8| vec![fill; BIG];
            let none = SendOptions::default;
            a.post_message(SINK, b"a0", &big(1)[..], none());
            a.post_message(SINK, b"a1", &[2u8; 16][..], none());
            b.post_message(SINK, b"b0", big(3), none());
            let own = b.clone();
            let data = big(4);
            sim.spawn(async move {
                let sent = own.send_message(SINK, b"t0", &data, SendOptions::default());
                sent.await.unwrap();
            });
            b.post_message(SINK, b"b1", &[5u8; 16][..], none());
            a.post_message(SINK, b"a2", &big(6)[..], none());
            b.post_message(SINK, b"b2", &big(7)[..], none());
            a.post_message(SINK, b"a3", &[8u8; 16][..], none());
        }),
    );
    let listener = server.listen(PORT).unwrap();
    cluster.sim().spawn(async move {
        while let Ok(ep) = listener.accept().await {
            accepted.borrow_mut().push(ep);
        }
    });
    let seen: Rc<RefCell<Vec<String>>> = Rc::default();
    let seen2 = seen.clone();
    client.register_handler(
        SINK,
        FnHandler(move |ep: &Endpoint, hdr: &[u8], data: AmData| {
            let tag = String::from_utf8_lossy(hdr);
            seen2
                .borrow_mut()
                .push(format!("{tag}@{} {}", ep.id(), data.len()));
        }),
    );
    let sim = cluster.sim().clone();
    cluster.sim().block_on(async move {
        let first = connect(&client).await;
        let _second = connect(&client).await;
        first
            .send_message(FAN, b"go", b"", SendOptions::default())
            .await
            .unwrap();
        sim.sleep(SimDuration::from_millis(1)).await;
    });
    let sends = recorder
        .events()
        .into_iter()
        .filter(|e| e.node == Some(NodeId(1)) && e.name.starts_with("am_send"))
        .map(|e| (e.name, format!("{:?}", e.track), e.op, e.at.as_nanos()))
        .collect();
    let seen = seen.borrow().clone();
    (sends, seen)
}

/// Rendezvous replies go out in the instant they are posted, in post
/// order and interleaved with whatever the handler spawned between them;
/// eager ones once their staging delay has passed. This is the order a
/// task spawned per rendezvous reply gave them, recorded at that design
/// and held here: same work request ids, same instants, same arrivals.
#[test]
fn handler_replies_reach_the_wire_in_post_order() {
    let (sends, seen) = fan_out_order();
    let (a, b) = ("Endpoint(1)", "Endpoint(2)");
    let want = [
        ("am_send_rndv", a, 130, 23_720),
        ("am_send_rndv", b, 131, 23_720),
        ("am_send_rndv", b, 132, 23_720),
        ("am_send_rndv", a, 133, 23_720),
        ("am_send_rndv", b, 134, 23_720),
        ("am_send_eager", a, 135, 23_734),
        ("am_send_eager", b, 136, 23_734),
        ("am_send_eager", a, 137, 23_734),
    ];
    let sends: Vec<_> = sends
        .iter()
        .map(|(name, track, wr, at)| (*name, track.as_str(), *wr, *at))
        .collect();
    assert_eq!(sends, want);
    let arrivals = [
        "a1@1 16",
        "b1@2 16",
        "a3@1 16",
        "a0@1 65536",
        "b0@2 65536",
        "t0@2 65536",
        "a2@1 65536",
        "b2@2 65536",
    ];
    assert_eq!(seen, arrivals);
}
