//! Integration tests for the verbs layer: SEND/RECV, RDMA read/write,
//! access control, SRQ fan-in, UD semantics, the connection manager, and
//! failure behaviour.

use std::cell::Cell;
use std::rc::Rc;

use simnet::{Cluster, NodeId, SimDuration, SimTime};
use verbs::{
    connect, Access, Cq, Hca, IbFabric, Pd, QpType, QueuePair, SendOp, SendWr, Srq, VerbsError,
    WcOpcode, WcStatus, DEFAULT_CONNECT_TIMEOUT, IDLE_MR_RECORDS,
};

struct Side {
    hca: Hca,
    pd: Pd,
    cq: Cq,
}

fn pair(cluster_b: bool) -> (Rc<Cluster>, Side, Side) {
    let cluster = Rc::new(if cluster_b {
        Cluster::cluster_b(11, 4)
    } else {
        Cluster::cluster_a(11, 4)
    });
    let fabric = IbFabric::new(cluster.clone());
    let mk = |n: u32| {
        let hca = fabric.open(NodeId(n));
        let pd = hca.alloc_pd();
        let cq = hca.create_cq();
        Side { hca, pd, cq }
    };
    (cluster, mk(0), mk(1))
}

fn connected_qps(a: &Side, b: &Side) -> (QueuePair, QueuePair) {
    let qa = a.pd.create_qp(QpType::Rc, &a.cq, &a.cq, None);
    let qb = b.pd.create_qp(QpType::Rc, &b.cq, &b.cq, None);
    qa.connect_to(b.hca.node(), qb.qpn()).unwrap();
    qb.connect_to(a.hca.node(), qa.qpn()).unwrap();
    (qa, qb)
}

#[test]
fn message_larger_than_recv_buffer_errors() {
    let (cluster, a, b) = pair(false);
    let (qa, qb) = connected_qps(&a, &b);
    let small = b.pd.register(4, Access::LOCAL_WRITE);
    qb.post_recv(1, small.full());
    qa.post_send(SendWr::new(
        2,
        SendOp::SendInline {
            data: vec![0u8; 100],
            imm: None,
        },
    ))
    .unwrap();
    let bcq = b.cq.clone();
    let wc = cluster.sim().block_on(async move { bcq.next().await });
    assert_eq!(wc.status, WcStatus::LocalLengthError);
}

#[test]
fn pd_mismatch_is_rejected_synchronously() {
    let (_cluster, a, b) = pair(false);
    let (qa, _qb) = connected_qps(&a, &b);
    let other_pd = a.hca.alloc_pd();
    let foreign = other_pd.register(16, Access::default());
    let err = qa
        .post_send(SendWr::new(
            1,
            SendOp::Send {
                local: foreign.full(),
                imm: None,
            },
        ))
        .unwrap_err();
    assert!(matches!(err, VerbsError::AccessViolation(_)));
}

#[test]
fn srq_fans_in_many_qps() {
    let (cluster, a, b) = pair(false);
    let fabric = IbFabric::new(cluster.clone());
    let _ = fabric; // sides already built on their own fabric view
    let srq = Srq::new();
    // Four receive buffers in the shared pool.
    let bufs: Vec<_> = (0..4)
        .map(|i| {
            let mr = b.pd.register(64, Access::LOCAL_WRITE);
            srq.post_recv(100 + i, mr.full());
            mr
        })
        .collect();

    // Two client QPs share the server's SRQ-backed QPs.
    let mut client_qps = Vec::new();
    for _ in 0..2 {
        let qa = a.pd.create_qp(QpType::Rc, &a.cq, &a.cq, None);
        let qb = b.pd.create_qp(QpType::Rc, &b.cq, &b.cq, Some(&srq));
        qa.connect_to(b.hca.node(), qb.qpn()).unwrap();
        qb.connect_to(a.hca.node(), qa.qpn()).unwrap();
        client_qps.push((qa, qb));
    }

    for (i, (qa, _)) in client_qps.iter().enumerate() {
        qa.post_send(SendWr::new(
            i as u64,
            SendOp::SendInline {
                data: vec![i as u8; 8],
                imm: None,
            },
        ))
        .unwrap();
    }

    let bcq = b.cq.clone();
    let (wc1, wc2) = cluster.sim().block_on(async move {
        let w1 = bcq.next().await;
        let w2 = bcq.next().await;
        (w1, w2)
    });
    assert!(wc1.status.is_ok() && wc2.status.is_ok());
    // Both consumed SRQ buffers, in order.
    assert_eq!(wc1.wr_id, 100);
    assert_eq!(wc2.wr_id, 101);
    // Completions identify the arrival QP.
    assert_ne!(wc1.qp_num, wc2.qp_num);
    assert_eq!(srq.available(), 2);
    drop(bufs);
}

/// Five sends to one QP complete in send order, whoever posts their
/// buffers. Stocked with two and no limit handler, three messages park in
/// the SRQ — a shared one, or the private one of a QP created without — and
/// each buffer posted afterwards goes to the oldest parked message. Empty,
/// with a handler that posts one buffer per limit event, every arrival takes
/// the buffer its event posted and none parks. A QP closed with messages
/// parked loses them: the buffers posted afterwards complete nothing.
#[test]
fn srq_delivers_parked_messages_in_arrival_order() {
    for (shared, posts_on_limit, closes) in [
        (true, false, false),
        (true, true, false),
        (false, false, false),
        (false, false, true),
    ] {
        let (cluster, a, b) = pair(false);
        // The handler holds the SRQ weakly, as its owner's would.
        let srq = Rc::new(Srq::new());
        let bufs: Rc<Vec<_>> = Rc::new(
            (0..5)
                .map(|_| b.pd.register(64, Access::LOCAL_WRITE))
                .collect(),
        );
        let events = Rc::new(Cell::new(0usize));
        let up_front = if posts_on_limit {
            let (weak, bufs, events) = (Rc::downgrade(&srq), bufs.clone(), events.clone());
            srq.set_limit_handler(move || {
                let i = events.get();
                events.set(i + 1);
                if let Some(srq) = weak.upgrade() {
                    srq.post_recv(i as u64, bufs[i].full());
                }
            });
            0
        } else {
            2
        };
        let qa = a.pd.create_qp(QpType::Rc, &a.cq, &a.cq, None);
        let qb =
            b.pd.create_qp(QpType::Rc, &b.cq, &b.cq, shared.then_some(&*srq));
        qa.connect_to(b.hca.node(), qb.qpn()).unwrap();
        qb.connect_to(a.hca.node(), qa.qpn()).unwrap();
        let post = |i: usize, mr: &verbs::Mr| match shared {
            true => srq.post_recv(i as u64, mr.full()),
            false => qb.post_recv(i as u64, mr.full()),
        };
        for (i, mr) in bufs.iter().take(up_front).enumerate() {
            post(i, mr);
        }
        let send = |i: u8| {
            let data = vec![i; 8];
            let wr = SendWr::new(i as u64, SendOp::SendInline { data, imm: None });
            qa.post_send(wr).unwrap();
        };
        (0..5).for_each(send);
        cluster.sim().run();
        if posts_on_limit {
            // Everything has arrived, each on a buffer its event posted.
            assert_eq!(events.get(), 5, "one limit event per arrival");
            assert_eq!(b.cq.backlog(), 5, "none parked");
        } else {
            // Everything has arrived: two completed, three parked, pool
            // empty.
            assert_eq!(b.cq.backlog(), 2);
            assert!(!shared || srq.available() == 0);
            if closes {
                qb.close();
                for (i, mr) in bufs.iter().enumerate().skip(2) {
                    post(i, mr);
                }
                assert_eq!(
                    b.cq.backlog(),
                    2,
                    "a closed QP's parked messages are skipped"
                );
                continue;
            }
            for (i, mr) in bufs.iter().enumerate().skip(2) {
                post(i, mr);
                assert_eq!(b.cq.backlog(), i + 1, "buffer {i} went to a parked message");
            }
        }
        assert!(!shared || srq.available() == 0);
        for (i, mr) in bufs.iter().enumerate() {
            let wc = b.cq.poll().expect("five receive completions");
            assert!(wc.status.is_ok());
            assert_eq!(wc.wr_id, i as u64);
            assert_eq!(mr.bytes()[..8], [i as u8; 8], "message {i} out of order");
        }
        // Nothing left parked: the next buffer joins the pool, and the
        // next message takes it.
        post(9, &bufs[0]);
        assert!(!shared || srq.available() == 1);
        send(5);
        cluster.sim().run();
        assert_eq!(b.cq.poll().map(|wc| wc.wr_id), Some(9));
    }
}

#[test]
fn ud_send_completes_locally_and_can_drop() {
    let (cluster, a, b) = pair(false);
    let qa = a.pd.create_qp(QpType::Ud, &a.cq, &a.cq, None);
    let qb = b.pd.create_qp(QpType::Ud, &b.cq, &b.cq, None);

    // No receive posted at b: datagram is dropped, sender still completes.
    let mut wr = SendWr::new(
        1,
        SendOp::SendInline {
            data: b"dgram".to_vec(),
            imm: None,
        },
    );
    wr.ud_dest = Some((b.hca.node(), qb.qpn()));
    qa.post_send(wr).unwrap();

    let acq = a.cq.clone();
    let wc = cluster.sim().block_on(async move { acq.next().await });
    assert!(wc.status.is_ok());
    cluster.sim().run();
    assert_eq!(b.cq.backlog(), 0, "dropped datagram must not complete");

    // With a receive posted it is delivered.
    let dst = b.pd.register(64, Access::LOCAL_WRITE);
    qb.post_recv(3, dst.full());
    let mut wr = SendWr::new(
        2,
        SendOp::SendInline {
            data: b"dgram2".to_vec(),
            imm: None,
        },
    );
    wr.ud_dest = Some((b.hca.node(), qb.qpn()));
    qa.post_send(wr).unwrap();
    let bcq = b.cq.clone();
    let wc = cluster.sim().block_on(async move { bcq.next().await });
    assert_eq!(wc.wr_id, 3);
    assert_eq!(dst.read_at(0, 6), b"dgram2");

    // An empty SRQ whose limit event posts a receive: delivered, not
    // dropped.
    let srq = Rc::new(Srq::new());
    let (weak, landing) = (Rc::downgrade(&srq), dst.full());
    srq.set_limit_handler(move || {
        if let Some(srq) = weak.upgrade() {
            srq.post_recv(4, landing.clone());
        }
    });
    let qs = b.pd.create_qp(QpType::Ud, &b.cq, &b.cq, Some(&srq));
    let mut wr = SendWr::new(
        3,
        SendOp::SendInline {
            data: b"dgram3".to_vec(),
            imm: None,
        },
    );
    wr.ud_dest = Some((b.hca.node(), qs.qpn()));
    qa.post_send(wr).unwrap();
    let bcq = b.cq.clone();
    let wc = cluster.sim().block_on(async move { bcq.next().await });
    assert_eq!((wc.wr_id, wc.qp_num), (4, qs.qpn()));
    assert_eq!(dst.read_at(0, 6), b"dgram3");
}

#[test]
fn ud_payload_capped_at_mtu() {
    let (cluster, a, b) = pair(false);
    let qa = a.pd.create_qp(QpType::Ud, &a.cq, &a.cq, None);
    let mtu = cluster.profile().ib.mtu as usize;
    let mut wr = SendWr::new(
        1,
        SendOp::SendInline {
            data: vec![0u8; mtu + 1],
            imm: None,
        },
    );
    wr.ud_dest = Some((b.hca.node(), 1));
    assert!(matches!(
        qa.post_send(wr),
        Err(VerbsError::AccessViolation(_))
    ));
}

#[test]
fn cm_handshake_connects_both_sides() {
    let (cluster, a, b) = pair(false);
    let listener = b.hca.listen(4000).unwrap();
    let sim = cluster.sim().clone();

    // Server side: accept then echo-receive.
    let bcq = b.cq.clone();
    let b_pd = b.pd;
    let b_hca = b.hca.clone();
    let server = sim.spawn(async move {
        let b_cq2 = b_hca.create_cq();
        let _ = b_cq2;
        let qp = listener.accept(&b_pd, &bcq, &bcq, None).await.unwrap();
        let mr = b_pd.register(64, Access::LOCAL_WRITE);
        qp.post_recv(1, mr.full());
        let wc = bcq.next().await;
        (wc, mr.read_at(0, 5))
    });

    let a_pd = a.pd;
    let a_cq = a.cq.clone();
    let a_hca = a.hca.clone();
    let dstn = b.hca.node();
    let client = sim.spawn(async move {
        let qp = connect(
            &a_hca,
            &a_pd,
            &a_cq,
            &a_cq,
            None,
            dstn,
            4000,
            DEFAULT_CONNECT_TIMEOUT,
        )
        .await
        .unwrap();
        qp.post_send(SendWr::new(
            1,
            SendOp::SendInline {
                data: b"hello".to_vec(),
                imm: None,
            },
        ))
        .unwrap();
        a_cq.next().await
    });

    let ((wc_srv, data), wc_cli) = sim.block_on(async move { (server.await, client.await) });
    assert!(wc_srv.status.is_ok());
    assert!(wc_cli.status.is_ok());
    assert_eq!(data, b"hello");
}

#[test]
fn connect_to_missing_listener_is_refused() {
    let (cluster, a, b) = pair(false);
    // Open b's HCA so the node is routable but has no listener on the port.
    let _ = &b;
    let sim = cluster.sim().clone();
    let a_pd = a.pd;
    let a_cq = a.cq.clone();
    let a_hca = a.hca.clone();
    let dstn = b.hca.node();
    let err = sim.block_on(async move {
        connect(
            &a_hca,
            &a_pd,
            &a_cq,
            &a_cq,
            None,
            dstn,
            4999,
            DEFAULT_CONNECT_TIMEOUT,
        )
        .await
        .unwrap_err()
    });
    assert_eq!(err, VerbsError::ConnectionRefused);
}

#[test]
fn timing_qdr_send_is_faster_than_ddr() {
    fn one_way(cluster_b: bool, bytes: usize) -> SimDuration {
        let (cluster, a, b) = pair(cluster_b);
        let (qa, qb) = connected_qps(&a, &b);
        let dst = b.pd.register(bytes.max(1), Access::LOCAL_WRITE);
        qb.post_recv(1, dst.full());
        let t0 = cluster.sim().now();
        qa.post_send(SendWr::new(
            1,
            SendOp::SendInline {
                data: vec![0u8; bytes],
                imm: None,
            },
        ))
        .unwrap();
        let bcq = b.cq.clone();
        cluster.sim().block_on(async move {
            bcq.next().await;
        });
        cluster.sim().now() - t0
    }
    let ddr = one_way(false, 4096);
    let qdr = one_way(true, 4096);
    assert!(qdr < ddr, "QDR {qdr} should beat DDR {ddr}");
    // Small verbs message should be in the 1-3 us band the paper quotes
    // for verbs-level one-way latency.
    let small = one_way(true, 8);
    assert!(
        small.as_micros_f64() > 0.5 && small.as_micros_f64() < 3.0,
        "one-way small verbs latency {small} outside the expected band"
    );
}

// ---------------------------------------------------------------------
// Additional coverage: state machine, addressing, error paths
// ---------------------------------------------------------------------

#[test]
fn rc_qp_state_machine_is_enforced() {
    let (_cluster, a, b) = pair(false);
    let qa = a.pd.create_qp(QpType::Rc, &a.cq, &a.cq, None);
    // Send before connect: invalid state.
    let err = qa
        .post_send(SendWr::new(
            1,
            SendOp::SendInline {
                data: b"x".to_vec(),
                imm: None,
            },
        ))
        .unwrap_err();
    assert!(matches!(err, VerbsError::InvalidState(_)));
    // Double connect: invalid.
    qa.connect_to(b.hca.node(), 99).unwrap();
    assert!(qa.connect_to(b.hca.node(), 100).is_err());
    // Connected, it takes work; closed, it refuses it.
    let inline = |wr_id| {
        let data = b"x".to_vec();
        SendWr::new(wr_id, SendOp::SendInline { data, imm: None })
    };
    qa.post_send(inline(2)).unwrap();
    qa.close();
    let err = qa.post_send(inline(3)).unwrap_err();
    assert!(matches!(err, VerbsError::InvalidState(_)));
    // UD QPs cannot use connect_to.
    let qu = a.pd.create_qp(QpType::Ud, &a.cq, &a.cq, None);
    assert!(qu.connect_to(b.hca.node(), 1).is_err());
}

#[test]
fn recv_completions_carry_source_addressing() {
    let (cluster, a, b) = pair(false);
    let (qa, qb) = connected_qps(&a, &b);
    let mr = b.pd.register(64, Access::LOCAL_WRITE);
    qb.post_recv(1, mr.full());
    qa.post_send(SendWr::new(
        2,
        SendOp::SendInline {
            data: b"hi".to_vec(),
            imm: None,
        },
    ))
    .unwrap();
    let bcq = b.cq.clone();
    let wc = cluster.sim().block_on(async move { bcq.next().await });
    assert_eq!(wc.src, Some((a.hca.node(), qa.qpn())));
    assert_eq!(wc.qp_num, qb.qpn());
}

#[test]
fn rdma_write_exceeding_window_fails_synchronously() {
    let (_cluster, a, b) = pair(false);
    let (qa, _qb) = connected_qps(&a, &b);
    let target =
        b.pd.register(64, Access::LOCAL_WRITE | Access::REMOTE_WRITE);
    let src = a.pd.register(128, Access::default());
    let err = qa
        .post_send(SendWr::new(
            1,
            SendOp::RdmaWrite {
                local: src.full(),
                remote: target.remote(0, 64), // 128 bytes into a 64-byte window
                imm: None,
            },
        ))
        .unwrap_err();
    assert!(matches!(err, VerbsError::AccessViolation(_)));
}

#[test]
fn listener_port_collision_and_release() {
    let (_cluster, a, _b) = pair(false);
    let l1 = a.hca.listen(7000).unwrap();
    assert!(a.hca.listen(7000).is_err(), "port must be exclusive");
    drop(l1);
    // Dropping the listener frees the port.
    assert!(a.hca.listen(7000).is_ok());
}

/// A kill closes the adapter's listeners: a parked accept returns, and
/// once revived the port binds again. The listener from before the kill,
/// dropped after its successor bound the port, leaves the successor alone.
#[test]
fn a_killed_adapter_frees_its_ports_for_its_revival() {
    let (cluster, a, _b) = pair(false);
    let old = a.hca.listen(7000).unwrap();
    a.hca.kill();
    a.hca.revive();
    let new = a.hca.listen(7000).unwrap();
    let (pd, cq) = (a.pd, a.cq.clone());
    let accepted = cluster
        .sim()
        .block_on(async move { old.accept(&pd, &cq, &cq, None).await.is_ok() });
    assert!(!accepted, "the kill closed the listener");
    assert!(
        a.hca.listen(7000).is_err(),
        "the new listener kept its port"
    );
    drop(new);
    assert!(a.hca.listen(7000).is_ok());
}

#[test]
fn messages_on_one_qp_arrive_in_order() {
    let (cluster, a, b) = pair(true);
    let (qa, qb) = connected_qps(&a, &b);
    let mut bufs = Vec::new();
    for i in 0..16u64 {
        let mr = b.pd.register(16, Access::LOCAL_WRITE);
        qb.post_recv(i, mr.full());
        bufs.push(mr);
    }
    for i in 0..16u8 {
        qa.post_send(SendWr::new(
            100 + i as u64,
            SendOp::SendInline {
                data: vec![i; 8],
                imm: None,
            },
        ))
        .unwrap();
    }
    let bcq = b.cq.clone();
    let order = cluster.sim().block_on(async move {
        let mut got = Vec::new();
        for _ in 0..16 {
            got.push(bcq.next().await.wr_id);
        }
        got
    });
    assert_eq!(order, (0..16u64).collect::<Vec<_>>(), "RC is ordered");
    for (i, mr) in bufs.iter().enumerate() {
        assert_eq!(mr.read_at(0, 8), vec![i as u8; 8]);
    }
}

#[test]
fn mr_register_with_initial_data_and_bounds() {
    let (_cluster, a, _b) = pair(false);
    let mr = a.pd.register_with(vec![1, 2, 3, 4], Access::REMOTE_READ);
    assert_eq!(mr.len(), 4);
    assert!(!mr.is_empty());
    assert_eq!(mr.read_at(1, 2), vec![2, 3]);
    mr.write_at(0, &[9]);
    assert_eq!(mr.read_at(0, 1), vec![9]);
    let slice = mr.slice(1, 3);
    assert_eq!(slice.len(), 3);
    assert_eq!(slice.read(2), vec![2, 3]);
}

#[test]
#[should_panic(expected = "slice out of bounds")]
fn mr_slice_bounds_checked() {
    let (_cluster, a, _b) = pair(false);
    let mr = a.pd.register(8, Access::default());
    let _ = mr.slice(4, 8);
}

// ---------------------------------------------------------------------
// Characterization: every opcode under every fault
// ---------------------------------------------------------------------

/// What one posted work request leaves behind: the sender's completion,
/// the target's (with the immediate it carries), and whether the payload
/// reached the target's memory — each completion with the instant it
/// landed on its queue.
#[derive(Debug, PartialEq)]
struct Outcome {
    send: Option<(WcOpcode, WcStatus, u32, SimTime)>,
    recv: Option<(WcOpcode, WcStatus, u32, Option<u32>, SimTime)>,
    landed: bool,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Op {
    Send,
    /// A registered SEND carrying [`SEND_IMM`].
    SendImm,
    Inline,
    Write,
    /// An RDMA WRITE carrying [`WRITE_IMM`].
    WriteImm,
    Read,
    UdSend,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Fault {
    /// The peer stays up.
    None,
    /// The target queue pair closes while the message is on the wire.
    QpClosed,
    /// The target adapter dies while the message is on the wire.
    HcaKilled,
    /// The target adapter dies after the message reached it and before
    /// its pipeline is done with it.
    HcaKilledAtTarget,
    /// The remote key names no registered region (one-sided opcodes).
    BadRkey,
    /// The remote key names a region deregistered before the post.
    Deregistered,
    /// The remote key names a region deregistered before the post, whose
    /// record a later registration refilled under a fresh key.
    Reused,
    /// The target region grants no remote access (no `REMOTE_READ`, no
    /// `REMOTE_WRITE`).
    NoRemoteRight,
}

/// Payload bytes of every characterized work request.
const LEN: usize = 256;
/// The immediates the characterized SEND and WRITE carry.
const SEND_IMM: u32 = 0xfeed;
const WRITE_IMM: u32 = 77;

/// The stage instants of one uncontended work request posted at time zero
/// on Cluster B, from the profile — the timing model the table states its
/// expectations in.
struct Stages {
    /// The local HCA has the work request: doorbell, then one pipeline slot.
    t_hca: SimTime,
    hca_msg: SimDuration,
    rdma_target: SimDuration,
    /// One-way propagation: also what an ack or a NAK takes to come back.
    prop: SimDuration,
    net: Rc<simnet::Network>,
}

impl Stages {
    fn of(cluster: &Cluster) -> Stages {
        let v = cluster.profile().verbs;
        Stages {
            t_hca: SimTime::ZERO + v.post_overhead + v.hca_msg,
            hca_msg: v.hca_msg,
            rdma_target: v.rdma_target,
            prop: cluster.ib().propagation(),
            net: cluster.ib().clone(),
        }
    }

    /// When a message of `wire` bytes leaving at `from` has arrived.
    fn arrives(&self, from: SimTime, wire: u64) -> SimTime {
        from + self.net.ser_time(wire) + self.prop
    }
}

/// Posts one `op` from node 0 to node 1 at time zero, injects `fault`,
/// runs the world dry and reports what landed where and when. The target's
/// window starts `at` bytes into its region.
fn characterize(op: Op, fault: Fault, at: usize) -> Outcome {
    let (cluster, a, b) = pair(true);
    let sim = cluster.sim().clone();
    let recorder = simnet::EventRecorder::new();
    cluster.tracer().add_sink(recorder.clone());
    let st = Stages::of(&cluster);

    let ty = if op == Op::UdSend {
        QpType::Ud
    } else {
        QpType::Rc
    };
    let qa = a.pd.create_qp(ty, &a.cq, &a.cq, None);
    let qb = b.pd.create_qp(ty, &b.cq, &b.cq, None);
    if ty == QpType::Rc {
        qa.connect_to(b.hca.node(), qb.qpn()).unwrap();
        qb.connect_to(a.hca.node(), qa.qpn()).unwrap();
    }
    let payload: Vec<u8> = (0..LEN).map(|i| i as u8 ^ 0x3c).collect();
    let all = Access::LOCAL_WRITE | Access::REMOTE_READ | Access::REMOTE_WRITE;
    // The target's memory: where a SEND's receive or a WRITE lands, and
    // what a READ pulls from.
    let image = match op {
        Op::Read => image_of(at, &payload),
        _ => vec![0u8; at + LEN],
    };
    let rights = match fault {
        Fault::NoRemoteRight => Access::LOCAL_WRITE,
        _ => all,
    };
    let remote_mr = b.pd.register_with(image, rights);
    let local_mr = match op {
        Op::Read => a.pd.register(LEN, Access::LOCAL_WRITE),
        _ => a.pd.register_with(payload.clone(), Access::default()),
    };
    let notice = b.pd.register(0, Access::LOCAL_WRITE);
    // What a region refilling a deregistered one's record holds: what a
    // READ would pull, or what a WRITE would overwrite.
    let bait = match op {
        Op::Read => image_of(at, &payload),
        _ => vec![0u8; at + LEN],
    };
    let mut reused = None;
    match op {
        Op::Send | Op::SendImm | Op::Inline | Op::UdSend => {
            qb.post_recv(9, remote_mr.slice(at, LEN))
        }
        Op::WriteImm => qb.post_recv(9, notice.full()),
        Op::Write | Op::Read => {}
    }
    let remote = match fault {
        Fault::BadRkey => verbs::RemoteMemory {
            rkey: 0xdead_beef,
            ..remote_mr.remote(at, LEN)
        },
        // The region drops at the end of the statement: deregistered.
        Fault::Deregistered => b.pd.register(at + LEN, all).remote(at, LEN),
        Fault::Reused => {
            let idle = b.hca.idle_region_records();
            let stale = b.pd.register(at + LEN, all).remote(at, LEN);
            assert_eq!(b.hca.idle_region_records(), idle + 1);
            let next = b.pd.register_with(bait.clone(), all);
            assert_eq!(b.hca.idle_region_records(), idle, "the record is reused");
            assert_ne!(next.rkey(), stale.rkey);
            reused = Some(next);
            stale
        }
        _ => remote_mr.remote(at, LEN),
    };
    let imm = match op {
        Op::SendImm => Some(SEND_IMM),
        Op::WriteImm => Some(WRITE_IMM),
        _ => None,
    };
    let (send_op, wire) = match op {
        Op::Send | Op::SendImm => (
            SendOp::Send {
                local: local_mr.full(),
                imm,
            },
            LEN as u64 + verbs::WIRE_HEADER_BYTES,
        ),
        Op::Inline | Op::UdSend => (
            SendOp::SendInline {
                data: payload.clone(),
                imm,
            },
            LEN as u64 + verbs::WIRE_HEADER_BYTES,
        ),
        Op::Write | Op::WriteImm => (
            SendOp::RdmaWrite {
                local: local_mr.full(),
                remote,
                imm,
            },
            LEN as u64 + verbs::WIRE_HEADER_BYTES,
        ),
        Op::Read => (
            SendOp::RdmaRead {
                local: local_mr.full(),
                remote,
            },
            verbs::WIRE_HEADER_BYTES,
        ),
    };
    let wire = wire
        + if op == Op::UdSend {
            verbs::UD_GRH_BYTES
        } else {
            0
        };
    let mut wr = SendWr::new(1, send_op);
    if op == Op::UdSend {
        wr.ud_dest = Some((b.hca.node(), qb.qpn()));
    }
    qa.post_send(wr).unwrap();
    match fault {
        Fault::None
        | Fault::BadRkey
        | Fault::Deregistered
        | Fault::Reused
        | Fault::NoRemoteRight => {}
        Fault::QpClosed => qb.close(),
        Fault::HcaKilled => b.hca.kill(),
        Fault::HcaKilledAtTarget => {
            let hca = b.hca.clone();
            let when = st.arrives(st.t_hca, wire) + SimDuration::from_nanos(1);
            sim.schedule_at(when, move || hca.kill());
        }
    }
    sim.run();
    assert_eq!(sim.pending_events(), 0);

    // A completion is stamped by the trace event emitted as it is pushed.
    let stamp = |node: NodeId, name: &str, wr_id: u64| {
        let events = recorder.events();
        let mut hits = events.iter().filter(|e| {
            e.node == Some(node)
                && e.name == name
                && e.op == wr_id
                && e.phase != simnet::trace::Phase::Begin
        });
        let when = hits.next().expect("a completion leaves a trace event").at;
        assert!(hits.next().is_none(), "one completion per work request");
        when
    };
    let span = match op {
        Op::Write | Op::WriteImm => "rdma_write",
        Op::Read => "rdma_read",
        _ => "send",
    };
    let send = a.cq.poll().map(|wc| {
        assert_eq!(wc.wr_id, 1);
        (
            wc.opcode,
            wc.status,
            wc.byte_len,
            stamp(a.hca.node(), span, 1),
        )
    });
    let recv = b.cq.poll().map(|wc| {
        assert_eq!(wc.wr_id, 9);
        (
            wc.opcode,
            wc.status,
            wc.byte_len,
            wc.imm,
            stamp(b.hca.node(), "recv_complete", 9),
        )
    });
    assert_eq!((a.cq.backlog(), b.cq.backlog()), (0, 0));
    let landed = match op {
        Op::Read => local_mr.read_at(0, LEN) == payload,
        _ => remote_mr.read_at(at, LEN) == payload,
    };
    // An access through a stale key that reached the region now in its
    // record has landed too.
    let touched = reused.is_some_and(|mr| mr.read_at(0, at + LEN) != bait);
    Outcome {
        send,
        recv,
        landed: landed || touched,
    }
}

/// A region of `at` zero bytes followed by `payload`.
fn image_of(at: usize, payload: &[u8]) -> Vec<u8> {
    let mut image = vec![0u8; at];
    image.extend_from_slice(payload);
    image
}

/// One cell of the closure-era behaviour of the verbs data path: which
/// completions `op` under `fault` leaves, with which status, byte count and
/// immediate, and at which instant, stated in the stage model of
/// [`Stages`].
fn expected(op: Op, fault: Fault) -> Outcome {
    use Fault::*;
    use WcStatus::{RemoteAccessError, RetryExceeded, Success};
    let (cluster, _, _) = pair(true);
    let st = Stages::of(&cluster);
    let len = LEN as u32;
    let hdr = verbs::WIRE_HEADER_BYTES;
    let retry = verbs::RETRY_EXCEEDED_DELAY;

    match op {
        Op::Send | Op::SendImm | Op::Inline => {
            let arrive = st.arrives(st.t_hca, LEN as u64 + hdr);
            let deliver = arrive + st.hca_msg;
            let imm = (op == Op::SendImm).then_some(SEND_IMM);
            match fault {
                // Once the target's pipeline has the message it is
                // delivered, and acknowledged one propagation later.
                None | HcaKilledAtTarget => Outcome {
                    send: Some((WcOpcode::Send, Success, len, deliver + st.prop)),
                    recv: Some((WcOpcode::Recv, Success, len, imm, deliver)),
                    landed: true,
                },
                _ => Outcome {
                    send: Some((WcOpcode::Send, RetryExceeded, 0, arrive + retry)),
                    recv: Option::None,
                    landed: false,
                },
            }
        }
        Op::Write | Op::WriteImm => {
            let arrive = st.arrives(st.t_hca, LEN as u64 + hdr);
            let land = arrive + st.rdma_target;
            let opcode = WcOpcode::RdmaWrite;
            // The immediate's receive is the target queue pair's: a
            // closed one drops the notice and the write still lands.
            let notice = (op == Op::WriteImm && fault != QpClosed).then_some((
                WcOpcode::RecvRdmaImm,
                Success,
                0,
                Some(WRITE_IMM),
                land,
            ));
            match fault {
                None | QpClosed | HcaKilledAtTarget => Outcome {
                    send: Some((opcode, Success, len, land + st.prop)),
                    recv: notice,
                    landed: true,
                },
                HcaKilled => Outcome {
                    send: Some((opcode, RetryExceeded, 0, arrive + retry)),
                    recv: Option::None,
                    landed: false,
                },
                // The NAK reports the length the request carried.
                BadRkey | Deregistered | Reused | NoRemoteRight => Outcome {
                    send: Some((opcode, RemoteAccessError, len, land + st.prop)),
                    recv: Option::None,
                    landed: false,
                },
            }
        }
        Op::Read => {
            let arrive = st.arrives(st.t_hca, hdr);
            let serve = arrive + st.rdma_target;
            let back = st.arrives(serve, LEN as u64 + hdr);
            let opcode = WcOpcode::RdmaRead;
            let send = match fault {
                None | QpClosed | HcaKilledAtTarget => (opcode, Success, len, back + st.hca_msg),
                HcaKilled => (opcode, RetryExceeded, 0, arrive + retry),
                BadRkey | Deregistered | Reused | NoRemoteRight => {
                    (opcode, RemoteAccessError, 0, serve + st.prop)
                }
            };
            Outcome {
                send: Some(send),
                recv: Option::None,
                landed: send.1 == Success,
            }
        }
        Op::UdSend => {
            let grh = verbs::UD_GRH_BYTES;
            let deliver = st.arrives(st.t_hca, LEN as u64 + hdr + grh) + st.hca_msg;
            let delivered = matches!(fault, None | HcaKilledAtTarget);
            let recv = (WcOpcode::Recv, Success, len, Option::None, deliver);
            // Unreliable: complete at the local HCA whatever happens
            // to the datagram.
            Outcome {
                send: Some((WcOpcode::Send, Success, len, st.t_hca)),
                recv: delivered.then_some(recv),
                landed: delivered,
            }
        }
    }
}

/// Runs one cell with the target's window `at` bytes into its region.
fn check_cell(op: Op, fault: Fault, at: usize) {
    let want = expected(op, fault);
    let got = characterize(op, fault, at);
    assert_eq!(got, want, "{op:?} under {fault:?}, window at {at}");
}

/// Every cell of the table, with the target's window at the start of its
/// region and 128 bytes into it.
#[test]
fn every_opcode_under_every_fault_completes_as_characterized() {
    use Fault::*;
    let ops = [
        Op::Send,
        Op::SendImm,
        Op::Inline,
        Op::Write,
        Op::WriteImm,
        Op::Read,
        Op::UdSend,
    ];
    let faults = [
        None,
        QpClosed,
        HcaKilled,
        HcaKilledAtTarget,
        BadRkey,
        Deregistered,
        Reused,
        NoRemoteRight,
    ];
    for (at, op, fault) in [0, 128]
        .into_iter()
        .flat_map(|at| ops.map(|op| (at, op)))
        .flat_map(|(at, op)| faults.map(|fault| (at, op, fault)))
    {
        let two_sided = matches!(op, Op::Send | Op::SendImm | Op::Inline | Op::UdSend);
        let refused_key = matches!(fault, BadRkey | Deregistered | Reused | NoRemoteRight);
        if two_sided && refused_key {
            continue; // a SEND names no remote key
        }
        check_cell(op, fault, at);
    }
}

// Cells of the table under the names of the behaviours they pin.

#[test]
fn send_recv_moves_real_bytes() {
    check_cell(Op::SendImm, Fault::None, 0);
}

#[test]
fn sender_gets_a_send_completion() {
    check_cell(Op::Inline, Fault::None, 0);
}

#[test]
fn rdma_write_lands_without_target_cpu() {
    check_cell(Op::Write, Fault::None, 128);
}

#[test]
fn rdma_write_with_imm_consumes_receive() {
    check_cell(Op::WriteImm, Fault::None, 0);
}

#[test]
fn rdma_read_pulls_remote_bytes() {
    check_cell(Op::Read, Fault::None, 0);
}

#[test]
fn rdma_read_without_permission_is_refused() {
    check_cell(Op::Read, Fault::NoRemoteRight, 0);
}

#[test]
fn deregistered_rkey_is_refused() {
    check_cell(Op::Read, Fault::Deregistered, 0);
}

/// A READ and a WRITE through the old key of a region whose record the next
/// registration refilled reach nothing: the key was retired with the region.
#[test]
fn the_old_rkey_of_a_reused_record_is_refused() {
    check_cell(Op::Read, Fault::Reused, 128);
    check_cell(Op::Write, Fault::Reused, 0);
}

#[test]
fn rdma_read_against_killed_peer_retries_out() {
    check_cell(Op::Read, Fault::HcaKilled, 0);
}

#[test]
fn send_to_killed_hca_reports_retry_exceeded() {
    check_cell(Op::Inline, Fault::HcaKilled, 0);
}

/// The peer half is the table's `QpClosed` column; the closed QP's own
/// refusal is part of the RC state machine.
#[test]
fn closed_qp_rejects_sends_and_peers_fail() {
    check_cell(Op::Inline, Fault::QpClosed, 0);
    rc_qp_state_machine_is_enforced();
}

// ---------------------------------------------------------------------
// One-sided copies: region to region, at the stage that does them
// ---------------------------------------------------------------------

/// When the READ of a `LEN`-byte window posted at time zero is served and
/// when it completes, on an idle Cluster B pair.
fn read_instants(st: &Stages) -> (SimTime, SimTime) {
    let serve = st.arrives(st.t_hca, verbs::WIRE_HEADER_BYTES) + st.rdma_target;
    let back = st.arrives(serve, LEN as u64 + verbs::WIRE_HEADER_BYTES);
    (serve, back + st.hca_msg)
}

/// The target HCA copies a READ's source when it serves the read: a
/// rewrite of the source just before that instant is what the requester
/// gets, one just after it is not — though the data is still on the wire.
#[test]
fn a_read_returns_its_source_as_it_was_served() {
    let one_ns = SimDuration::from_nanos(1);
    for rewrite_first in [true, false] {
        let (cluster, a, b) = pair(true);
        let sim = cluster.sim().clone();
        let st = Stages::of(&cluster);
        let (qa, _qb) = connected_qps(&a, &b);
        let (old, new) = (vec![1u8; LEN], vec![2u8; LEN]);
        let src = Rc::new(b.pd.register_with(old.clone(), Access::REMOTE_READ));
        let local = a.pd.register(LEN, Access::LOCAL_WRITE);
        qa.post_send(SendWr::new(
            1,
            SendOp::RdmaRead {
                local: local.full(),
                remote: src.remote(0, LEN),
            },
        ))
        .unwrap();
        let (serve, done) = read_instants(&st);
        let at = if rewrite_first {
            serve - one_ns
        } else {
            serve + one_ns
        };
        let (writer, bytes) = (src.clone(), new.clone());
        sim.schedule_at(at, move || writer.write_at(0, &bytes));
        sim.run();
        assert_eq!(sim.now(), done, "the completion keeps its instant");
        let wc = a.cq.poll().expect("one completion");
        assert_eq!((wc.status, wc.byte_len), (WcStatus::Success, LEN as u32));
        let want = if rewrite_first { new } else { old };
        assert_eq!(
            local.read_at(0, LEN),
            want,
            "rewrite first: {rewrite_first}"
        );
    }
}

/// A READ into a window its region does not let the HCA write completes
/// with `LocalLengthError`, at the instant a successful one would, and the
/// window keeps what it held.
#[test]
fn a_read_into_a_window_without_local_write_fails_and_leaves_it_untouched() {
    let (cluster, a, b) = pair(true);
    let st = Stages::of(&cluster);
    let (qa, _qb) = connected_qps(&a, &b);
    let src = b.pd.register_with(vec![1u8; LEN], Access::REMOTE_READ);
    let local = a.pd.register_with(vec![9u8; LEN], Access::default());
    qa.post_send(SendWr::new(
        1,
        SendOp::RdmaRead {
            local: local.full(),
            remote: src.remote(0, LEN),
        },
    ))
    .unwrap();
    cluster.sim().run();
    assert_eq!(cluster.sim().now(), read_instants(&st).1);
    let wc = a.cq.poll().expect("one completion");
    assert_eq!(wc.status, WcStatus::LocalLengthError);
    assert_eq!(wc.byte_len, LEN as u32);
    assert_eq!(local.read_at(0, LEN), vec![9u8; LEN]);
}

/// A region the application holds borrowed when the HCA would copy into it
/// refuses the copy: the work request completes with an error and nothing
/// panics. READ lands in the borrowed window; WRITE targets it.
#[test]
fn a_borrowed_region_refuses_a_one_sided_copy() {
    let (cluster, a, b) = pair(true);
    let (qa, _qb) = connected_qps(&a, &b);
    let all = Access::LOCAL_WRITE | Access::REMOTE_READ | Access::REMOTE_WRITE;
    let src = b.pd.register_with(vec![1u8; LEN], all);
    let landing = a.pd.register(LEN, Access::LOCAL_WRITE);
    qa.post_send(SendWr::new(
        1,
        SendOp::RdmaRead {
            local: landing.full(),
            remote: src.remote(0, LEN),
        },
    ))
    .unwrap();
    let payload = a.pd.register_with(vec![3u8; LEN], Access::default());
    qa.post_send(SendWr::new(
        2,
        SendOp::RdmaWrite {
            local: payload.full(),
            remote: src.remote(0, LEN),
            imm: None,
        },
    ))
    .unwrap();
    {
        let (_held_landing, _held_target) = (landing.bytes(), src.bytes());
        cluster.sim().run();
    }
    let mut statuses: Vec<_> = std::iter::from_fn(|| a.cq.poll())
        .map(|wc| (wc.wr_id, wc.status))
        .collect();
    statuses.sort_by_key(|s| s.0);
    assert_eq!(
        statuses,
        [
            (1, WcStatus::LocalLengthError),
            (2, WcStatus::RemoteAccessError)
        ]
    );
    assert_eq!(landing.read_at(0, LEN), vec![0u8; LEN]);
    assert_eq!(src.read_at(0, LEN), vec![1u8; LEN]);
}

/// The fabric carries nothing from a node to itself, so an RC queue pair
/// connected on its own node is refused at the post — one region is never
/// both ends of a one-sided copy.
#[test]
fn rc_loopback_is_refused_at_the_post() {
    let (_cluster, a, _b) = pair(true);
    let qa = a.pd.create_qp(QpType::Rc, &a.cq, &a.cq, None);
    let qb = a.pd.create_qp(QpType::Rc, &a.cq, &a.cq, None);
    qa.connect_to(a.hca.node(), qb.qpn()).unwrap();
    let mr = a.pd.register(2 * LEN, Access::ALL);
    let err = qa
        .post_send(SendWr::new(
            1,
            SendOp::RdmaRead {
                local: mr.slice(0, LEN),
                remote: mr.remote(LEN, LEN),
            },
        ))
        .unwrap_err();
    assert!(matches!(err, VerbsError::InvalidState(_)), "{err:?}");
}

// ---------------------------------------------------------------------
// Two-sided copies: a registered SEND lands from its window
// ---------------------------------------------------------------------

/// When a `LEN`-byte SEND posted at time zero on an idle Cluster B pair is
/// delivered into its receive, and when the sender's completion lands.
fn send_instants(st: &Stages) -> (SimTime, SimTime) {
    let deliver = st.arrives(st.t_hca, LEN as u64 + verbs::WIRE_HEADER_BYTES) + st.hca_msg;
    (deliver, deliver + st.prop)
}

/// Posts a registered SEND of `src`'s whole window as work request 1.
fn send_window(qp: &QueuePair, src: &verbs::Mr) {
    let op = SendOp::Send {
        local: src.full(),
        imm: None,
    };
    qp.post_send(SendWr::new(1, op)).unwrap();
}

/// The target HCA copies a registered SEND's window when the message lands
/// (`SendDeliver`): a rewrite just before that instant is what the receive
/// gets, one just after is not, though the sender's completion is still on
/// its way. Both complete at the instants the characterization table
/// states.
#[test]
fn a_registered_send_lands_its_window_as_it_is_at_delivery() {
    let one_ns = SimDuration::from_nanos(1);
    for rewrite_first in [true, false] {
        let (cluster, a, b) = pair(true);
        let sim = cluster.sim().clone();
        let st = Stages::of(&cluster);
        let (qa, qb) = connected_qps(&a, &b);
        let (old, new) = (vec![1u8; LEN], vec![2u8; LEN]);
        let src = Rc::new(a.pd.register_with(old.clone(), Access::default()));
        let dst = b.pd.register(LEN, Access::LOCAL_WRITE);
        qb.post_recv(9, dst.full());
        send_window(&qa, &src);
        let (deliver, done) = send_instants(&st);
        let at = if rewrite_first {
            deliver - one_ns
        } else {
            deliver + one_ns
        };
        let (writer, bytes) = (src.clone(), new.clone());
        sim.schedule_at(at, move || writer.write_at(0, &bytes));
        sim.run();
        assert_eq!(sim.now(), done, "the completion keeps its instant");
        let sent = a.cq.poll().expect("one send completion");
        assert_eq!(
            (sent.status, sent.byte_len),
            (WcStatus::Success, LEN as u32)
        );
        let recv = b.cq.poll().expect("one receive completion");
        assert_eq!(
            (recv.status, recv.byte_len),
            (WcStatus::Success, LEN as u32)
        );
        let want = if rewrite_first { new } else { old };
        assert_eq!(dst.read_at(0, LEN), want, "rewrite first: {rewrite_first}");
    }
}

/// A SEND that finds no receive posted parks at the target, and the
/// sender's completion comes without waiting for it. What parks is a
/// snapshot of the window, so a rewrite after that completion — when the
/// window is the sender's again — does not reach the receive posted later.
#[test]
fn a_parked_send_delivers_the_bytes_it_had_when_it_parked() {
    let (cluster, a, b) = pair(true);
    let (qa, qb) = connected_qps(&a, &b);
    let (old, new) = (vec![1u8; LEN], vec![2u8; LEN]);
    let src = a.pd.register_with(old.clone(), Access::default());
    send_window(&qa, &src);
    cluster.sim().run();
    let sent = a.cq.poll().expect("the sender's completion");
    assert_eq!(
        (sent.status, sent.byte_len),
        (WcStatus::Success, LEN as u32)
    );
    assert_eq!(b.cq.backlog(), 0, "nothing to receive into yet");
    src.write_at(0, &new);
    let dst = b.pd.register(LEN, Access::LOCAL_WRITE);
    qb.post_recv(9, dst.full());
    let recv = b.cq.poll().expect("the parked message takes the receive");
    assert_eq!(
        (recv.status, recv.byte_len),
        (WcStatus::Success, LEN as u32)
    );
    assert_eq!(dst.read_at(0, LEN), old);
}

/// A SEND the target HCA cannot copy completes with `LocalLengthError`, at
/// the instants a delivered one would, and nothing panics:
/// - into a receive whose region the application holds borrowed: the
///   receive fails, the send succeeds;
/// - into a receive without `LOCAL_WRITE`: likewise, and the window keeps
///   what it held;
/// - from a window the HCA cannot read (its region emptied by
///   `Mr::into_vec` after the post): the send fails and no receive is
///   consumed.
///
/// A source region the application holds borrowed is read all the same: a
/// shared borrow does not stop the HCA reading.
#[test]
fn a_send_the_hca_cannot_copy_fails_without_a_panic() {
    use WcStatus::{LocalLengthError, Success};
    #[derive(Clone, Copy, Debug)]
    enum Case {
        ReceiveBorrowed,
        NoLocalWrite,
        SourceEmptied,
        SourceBorrowed,
    }
    for case in [
        Case::ReceiveBorrowed,
        Case::NoLocalWrite,
        Case::SourceEmptied,
        Case::SourceBorrowed,
    ] {
        let (cluster, a, b) = pair(true);
        let st = Stages::of(&cluster);
        let (qa, qb) = connected_qps(&a, &b);
        let src = a.pd.register_with(vec![1u8; LEN], Access::default());
        let access = match case {
            Case::NoLocalWrite => Access::default(),
            _ => Access::LOCAL_WRITE,
        };
        let dst = b.pd.register_with(vec![9u8; LEN], access);
        qb.post_recv(9, dst.full());
        send_window(&qa, &src);
        match case {
            Case::ReceiveBorrowed => {
                let _held = dst.bytes();
                cluster.sim().run();
            }
            Case::SourceBorrowed => {
                let _held = src.bytes();
                cluster.sim().run();
            }
            Case::NoLocalWrite => {
                cluster.sim().run();
            }
            Case::SourceEmptied => {
                drop(src.into_vec());
                cluster.sim().run();
            }
        }
        assert_eq!(cluster.sim().now(), send_instants(&st).1, "{case:?}");
        let sent = a.cq.poll().map(|wc| wc.status);
        let recv = b.cq.poll().map(|wc| (wc.status, wc.byte_len));
        let want = match case {
            Case::ReceiveBorrowed | Case::NoLocalWrite => {
                (Some(Success), Some((LocalLengthError, 0)), vec![9u8; LEN])
            }
            Case::SourceEmptied => (Some(LocalLengthError), None, vec![9u8; LEN]),
            Case::SourceBorrowed => (Some(Success), Some((Success, LEN as u32)), vec![1u8; LEN]),
        };
        assert_eq!((sent, recv, dst.read_at(0, LEN)), want, "{case:?}");
    }
}

/// A UD send completes at the local HCA, so the window is read at the
/// post: a rewrite right after it does not reach the receiver.
#[test]
fn a_ud_send_reads_its_window_at_the_post() {
    let (cluster, a, b) = pair(true);
    let qa = a.pd.create_qp(QpType::Ud, &a.cq, &a.cq, None);
    let qb = b.pd.create_qp(QpType::Ud, &b.cq, &b.cq, None);
    let (old, new) = (vec![1u8; LEN], vec![2u8; LEN]);
    let src = a.pd.register_with(old.clone(), Access::default());
    let dst = b.pd.register(LEN, Access::LOCAL_WRITE);
    qb.post_recv(9, dst.full());
    let mut wr = SendWr::new(
        1,
        SendOp::Send {
            local: src.full(),
            imm: None,
        },
    );
    wr.ud_dest = Some((b.hca.node(), qb.qpn()));
    qa.post_send(wr).unwrap();
    src.write_at(0, &new);
    cluster.sim().run();
    let recv = b.cq.poll().expect("delivered");
    assert_eq!(
        (recv.status, recv.byte_len),
        (WcStatus::Success, LEN as u32)
    );
    assert_eq!(dst.read_at(0, LEN), old);
}

// ---------------------------------------------------------------------
// Region records: reused only when nothing holds them
// ---------------------------------------------------------------------

/// A region's record is refilled by the next registration on its HCA only
/// once nothing holds it. A window kept, or a work request in flight, over
/// a region emptied by `into_vec` keeps the record: the next registration
/// takes a fresh one, and the old window still sees its region empty — a
/// SEND from it fails and the new region's bytes go nowhere.
#[test]
fn a_record_still_held_by_a_window_or_a_work_request_is_not_reused() {
    for by_work_request in [false, true] {
        let (cluster, a, b) = pair(true);
        let (qa, qb) = connected_qps(&a, &b);
        let dst = b.pd.register_with(vec![9u8; LEN], Access::LOCAL_WRITE);
        qb.post_recv(9, dst.full());
        let idle = a.hca.idle_region_records();
        let src = a.pd.register_with(vec![1u8; LEN], Access::LOCAL_WRITE);
        // The work request's window, or one kept by the application.
        let window = if by_work_request {
            send_window(&qa, &src);
            None
        } else {
            Some(src.full())
        };
        drop(src.into_vec());
        assert_eq!(a.hca.idle_region_records(), idle, "still held");
        let next = a.pd.register_with(vec![5u8; LEN], Access::LOCAL_WRITE);
        if let Some(window) = window {
            assert!(window.write_prefix(&[2]).is_err(), "its region is empty");
            let send = SendOp::Send {
                local: window,
                imm: None,
            };
            qa.post_send(SendWr::new(1, send)).unwrap();
        }
        cluster.sim().run();
        let sent = a.cq.poll().map(|wc| wc.status);
        assert_eq!(sent, Some(WcStatus::LocalLengthError), "{by_work_request}");
        assert!(b.cq.poll().is_none());
        assert_eq!(dst.read_at(0, LEN), vec![9u8; LEN]);
        assert_eq!(next.read_at(0, LEN), vec![5u8; LEN]);
        // The work request let go after the deregistration: the record
        // is freed, not kept.
        assert_eq!(a.hca.idle_region_records(), idle);
    }
}

/// An HCA keeps at most `IDLE_MR_RECORDS` idle records, one more
/// deregistered at once is freed, and each registration after takes one
/// under a key never handed out before.
#[test]
fn the_idle_record_list_keeps_its_cap_and_its_keys_stay_fresh() {
    let (_cluster, a, _b) = pair(true);
    let regions: Vec<_> = (0..IDLE_MR_RECORDS + 1)
        .map(|_| a.pd.register(64, Access::LOCAL_WRITE))
        .collect();
    let last_key = regions.iter().map(|mr| mr.rkey()).max().unwrap();
    drop(regions);
    assert_eq!(a.hca.registered_regions(), 0);
    assert_eq!(a.hca.idle_region_records(), IDLE_MR_RECORDS);
    let next: Vec<_> = (0..IDLE_MR_RECORDS + 1)
        .map(|i| a.pd.register_with(vec![i as u8; 64], Access::LOCAL_WRITE))
        .collect();
    assert_eq!(a.hca.idle_region_records(), 0);
    for (i, mr) in next.iter().enumerate() {
        assert!(mr.rkey() > last_key);
        assert_eq!(mr.read_at(0, 64), vec![i as u8; 64]);
    }
    drop(next);
    assert_eq!(a.hca.idle_region_records(), IDLE_MR_RECORDS);
}
