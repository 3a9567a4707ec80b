//! Integration tests for the byte-stream transports: data integrity,
//! ordering, latency ordering across stacks, Nagle behaviour, kernel
//! contention, and failure injection.

use std::rc::Rc;

use simnet::{Cluster, NodeId, Sim, SimDuration, Stack};
use socksim::{
    SockError, SockFabric, Socket, SocketAddr, DEFAULT_CONNECT_TIMEOUT, SEGMENT_POOL_CAP,
    STREAM_BUF_KEEP,
};

fn fabric_a() -> (Rc<Cluster>, SockFabric) {
    let cluster = Rc::new(Cluster::cluster_a(5, 6));
    let fabric = SockFabric::new(cluster.clone());
    (cluster, fabric)
}

fn fabric_b() -> (Rc<Cluster>, SockFabric) {
    let cluster = Rc::new(Cluster::cluster_b(5, 6));
    let fabric = SockFabric::new(cluster.clone());
    (cluster, fabric)
}

const SERVER: SocketAddr = SocketAddr {
    node: NodeId(1),
    port: 11211,
};

/// Spawns an echo server and returns a connected client socket.
async fn echo_pair(fabric: &SockFabric, stack: Stack, rounds: usize) -> Socket {
    let listener = fabric.listen(stack, SERVER.node, SERVER.port).unwrap();
    let sim = fabric.cluster().sim().clone();
    sim.spawn(async move {
        let sock = listener.accept().await.unwrap();
        sock.set_nodelay(true);
        let mut data = Vec::new();
        for _ in 0..rounds {
            data.clear();
            match sock.read(&mut data, 1 << 20).await {
                Ok(_) => {
                    if sock.write_all(&data).await.is_err() {
                        break;
                    }
                }
                Err(_) => break,
            }
        }
    });
    let sock = fabric
        .connect(stack, NodeId(0), SERVER, DEFAULT_CONNECT_TIMEOUT)
        .await
        .unwrap();
    sock.set_nodelay(true);
    sock
}

#[test]
fn bytes_round_trip_intact() {
    let (cluster, fabric) = fabric_a();
    let sim = cluster.sim().clone();
    sim.block_on(async move {
        let sock = echo_pair(&fabric, Stack::TenGigEToe, 1).await;
        let msg: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        sock.write_all(&msg).await.unwrap();
        let back = sock.read_exact(msg.len()).await.unwrap();
        assert_eq!(back, msg);
    });
}

#[test]
fn writes_arrive_in_order() {
    let (cluster, fabric) = fabric_a();
    let sim = cluster.sim().clone();
    sim.block_on(async move {
        let sock = echo_pair(&fabric, Stack::Ipoib, 50).await;
        for i in 0..50u8 {
            sock.write_all(&[i; 4]).await.unwrap();
        }
        let back = sock.read_exact(200).await.unwrap();
        let expect: Vec<u8> = (0..50u8).flat_map(|i| [i; 4]).collect();
        assert_eq!(back, expect);
    });
}

/// One request-response round trip, returning the simulated latency.
fn rtt(stack: Stack, bytes: usize, cluster_b: bool) -> SimDuration {
    let (cluster, fabric) = if cluster_b { fabric_b() } else { fabric_a() };
    let sim = cluster.sim().clone();
    sim.block_on(async move {
        let sock = echo_pair(&fabric, stack, 4).await;
        // Warm-up round, then measure.
        sock.write_all(&vec![7u8; bytes]).await.unwrap();
        sock.read_exact(bytes).await.unwrap();
        let t0 = fabric.cluster().sim().now();
        sock.write_all(&vec![7u8; bytes]).await.unwrap();
        sock.read_exact(bytes).await.unwrap();
        fabric.cluster().sim().now() - t0
    })
}

#[test]
fn latency_ordering_matches_the_paper() {
    // Small-message RTT on Cluster A: TOE < SDP < IPoIB < 1GigE.
    let toe = rtt(Stack::TenGigEToe, 32, false);
    let sdp = rtt(Stack::Sdp, 32, false);
    let ipoib = rtt(Stack::Ipoib, 32, false);
    let onegige = rtt(Stack::OneGigE, 32, false);
    assert!(toe < sdp, "TOE {toe} should beat SDP {sdp}");
    assert!(sdp < ipoib, "SDP {sdp} should beat IPoIB {ipoib}");
    assert!(ipoib < onegige, "IPoIB {ipoib} should beat 1GigE {onegige}");
    // And everything lands in the tens-of-microseconds band for small
    // messages, as 2011-era sockets did.
    assert!(
        toe.as_micros_f64() > 10.0 && toe.as_micros_f64() < 40.0,
        "TOE rtt {toe}"
    );
    assert!(
        onegige.as_micros_f64() > 50.0 && onegige.as_micros_f64() < 200.0,
        "1GigE rtt {onegige}"
    );
}

#[test]
fn cluster_b_sockets_are_faster_than_cluster_a() {
    let a = rtt(Stack::Ipoib, 64, false);
    let b = rtt(Stack::Ipoib, 64, true);
    assert!(
        b < a,
        "Westmere+QDR IPoIB {b} should beat Clovertown+DDR {a}"
    );
}

#[test]
fn larger_payloads_cost_more() {
    let small = rtt(Stack::TenGigEToe, 64, false);
    let large = rtt(Stack::TenGigEToe, 65536, false);
    assert!(large > small * 2, "64 KB {large} vs 64 B {small}");
}

#[test]
fn nagle_delays_small_writes() {
    fn one_way(nodelay: bool) -> SimDuration {
        let (cluster, fabric) = fabric_a();
        let sim = cluster.sim().clone();
        sim.block_on(async move {
            let listener = fabric
                .listen(Stack::TenGigEToe, SERVER.node, SERVER.port)
                .unwrap();
            let srv = fabric.cluster().sim().spawn(async move {
                let s = listener.accept().await.unwrap();
                s.read_exact(8).await.unwrap();
            });
            let sock = fabric
                .connect(
                    Stack::TenGigEToe,
                    NodeId(0),
                    SERVER,
                    DEFAULT_CONNECT_TIMEOUT,
                )
                .await
                .unwrap();
            sock.set_nodelay(nodelay);
            let t0 = fabric.cluster().sim().now();
            sock.write_all(&[1u8; 8]).await.unwrap();
            srv.await;
            fabric.cluster().sim().now() - t0
        })
    }
    let with_nagle = one_way(false);
    let without = one_way(true);
    assert!(
        with_nagle > without + SimDuration::from_micros(300),
        "Nagle {with_nagle} vs NODELAY {without}"
    );
}

#[test]
fn connect_refused_without_listener() {
    let (cluster, fabric) = fabric_a();
    let sim = cluster.sim().clone();
    let err = sim.block_on(async move {
        fabric
            .connect(Stack::Sdp, NodeId(0), SERVER, DEFAULT_CONNECT_TIMEOUT)
            .await
            .unwrap_err()
    });
    assert_eq!(err, SockError::ConnectionRefused);
}

#[test]
fn unavailable_stack_is_reported() {
    let (cluster, fabric) = fabric_b();
    let sim = cluster.sim().clone();
    // Cluster B has no 10GigE cards.
    assert!(matches!(
        fabric.listen(Stack::TenGigEToe, NodeId(1), 1),
        Err(SockError::StackUnavailable(Stack::TenGigEToe))
    ));
    let err = sim.block_on(async move {
        fabric
            .connect(
                Stack::TenGigEToe,
                NodeId(0),
                SERVER,
                DEFAULT_CONNECT_TIMEOUT,
            )
            .await
            .unwrap_err()
    });
    assert_eq!(err, SockError::StackUnavailable(Stack::TenGigEToe));
}

#[test]
fn ucr_is_not_a_socket_stack() {
    let (_cluster, fabric) = fabric_a();
    assert!(matches!(
        fabric.listen(Stack::Ucr, NodeId(1), 1),
        Err(SockError::StackUnavailable(Stack::Ucr))
    ));
}

#[test]
fn killed_node_resets_peers() {
    let (cluster, fabric) = fabric_a();
    let sim = cluster.sim().clone();
    let f2 = fabric.clone();
    sim.block_on(async move {
        let sock = echo_pair(&f2, Stack::Ipoib, 100).await;
        sock.write_all(b"before").await.unwrap();
        sock.read_exact(6).await.unwrap();
        f2.kill_node(SERVER.node);
        // Any buffered data may drain, then EOF.
        let err = loop {
            match sock.read(&mut Vec::new(), 64).await {
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        assert_eq!(err, SockError::Closed);
        // Reconnecting to the dead node fails.
        let err = f2
            .connect(Stack::Ipoib, NodeId(2), SERVER, SimDuration::from_millis(1))
            .await
            .unwrap_err();
        assert!(matches!(
            err,
            SockError::ConnectionTimeout | SockError::ConnectionRefused
        ));
    });
}

#[test]
fn kernel_contention_limits_aggregate_throughput() {
    // Many clients hammering one node over IPoIB: the shared kernel
    // resource must make aggregate throughput sub-linear in client count.
    fn run(clients: u32) -> f64 {
        let cluster = Rc::new(Cluster::cluster_a(9, 6));
        let fabric = SockFabric::new(cluster.clone());
        let sim = cluster.sim().clone();
        let listener = fabric.listen(Stack::Ipoib, NodeId(0), 9000).unwrap();
        let reqs = 200usize;

        sim.spawn(async move {
            while let Ok(sock) = listener.accept().await {
                sock.set_nodelay(true);
                fabric_server(sock, reqs).await;
            }
        });

        async fn fabric_server(sock: Socket, rounds: usize) {
            let mut data = Vec::new();
            for _ in 0..rounds {
                data.clear();
                if sock.read(&mut data, 1 << 16).await.is_err() {
                    return;
                }
                if sock.write_all(&data).await.is_err() {
                    return;
                }
            }
        }

        let mut joins = Vec::new();
        for c in 0..clients {
            let f = fabric.clone();
            let sim2 = sim.clone();
            joins.push(sim.spawn(async move {
                let sock = f
                    .connect(
                        Stack::Ipoib,
                        NodeId(1 + (c % 5)),
                        SocketAddr {
                            node: NodeId(0),
                            port: 9000,
                        },
                        DEFAULT_CONNECT_TIMEOUT,
                    )
                    .await
                    .unwrap();
                sock.set_nodelay(true);
                for _ in 0..reqs {
                    sock.write_all(&[9u8; 16]).await.unwrap();
                    sock.read_exact(16).await.unwrap();
                }
                let _ = sim2;
            }));
        }
        let t0 = sim.now();
        sim.block_on(async move {
            for j in joins {
                j.await;
            }
        });
        let elapsed = (sim.now() - t0).as_secs_f64();
        (clients as usize * reqs) as f64 / elapsed
    }

    let tps1 = run(1);
    let tps4 = run(4);
    assert!(tps4 > tps1, "more clients must add some throughput");
    assert!(
        tps4 < tps1 * 3.5,
        "kernel contention must make scaling sub-linear: 1→{tps1:.0}, 4→{tps4:.0}"
    );
}

// ---------------------------------------------------------------------
// Additional coverage: stream semantics, jitter, concurrency
// ---------------------------------------------------------------------

#[test]
fn partial_reads_drain_the_stream() {
    let (cluster, fabric) = fabric_a();
    let sim = cluster.sim().clone();
    sim.block_on(async move {
        let sock = echo_pair(&fabric, Stack::TenGigEToe, 1).await;
        sock.write_all(&[7u8; 100]).await.unwrap();
        // Read in odd-sized chunks; total must be exact.
        let mut total = Vec::new();
        while total.len() < 100 {
            let before = total.len();
            let n = sock.read(&mut total, 33).await.unwrap();
            assert!(n > 0 && n <= 33);
            assert_eq!(total.len(), before + n, "appended, not replaced");
        }
        assert_eq!(total, vec![7u8; 100]);
        assert_eq!(sock.available(), 0);
    });
}

#[test]
fn bidirectional_traffic_does_not_interfere() {
    let (cluster, fabric) = fabric_a();
    let sim = cluster.sim().clone();
    let listener = fabric.listen(Stack::Sdp, SERVER.node, SERVER.port).unwrap();
    // Server sends stream of 'S' while receiving stream of 'C'.
    let srv = sim.spawn(async move {
        let sock = listener.accept().await.unwrap();
        sock.set_nodelay(true);
        for _ in 0..20 {
            sock.write_all(&[b'S'; 10]).await.unwrap();
        }
        let got = sock.read_exact(200).await.unwrap();
        assert!(got.iter().all(|&b| b == b'C'));
    });
    sim.block_on(async move {
        let sock = fabric
            .connect(Stack::Sdp, NodeId(0), SERVER, DEFAULT_CONNECT_TIMEOUT)
            .await
            .unwrap();
        sock.set_nodelay(true);
        for _ in 0..20 {
            sock.write_all(&[b'C'; 10]).await.unwrap();
        }
        let got = sock.read_exact(200).await.unwrap();
        assert!(got.iter().all(|&b| b == b'S'));
        srv.await;
    });
}

#[test]
fn same_port_different_stacks_coexist() {
    let (cluster, fabric) = fabric_a();
    // One port, four stacks — exactly how the Memcached server listens.
    let _l1 = fabric.listen(Stack::Sdp, NodeId(1), 11211).unwrap();
    let _l2 = fabric.listen(Stack::Ipoib, NodeId(1), 11211).unwrap();
    let _l3 = fabric.listen(Stack::TenGigEToe, NodeId(1), 11211).unwrap();
    let _l4 = fabric.listen(Stack::OneGigE, NodeId(1), 11211).unwrap();
    // But the same (stack, node, port) is exclusive.
    assert!(fabric.listen(Stack::Sdp, NodeId(1), 11211).is_err());
    let _ = cluster;
}

#[test]
fn sdp_jitter_appears_on_cluster_b_only() {
    fn spread(cluster_b: bool) -> f64 {
        let cluster = std::rc::Rc::new(if cluster_b {
            simnet::Cluster::cluster_b(31, 4)
        } else {
            simnet::Cluster::cluster_a(31, 4)
        });
        let fabric = SockFabric::new(cluster.clone());
        let sim = cluster.sim().clone();
        sim.block_on(async move {
            let sock = echo_pair(&fabric, Stack::Sdp, 40).await;
            let mut lats = Vec::new();
            for _ in 0..40 {
                let t0 = fabric.cluster().sim().now();
                sock.write_all(&[1u8; 16]).await.unwrap();
                sock.read_exact(16).await.unwrap();
                lats.push((fabric.cluster().sim().now() - t0).as_micros_f64());
            }
            let min = lats.iter().cloned().fold(f64::MAX, f64::min);
            let max = lats.iter().cloned().fold(0.0f64, f64::max);
            max - min
        })
    }
    let spread_a = spread(false);
    let spread_b = spread(true);
    assert!(spread_a < 1.0, "cluster A SDP should be steady: {spread_a}");
    assert!(
        spread_b > 5.0,
        "cluster B SDP should show the QDR jitter artifact: {spread_b}"
    );
}

#[test]
fn closed_socket_rejects_writes_eventually() {
    let (cluster, fabric) = fabric_a();
    let sim = cluster.sim().clone();
    sim.block_on(async move {
        let sock = echo_pair(&fabric, Stack::Ipoib, 1).await;
        sock.close();
        let err = sock.write_all(b"after close").await.unwrap_err();
        assert_eq!(err, SockError::Closed);
        assert!(sock.read(&mut Vec::new(), 10).await.is_err());
    });
}

/// A connected pair on 10GigE-TOE: the client's end and the server's.
fn connected_pair(fabric: &SockFabric) -> (Rc<Socket>, Rc<Socket>) {
    let stack = Stack::TenGigEToe;
    let listener = fabric.listen(stack, SERVER.node, SERVER.port).unwrap();
    let f = fabric.clone();
    fabric.cluster().sim().block_on(async move {
        let accepted = f
            .cluster()
            .sim()
            .spawn(async move { listener.accept().await });
        let sock = f
            .connect(stack, NodeId(0), SERVER, DEFAULT_CONNECT_TIMEOUT)
            .await
            .unwrap();
        sock.set_nodelay(true);
        (Rc::new(sock), Rc::new(accepted.await.unwrap()))
    })
}

/// Makes every write of `writes` on `sock` before awaiting any, so all of
/// their payloads are taken from the segment pool at once, then runs the
/// simulation until every byte has landed.
fn write_at_once(sim: &Sim, sock: &Rc<Socket>, writes: Vec<Vec<u8>>) {
    let sock = sock.clone();
    sim.block_on(async move {
        let made: Vec<_> = writes.iter().map(|bytes| sock.write_all(bytes)).collect();
        for write in made {
            write.await.unwrap();
        }
    });
    sim.run();
}

/// A write's bytes ride in a buffer from the fabric's segment pool, which
/// takes it back once they are in the peer's socket buffer: writes one
/// after another reuse one buffer; one more than the cap in flight at once
/// leave the pool at its count cap, none above its size cap; and the
/// buffer a 64 KB write grew is freed, not kept.
#[test]
fn the_segment_pool_reuses_its_buffers_and_keeps_its_caps() {
    let (cluster, fabric) = fabric_a();
    let sim = cluster.sim().clone();
    let (sock, peer) = connected_pair(&fabric);
    for _ in 0..10 {
        write_at_once(&sim, &sock, vec![vec![1; 1000]]);
        assert_eq!(fabric.idle_segment_buffers().len(), 1);
    }
    write_at_once(&sim, &sock, vec![vec![2; 1000]; SEGMENT_POOL_CAP + 1]);
    let idle = fabric.idle_segment_buffers();
    assert_eq!(idle.len(), SEGMENT_POOL_CAP);
    assert!(idle.iter().all(|&capacity| capacity <= STREAM_BUF_KEEP));
    write_at_once(&sim, &sock, vec![vec![3; 64 << 10]]);
    let idle = fabric.idle_segment_buffers();
    assert_eq!(
        idle.len(),
        SEGMENT_POOL_CAP - 1,
        "the grown buffer is freed"
    );
    assert!(idle.iter().all(|&capacity| capacity <= STREAM_BUF_KEEP));
    let written = (10 + SEGMENT_POOL_CAP + 1) * 1000 + (64 << 10);
    assert_eq!(peer.available(), written);
}

/// Bytes with nowhere to go give their segment buffer back all the same:
/// a write the receiving end resets before they land, a write into a node
/// that dies while they are on the wire, and a write refused at once.
#[test]
fn a_write_with_nowhere_to_go_gives_its_segment_buffer_back() {
    let (cluster, fabric) = fabric_a();
    let sim = cluster.sim().clone();
    let in_flight = |sock: &Rc<Socket>, bytes: &'static [u8]| {
        let sock = sock.clone();
        sim.block_on(async move { sock.write_all(bytes).await.unwrap() });
        assert!(fabric.idle_segment_buffers().is_empty(), "on its way");
    };

    let (sock, peer) = connected_pair(&fabric);
    write_at_once(&sim, &sock, vec![vec![1; 100]]);
    in_flight(&sock, &[2; 100]);
    peer.close();
    sim.run();
    assert_eq!(fabric.idle_segment_buffers().len(), 1);
    assert_eq!(peer.available(), 100, "the reset came first");

    let (sock, _peer) = connected_pair(&fabric);
    in_flight(&sock, &[3; 100]);
    fabric.kill_node(SERVER.node);
    sim.run();
    assert_eq!(fabric.idle_segment_buffers().len(), 1);

    let refused = sim.block_on(async move { sock.write_all(&[4; 100]).await });
    assert_eq!(refused, Err(SockError::Closed));
    assert_eq!(fabric.idle_segment_buffers().len(), 1);
}

#[test]
fn many_sequential_connections_to_one_listener() {
    let (cluster, fabric) = fabric_a();
    let sim = cluster.sim().clone();
    let listener = fabric.listen(Stack::TenGigEToe, NodeId(0), 8080).unwrap();
    sim.spawn(async move {
        while let Ok(sock) = listener.accept().await {
            let mut data = Vec::new();
            sock.read(&mut data, 64).await.unwrap();
            sock.write_all(&data).await.unwrap();
        }
    });
    sim.block_on(async move {
        for i in 0..10u8 {
            let sock = fabric
                .connect(
                    Stack::TenGigEToe,
                    NodeId(1 + (i % 4) as u32),
                    SocketAddr {
                        node: NodeId(0),
                        port: 8080,
                    },
                    DEFAULT_CONNECT_TIMEOUT,
                )
                .await
                .unwrap();
            sock.write_all(&[i; 8]).await.unwrap();
            assert_eq!(sock.read_exact(8).await.unwrap(), vec![i; 8]);
            sock.close();
        }
    });
}

// ---------------------------------------------------------------------
// Datagram (UDP) sockets
// ---------------------------------------------------------------------

mod dgram {
    use super::*;
    use socksim::DGRAM_RCVBUF_DATAGRAMS;

    /// A datagram rides in a buffer from the fabric's segment pool: given
    /// back once read, it carries the reply.
    #[test]
    fn datagrams_round_trip_with_source_addresses() {
        let (cluster, fabric) = fabric_a();
        let sim = cluster.sim().clone();
        let server = fabric.udp_bind(Stack::TenGigEToe, NodeId(0), 5353).unwrap();
        let client = fabric.udp_bind(Stack::TenGigEToe, NodeId(1), 6000).unwrap();
        sim.block_on(async move {
            client
                .send_to(
                    SocketAddr {
                        node: NodeId(0),
                        port: 5353,
                    },
                    b"ping",
                )
                .await
                .unwrap();
            let (src, data) = server.recv_from().await.unwrap();
            assert_eq!(data, b"ping");
            let ping = data.as_ptr();
            server.give_back(data);
            assert_eq!(fabric.idle_segment_buffers().len(), 1);
            assert_eq!(
                src,
                SocketAddr {
                    node: NodeId(1),
                    port: 6000
                }
            );
            // Reply straight back to the observed source.
            server.send_to(src, b"pong").await.unwrap();
            let (src2, data2) = client.recv_from().await.unwrap();
            assert_eq!(data2, b"pong");
            assert_eq!(data2.as_ptr(), ping, "the ping's buffer");
            assert_eq!(src2.node, NodeId(0));
        });
    }

    #[test]
    fn unbound_ports_swallow_datagrams_silently() {
        let (cluster, fabric) = fabric_a();
        let sim = cluster.sim().clone();
        let client = fabric.udp_bind(Stack::Ipoib, NodeId(1), 6000).unwrap();
        let client = sim.block_on(async move {
            // No listener at the destination: fire and forget, no error.
            client
                .send_to(
                    SocketAddr {
                        node: NodeId(0),
                        port: 1,
                    },
                    b"void",
                )
                .await
                .unwrap();
            client
        });
        cluster.sim().run();
        assert_eq!(client.dropped(), 0);
        assert_eq!(
            fabric.idle_segment_buffers().len(),
            1,
            "its buffer went back"
        );
    }

    #[test]
    fn receive_buffer_overflow_drops_excess_datagrams() {
        let (cluster, fabric) = fabric_a();
        let sim = cluster.sim().clone();
        let server = fabric.udp_bind(Stack::TenGigEToe, NodeId(0), 5353).unwrap();
        let client = fabric.udp_bind(Stack::TenGigEToe, NodeId(1), 6000).unwrap();
        let burst = DGRAM_RCVBUF_DATAGRAMS as u32 + 50;
        sim.block_on(async move {
            // Blast without the server draining: the kernel buffer caps.
            for i in 0..burst {
                client
                    .send_to(
                        SocketAddr {
                            node: NodeId(0),
                            port: 5353,
                        },
                        &i.to_le_bytes(),
                    )
                    .await
                    .unwrap();
            }
        });
        cluster.sim().run();
        assert_eq!(server.dropped(), 50, "overflow beyond SO_RCVBUF drops");
        assert_eq!(fabric.idle_segment_buffers().len(), 50, "theirs went back");
        // The surviving datagrams are the first N, in order.
        let got = sim.block_on({
            let server = server;
            async move {
                let mut got = Vec::new();
                for _ in 0..DGRAM_RCVBUF_DATAGRAMS {
                    let (_, d) = server.recv_from().await.unwrap();
                    got.push(u32::from_le_bytes(d.try_into().unwrap()));
                }
                got
            }
        });
        assert_eq!(got, (0..DGRAM_RCVBUF_DATAGRAMS as u32).collect::<Vec<_>>());
    }

    #[test]
    fn dgram_port_is_exclusive_and_released_on_drop() {
        let (_cluster, fabric) = fabric_a();
        let s1 = fabric.udp_bind(Stack::Sdp, NodeId(0), 7000).unwrap();
        assert!(fabric.udp_bind(Stack::Sdp, NodeId(0), 7000).is_err());
        // Same port on a different stack is independent.
        assert!(fabric.udp_bind(Stack::Ipoib, NodeId(0), 7000).is_ok());
        drop(s1);
        assert!(fabric.udp_bind(Stack::Sdp, NodeId(0), 7000).is_ok());
    }
}
