//! Layer probes: host time of one layer's public functions called in
//! isolation. A workload's host clock says what an operation costs in
//! total; a probe says what one send, one parse or one store access costs
//! with nothing else running, so a layer's share can be estimated and a
//! change to one layer can be seen without the others' noise.
//!
//! Each probe repeats its call in [`BATCHES`] timed batches of at least
//! [`BATCH_SECONDS`] each and reports the median batch, in nanoseconds of
//! host time per call. The batches are taken in rounds — one batch of
//! every probe, then the next round — so a probe's batches are seconds
//! apart and one slow half-second of the host spoils at most one of them.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use mcproto::{encode_command, parse_command, BinFrame, BinOpcode, Command, StoreVerb};
use mcstore::Store;
use rmc::{McOp, ReqHeader, RespHeader, RespStatus};
use simnet::{Cluster, NodeId, Sim, SimDuration, Stack};
use socksim::{SockFabric, SocketAddr, DEFAULT_CONNECT_TIMEOUT};
use ucr::{AmData, Endpoint, FnHandler, SendOptions, UcrRuntime};
use verbs::{Access, IbFabric, QpType, SendOp, SendWr};

use crate::workload::median;

pub const BATCHES: usize = 7;
pub const BATCH_SECONDS: f64 = 0.03;

/// Every probe's result, by metric name, in nanoseconds of host time per
/// call unless the name says otherwise.
pub struct Probes {
    pub values: Vec<(&'static str, f64)>,
}

impl Probes {
    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .expect("probe was run")
    }
}

/// One probe: `run(n)` makes `n` calls of the thing measured.
struct Probe {
    name: &'static str,
    run: Box<dyn FnMut(u64)>,
    /// Metric units per call: 0.5 where a call is a round trip of two
    /// messages and the metric is per message.
    per_call: f64,
    /// Handles `run` does not name but needs alive: fabrics, adapters,
    /// protection domains, the far end's runtime.
    _alive: Box<dyn Any>,
}

fn probe(name: &'static str, alive: impl Any, run: impl FnMut(u64) + 'static) -> Probe {
    Probe {
        name,
        run: Box::new(run),
        per_call: 1.0,
        _alive: Box::new(alive),
    }
}

/// Runs every probe. `value_size` is the workload's, for the store probes.
pub fn run_all(value_size: usize) -> Probes {
    let mut probes = Vec::new();
    let mut values = Vec::new();
    engine(&mut probes);
    verbs(&mut probes);
    ucr_messages(&mut probes);
    sockets(&mut probes, &mut values);
    protocols(&mut probes);
    store(&mut probes, value_size);

    // Size each probe's batch: double until one batch takes long enough.
    let calls: Vec<u64> = probes
        .iter_mut()
        .map(|p| {
            let mut n = 64u64;
            loop {
                let started = Instant::now();
                (p.run)(n);
                if started.elapsed().as_secs_f64() >= BATCH_SECONDS {
                    return n;
                }
                n *= 2;
            }
        })
        .collect();
    let mut batches: Vec<Vec<f64>> = vec![Vec::with_capacity(BATCHES); probes.len()];
    for _ in 0..BATCHES {
        for ((p, &n), ns) in probes.iter_mut().zip(&calls).zip(&mut batches) {
            let started = Instant::now();
            (p.run)(n);
            ns.push(started.elapsed().as_nanos() as f64 / n as f64 * p.per_call);
        }
    }
    for (p, mut ns) in probes.iter().zip(batches) {
        values.push((p.name, median(&mut ns)));
    }
    Probes { values }
}

fn engine(out: &mut Vec<Probe>) {
    let sim = Sim::new(1);
    let s = sim.clone();
    out.push(probe("simnet.engine.host_ns_per_event", (), move |n| {
        for i in 0..n {
            s.schedule(SimDuration::from_nanos(i % 7), || {});
        }
        s.run();
    }));
    // One task sleeping `n` times: each sleep is an event, a wake and a
    // poll of the task.
    out.push(probe(
        "simnet.engine.host_ns_per_task_switch",
        (),
        move |n| {
            let s = sim.clone();
            sim.block_on(async move {
                for _ in 0..n {
                    s.sleep(SimDuration::from_nanos(1)).await;
                }
            });
        },
    ));
}

fn verbs(out: &mut Vec<Probe>) {
    let cluster = Rc::new(Cluster::cluster_b(1, 2));
    let fabric = IbFabric::new(cluster.clone());
    let sim = cluster.sim().clone();
    let (ha, hb) = (fabric.open(NodeId(0)), fabric.open(NodeId(1)));
    let (pa, pb) = (ha.alloc_pd(), hb.alloc_pd());
    let (ca, cb) = (ha.create_cq(), hb.create_cq());
    let qa = pa.create_qp(QpType::Rc, &ca, &ca, None);
    let qb = pb.create_qp(QpType::Rc, &cb, &cb, None);
    qa.connect_to(hb.node(), qb.qpn()).expect("connect a->b");
    qb.connect_to(ha.node(), qa.qpn()).expect("connect b->a");

    const LEN: usize = 64 << 10;
    let inbox = Rc::new(pb.register(64, Access::LOCAL_WRITE));
    let remote = Rc::new(pb.register(LEN, Access::LOCAL_WRITE | Access::REMOTE_READ));
    let local = Rc::new(pa.register(LEN, Access::LOCAL_WRITE));
    let alive = Rc::new((fabric, ha, hb, pb));
    {
        let (sim, qa, ca) = (sim.clone(), qa.clone(), ca.clone());
        out.push(probe("verbs.host_ns_per_send", alive.clone(), move |n| {
            let (qa, qb, ca, cb, inbox) = (
                qa.clone(),
                qb.clone(),
                ca.clone(),
                cb.clone(),
                inbox.clone(),
            );
            sim.block_on(async move {
                for i in 0..n {
                    qb.post_recv(i, inbox.full());
                    let data = vec![7u8; 64];
                    qa.post_send(SendWr::new(i, SendOp::SendInline { data, imm: None }))
                        .expect("post send");
                    assert!(cb.next().await.status.is_ok());
                    assert!(ca.next().await.status.is_ok());
                }
            });
        }));
    }

    out.push(probe(
        "verbs.host_ns_per_rdma_read_64k",
        alive.clone(),
        move |n| {
            let (qa, ca, remote, local) = (qa.clone(), ca.clone(), remote.clone(), local.clone());
            sim.block_on(async move {
                for i in 0..n {
                    let op = SendOp::RdmaRead {
                        local: local.full(),
                        remote: remote.remote(0, LEN),
                    };
                    qa.post_send(SendWr::new(i, op)).expect("post read");
                    assert!(ca.next().await.status.is_ok());
                }
            });
        },
    ));

    out.push(probe("verbs.host_ns_per_mr_reg", alive, move |n| {
        for _ in 0..n {
            black_box(pa.register(LEN, Access::LOCAL_WRITE | Access::REMOTE_READ));
        }
    }));
}

/// An active-message echo between two runtimes — a request whose header
/// names a counter, and a reply that bumps it, as a memcached get does —
/// eager (64 B each way) and rendezvous (64 KB each way). Per message:
/// half a round trip.
fn ucr_messages(out: &mut Vec<Probe>) {
    const PORT: u16 = 7;
    const ECHO: u16 = 1;
    const REPLY: u16 = 2;
    let cluster = Rc::new(Cluster::cluster_b(1, 2));
    let fabric = IbFabric::new(cluster.clone());
    let sim = cluster.sim().clone();
    let server = UcrRuntime::new(&fabric, NodeId(0));
    server.register_handler(
        ECHO,
        FnHandler(|ep: &Endpoint, hdr: &[u8], data: AmData| {
            let ctr = u64::from_le_bytes(hdr[..8].try_into().expect("8-byte header"));
            let opts = SendOptions {
                target_ctr: ctr,
                ..SendOptions::default()
            };
            ep.post_message(
                REPLY,
                hdr.to_vec(),
                data.into_vec().unwrap_or_default(),
                opts,
            );
        }),
    );
    let listener = server.listen(PORT).expect("listen");
    sim.spawn(async move {
        let _ = listener.accept().await;
    });
    let client = UcrRuntime::new(&fabric, NodeId(1));
    let echoed = Rc::new(Cell::new(0u64));
    let seen = echoed.clone();
    client.register_handler(
        REPLY,
        FnHandler(move |_: &Endpoint, _: &[u8], data: AmData| {
            seen.set(seen.get() + data.len() as u64);
        }),
    );
    let c = client.clone();
    let ep = sim.block_on(async move {
        c.connect(NodeId(0), PORT, SimDuration::from_millis(100))
            .await
            .expect("connect")
    });

    for (name, len) in [
        ("ucr.host_ns_per_am_64b", 64usize),
        ("ucr.host_ns_per_rndv_64k", 64 << 10),
    ] {
        let payload = vec![3u8; len];
        let (sim, ep, client, echoed) = (sim.clone(), ep.clone(), client.clone(), echoed.clone());
        out.push(Probe {
            per_call: 0.5,
            ..probe(name, (fabric.clone(), server.clone()), move |n| {
                let before = echoed.get();
                let (ep, client, payload) = (ep.clone(), client.clone(), payload.clone());
                sim.block_on(async move {
                    let replied = client.counter();
                    let hdr = replied.id().to_le_bytes();
                    for i in 0..n {
                        ep.send_message(ECHO, &hdr, &payload, SendOptions::default())
                            .await
                            .expect("send");
                        replied
                            .wait_for(i + 1, SimDuration::from_millis(100))
                            .await
                            .expect("reply");
                    }
                });
                assert_eq!(
                    echoed.get() - before,
                    n * len as u64,
                    "{name}: bytes echoed"
                );
            })
        });
    }
}

/// A 64 B ping-pong over a TOE stream; a ping and its pong are two
/// messages. The events a message takes are counted, not timed.
fn sockets(out: &mut Vec<Probe>, counted: &mut Vec<(&'static str, f64)>) {
    const SERVER: SocketAddr = SocketAddr {
        node: NodeId(0),
        port: 7,
    };
    let cluster = Rc::new(Cluster::cluster_a(1, 2));
    let fabric = SockFabric::new(cluster.clone());
    let sim = cluster.sim().clone();
    let listener = fabric
        .listen(Stack::TenGigEToe, SERVER.node, SERVER.port)
        .expect("listen");
    sim.spawn(async move {
        let sock = listener.accept().await.expect("accept");
        sock.set_nodelay(true);
        while let Ok(data) = sock.read_exact(64).await {
            if sock.write_all(&data).await.is_err() {
                break;
            }
        }
    });
    let f = fabric.clone();
    let sock = sim.block_on(async move {
        let sock = f
            .connect(
                Stack::TenGigEToe,
                NodeId(1),
                SERVER,
                DEFAULT_CONNECT_TIMEOUT,
            )
            .await
            .expect("connect");
        sock.set_nodelay(true);
        Rc::new(sock)
    });
    let s = sim.clone();
    let ping_pong = move |n: u64| {
        let sock = sock.clone();
        s.block_on(async move {
            for _ in 0..n {
                sock.write_all(&[9u8; 64]).await.expect("write");
                sock.read_exact(64).await.expect("read");
            }
        });
    };

    const ROUND_TRIPS: u64 = 256;
    let events_before = sim.events_executed();
    ping_pong(ROUND_TRIPS);
    counted.push((
        "socksim.events_per_msg",
        (sim.events_executed() - events_before) as f64 / (2 * ROUND_TRIPS) as f64,
    ));
    out.push(Probe {
        per_call: 0.5,
        ..probe("socksim.host_ns_per_msg", fabric, ping_pong)
    });
}

fn protocols(out: &mut Vec<Probe>) {
    let key = b"key-0123456789abcdef".to_vec();
    // A get line and a 1 KB set, alternating: the two commands the
    // sockets workload sends.
    let commands = [
        Command::Gets {
            keys: vec![key.clone()],
        },
        Command::Store {
            verb: StoreVerb::Set,
            key: key.clone(),
            flags: 0,
            exptime: 0,
            data: vec![5u8; 1024],
            noreply: false,
        },
    ];
    let encoded: Vec<Vec<u8>> = commands.iter().map(encode_command).collect();
    out.push(probe("mcproto.host_ns_per_ascii_parse", (), move |n| {
        for i in 0..n {
            let parsed = parse_command(black_box(&encoded[(i % 2) as usize]));
            assert!(matches!(black_box(parsed), Ok(Some(_))));
        }
    }));
    out.push(probe("mcproto.host_ns_per_ascii_encode", (), move |n| {
        for i in 0..n {
            black_box(encode_command(black_box(&commands[(i % 2) as usize])));
        }
    }));

    let mut frame = BinFrame::request(BinOpcode::Get, 1);
    frame.key = key.clone();
    out.push(probe("mcproto.host_ns_per_bin_codec", (), move |n| {
        for _ in 0..n {
            let bytes = black_box(&frame).encode();
            assert!(matches!(BinFrame::parse(black_box(&bytes)), Ok(Some(_))));
        }
    }));

    let req = ReqHeader::new(McOp::Get, 1, 2, key);
    let resp = RespHeader {
        req_id: 1,
        status: RespStatus::Hit,
        flags: 0,
        cas: 9,
        number: 0,
        nvalues: 1,
    };
    out.push(probe("rmc.am_wire.host_ns_per_codec", (), move |n| {
        for _ in 0..n {
            let bytes = black_box(&req).encode();
            assert!(black_box(ReqHeader::decode(&bytes)).is_some());
            let bytes = black_box(&resp).encode();
            assert!(black_box(RespHeader::decode(&bytes)).is_some());
        }
    }));
}

fn store(out: &mut Vec<Probe>, value_size: usize) {
    const KEYS: usize = 256;
    let store = Rc::new(RefCell::new(Store::with_defaults()));
    let keys: Rc<Vec<Vec<u8>>> = Rc::new(
        (0..KEYS)
            .map(|i| format!("key-{i:016x}").into_bytes())
            .collect(),
    );
    let value = vec![1u8; value_size];
    for k in keys.iter() {
        store.borrow_mut().set(k, &value, 0, 0, 1);
    }
    let (s, k) = (store.clone(), keys.clone());
    out.push(probe("mcstore.host_ns_per_get", (), move |n| {
        let mut store = s.borrow_mut();
        for i in 0..n {
            black_box(store.get(&k[i as usize % KEYS], 1));
        }
    }));
    out.push(probe("mcstore.host_ns_per_set", (), move |n| {
        let mut store = store.borrow_mut();
        for i in 0..n {
            black_box(store.set(&keys[i as usize % KEYS], &value, 0, 0, 1));
        }
    }));
}
