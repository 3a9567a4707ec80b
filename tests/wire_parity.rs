//! Cross-wire differential test: one script of all fifteen operations,
//! replayed through each of the four wire front-ends (UCR active
//! messages, ASCII/TCP, binary/TCP, ASCII/UDP) against a fresh server
//! under each store model. Every run must give the committed replies
//! ([`REPLIES`]) and every wire leave the server in an identical state —
//! store counters, occupancy, per-op service counts — because all four are
//! front-ends to one request executor.
//!
//! The script runs through `McClient` (so the client codecs are under test
//! too); the two requests its API cannot express — a delayed `flush_all`
//! and a binary `incr` with an initial value — go over the raw wire.

use std::cell::RefCell;
use std::rc::Rc;

use rdma_memcached::mcproto::{
    arith_extras, encode_command, parse_response, store_extras, udp_fragment, BinFrame, BinOpcode,
    BinStatus, Command, Response, UdpFrame,
};
use rdma_memcached::mcstore::StoreStats;
use rdma_memcached::rmc::{
    McClient, McClientConfig, McError, McOp, McServerConfig, ReqHeader, RespHeader, RespStatus,
    Scenario, StoreModel, Transport, Value, World, BASE_UNIX_TIME, MSG_MC_REQ, MSG_MC_RESP,
};
use rdma_memcached::simnet::{NodeId, SimDuration, Stack};
use rdma_memcached::socksim::{Socket, SocketAddr};
use rdma_memcached::ucr::{AmData, Endpoint, FnHandler, SendOptions, UcrRuntime};

#[path = "../crates/core/tests/cells/oversize.rs"]
mod oversize;

const SRV: NodeId = NodeId(0);
/// Where the raw-wire requests come from: past every scenario's clients.
const RAW: NodeId = NodeId(3);
const STACK: Stack = Stack::TenGigEToe;
const PORT: u16 = 11211;
const TIMEOUT: SimDuration = SimDuration::from_millis(250);

const WIRES: [Transport; 4] = [
    Transport::Ucr,
    Transport::Sockets(STACK),
    Transport::Binary(STACK),
    Transport::Udp(STACK),
];
const ASCII: Transport = Transport::Sockets(STACK);
const MODELS: [StoreModel; 3] = [
    StoreModel::Idealized,
    StoreModel::GlobalLock,
    StoreModel::Sharded(4),
];

/// A server under `model`.
fn under(model: StoreModel) -> McServerConfig {
    McServerConfig {
        store_model: model,
        ..McServerConfig::default()
    }
}

/// A server [`under`] `model` on Cluster A seeded with `seed`, and one client
/// per wire.
fn testbed(seed: u64, model: StoreModel, wires: &[Transport]) -> Scenario {
    let clients = wires.iter().map(|&wire| McClientConfig::single(wire, SRV));
    Scenario::new(World::cluster_a(seed, 6), under(model), clients)
}

// ---------------------------------------------------------------------
// Raw-wire requests the client API cannot express
// ---------------------------------------------------------------------

async fn raw_socket(world: &World) -> Socket {
    let addr = SocketAddr {
        node: SRV,
        port: PORT,
    };
    world
        .socks
        .connect(STACK, RAW, addr, TIMEOUT)
        .await
        .expect("raw connect")
}

async fn read_response(sock: &Socket) -> Response {
    let mut buf = Vec::new();
    loop {
        if let Some((resp, _)) = parse_response(&buf).expect("well-formed response") {
            return resp;
        }
        sock.read(&mut buf, 64 * 1024).await.expect("raw read");
    }
}

async fn read_frame(sock: &Socket) -> BinFrame {
    let mut buf = Vec::new();
    loop {
        if let Some((frame, _)) = BinFrame::parse(&buf).expect("well-formed frame") {
            return frame;
        }
        sock.read(&mut buf, 64 * 1024).await.expect("raw read");
    }
}

/// `flush_all <delay>` over `wire`, spoken directly in its framing.
async fn raw_flush(world: &World, wire: Transport, delay: u32) {
    let cmd = encode_command(&Command::FlushAll {
        delay,
        noreply: false,
    });
    match wire {
        Transport::Sockets(_) => {
            let sock = raw_socket(world).await;
            sock.write_all(&cmd).await.expect("raw write");
            assert_eq!(read_response(&sock).await, Response::Ok);
            sock.close();
        }
        Transport::Binary(_) => {
            let sock = raw_socket(world).await;
            let mut frame = BinFrame::request(BinOpcode::Flush, 7);
            frame.extras = delay.to_be_bytes().to_vec();
            sock.write_all(&frame.encode()).await.expect("raw write");
            assert_eq!(read_frame(&sock).await.status(), Some(BinStatus::Ok));
            sock.close();
        }
        Transport::Udp(_) => {
            let sock = world.socks.udp_bind(STACK, RAW, 40_000).expect("udp bind");
            let to = SocketAddr {
                node: SRV,
                port: PORT,
            };
            let mut datagram = Vec::new();
            udp_fragment(9, &cmd, &mut datagram);
            sock.send_to(to, &datagram).await.expect("udp send");
            let (_, datagram) = sock.recv_from().await.expect("udp recv");
            let (frame, payload) = UdpFrame::decode(&datagram).expect("udp frame");
            assert_eq!((frame.request_id, frame.total), (9, 1));
            let resp = parse_response(payload).expect("well-formed response");
            assert_eq!(resp.map(|(r, _)| r), Some(Response::Ok));
        }
        Transport::Ucr | Transport::UcrRoce => {
            let rt = UcrRuntime::new(&world.ib, RAW);
            let landed: Rc<RefCell<Option<RespHeader>>> = Rc::default();
            let slot = landed.clone();
            rt.register_handler(
                MSG_MC_RESP,
                FnHandler(move |_: &Endpoint, hdr: &[u8], _: AmData| {
                    *slot.borrow_mut() = RespHeader::decode(hdr);
                }),
            );
            let ep = rt.connect(SRV, PORT, TIMEOUT).await.expect("ucr connect");
            let ctr = rt.counter();
            let mut hdr = ReqHeader::new(McOp::FlushAll, 77, ctr.id(), Vec::new());
            hdr.exptime = delay;
            ep.send_message(MSG_MC_REQ, &hdr.encode(), &[], SendOptions::default())
                .await
                .expect("ucr send");
            ctr.wait_for(1, TIMEOUT).await.expect("ucr reply");
            let resp = landed.borrow_mut().take().expect("response landed");
            assert_eq!((resp.req_id, resp.status), (77, RespStatus::Ok));
            ep.close();
            rt.shutdown();
        }
    }
}

/// Binary `incr` carrying an initial value and expiry: `(status, value)`.
async fn raw_binary_incr(
    world: &World,
    key: &[u8],
    delta: u64,
    initial: u64,
    exptime: u32,
) -> (Option<BinStatus>, Option<u64>) {
    let sock = raw_socket(world).await;
    let mut frame = BinFrame::request(BinOpcode::Increment, 11);
    frame.key = key.to_vec();
    frame.extras = arith_extras(delta, initial, exptime).to_vec();
    sock.write_all(&frame.encode()).await.expect("raw write");
    let resp = read_frame(&sock).await;
    sock.close();
    let value = resp
        .value
        .as_slice()
        .try_into()
        .ok()
        .map(u64::from_be_bytes);
    (resp.status(), value)
}

// ---------------------------------------------------------------------
// The script
// ---------------------------------------------------------------------

/// What one run leaves behind, in a form comparable across wires.
#[derive(Debug, PartialEq)]
struct Footprint {
    /// One line per scripted step: the reply, normalized.
    replies: Vec<String>,
    store: StoreStats,
    curr_items: u64,
    /// `curr_items`, `bytes` and the storage counters as `stats` reports
    /// them over the wire under test.
    stats: Vec<(String, String)>,
    /// Per-op service counts (`op.<verb>.count`) of the mutating verbs.
    op_counts: Vec<(String, String)>,
    /// `op.mget.count` on the wires that carry a multiget as one request
    /// (binary sends a quiet get per key).
    mgets: Option<String>,
}

fn pick(pairs: &[(String, String)], wanted: &[&str]) -> Vec<(String, String)> {
    wanted
        .iter()
        .map(|w| {
            let hit = pairs.iter().find(|(k, _)| k == w);
            (
                w.to_string(),
                hit.map(|(_, v)| v.clone()).unwrap_or_default(),
            )
        })
        .collect()
}

async fn run_script(bed: &Scenario, wire: Transport) -> Footprint {
    let (world, c) = (&bed.world, &bed.clients[0]);
    let mut replies = Vec::new();
    let mut say = |step: &str, outcome: String| replies.push(format!("{step}: {outcome}"));
    let data = |r: Result<Option<Value>, McError>| {
        r.map(|hit| hit.map(|v| (String::from_utf8_lossy(&v.data).into_owned(), v.flags)))
    };

    // set / get / add / replace
    say("set k1", format!("{:?}", c.set(b"k1", b"v1", 5, 0).await));
    say("get k1", format!("{:?}", data(c.get(b"k1").await)));
    say("get absent", format!("{:?}", data(c.get(b"absent").await)));
    say("add k1", format!("{:?}", c.add(b"k1", b"x", 0, 0).await));
    say("add k2", format!("{:?}", c.add(b"k2", b"v2", 2, 0).await));
    say(
        "replace absent",
        format!("{:?}", c.replace(b"absent", b"x", 0, 0).await),
    );
    say(
        "replace k2",
        format!("{:?}", c.replace(b"k2", b"v2b", 3, 0).await),
    );
    // append / prepend
    say(
        "append absent",
        format!("{:?}", c.append(b"absent", b"x").await),
    );
    say(
        "append k1",
        format!("{:?}", c.append(b"k1", b"+tail").await),
    );
    say(
        "prepend k1",
        format!("{:?}", c.prepend(b"k1", b"head+").await),
    );
    say("get k1 (joined)", format!("{:?}", data(c.get(b"k1").await)));
    // cas: hit, stale token, missing key
    let token = c.get(b"k1").await.unwrap().unwrap().cas;
    say(
        "cas hit",
        format!("{:?}", c.cas(b"k1", b"casv", 1, 0, token).await),
    );
    say(
        "cas stale",
        format!("{:?}", c.cas(b"k1", b"late", 1, 0, token).await),
    );
    say(
        "cas absent",
        format!("{:?}", c.cas(b"absent", b"x", 0, 0, token).await),
    );
    // incr / decr
    say("set n", format!("{:?}", c.set(b"n", b"10", 0, 0).await));
    say("incr n", format!("{:?}", c.incr(b"n", 5).await));
    say("decr n (clamps)", format!("{:?}", c.decr(b"n", 20).await));
    say("incr non-numeric", format!("{:?}", c.incr(b"k1", 1).await));
    say("incr absent", format!("{:?}", c.incr(b"absent", 1).await));
    let max = u64::MAX.to_string();
    say(
        "set max",
        format!("{:?}", c.set(b"max", max.as_bytes(), 0, 0).await),
    );
    say("incr max (wraps)", format!("{:?}", c.incr(b"max", 1).await));
    // touch / delete
    say("touch k2", format!("{:?}", c.touch(b"k2", 60).await));
    say(
        "touch absent",
        format!("{:?}", c.touch(b"absent", 60).await),
    );
    say("delete k2", format!("{:?}", c.delete(b"k2").await));
    say("delete k2 again", format!("{:?}", c.delete(b"k2").await));
    // An exptime past 30 days is an absolute unix time; what it expired is
    // gone for `cas` too.
    let at = BASE_UNIX_TIME + world.sim().now().as_secs_f64() as u32 + 2;
    say(
        "set absolute",
        format!("{:?}", c.set(b"abs", b"v", 0, at).await),
    );
    let token = c.get(b"abs").await.unwrap().unwrap().cas;
    world.sim().sleep(SimDuration::from_secs(3)).await;
    say("get expired", format!("{:?}", data(c.get(b"abs").await)));
    say(
        "cas expired",
        format!("{:?}", c.cas(b"abs", b"x", 0, 0, token).await),
    );
    // 8-key multiget with misses (and keys on several shards)
    for i in 0..5u32 {
        let (key, value) = (format!("m{i}"), format!("mv{i}"));
        c.set(key.as_bytes(), value.as_bytes(), i, 0).await.unwrap();
    }
    let keys: [&[u8]; 8] = [
        b"m0", b"gone0", b"m1", b"m2", b"gone1", b"m3", b"gone2", b"m4",
    ];
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    let hits = c.mget(&keys).await.map(|hits| {
        hits.into_iter()
            .map(|(k, v)| (text(&k), text(&v.data), v.flags))
            .collect::<Vec<_>>()
    });
    say("mget 8", format!("{hits:?}"));
    // version, stats sub-reports
    say("version", format!("{:?}", c.version().await));
    let slabs = c.stats_report("slabs").await.unwrap();
    say(
        "stats slabs",
        format!("{:?}", slabs.iter().any(|(k, _)| k == "active_slabs")),
    );
    let bogus = c.stats_report("bogus").await;
    say("stats bogus", format!("{bogus:?}"));
    // Retired sub-reports answer like any unknown one.
    for retired in ["hot", "slo", "exemplars"] {
        assert_eq!(
            c.stats_report(retired).await,
            bogus,
            "{wire:?}: stats {retired}"
        );
    }
    // delayed flush_all: items outlive the request, not the deadline
    raw_flush(world, wire, 2).await;
    say(
        "get m0 before deadline",
        format!("{:?}", data(c.get(b"m0").await)),
    );
    world.sim().sleep(SimDuration::from_secs(3)).await;
    say(
        "get m0 after deadline",
        format!("{:?}", data(c.get(b"m0").await)),
    );
    say(
        "set after flush",
        format!("{:?}", c.set(b"k9", b"v9", 0, 0).await),
    );
    // (A flush spares items stored within its own second, as memcached's does.)
    world.sim().sleep(SimDuration::from_secs(1)).await;
    say("flush_all now", format!("{:?}", c.flush_all().await));
    say("get k9 flushed", format!("{:?}", data(c.get(b"k9").await)));
    say(
        "set final",
        format!("{:?}", c.set(b"last", b"one", 0, 0).await),
    );

    let stats = c.stats().await.unwrap();
    Footprint {
        replies,
        store: bed.server.store_stats(),
        curr_items: bed.server.curr_items(),
        stats: pick(
            &stats,
            &[
                "curr_items",
                "bytes",
                "get_hits",
                "get_misses",
                "cmd_set",
                "cas_hits",
                "cas_badval",
            ],
        ),
        op_counts: pick(
            &stats,
            &[
                "op.set.count",
                "op.add.count",
                "op.replace.count",
                "op.append.count",
                "op.prepend.count",
                "op.cas.count",
                "op.incr.count",
                "op.decr.count",
                "op.touch.count",
                "op.delete.count",
                "op.flush_all.count",
            ],
        ),
        mgets: (!matches!(wire, Transport::Binary(_)))
            .then(|| pick(&stats, &["op.mget.count"]).remove(0).1),
    }
}

/// What every run of the script answers, step by step, on every wire and
/// under every store model.
const REPLIES: [&str; 38] = [
    "set k1: Ok(())",
    r#"get k1: Ok(Some(("v1", 5)))"#,
    "get absent: Ok(None)",
    "add k1: Err(NotStored)",
    "add k2: Ok(())",
    "replace absent: Err(NotStored)",
    "replace k2: Ok(())",
    "append absent: Err(NotStored)",
    "append k1: Ok(())",
    "prepend k1: Ok(())",
    r#"get k1 (joined): Ok(Some(("head+v1+tail", 5)))"#,
    "cas hit: Ok(())",
    "cas stale: Err(Exists)",
    "cas absent: Err(NotFound)",
    "set n: Ok(())",
    "incr n: Ok(15)",
    "decr n (clamps): Ok(0)",
    "incr non-numeric: Err(NotNumeric)",
    "incr absent: Err(NotFound)",
    "set max: Ok(())",
    "incr max (wraps): Ok(0)",
    "touch k2: Ok(true)",
    "touch absent: Ok(false)",
    "delete k2: Ok(true)",
    "delete k2 again: Ok(false)",
    "set absolute: Ok(())",
    "get expired: Ok(None)",
    "cas expired: Err(NotFound)",
    concat!(
        r#"mget 8: Ok([("m0", "mv0", 0), ("m1", "mv1", 1), ("m2", "mv2", 2), "#,
        r#"("m3", "mv3", 3), ("m4", "mv4", 4)])"#,
    ),
    r#"version: Ok("1.4.5-rmc")"#,
    "stats slabs: true",
    "stats bogus: Ok([])",
    r#"get m0 before deadline: Ok(Some(("mv0", 0)))"#,
    "get m0 after deadline: Ok(None)",
    "set after flush: Ok(())",
    "flush_all now: Ok(())",
    "get k9 flushed: Ok(None)",
    "set final: Ok(())",
];

#[test]
fn every_wire_gives_the_same_replies_and_leaves_the_same_server() {
    for model in MODELS {
        let mut reference: Option<Footprint> = None;
        for wire in WIRES {
            let bed = testbed(61, model, &[wire]);
            let sim = bed.world.sim().clone();
            let mut got = sim.block_on(async move { run_script(&bed, wire).await });
            assert_eq!(got.replies, REPLIES, "{model:?}/{wire:?}");
            // 5 single-key hits + 5 multiget hits; 4 single-key misses + 3
            // multiget misses. Nothing but a fetch may count as one.
            let fetches = (got.store.get_hits, got.store.get_misses);
            assert_eq!(fetches, (10, 7), "{model:?}/{wire:?}: {:?}", got.store);
            // One multiget is one served request, however many shards'
            // workers had a part in it.
            if let Some(mgets) = got.mgets.take() {
                assert_eq!(mgets, "1", "{model:?}/{wire:?}: op.mget.count");
            }
            match &reference {
                None => reference = Some(got),
                Some(want) => assert_eq!(&got, want, "{model:?}: {wire:?} vs {:?}", WIRES[0]),
            }
        }
    }
}

/// The committed replies under another seed's schedule, on one wire, for
/// every store model.
#[test]
fn replies_do_not_depend_on_the_store_model() {
    for model in MODELS {
        let bed = testbed(62, model, &[ASCII]);
        let sim = bed.world.sim().clone();
        let got = sim.block_on(async move { run_script(&bed, ASCII).await });
        assert_eq!(got.replies, REPLIES, "{model:?}");
    }
}

#[test]
fn oversize_values_are_refused_without_touching_the_store() {
    WIRES.into_iter().for_each(oversize::oversize_is_refused);
}

/// memcached 1.4 answers an unknown command with `ERROR` and a
/// non-numeric `incr`/`decr` delta with `CLIENT_ERROR`, and keeps reading
/// the connection: the next request on it is served.
#[test]
fn ascii_refusals_answer_and_keep_the_connection() {
    let bed = testbed(67, StoreModel::Idealized, &[ASCII]);
    let (sim, c) = (bed.world.sim().clone(), bed.clients[0].clone());
    sim.block_on(async move {
        c.set(b"k", b"10", 3, 0).await.unwrap();
        let sock = raw_socket(&bed.world).await;
        let hit = &b"VALUE k 3 2\r\n10\r\nEND\r\n"[..];
        let delta = &b"CLIENT_ERROR invalid numeric delta argument\r\n"[..];
        let rows: [(&[u8], &[u8]); 4] = [
            (b"bogus k\r\n", b"ERROR\r\n"),
            (b"incr k one\r\n", delta),
            (b"decr k -1\r\n", delta),
            (b"incr absent 1x\r\n", delta),
        ];
        for (line, answer) in rows {
            let row = String::from_utf8_lossy(line);
            sock.write_all(line).await.expect("raw write");
            let got = sock.read_exact(answer.len()).await.expect("raw read");
            assert_eq!(got, answer, "{row}");
            sock.write_all(b"get k\r\n").await.expect("raw write");
            let got = sock.read_exact(hit.len()).await.expect("raw read");
            assert_eq!(got, hit, "get after {row}");
        }
        // Behind a request still in service, the refusal keeps its place.
        sock.write_all(b"get k\r\nbogus\r\n")
            .await
            .expect("raw write");
        let mut both = hit.to_vec();
        both.extend_from_slice(b"ERROR\r\n");
        let got = sock.read_exact(both.len()).await.expect("raw read");
        assert_eq!(got, both);
        bed.world.sim().sleep(SimDuration::from_millis(1)).await;
        assert_eq!(sock.available(), 0, "nothing more was said");
        sock.close();
    });
}

/// memcached 1.4's `out_string` says nothing to a `noreply` request, a
/// failed one included: an `add` of a present key, an `incr` of an absent
/// one and a `cas` with a stale token each leave the connection silent and
/// the store as it was, so the next `get`'s `VALUE` is the first byte read.
#[test]
fn ascii_noreply_failures_say_nothing() {
    let bed = testbed(68, StoreModel::Idealized, &[ASCII]);
    let (sim, c) = (bed.world.sim().clone(), bed.clients[0].clone());
    sim.block_on(async move {
        c.set(b"k", b"10", 3, 0).await.unwrap();
        let stale = c.get(b"k").await.unwrap().unwrap().cas;
        c.set(b"k", b"10", 3, 0).await.unwrap();
        let item = c.get(b"k").await.unwrap().unwrap();
        assert_ne!(item.cas, stale);
        let sock = raw_socket(&bed.world).await;
        let hit = &b"VALUE k 3 2\r\n10\r\nEND\r\n"[..];
        let stale_cas = format!("cas k 0 0 2 {stale} noreply\r\n99\r\n");
        let rows: [&[u8]; 3] = [
            b"add k 0 0 2 noreply\r\n99\r\n",
            b"incr absent 1 noreply\r\n",
            stale_cas.as_bytes(),
        ];
        for line in rows {
            let row = String::from_utf8_lossy(line);
            sock.write_all(line).await.expect("raw write");
            sock.write_all(b"get k\r\n").await.expect("raw write");
            let got = sock.read_exact(hit.len()).await.expect("raw read");
            assert_eq!(got, hit, "get after {row}");
        }
        bed.world.sim().sleep(SimDuration::from_millis(1)).await;
        assert_eq!(sock.available(), 0, "nothing more was said");
        sock.close();
        assert_eq!(c.get(b"k").await.unwrap(), Some(item));
        assert_eq!(c.get(b"absent").await.unwrap(), None);
    });
}

#[test]
fn binary_sets_return_the_fresh_cas_without_reading_the_item() {
    // The binary wire answers a store with the item's new CAS token; the
    // executor must get it without a `get` (no hit counted).
    let bed = testbed(64, StoreModel::Idealized, &[Transport::Binary(STACK)]);
    let c = bed.clients[0].clone();
    bed.world.sim().block_on(async move {
        for i in 0..20u32 {
            let key = format!("b{i}");
            c.set(key.as_bytes(), b"value", 0, 0).await.unwrap();
        }
    });
    let st = bed.server.store_stats();
    assert_eq!((st.sets, st.get_hits, st.get_misses), (20, 0, 0));
}

#[test]
fn binary_incr_with_an_initial_value_creates_the_counter() {
    let bed = testbed(65, StoreModel::Idealized, &[Transport::Binary(STACK)]);
    let (sim, srv) = (bed.world.sim().clone(), bed.server.clone());
    let (world, c) = (bed.world, bed.clients[0].clone());
    sim.block_on(async move {
        // All-ones expiry: fail on a missing key, create nothing.
        let miss = raw_binary_incr(&world, b"ctr", 1, 40, u32::MAX).await;
        assert_eq!(miss, (Some(BinStatus::KeyNotFound), None));
        assert_eq!(c.get(b"ctr").await.unwrap(), None);
        // Any other expiry: create holding the initial value…
        let made = raw_binary_incr(&world, b"ctr", 1, 40, 0).await;
        assert_eq!(made, (Some(BinStatus::Ok), Some(40)));
        assert_eq!(c.get(b"ctr").await.unwrap().unwrap().data, b"40");
        // …and from then on it is an ordinary counter.
        let next = raw_binary_incr(&world, b"ctr", 2, 40, 0).await;
        assert_eq!(next, (Some(BinStatus::Ok), Some(42)));
    });
    assert_eq!(srv.store_stats().sets, 1);
}

/// A train of quiet gets closed by a Noop, byte for byte on binary/TCP
/// under every store model: a GetKQ hit, a GetKQ miss, a GetQ hit and the
/// Noop. Only the two hits answer, in request order, each echoing its
/// opaque (the GetKQ also its key); the miss is silence; the Noop's empty
/// reply comes last.
#[test]
fn binary_quiet_gets_answer_only_their_hits_in_order_then_the_noop() {
    for model in MODELS {
        let bed = testbed(66, model, &[Transport::Binary(STACK)]);
        let world = bed.world;
        world.sim().clone().block_on(async move {
            let sock = raw_socket(&world).await;
            let mut set = BinFrame::request(BinOpcode::Set, 1);
            (set.key, set.value) = (b"hit".to_vec(), b"value".to_vec());
            set.extras = store_extras(5, 0).to_vec();
            sock.write_all(&set.encode()).await.expect("raw write");
            let stored = read_frame(&sock).await;
            assert_eq!(stored.status(), Some(BinStatus::Ok), "{model:?}");

            let get = |opcode, opaque, key: &[u8]| {
                let mut frame = BinFrame::request(opcode, opaque);
                frame.key = key.to_vec();
                frame
            };
            let train = [
                get(BinOpcode::GetKQ, 2, b"hit"),
                get(BinOpcode::GetKQ, 3, b"miss"),
                get(BinOpcode::GetQ, 4, b"hit"),
                get(BinOpcode::Noop, 5, b""),
            ];
            let hit = |req: &BinFrame, key: &[u8]| {
                let mut frame = BinFrame::response(req, BinStatus::Ok);
                frame.extras = 5u32.to_be_bytes().to_vec();
                (frame.cas, frame.key, frame.value) = (stored.cas, key.to_vec(), b"value".to_vec());
                frame.encode()
            };
            let expected = [
                hit(&train[0], b"hit"),
                hit(&train[2], b""),
                BinFrame::response(&train[3], BinStatus::Ok).encode(),
            ]
            .concat();
            let wire: Vec<u8> = train.iter().flat_map(BinFrame::encode).collect();
            sock.write_all(&wire).await.expect("raw write");

            // Read until the Noop's reply is whole.
            let (mut got, mut at) = (Vec::new(), 0);
            'noop: loop {
                sock.read(&mut got, 64 * 1024).await.expect("raw read");
                while let Some((frame, used)) = BinFrame::parse(&got[at..]).expect("a frame") {
                    at += used;
                    if frame.opcode == BinOpcode::Noop {
                        break 'noop;
                    }
                }
            }
            assert_eq!(got, expected, "{model:?}");
            sock.close();
        });
    }
}

/// A get answers with the bytes the store held at its service instant. The
/// store lends the hit and the front-end writes it into the reply before
/// the get's lock is released, so a `set` of the same key queued right
/// behind the get — from another connection, and so on another worker,
/// except where UCR routes both to the key's shard's worker — does not
/// reach the reply; the next get sees the new bytes. Then a 64 KB hit goes
/// by rendezvous: the server holds its source registered until the
/// client's Fin, and after the Fin its registrations and idle send buffers
/// are back at their baseline.
#[test]
fn a_get_answers_with_the_bytes_of_its_service_instant() {
    let data =
        |hit: Result<Option<Value>, McError>| hit.expect("served").map(|v| v.data.into_vec());
    for model in [StoreModel::GlobalLock, StoreModel::Sharded(2)] {
        for wire in [Transport::Ucr, ASCII] {
            let Scenario {
                world,
                server: srv,
                clients,
            } = testbed(68, model, &[wire, wire]);
            let (getter, setter) = (clients[0].clone(), clients[1].clone());
            let sim = world.sim().clone();
            let (s, g, first, stored) = (sim.clone(), getter.clone(), getter.clone(), srv.clone());
            sim.block_on(async move {
                g.set(b"k", b"old", 0, 0).await.expect("stored");
                assert_eq!(data(setter.get(b"k").await), Some(b"old".to_vec()));
                // Issued at one instant, the get first.
                let get = s.spawn(async move {
                    let hit = data(first.get(b"k").await);
                    (hit, stored.store_stats().sets)
                });
                let set = s.spawn(async move { setter.set(b"k", b"new", 0, 0).await });
                // The set was served before the get's reply reached its
                // client, and the reply holds the bytes the get was served.
                let (hit, sets) = get.await;
                assert_eq!(sets, 2, "{model:?}/{wire:?}: the set overtook the reply");
                assert_eq!(hit, Some(b"old".to_vec()), "{model:?}/{wire:?}");
                set.await.expect("stored");
                assert_eq!(data(g.get(b"k").await), Some(b"new".to_vec()));
            });
            if wire != Transport::Ucr {
                continue;
            }
            let rt = srv.ucr_runtime().expect("UCR server");
            let hca = world.ib.open(SRV);
            let tables = move || {
                let idle = rt.idle_send_buffers();
                (idle, hca.registered_regions() - idle)
            };
            let big = vec![5u8; 64 << 10];
            let settle = SimDuration::from_millis(1);
            sim.clone().block_on(async move {
                getter.set(b"big", &big, 0, 0).await.expect("stored");
                // One rendezvous hit first: the send pool then holds what
                // a rendezvous reply takes.
                assert_eq!(data(getter.get(b"big").await).as_ref(), Some(&big));
                sim.sleep(settle).await;
                let baseline = tables();
                assert_eq!(data(getter.get(b"big").await).as_ref(), Some(&big));
                // The client has read the source; its Fin is on the wire.
                assert_eq!(tables(), (baseline.0, baseline.1 + 1), "{model:?}");
                sim.sleep(settle).await;
                assert_eq!(tables(), baseline, "{model:?}");
            });
        }
    }
}

#[test]
fn every_mutating_verb_on_every_wire_reaches_a_bypass_reader() {
    // A UCR client reading `k` one-sidedly holds a cached descriptor of
    // its slab chunk. Whatever wire a mutation arrives on, the executor's
    // mirror sync must bump the chunk's seqlock version so the reader
    // notices (retry or fallback) and returns what the server now holds.
    type Step = (&'static str, fn(&McClient) -> LocalFut<'_>);
    type LocalFut<'a> = std::pin::Pin<Box<dyn std::future::Future<Output = ()> + 'a>>;
    let verbs: [Step; 9] = [
        ("set", |c| {
            Box::pin(async { c.set(b"k", b"11", 0, 0).await.unwrap() })
        }),
        ("replace", |c| {
            Box::pin(async { c.replace(b"k", b"12", 0, 0).await.unwrap() })
        }),
        ("append", |c| {
            Box::pin(async { c.append(b"k", b"3").await.unwrap() })
        }),
        ("prepend", |c| {
            Box::pin(async { c.prepend(b"k", b"4").await.unwrap() })
        }),
        ("cas", |c| {
            Box::pin(async {
                let token = c.get(b"k").await.unwrap().unwrap().cas;
                c.cas(b"k", b"15", 0, 0, token).await.unwrap()
            })
        }),
        ("incr", |c| {
            Box::pin(async { assert_eq!(c.incr(b"k", 1).await, Ok(11)) })
        }),
        ("decr", |c| {
            Box::pin(async { assert_eq!(c.decr(b"k", 1).await, Ok(9)) })
        }),
        ("touch", |c| {
            Box::pin(async { assert!(c.touch(b"k", 600).await.unwrap()) })
        }),
        ("delete", |c| {
            Box::pin(async { assert!(c.delete(b"k").await.unwrap()) })
        }),
    ];
    for model in MODELS {
        for wire in WIRES {
            check_bypass(model, wire, verbs);
        }
    }

    fn check_bypass(model: StoreModel, wire: Transport, verbs: [Step; 9]) {
        let reader = McClientConfig {
            bypass_get: true,
            ..McClientConfig::single(Transport::Ucr, SRV)
        };
        let clients = [McClientConfig::single(wire, SRV), reader];
        let bed = Scenario::new(World::cluster_a(66, 6), under(model), clients);
        let (writer, reader) = (bed.clients[0].clone(), bed.clients[1].clone());
        let sim = bed.world.sim().clone();
        sim.block_on(async move {
            let rt = reader.ucr_runtime().unwrap();
            let noticed = || rt.stats().bypass_retries.get() + rt.stats().bypass_fallbacks.get();
            for (verb, apply) in verbs {
                writer.set(b"k", b"10", 0, 0).await.unwrap();
                // Prime the reader's descriptor cache with a bypassed read.
                let reads = rt.stats().bypass_reads.get();
                assert_eq!(reader.get(b"k").await.unwrap().unwrap().data, b"10");
                assert!(
                    rt.stats().bypass_reads.get() > reads,
                    "{wire:?}: read bypassed"
                );
                let before = noticed();
                apply(&writer).await;
                let now_holds = writer.get(b"k").await.unwrap().map(|v| v.data);
                let reader_sees = reader.get(b"k").await.unwrap().map(|v| v.data);
                assert_eq!(reader_sees, now_holds, "{model:?}/{wire:?}/{verb}");
                assert!(
                    noticed() > before,
                    "{model:?}/{wire:?}/{verb}: stale descriptor went unnoticed"
                );
            }
            // flush_all reaches the reader too.
            writer.set(b"k", b"10", 0, 0).await.unwrap();
            assert!(reader.get(b"k").await.unwrap().is_some());
            bed.world.sim().sleep(SimDuration::from_secs(1)).await;
            raw_flush(&bed.world, wire, 0).await;
            assert_eq!(
                reader.get(b"k").await.unwrap(),
                None,
                "{model:?}/{wire:?}/flush"
            );
        });
    }
}
