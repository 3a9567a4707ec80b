//! The scenario sweep, shared by the test binaries that call it: one
//! server and a client per stream, each client on its own wire, every verb
//! the server serves, checked against an `mcstore::Store` driven with the
//! same calls. `tests/pipeline.rs` draws the cases; the rows of
//! `crates/core/tests/rmc.rs` and `store_model.rs` are fixed ones. Each
//! binary uses part of it.
#![allow(dead_code)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use mcproto::UDP_CHUNK_BYTES;
use mcstore::{NumericError, SetOutcome, Store};
use rmc::{
    McClient, McClientConfig, McError, McServerConfig, Scenario, StoreModel, Transport, Value,
    World, BASE_UNIX_TIME,
};
use simnet::{ClusterProfile, Event, EventRecorder, NodeId, Phase, SimRng, SimTime, Stack};

/// Value sizes drawn from: three eager on UCR, three past its 8 KB
/// threshold (a reply adds its header). Client `i` sends values of these
/// sizes plus `i`, so a length names its client.
pub const VALUE_SIZES: [usize; 6] = [1, 100, 1000, 8000, 9000, 20 << 10];

/// Keys a stream draws from.
pub const KEYS: usize = 24;

/// A value: index into `VALUE_SIZES`, and the byte it repeats, which is
/// also its flags. A repeated digit is a number while it fits a `u64`.
#[derive(Debug, Clone, Copy)]
pub struct Val(pub usize, pub u8);

/// One call of a client's stream; a key is an index below `KEYS` (or a
/// little past it), and a batch names each key once.
#[derive(Debug, Clone)]
pub enum Call {
    Set(usize, Val),
    Add(usize, Val),
    Replace(usize, Val),
    Append(usize, Val),
    Prepend(usize, Val),
    /// A get for the key's token, then a cas with that token if `true`,
    /// or with a stale one.
    Cas(usize, Val, bool),
    Incr(usize, u64),
    Decr(usize, u64),
    Touch(usize, u32),
    Delete(usize),
    Get(usize),
    Mget(Vec<usize>),
    GetMany(Vec<usize>),
    /// Stored with flags 0, the one flags word a batch has.
    SetMany(Vec<(usize, Val)>),
}

/// A server and one client per stream.
#[derive(Debug, Clone)]
pub struct Case {
    pub seed: u64,
    /// Cluster B (QDR; SDP, IPoIB) or A (DDR; also 10GigE-TOE, 1GigE and
    /// RoCE).
    pub cluster_b: bool,
    pub store: StoreModel,
    pub workers: usize,
    pub depth: usize,
    pub bypass: bool,
    /// Every client uses one key space and the streams run one after
    /// another; otherwise each client has keys of its own and the streams
    /// run at once.
    pub shared: bool,
    /// Each client's wire and calls.
    pub streams: Vec<(Transport, Vec<Call>)>,
}

impl Case {
    /// The default server on Cluster A (B if `cluster_b`), one client per
    /// stream at depth 1 without bypass, keys disjoint.
    pub fn fixed(cluster_b: bool, streams: Vec<(Transport, Vec<Call>)>) -> Case {
        Case {
            seed: 7,
            cluster_b,
            store: StoreModel::Idealized,
            workers: McServerConfig::default().workers,
            depth: 1,
            bypass: false,
            shared: false,
            streams,
        }
    }

    pub fn draw(r: &mut SimRng) -> Case {
        let pick = |r: &mut SimRng, n: usize| r.gen_range_u64(0, n as u64) as usize;
        let key = |r: &mut SimRng| pick(r, KEYS);
        let keys = |r: &mut SimRng| {
            let mut keys = r.vec_of(1..13, key);
            keys.sort_unstable();
            keys.dedup();
            keys
        };
        let val = |r: &mut SimRng| {
            let fill = match r.gen_bool(0.3) {
                true => b'0' + pick(r, 10) as u8,
                false => pick(r, 256) as u8,
            };
            Val(pick(r, VALUE_SIZES.len()), fill)
        };
        // Appends and prepends stay eager-sized, so values stay small.
        let part = |r: &mut SimRng| Val(pick(r, 3), val(r).1);
        let call = |r: &mut SimRng| match pick(r, 14) {
            0 => Call::Set(key(r), val(r)),
            1 => Call::Add(key(r), val(r)),
            2 => Call::Replace(key(r), val(r)),
            3 => Call::Append(key(r), part(r)),
            4 => Call::Prepend(key(r), part(r)),
            5 => Call::Cas(key(r), val(r), r.gen_bool(0.5)),
            6 => Call::Incr(key(r), pick(r, 100) as u64),
            7 => Call::Decr(key(r), pick(r, 100) as u64),
            8 => Call::Touch(key(r), [0, 3600][pick(r, 2)]),
            9 => Call::Delete(key(r)),
            10 => Call::Get(key(r)),
            11 => Call::Mget(keys(r)),
            12 => Call::GetMany(keys(r)),
            _ => Call::SetMany(keys(r).into_iter().map(|k| (k, val(r))).collect()),
        };
        let cluster_b = r.gen_bool(0.5);
        let profile = [ClusterProfile::cluster_a, ClusterProfile::cluster_b][cluster_b as usize]();
        let stacks: Vec<Stack> = Stack::ALL[1..]
            .iter()
            .copied()
            .filter(|&s| profile.supports(s))
            .collect();
        let wire = |r: &mut SimRng| {
            let stack = stacks[pick(r, stacks.len())];
            let wires = [
                Transport::Ucr,
                Transport::Sockets(stack),
                Transport::Binary(stack),
                Transport::Udp(stack),
                Transport::UcrRoce,
            ];
            wires[pick(r, wires.len() - cluster_b as usize)]
        };
        let stores = [
            StoreModel::Idealized,
            StoreModel::GlobalLock,
            StoreModel::Sharded(4),
        ];
        Case {
            seed: r.gen_range_u64(0, 1000),
            cluster_b,
            store: stores[pick(r, 3)],
            workers: [1, 4, 8][pick(r, 3)],
            depth: if r.gen_bool(0.5) { 1 } else { 8 },
            bypass: r.gen_bool(0.5),
            shared: r.gen_bool(0.5),
            streams: r.vec_of(1..8, |r| (wire(r), r.vec_of(1..20, call))),
        }
    }
}

/// Every verb's success and its refusals, on keys 0–5; it begins by
/// reading what a stream before it left there.
pub fn command_set() -> Vec<Call> {
    use Call::*;
    let (small, big) = (Val(1, b'a'), Val(2, b'b'));
    vec![
        Mget((0..6).collect()),
        Set(0, small),
        Get(0),
        Add(0, small),
        Add(1, Val(0, b'c')),
        Replace(1, big),
        Replace(5, big),
        Append(1, Val(0, b'd')),
        Prepend(1, small),
        Get(1),
        Cas(0, big, true),
        Cas(0, small, false),
        Cas(5, small, true),
        Set(2, Val(0, b'7')),
        Incr(2, 1),
        Decr(2, 100),
        Incr(5, 1),
        Incr(0, 1),
        Delete(1),
        Delete(1),
        Get(1),
        Touch(0, 60),
        Touch(1, 60),
        Set(3, Val(4, b'e')),
        SetMany(vec![(3, Val(3, b'e')), (4, Val(5, b'f'))]),
        GetMany((0..6).collect()),
    ]
}

/// A value as the oracle compares it: its bytes and flags, not its CAS.
type Hit = (Vec<u8>, u32);

/// A call's answer, from the wire or from the reference store.
#[derive(Debug, PartialEq)]
enum Reply {
    Stored(Result<(), McError>),
    Each(Vec<Result<(), McError>>),
    Number(Result<u64, McError>),
    Found(Result<bool, McError>),
    Values(Result<Vec<Option<Hit>>, McError>),
    Hits(Result<Vec<(Vec<u8>, Hit)>, McError>),
}

fn hit(v: Value) -> Hit {
    (v.data.to_vec(), v.flags)
}

fn refs(keys: &[Vec<u8>]) -> Vec<&[u8]> {
    keys.iter().map(Vec::as_slice).collect()
}

/// `call` over client `i`'s wire.
async fn on_wire(c: &McClient, call: &Call, names: &Names) -> Reply {
    let (key, val) = (|k| names.key(k), |v| names.val(v));
    match call {
        Call::Set(k, v) => Reply::Stored(c.set(&key(*k), &val(*v), v.1.into(), 0).await),
        Call::Add(k, v) => Reply::Stored(c.add(&key(*k), &val(*v), v.1.into(), 0).await),
        Call::Replace(k, v) => Reply::Stored(c.replace(&key(*k), &val(*v), v.1.into(), 0).await),
        Call::Append(k, v) => Reply::Stored(c.append(&key(*k), &val(*v)).await),
        Call::Prepend(k, v) => Reply::Stored(c.prepend(&key(*k), &val(*v)).await),
        Call::Cas(k, v, live) => {
            let token = c.get(&key(*k)).await.ok().flatten().map_or(1, |v| v.cas);
            let token = token + u64::from(!live);
            Reply::Stored(c.cas(&key(*k), &val(*v), v.1.into(), 0, token).await)
        }
        Call::Incr(k, d) => Reply::Number(c.incr(&key(*k), *d).await),
        Call::Decr(k, d) => Reply::Number(c.decr(&key(*k), *d).await),
        Call::Touch(k, exp) => Reply::Found(c.touch(&key(*k), *exp).await),
        Call::Delete(k) => Reply::Found(c.delete(&key(*k)).await),
        Call::Get(k) => Reply::Values(c.get(&key(*k)).await.map(|v| vec![v.map(hit)])),
        Call::Mget(ks) => {
            let names: Vec<_> = ks.iter().map(|&k| key(k)).collect();
            let got = c.mget(&refs(&names)).await;
            Reply::Hits(got.map(|hits| hits.into_iter().map(|(k, v)| (k, hit(v))).collect()))
        }
        Call::GetMany(ks) => {
            let names: Vec<_> = ks.iter().map(|&k| key(k)).collect();
            let got = c.get_many(&refs(&names)).await;
            Reply::Values(got.map(|vs| vs.into_iter().map(|v| v.map(hit)).collect()))
        }
        Call::SetMany(items) => {
            let kv: Vec<_> = items.iter().map(|&(k, v)| (key(k), val(v))).collect();
            let items: Vec<(&[u8], &[u8])> = kv.iter().map(|(k, v)| (&k[..], &v[..])).collect();
            match c.set_many(&items, 0, 0).await {
                Ok(each) => Reply::Each(each),
                Err(e) => Reply::Stored(Err(e)),
            }
        }
    }
}

/// `call` on the reference store, as the server's store sees it at the
/// start of the run.
fn on_store(s: &mut Store, call: &Call, names: &Names) -> Reply {
    const NOW: u32 = BASE_UNIX_TIME;
    let key = |k| names.key(k);
    let number = |got: Result<u64, NumericError>| match got {
        Ok(n) => Ok(n),
        Err(NumericError::NotFound) => Err(McError::NotFound),
        Err(NumericError::NotNumeric) => Err(McError::NotNumeric),
    };
    let get = |s: &mut Store, k| s.get(&key(k), NOW).map(|v| (v.data, v.flags));
    let stored =
        |v: &Val, op: &mut dyn FnMut(&[u8], u32) -> SetOutcome| Reply::Stored(names.stored(*v, op));
    match call {
        Call::Set(k, v) => stored(v, &mut |d, f| s.set(&key(*k), d, f, 0, NOW)),
        Call::Add(k, v) => stored(v, &mut |d, f| s.add(&key(*k), d, f, 0, NOW)),
        Call::Replace(k, v) => stored(v, &mut |d, f| s.replace(&key(*k), d, f, 0, NOW)),
        Call::Append(k, v) => stored(v, &mut |d, _| s.append(&key(*k), d, NOW)),
        Call::Prepend(k, v) => stored(v, &mut |d, _| s.prepend(&key(*k), d, NOW)),
        Call::Cas(k, v, live) => {
            let token = s.get(&key(*k), NOW).map_or(1, |v| v.cas) + u64::from(!live);
            stored(v, &mut |d, f| s.cas(&key(*k), d, f, 0, token, NOW))
        }
        Call::Incr(k, d) => Reply::Number(number(s.incr(&key(*k), *d, NOW))),
        Call::Decr(k, d) => Reply::Number(number(s.decr(&key(*k), *d, NOW))),
        Call::Touch(k, exp) => Reply::Found(Ok(s.touch(&key(*k), *exp, NOW))),
        Call::Delete(k) => Reply::Found(Ok(s.delete(&key(*k), NOW))),
        Call::Get(k) => Reply::Values(Ok(vec![get(s, *k)])),
        Call::Mget(ks) => {
            let hits = ks.iter().filter_map(|&k| Some((key(k), get(s, k)?)));
            Reply::Hits(Ok(hits.collect()))
        }
        Call::GetMany(ks) => Reply::Values(Ok(ks.iter().map(|&k| get(s, k)).collect())),
        Call::SetMany(items) => Reply::Each(
            items
                .iter()
                .map(|&(k, v)| names.stored(v, &mut |d, _| s.set(&key(k), d, 0, 0, NOW)))
                .collect(),
        ),
    }
}

/// How client `i` names its keys and values.
struct Names {
    i: usize,
    shared: bool,
    udp: bool,
}

impl Names {
    fn key(&self, k: usize) -> Vec<u8> {
        match self.shared {
            true => format!("k{k}").into_bytes(),
            false => format!("c{}-k{k}", self.i).into_bytes(),
        }
    }

    fn len(&self, v: Val) -> usize {
        VALUE_SIZES[v.0] + self.i
    }

    fn val(&self, v: Val) -> Vec<u8> {
        vec![v.1; self.len(v)]
    }

    /// What storing `v`'s bytes and flags by `op` answers. Over UDP a
    /// value past one datagram is refused by the client and stores nothing.
    fn stored(&self, v: Val, op: &mut dyn FnMut(&[u8], u32) -> SetOutcome) -> Result<(), McError> {
        if self.udp && self.len(v) >= UDP_CHUNK_BYTES {
            return Err(McError::TooLarge);
        }
        match op(&self.val(v), v.1.into()) {
            SetOutcome::Stored => Ok(()),
            SetOutcome::NotStored => Err(McError::NotStored),
            SetOutcome::Exists => Err(McError::Exists),
            SetOutcome::NotFound => Err(McError::NotFound),
            SetOutcome::TooLarge => Err(McError::TooLarge),
            SetOutcome::OutOfMemory => Err(McError::OutOfMemory),
        }
    }

    /// The length of each value `call` sends, in the order it sends them.
    fn sent(&self, call: &Call) -> Vec<usize> {
        match call {
            Call::Set(_, v)
            | Call::Add(_, v)
            | Call::Replace(_, v)
            | Call::Append(_, v)
            | Call::Prepend(_, v)
            | Call::Cas(_, v, _) => vec![self.len(*v)],
            Call::SetMany(items) => items.iter().map(|&(_, v)| self.len(v)).collect(),
            _ => Vec::new(),
        }
    }
}

/// Runs client `client`'s calls (client `i` on node `i + 1`): each answers
/// what `store` answers for it, and after each `monotone` checks the
/// registry. Returns the length of each value sent, in order.
async fn run_stream(
    client: McClient,
    (wire, calls): (Transport, Vec<Call>),
    shared: bool,
    store: Rc<RefCell<Store>>,
    monotone: Rc<dyn Fn()>,
) -> Vec<usize> {
    let i = client.node().0 as usize - 1;
    let udp = matches!(wire, Transport::Udp(_));
    let names = Names { i, shared, udp };
    let mut sent = Vec::new();
    for call in &calls {
        sent.extend(names.sent(call));
        let got = on_wire(&client, call, &names).await;
        let want = on_store(&mut store.borrow_mut(), call, &names);
        assert_eq!(got, want, "client {i} on {wire:?}: {call:?}");
        monotone();
    }
    sent
}

/// A run of a case: when its last stream ended, what the tracer recorded,
/// and the server and clients, for what a row checks beyond the oracle.
pub struct Ran {
    pub end: SimTime,
    pub events: Vec<Event>,
    pub bed: Scenario,
}

/// Runs `c`, `traced` or not, and checks it: every call answers as the
/// reference store does (one store for the case: keys are disjoint or
/// streams one after another, so it answers each client as a store of its
/// own would), registry counters never fall, at quiesce nothing is parked
/// in any client's in-flight table, and, traced at depth 8, each UCR
/// client's values reach the server's header handlers in the order the
/// client sent them.
pub fn run_case(c: &Case, traced: bool) -> Ran {
    let server = McServerConfig {
        store_model: c.store,
        workers: c.workers,
        ..McServerConfig::default()
    };
    let store = Rc::new(RefCell::new(Store::new(server.store)));
    let clients = c.streams.iter().map(|&(wire, _)| McClientConfig {
        pipeline_depth: c.depth,
        bypass_get: c.bypass,
        ..McClientConfig::single(wire, NodeId(0))
    });
    let world = [World::cluster_a, World::cluster_b][c.cluster_b as usize];
    let n = c.streams.len() as u32;
    let bed = Scenario::new(world(c.seed, n + 1), server, clients.collect::<Vec<_>>());
    let recorder = EventRecorder::new();
    if traced {
        bed.world.cluster.tracer().add_sink(recorder.clone());
    }
    let (metrics, last) = (
        bed.world.cluster.metrics().clone(),
        RefCell::new(BTreeMap::new()),
    );
    let monotone: Rc<dyn Fn()> = Rc::new(move || {
        for (name, counter) in metrics.counters() {
            let (now, before) = (
                counter.get(),
                last.borrow_mut().insert(name.clone(), counter.get()),
            );
            assert!(now >= before.unwrap_or(0), "{name} fell to {now}");
        }
    });
    let sim = bed.world.sim().clone();
    let streams = bed.clients.iter().cloned().zip(c.streams.iter());
    let streams: Vec<_> = streams
        .map(|(client, stream)| {
            run_stream(
                client,
                stream.clone(),
                c.shared,
                store.clone(),
                monotone.clone(),
            )
        })
        .collect();
    let (sim2, shared) = (sim.clone(), c.shared);
    let (sent, end) = sim.block_on(async move {
        let mut sent = Vec::new();
        if shared {
            for stream in streams {
                sent.push(stream.await);
            }
        } else {
            let spawned: Vec<_> = streams.into_iter().map(|s| sim2.spawn(s)).collect();
            for stream in spawned {
                sent.push(stream.await);
            }
        }
        (sent, sim2.now())
    });
    sim.run();
    for client in &bed.clients {
        assert_eq!(client.pending_responses(), 0);
    }
    let events = recorder.events();
    assert_eq!(traced, !events.is_empty());
    if traced && c.depth == 8 {
        let at_server: Vec<usize> = events
            .iter()
            .filter(|e| e.name == "header_handler" && e.phase == Phase::Begin)
            .filter(|e| e.node == Some(NodeId(0)))
            .map(|e| e.bytes as usize)
            .collect();
        for (i, (sent, (wire, _))) in sent.iter().zip(&c.streams).enumerate() {
            if matches!(wire, Transport::Ucr | Transport::UcrRoce) {
                let mine = at_server
                    .iter()
                    .filter(|&&b| VALUE_SIZES.iter().any(|&v| v + i == b));
                assert_eq!(
                    mine.copied().collect::<Vec<_>>(),
                    *sent,
                    "client {i}'s values at the server"
                );
            }
        }
    }
    Ran { end, events, bed }
}
