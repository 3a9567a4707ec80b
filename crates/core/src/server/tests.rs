//! Unit tests of the executor on its own (no simulation, no wire), plus
//! the one store-state check only in-crate code can make.

use mcstore::{NumericError, SegmentedStore, SetOutcome, StoreConfig, Value};
use simnet::{NodeId, Stack};

use super::executor::execute;
use super::{McServerConfig, SERVER_VERSION};
use crate::am_wire::McOp;
use crate::request::{Reply, Request};
use crate::{McClientConfig, Scenario, Transport, World};

const NOW: u32 = 1_000;

fn keys(ks: &[&str]) -> Vec<Vec<u8>> {
    ks.iter().map(|k| k.as_bytes().to_vec()).collect()
}

/// Runs `req` with CAS tokens reduced to "present or not" (their values
/// are the store's business) and a lent hit copied out.
fn run(store: &mut SegmentedStore, req: &Request<'_>) -> Reply {
    let stats = |_: &mut SegmentedStore, name: &[u8]| {
        vec![(
            "report".to_string(),
            String::from_utf8_lossy(name).into_owned(),
        )]
    };
    let tokenless = |v: Value| Value {
        cas: v.cas.min(1),
        ..v
    };
    match execute(store, req, NOW, stats) {
        Reply::Stored { outcome, cas } => Reply::Stored {
            outcome,
            cas: cas.min(1),
        },
        Reply::Value(hit) => Reply::Value(hit.map(|v| tokenless(v.into_owned()))),
        Reply::Values(hits) => {
            Reply::Values(hits.into_iter().map(|(i, v)| (i, tokenless(v))).collect())
        }
        Reply::Found(found) => Reply::Found(found),
        Reply::Number(n) => Reply::Number(n),
        Reply::Done => Reply::Done,
        Reply::Version(v) => Reply::Version(v),
        Reply::Stats(pairs) => Reply::Stats(pairs),
    }
}

fn hit(data: &str, flags: u32) -> Value {
    Value {
        data: data.as_bytes().to_vec(),
        flags,
        cas: 1,
    }
}

fn stored(outcome: SetOutcome) -> Reply {
    let cas = (outcome == SetOutcome::Stored) as u64;
    Reply::Stored { outcome, cas }
}

/// A store holding `text`=`"abc"` (flags 7) and `num`=`"10"`.
fn seeded() -> SegmentedStore {
    let mut store = SegmentedStore::new(StoreConfig::default(), 1);
    store.segment_for(b"text").set(b"text", b"abc", 7, 0, NOW);
    store.segment_for(b"num").set(b"num", b"10", 0, 0, NOW);
    store
}

#[test]
fn execute_maps_every_op_and_precondition_to_its_reply_and_store_delta() {
    use McOp::*;
    use SetOutcome::{Exists, NotFound, NotStored, Stored, TooLarge};
    fn build<'a>(op: McOp, k: &'a [Vec<u8>], v: &'a [u8]) -> Request<'a> {
        match op {
            Set | Add | Replace => Request::store(op, k, v, 3, 0, 0),
            Append | Prepend => Request::store(op, k, v, 0, 0, 0),
            Incr => Request::new(op, k).with_delta(5),
            Decr => Request::new(op, k).with_delta(50),
            Touch => Request::new(op, k).with_exptime(60),
            _ => Request::new(op, k),
        }
    }
    let big = "x".repeat(2 << 20);
    // (op, keys, value) → reply, then what a fetch of the first key sees
    // and the change in the live item count.
    type Row<'a> = (McOp, &'a [&'a str], &'a str, Reply, Option<Value>, i64);
    #[rustfmt::skip]
    let table: Vec<Row<'_>> = vec![
        (Get,     &["text"],  "",    Reply::Value(Some(hit("abc", 7))), Some(hit("abc", 7)), 0),
        (Get,     &["none"],  "",    Reply::Value(None),                None, 0),
        (Mget,    &["text", "none", "num"], "",
            Reply::Values(vec![(0, hit("abc", 7)), (2, hit("10", 0))]), Some(hit("abc", 7)), 0),
        (Set,     &["none"],  "new", stored(Stored),    Some(hit("new", 3)), 1),
        (Set,     &["text"],  "new", stored(Stored),    Some(hit("new", 3)), 0),
        (Set,     &["none"],  &big,  stored(TooLarge),  None, 0),
        (Add,     &["text"],  "new", stored(NotStored), Some(hit("abc", 7)), 0),
        (Add,     &["none"],  "new", stored(Stored),    Some(hit("new", 3)), 1),
        (Replace, &["none"],  "new", stored(NotStored), None, 0),
        (Replace, &["text"],  "new", stored(Stored),    Some(hit("new", 3)), 0),
        (Append,  &["none"],  "+",   stored(NotStored), None, 0),
        (Append,  &["text"],  "+",   stored(Stored),    Some(hit("abc+", 7)), 0),
        (Prepend, &["text"],  "+",   stored(Stored),    Some(hit("+abc", 7)), 0),
        (Delete,  &["text"],  "",    Reply::Found(true),  None, -1),
        (Delete,  &["none"],  "",    Reply::Found(false), None, 0),
        (Incr,    &["num"],   "",    Reply::Number(Ok(15)), Some(hit("15", 0)), 0),
        (Decr,    &["num"],   "",    Reply::Number(Ok(0)),  Some(hit("0", 0)), 0),
        (Incr,    &["text"],  "",    Reply::Number(Err(NumericError::NotNumeric)),
            Some(hit("abc", 7)), 0),
        (Incr,    &["none"],  "",    Reply::Number(Err(NumericError::NotFound)), None, 0),
        (Touch,   &["text"],  "",    Reply::Found(true),  Some(hit("abc", 7)), 0),
        (Touch,   &["none"],  "",    Reply::Found(false), None, 0),
    ];
    for (op, ks, value, want, after, delta) in table {
        let mut store = seeded();
        let (ks, before) = (keys(ks), store.curr_items() as i64);
        let got = run(&mut store, &build(op, &ks, value.as_bytes()));
        assert_eq!(got, want, "{op:?} {ks:?}");
        let fetch = run(&mut store, &Request::new(Get, &ks[..1]));
        assert_eq!(fetch, Reply::Value(after), "{op:?} {ks:?}: stored state");
        let delta_got = store.curr_items() as i64 - before;
        assert_eq!(delta_got, delta, "{op:?} {ks:?}: item count");
    }

    // Cas: the token decides.
    let mut store = seeded();
    let token = store.locate(b"text", NOW).unwrap().1.cas;
    let key = keys(&["text"]);
    let with = |token| Request::store(Cas, &key, b"z", 0, 0, token);
    assert_eq!(run(&mut store, &with(token + 9)), stored(Exists));
    assert_eq!(run(&mut store, &with(token)), stored(Stored));
    assert_eq!(
        run(&mut store, &with(token)),
        stored(Exists),
        "token is spent"
    );
    let gone = keys(&["none"]);
    let req = Request::store(Cas, &gone, b"z", 0, 0, token);
    assert_eq!(run(&mut store, &req), stored(NotFound));
}

#[test]
fn execute_keyless_ops() {
    let mut store = seeded();
    let version = run(&mut store, &Request::new(McOp::Version, &[]));
    assert_eq!(version, Reply::Version(SERVER_VERSION.to_string()));
    // Stats defers to the registry it is handed, by sub-report name.
    let name = keys(&["slabs"]);
    let stats = run(&mut store, &Request::new(McOp::Stats, &name));
    assert_eq!(
        stats,
        Reply::Stats(vec![("report".to_string(), "slabs".to_string())])
    );
    // A flush takes effect at its deadline (`exptime` is the delay), and
    // spares what is stored from then on.
    let flush = Request::new(McOp::FlushAll, &[]).with_exptime(5);
    assert_eq!(run(&mut store, &flush), Reply::Done);
    let text = keys(&["text"]);
    let get = Request::new(McOp::Get, &text);
    assert!(matches!(run(&mut store, &get), Reply::Value(Some(_))));
    let stats = |_: &mut SegmentedStore, _: &[u8]| Vec::new();
    assert_eq!(
        execute(&mut store, &get, NOW + 5, stats),
        Reply::Value(None)
    );
}

#[test]
fn binary_only_request_shapes() {
    // An incr carrying an initial value creates the counter on a miss,
    // with the request's expiry…
    let mut store = seeded();
    let key = keys(&["ctr"]);
    let create = Request {
        initial: Some(40),
        ..Request::new(McOp::Incr, &key)
            .with_delta(1)
            .with_exptime(30)
    };
    assert_eq!(run(&mut store, &create), Reply::Number(Ok(40)));
    assert_eq!(store.locate(b"ctr", NOW).unwrap().1.exp, NOW + 30);
    assert_eq!(
        run(&mut store, &create),
        Reply::Number(Ok(41)),
        "then counts"
    );
    // …and without one (the wire's all-ones expiry) it does not.
    let key = keys(&["other"]);
    let plain = Request::new(McOp::Incr, &key).with_delta(1);
    assert_eq!(
        run(&mut store, &plain),
        Reply::Number(Err(NumericError::NotFound))
    );
    assert_eq!(store.locate(b"other", NOW), None);

    // A Set/Add/Replace frame with a non-zero CAS field is a
    // compare-and-store: the binary codec decodes it as `Cas`.
    use mcproto::{store_extras, BinFrame, BinOpcode};
    let token = store.locate(b"text", NOW).unwrap().1.cas;
    for opcode in [BinOpcode::Set, BinOpcode::Add, BinOpcode::Replace] {
        let mut frame = BinFrame::request(opcode, 1);
        frame.key = b"text".to_vec();
        frame.value = b"swapped".to_vec();
        frame.extras = store_extras(0, 0);
        frame.cas = token + 1;
        let req = crate::codec::binary::decode_request(&frame).unwrap();
        assert_eq!(req.op, McOp::Cas, "{opcode:?}");
        assert_eq!(run(&mut store, &req), stored(SetOutcome::Exists));
    }
}

#[test]
fn storing_never_reads_the_item_back() {
    // The fresh CAS token a store returns comes from a read-only locate:
    // N sets leave the fetch counters at zero and the LRU in store order,
    // whatever wire they arrive on (the binary wire returns the token).
    let tail_after_sets = |wire: Transport| {
        let s = Scenario::start(World::cluster_a(9, 4), wire);
        let client = s.clients[0].clone();
        s.world.sim().block_on(async move {
            for i in 0..16u32 {
                let key = format!("lru-{i}");
                client.set(key.as_bytes(), b"value", 0, 0).await.unwrap();
            }
        });
        let store = s.server.inner.exec.store();
        let st = store.stats();
        assert_eq!((st.sets, st.get_hits, st.get_misses), (16, 0, 0));
        let class = store.class_of(5, 5).unwrap();
        store.segment(0).lru_tail_key(class)
    };
    let (binary, ascii) = (
        Transport::Binary(Stack::Ipoib),
        Transport::Sockets(Stack::Ipoib),
    );
    assert_eq!(tail_after_sets(binary), Some(b"lru-0".to_vec()));
    assert_eq!(tail_after_sets(binary), tail_after_sets(ascii));
}

/// The workers publish a slab class's gauges only when one of its chunks
/// was allocated or freed since they last did: every gauge reads what a
/// fresh walk over the classes would, at every point a client can look,
/// and a window of gets publishes no class.
#[test]
fn class_gauges_follow_the_slabs_and_are_walked_only_on_change() {
    use mcstore::{ClassId, SlabConfig};
    use simnet::SimRng;

    let slab = SlabConfig {
        mem_limit: 6 << 20,
        ..SlabConfig::default()
    };
    let config = McServerConfig {
        store: StoreConfig {
            slab,
            ..StoreConfig::default()
        },
        store_model: super::StoreModel::Sharded(2),
        ..McServerConfig::default()
    };
    let cfg = McClientConfig::single(Transport::Ucr, NodeId(0));
    let Scenario {
        world,
        server,
        clients,
    } = Scenario::new(World::cluster_b(5, 2), config, [cfg]);
    let client = &clients[0];

    // Every class gauge against the store's own books.
    let check = |when: &str| {
        let store = server.inner.exec.store();
        let gauge = |c: usize, field: &str| {
            let name = format!("mc.node0.slab.class{c}.{field}");
            world.cluster.metrics().gauge_value(&name)
        };
        let mut published = 0;
        for c in 0..store.class_count() {
            let evicted = store.class_evicted(ClassId(c as u8));
            let st = store.class_stats(ClassId(c as u8));
            if st.pages == 0 && evicted == 0 {
                assert_eq!(gauge(c, "used_chunks"), None, "class {c} {when}");
                continue;
            }
            published += 1;
            let want = [
                ("used_chunks", st.used as f64),
                ("free_chunks", st.free as f64),
                ("occupancy", st.used as f64 / (st.used + st.free) as f64),
                ("evictions", evicted as f64),
            ];
            for (field, value) in want {
                assert_eq!(gauge(c, field), Some(value), "class {c} {field} {when}");
            }
        }
        let total = world
            .cluster
            .metrics()
            .gauge_value("mc.node0.store.curr_items");
        assert_eq!(total, Some(store.curr_items() as f64), "{when}");
        published
    };

    // Sets over four size classes (the two largest evict within a few
    // stores), deletes, and in-place and growing increments.
    let mut rng = SimRng::new(7);
    let sizes = [10usize, 1_000, 200_000, 700_000];
    for round in 0..6 {
        let ops: Vec<(u64, u64, usize)> = (0..60)
            .map(|_| {
                (
                    rng.gen_range_u64(0, 10),
                    rng.gen_range_u64(0, 24),
                    sizes[rng.gen_range_u64(0, 4) as usize],
                )
            })
            .collect();
        let c = client.clone();
        world.sim().block_on(async move {
            for (kind, k, size) in ops {
                let key = format!("key-{k}-{size}");
                match kind {
                    0..=5 => {
                        let _ = c.set(key.as_bytes(), &vec![b'9'; size], 0, 0).await;
                    }
                    6..=7 => {
                        let _ = c.delete(key.as_bytes()).await;
                    }
                    _ => {
                        let _ = c.incr(format!("key-{k}-10").as_bytes(), 1).await;
                    }
                }
            }
        });
        assert!(check(&format!("after round {round}")) >= 2);
    }
    let st = server.store_stats();
    assert!(st.evictions > 0 && st.delete_hits > 0 && st.incr_hits > 0);

    let published = server.inner.exec.gauges.classes_published.get();
    assert!(published > 0);
    let c = client.clone();
    world.sim().block_on(async move {
        for k in 0..200u32 {
            let _ = c.get(format!("key-{}-10", k % 30).as_bytes()).await;
        }
    });
    check("after the gets");
    assert_eq!(server.inner.exec.gauges.classes_published.get(), published);

    // A statistics reset zeroes the eviction counts without freeing a
    // chunk; the gauges follow at the next publish.
    let c = client.clone();
    world.sim().block_on(async move {
        c.stats_report("reset").await.expect("stats reset");
    });
    assert_eq!(server.store_stats().evictions, 0);
    check("after stats reset");
}

/// A set of a new key publishes the one class its chunk came from, not
/// every class of every segment.
#[test]
fn a_set_publishes_only_the_class_it_moved() {
    use mcstore::ClassId;

    let config = McServerConfig {
        store_model: super::StoreModel::Sharded(16),
        ..McServerConfig::default()
    };
    let cfg = McClientConfig::single(Transport::Ucr, NodeId(0));
    let Scenario {
        world,
        server,
        clients,
    } = Scenario::new(World::cluster_b(5, 2), config, [cfg]);
    let set = |key: &'static str, size: usize| {
        let c = clients[0].clone();
        world.sim().block_on(async move {
            c.set(key.as_bytes(), &vec![b'x'; size], 0, 0)
                .await
                .unwrap();
        });
    };
    set("small", 10);
    set("medium", 1_000);
    set("large", 10_000);
    let populated = {
        let store = server.inner.exec.store();
        (0..store.class_count())
            .filter(|&c| store.class_stats(ClassId(c as u8)).pages > 0)
            .count()
    };
    assert_eq!(populated, 3);
    let published = || server.inner.exec.gauges.classes_published.get();
    let before = published();
    set("another-medium", 1_000);
    assert_eq!(published() - before, 1);
}
