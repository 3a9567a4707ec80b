//! Integration tests for the storage engine: command semantics, LRU and
//! eviction, expiration, CAS, incremental hash expansion, and model-based
//! property tests.

use mcstore::{
    NumericError, SetOutcome, SlabConfig, Store, StoreConfig, ITEM_HEADER_SIZE, REALTIME_MAXDELTA,
};

fn store() -> Store {
    Store::with_defaults()
}

/// A store small enough to evict quickly: 2 pages of 64 KB.
fn tiny() -> Store {
    Store::new(StoreConfig {
        slab: SlabConfig {
            mem_limit: 128 << 10,
            page_size: 64 << 10,
            growth_factor: 2.0,
            min_chunk: 96,
        },
        ..StoreConfig::default()
    })
}

#[test]
fn set_get_round_trip() {
    let mut s = store();
    assert_eq!(s.set(b"key", b"value", 42, 0, 100), SetOutcome::Stored);
    let v = s.get(b"key", 100).unwrap();
    assert_eq!(v.data, b"value");
    assert_eq!(v.flags, 42);
    assert!(v.cas > 0);
    assert_eq!(s.curr_items(), 1);
}

#[test]
fn get_miss_and_stats() {
    let mut s = store();
    assert!(s.get(b"nope", 1).is_none());
    s.set(b"a", b"1", 0, 0, 1);
    s.get(b"a", 1);
    let st = s.stats();
    assert_eq!(st.get_misses, 1);
    assert_eq!(st.get_hits, 1);
    assert_eq!(st.sets, 1);
}

/// A lent hit is what `get` copies out, counted and aged the same way: two
/// stores fed the same operations, one reading with each, end in the same
/// state — counters, LRU order, and an expired item reclaimed on lookup.
#[test]
fn get_ref_lends_what_get_copies() {
    let (mut owned, mut lent) = (store(), store());
    let val = vec![7u8; 1000];
    for s in [&mut owned, &mut lent] {
        s.set(b"old", &val, 0, 0, 1);
        s.set(b"other", &val, 0, 0, 1);
        s.set(b"new", b"v", 3, 0, 1);
        s.set(b"brief", b"x", 0, 5, 1);
    }
    for (key, now) in [
        (&b"old"[..], 1),
        (b"new", 1),
        (b"absent", 1),
        (b"brief", 10),
    ] {
        let hit = lent.get_ref(key, now).map(|v| v.into_owned());
        assert_eq!(hit, owned.get(key, now), "{key:?}");
    }
    assert_eq!(lent.get_ref(b"new", 1).map(|v| v.data), Some(&b"v"[..]));
    owned.get(b"new", 1);
    assert_eq!(lent.stats(), owned.stats());
    assert_eq!(lent.stats().reclaimed, 1, "the expired item went on lookup");
    assert_eq!(lent.curr_items(), 3);
    // Reading `old` moved it to the front of its class: `other` is the
    // tail on both.
    let class = lent.class_of(3, 1000).unwrap();
    assert_eq!(lent.lru_tail_key(class), Some(b"other".to_vec()));
    assert_eq!(owned.lru_tail_key(class), Some(b"other".to_vec()));
}

#[test]
fn set_overwrites_and_bumps_cas() {
    let mut s = store();
    s.set(b"k", b"v1", 0, 0, 1);
    let c1 = s.get(b"k", 1).unwrap().cas;
    s.set(b"k", b"v2", 0, 0, 1);
    let v = s.get(b"k", 1).unwrap();
    assert_eq!(v.data, b"v2");
    assert!(v.cas > c1);
    assert_eq!(s.curr_items(), 1, "overwrite must not duplicate");
}

#[test]
fn add_and_replace_policies() {
    let mut s = store();
    assert_eq!(s.replace(b"k", b"x", 0, 0, 1), SetOutcome::NotStored);
    assert_eq!(s.add(b"k", b"x", 0, 0, 1), SetOutcome::Stored);
    assert_eq!(s.add(b"k", b"y", 0, 0, 1), SetOutcome::NotStored);
    assert_eq!(s.replace(b"k", b"z", 0, 0, 1), SetOutcome::Stored);
    assert_eq!(s.get(b"k", 1).unwrap().data, b"z");
}

#[test]
fn cas_semantics() {
    let mut s = store();
    s.set(b"k", b"v1", 0, 0, 1);
    let tok = s.get(b"k", 1).unwrap().cas;
    // Matching CAS stores.
    assert_eq!(s.cas(b"k", b"v2", 0, 0, tok, 1), SetOutcome::Stored);
    // Stale CAS now fails.
    assert_eq!(s.cas(b"k", b"v3", 0, 0, tok, 1), SetOutcome::Exists);
    assert_eq!(s.get(b"k", 1).unwrap().data, b"v2");
    // CAS on a missing key.
    assert_eq!(s.cas(b"gone", b"x", 0, 0, 1, 1), SetOutcome::NotFound);
    let st = s.stats();
    assert_eq!(st.cas_hits, 1);
    assert_eq!(st.cas_badval, 1);
}

#[test]
fn append_prepend() {
    let mut s = store();
    assert_eq!(s.append(b"k", b"x", 1), SetOutcome::NotStored);
    s.set(b"k", b"mid", 7, 0, 1);
    assert_eq!(s.append(b"k", b"-end", 1), SetOutcome::Stored);
    assert_eq!(s.prepend(b"k", b"start-", 1), SetOutcome::Stored);
    let v = s.get(b"k", 1).unwrap();
    assert_eq!(v.data, b"start-mid-end");
    assert_eq!(v.flags, 7, "concat preserves flags");
}

#[test]
fn delete_semantics() {
    let mut s = store();
    assert!(!s.delete(b"k", 1));
    s.set(b"k", b"v", 0, 0, 1);
    assert!(s.delete(b"k", 1));
    assert!(s.get(b"k", 1).is_none());
    assert_eq!(s.curr_items(), 0);
    let st = s.stats();
    assert_eq!(st.delete_hits, 1);
    assert_eq!(st.delete_misses, 1);
}

#[test]
fn incr_decr_semantics() {
    let mut s = store();
    assert_eq!(s.incr(b"n", 1, 1), Err(NumericError::NotFound));
    s.set(b"n", b"10", 0, 0, 1);
    assert_eq!(s.incr(b"n", 5, 1), Ok(15));
    assert_eq!(s.decr(b"n", 20, 1), Ok(0), "decr clamps at zero");
    assert_eq!(s.get(b"n", 1).unwrap().data, b"0");
    // Growing digit count forces a re-store.
    s.set(b"n", b"9", 0, 0, 1);
    assert_eq!(s.incr(b"n", 1, 1), Ok(10));
    assert_eq!(s.get(b"n", 1).unwrap().data, b"10");
    // Wrap-around at u64::MAX.
    s.set(b"n", u64::MAX.to_string().as_bytes(), 0, 0, 1);
    assert_eq!(s.incr(b"n", 2, 1), Ok(1));
    // Non-numeric values refuse arithmetic.
    s.set(b"t", b"abc", 0, 0, 1);
    assert_eq!(s.incr(b"t", 1, 1), Err(NumericError::NotNumeric));
}

#[test]
fn relative_expiry_is_lazy() {
    let mut s = store();
    s.set(b"k", b"v", 0, 10, 100); // expires at t=110
    assert!(s.get(b"k", 109).is_some());
    assert!(s.get(b"k", 110).is_none(), "expired exactly at deadline");
    assert_eq!(s.curr_items(), 0, "expired item reclaimed on access");
    assert_eq!(s.stats().reclaimed, 1);
}

#[test]
fn absolute_expiry_beyond_30_days() {
    let mut s = store();
    let abs = REALTIME_MAXDELTA + 5_000;
    s.set(b"k", b"v", 0, abs, 100);
    assert!(s.get(b"k", abs - 1).is_some());
    assert!(s.get(b"k", abs).is_none());
}

#[test]
fn touch_extends_lifetime() {
    let mut s = store();
    s.set(b"k", b"v", 0, 10, 100);
    assert!(s.touch(b"k", 100, 105));
    assert!(s.get(b"k", 150).is_some());
    assert!(!s.touch(b"missing", 10, 105));
}

#[test]
fn flush_all_invalidates_older_items() {
    let mut s = store();
    s.set(b"old", b"v", 0, 0, 100);
    s.flush_all(101);
    s.set(b"new", b"v", 0, 0, 101);
    assert!(s.get(b"old", 102).is_none());
    assert!(s.get(b"new", 102).is_some());
}

#[test]
fn delayed_flush_takes_effect_at_its_deadline() {
    let mut s = store();
    s.set(b"old", b"v", 0, 0, 100);
    s.flush_all(110); // `flush_all 10` issued at t=100
    s.set(b"mid", b"v", 0, 0, 105);
    s.set(b"ttl", b"v", 0, 3, 105); // expires at 108, before the deadline
                                    // A descriptor handed out while the barrier is pending lives only to
                                    // the barrier (an earlier expiry of the item's own still wins).
    assert_eq!(s.locate(b"old", 105).unwrap().exp, 110);
    assert_eq!(s.locate(b"mid", 109).unwrap().exp, 110);
    assert_eq!(s.locate(b"ttl", 105).unwrap().exp, 108);
    assert!(
        s.get(b"old", 109).is_some(),
        "nothing dies before the deadline"
    );
    assert!(s.get(b"mid", 109).is_some());
    assert!(s.locate(b"old", 110).is_none());
    assert!(s.get(b"old", 110).is_none(), "everything older dies at it");
    assert!(s.get(b"mid", 110).is_none());
    s.set(b"new", b"v", 0, 0, 110);
    assert!(s.get(b"new", 111).is_some());
    assert_eq!(s.locate(b"new", 111).unwrap().exp, 0, "the barrier passed");
}

#[test]
fn oversized_item_rejected() {
    let mut s = store();
    assert_eq!(
        s.set(b"k", &vec![0u8; 2 << 20], 0, 0, 1),
        SetOutcome::TooLarge
    );
}

#[test]
fn key_length_limit() {
    let mut s = store();
    let long = vec![b'k'; 251];
    assert_eq!(s.set(&long, b"v", 0, 0, 1), SetOutcome::NotStored);
    let ok = vec![b'k'; 250];
    assert_eq!(s.set(&ok, b"v", 0, 0, 1), SetOutcome::Stored);
}

#[test]
fn lru_eviction_removes_least_recent() {
    let mut s = tiny();
    // Fill one class until eviction kicks in. Values ~1000 B.
    let val = vec![7u8; 1000];
    let mut stored = Vec::new();
    for i in 0..500u32 {
        let key = format!("key-{i:05}");
        if s.set(key.as_bytes(), &val, 0, 0, 1) == SetOutcome::Stored {
            stored.push(key);
        }
    }
    let st = s.stats();
    assert!(st.evictions > 0, "tiny store must evict");
    // The most recently stored keys survive; the earliest were evicted.
    let last = stored.last().unwrap();
    assert!(s.get(last.as_bytes(), 1).is_some());
    assert!(s.get(stored[0].as_bytes(), 1).is_none());
}

#[test]
fn get_bumps_lru_protecting_hot_items() {
    let mut s = tiny();
    let val = vec![7u8; 1000];
    s.set(b"hot", &val, 0, 0, 1);
    let mut i = 0u32;
    // Keep touching "hot" while flooding; it must survive.
    while s.stats().evictions < 200 {
        let key = format!("cold-{i:06}");
        s.set(key.as_bytes(), &val, 0, 0, 1);
        s.get(b"hot", 1);
        i += 1;
        assert!(i < 100_000, "eviction never started");
    }
    assert!(s.get(b"hot", 1).is_some(), "hot item evicted despite gets");
}

#[test]
fn expired_tail_items_are_reclaimed_before_evicting() {
    let mut s = tiny();
    let val = vec![7u8; 1000];
    // Fill with items that all expire at t=50.
    let mut i = 0u32;
    while s.stats().evictions == 0 && i < 200 {
        s.set(format!("a{i}").as_bytes(), &val, 0, 40, 10);
        i += 1;
    }
    let evictions_before = s.stats().evictions;
    // After expiry, new stores should reclaim, not evict.
    for j in 0..20u32 {
        assert_eq!(
            s.set(format!("b{j}").as_bytes(), &val, 0, 0, 100),
            SetOutcome::Stored
        );
    }
    let st = s.stats();
    assert!(st.reclaimed >= 20, "expired items should be reclaimed");
    assert_eq!(st.evictions, evictions_before, "no live evictions needed");
}

#[test]
fn hash_expansion_preserves_all_items() {
    // Small initial table forces several expansions.
    let mut s = Store::new(StoreConfig {
        hashpower: 4, // 16 buckets
        ..StoreConfig::default()
    });
    let n = 2_000u32;
    for i in 0..n {
        let key = format!("key-{i}");
        assert_eq!(
            s.set(key.as_bytes(), format!("val-{i}").as_bytes(), 0, 0, 1),
            SetOutcome::Stored
        );
    }
    assert!(s.stats().hash_expansions >= 1 || s.is_expanding());
    assert!(s.bucket_count() > 16);
    for i in 0..n {
        let key = format!("key-{i}");
        let v = s.get(key.as_bytes(), 1).unwrap();
        assert_eq!(v.data, format!("val-{i}").as_bytes());
    }
    // Deletions during/after expansion work too.
    for i in (0..n).step_by(3) {
        assert!(s.delete(format!("key-{i}").as_bytes(), 1));
    }
    for i in 0..n {
        let present = s.get(format!("key-{i}").as_bytes(), 1).is_some();
        assert_eq!(present, i % 3 != 0);
    }
}

#[test]
fn bytes_accounting_is_consistent() {
    let mut s = store();
    assert_eq!(s.bytes_stored(), 0);
    s.set(b"abc", b"12345", 0, 0, 1);
    assert_eq!(s.bytes_stored(), 8);
    s.set(b"abc", b"1", 0, 0, 1);
    assert_eq!(s.bytes_stored(), 4);
    s.delete(b"abc", 1);
    assert_eq!(s.bytes_stored(), 0);
}

#[test]
fn item_header_constant_matches_class_selection() {
    let s = store();
    // A value that fits exactly with header+key must select a class at
    // least that large.
    let key = b"0123456789";
    let vlen = 100;
    let class = s
        .slabs()
        .class_for(ITEM_HEADER_SIZE + key.len() + vlen)
        .unwrap();
    assert!(s.slabs().chunk_size(class) >= ITEM_HEADER_SIZE + key.len() + vlen);
}

// ---------------------------------------------------------------------
// Model-based property tests
// ---------------------------------------------------------------------

mod properties {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[derive(Clone, Debug)]
    enum Op {
        Set(u8, Vec<u8>),
        Add(u8, Vec<u8>),
        Replace(u8, Vec<u8>),
        Get(u8),
        Delete(u8),
        Append(u8, Vec<u8>),
        Incr(u8, u16),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        let key = 0u8..24;
        let val = proptest::collection::vec(any::<u8>(), 0..64);
        prop_oneof![
            (key.clone(), val.clone()).prop_map(|(k, v)| Op::Set(k, v)),
            (key.clone(), val.clone()).prop_map(|(k, v)| Op::Add(k, v)),
            (key.clone(), val.clone()).prop_map(|(k, v)| Op::Replace(k, v)),
            key.clone().prop_map(Op::Get),
            key.clone().prop_map(Op::Delete),
            (key.clone(), val).prop_map(|(k, v)| Op::Append(k, v)),
            (key, any::<u16>()).prop_map(|(k, d)| Op::Incr(k, d)),
        ]
    }

    proptest! {
        /// With ample memory (no eviction), the store must behave exactly
        /// like a HashMap under any operation sequence.
        #[test]
        fn store_matches_model(ops in proptest::collection::vec(op_strategy(), 1..300)) {
            let mut s = Store::with_defaults();
            let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
            let now = 1000u32;
            for op in ops {
                match op {
                    Op::Set(k, v) => {
                        let key = vec![b'k', k];
                        prop_assert_eq!(s.set(&key, &v, 0, 0, now), SetOutcome::Stored);
                        model.insert(key, v);
                    }
                    Op::Add(k, v) => {
                        let key = vec![b'k', k];
                        let outcome = s.add(&key, &v, 0, 0, now);
                        if let std::collections::hash_map::Entry::Vacant(e) = model.entry(key) {
                            prop_assert_eq!(outcome, SetOutcome::Stored);
                            e.insert(v);
                        } else {
                            prop_assert_eq!(outcome, SetOutcome::NotStored);
                        }
                    }
                    Op::Replace(k, v) => {
                        let key = vec![b'k', k];
                        let outcome = s.replace(&key, &v, 0, 0, now);
                        if let std::collections::hash_map::Entry::Occupied(mut e) = model.entry(key) {
                            prop_assert_eq!(outcome, SetOutcome::Stored);
                            e.insert(v);
                        } else {
                            prop_assert_eq!(outcome, SetOutcome::NotStored);
                        }
                    }
                    Op::Get(k) => {
                        let key = vec![b'k', k];
                        let got = s.get(&key, now).map(|v| v.data);
                        prop_assert_eq!(got, model.get(&key).cloned());
                    }
                    Op::Delete(k) => {
                        let key = vec![b'k', k];
                        let deleted = s.delete(&key, now);
                        prop_assert_eq!(deleted, model.remove(&key).is_some());
                    }
                    Op::Append(k, v) => {
                        let key = vec![b'k', k];
                        let outcome = s.append(&key, &v, now);
                        match model.get_mut(&key) {
                            Some(existing) => {
                                prop_assert_eq!(outcome, SetOutcome::Stored);
                                existing.extend_from_slice(&v);
                            }
                            None => prop_assert_eq!(outcome, SetOutcome::NotStored),
                        }
                    }
                    Op::Incr(k, d) => {
                        let key = vec![b'k', k];
                        let result = s.incr(&key, d as u64, now);
                        match model.get_mut(&key) {
                            None => prop_assert_eq!(result, Err(NumericError::NotFound)),
                            Some(existing) => {
                                let parsed: Result<u64, _> = std::str::from_utf8(existing)
                                    .map_err(|_| ())
                                    .and_then(|t| t.trim().parse().map_err(|_| ()));
                                match parsed {
                                    Ok(cur) => {
                                        let newv = cur.wrapping_add(d as u64);
                                        prop_assert_eq!(result, Ok(newv));
                                        *existing = newv.to_string().into_bytes();
                                    }
                                    Err(()) => {
                                        prop_assert_eq!(result, Err(NumericError::NotNumeric));
                                    }
                                }
                            }
                        }
                    }
                }
            }
            prop_assert_eq!(s.curr_items(), model.len() as u64);
        }

        /// Under memory pressure the store may evict, but it must never
        /// return a value that was not the most recent write for its key.
        #[test]
        fn eviction_never_resurrects_stale_data(
            keys in proptest::collection::vec(0u8..40, 100..400),
        ) {
            let mut s = tiny();
            let mut latest: HashMap<u8, u32> = HashMap::new();
            for (gen, k) in keys.iter().enumerate() {
                let gen = gen as u32;
                let key = [b'k', *k];
                let value = format!("{k}-{gen}-{}", "x".repeat(800));
                if s.set(&key, value.as_bytes(), 0, 0, 1) == SetOutcome::Stored {
                    latest.insert(*k, gen);
                }
                if let Some(v) = s.get(&key, 1) {
                    let text = String::from_utf8(v.data).unwrap();
                    let want_prefix = format!("{k}-{}-", latest[k]);
                    prop_assert!(
                        text.starts_with(&want_prefix),
                        "stale value resurfaced: got {text}, want prefix {want_prefix}"
                    );
                }
            }
        }

        /// Slab accounting: after arbitrary set/delete churn, freeing
        /// everything leaves zero used chunks in every class.
        #[test]
        fn slab_accounting_balances(ops in proptest::collection::vec((0u8..30, 1usize..2000), 1..200)) {
            let mut s = Store::with_defaults();
            for (k, size) in &ops {
                s.set(&[b'a', *k], &vec![0u8; *size], 0, 0, 1);
            }
            for k in 0u8..30 {
                s.delete(&[b'a', k], 1);
            }
            prop_assert_eq!(s.curr_items(), 0);
            prop_assert_eq!(s.bytes_stored(), 0);
            for c in 0..s.slabs().class_count() {
                let st = s.slabs().class_stats(mcstore::ClassId(c as u8));
                prop_assert_eq!(st.used, 0, "class {} leaks chunks", c);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Additional coverage: interplay of expiry/flush/concat, class moves
// ---------------------------------------------------------------------

#[test]
fn touch_cannot_resurrect_flushed_items() {
    let mut s = store();
    s.set(b"k", b"v", 0, 0, 100);
    s.flush_all(101);
    assert!(!s.touch(b"k", 100, 102), "flushed item is gone");
}

#[test]
fn append_preserves_expiry() {
    let mut s = store();
    s.set(b"k", b"v", 0, 10, 100); // expires at 110
    s.append(b"k", b"w", 105);
    assert!(s.get(b"k", 109).is_some());
    assert!(s.get(b"k", 111).is_none(), "append must not extend the TTL");
}

#[test]
fn incr_preserves_expiry_across_class_move() {
    let mut s = store();
    s.set(b"n", b"9", 0, 10, 100); // expires at 110
                                   // Growing to "10" re-stores the item; expiry must carry over.
    assert_eq!(s.incr(b"n", 1, 105), Ok(10));
    assert!(s.get(b"n", 109).is_some());
    assert!(s.get(b"n", 111).is_none());
}

#[test]
fn value_resize_moves_between_classes_without_leaks() {
    let mut s = store();
    let small_class = s
        .slabs()
        .class_for(mcstore::ITEM_HEADER_SIZE + 1 + 10)
        .unwrap();
    let big_class = s
        .slabs()
        .class_for(mcstore::ITEM_HEADER_SIZE + 1 + 5000)
        .unwrap();
    assert_ne!(small_class, big_class);
    s.set(b"k", &[1u8; 10], 0, 0, 1);
    assert_eq!(s.slabs().class_stats(small_class).used, 1);
    s.set(b"k", &vec![1u8; 5000], 0, 0, 1);
    assert_eq!(
        s.slabs().class_stats(small_class).used,
        0,
        "old chunk freed"
    );
    assert_eq!(s.slabs().class_stats(big_class).used, 1);
    s.delete(b"k", 1);
    assert_eq!(s.slabs().class_stats(big_class).used, 0);
}

#[test]
fn cas_tokens_are_globally_unique_and_increasing() {
    let mut s = store();
    let mut last = 0u64;
    for i in 0..50u32 {
        s.set(format!("k{i}").as_bytes(), b"v", 0, 0, 1);
        let cas = s.get(format!("k{i}").as_bytes(), 1).unwrap().cas;
        assert!(cas > last, "CAS must increase monotonically");
        last = cas;
    }
}

#[test]
fn lru_tail_key_reports_coldest_item() {
    use mcstore::ClassId;
    let mut s = store();
    s.set(b"first", b"v", 0, 0, 1);
    s.set(b"second", b"v", 0, 0, 1);
    let class = s
        .slabs()
        .class_for(mcstore::ITEM_HEADER_SIZE + 5 + 1)
        .unwrap();
    assert_eq!(s.lru_tail_key(class), Some(b"first".to_vec()));
    // A get bumps "first" to the front; "second" becomes the tail.
    s.get(b"first", 1);
    assert_eq!(s.lru_tail_key(class), Some(b"second".to_vec()));
    let empty = ClassId((s.slabs().class_count() - 1) as u8);
    assert_eq!(s.lru_tail_key(empty), None);
}

#[test]
fn zero_length_values_are_legal() {
    let mut s = store();
    assert_eq!(s.set(b"empty", b"", 3, 0, 1), SetOutcome::Stored);
    let v = s.get(b"empty", 1).unwrap();
    assert!(v.data.is_empty());
    assert_eq!(v.flags, 3);
}

#[test]
fn eviction_disabled_returns_out_of_memory() {
    let mut s = Store::new(StoreConfig {
        slab: SlabConfig {
            mem_limit: 64 << 10,
            page_size: 64 << 10,
            growth_factor: 2.0,
            min_chunk: 96,
        },
        evict_on_full: false, // memcached -M
        ..StoreConfig::default()
    });
    let val = vec![1u8; 1000];
    let mut stored = 0;
    let mut oom = false;
    for i in 0..200u32 {
        match s.set(format!("k{i}").as_bytes(), &val, 0, 0, 1) {
            SetOutcome::Stored => stored += 1,
            SetOutcome::OutOfMemory => {
                oom = true;
                break;
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    assert!(oom, "-M mode must refuse instead of evicting");
    assert!(stored > 0);
    assert_eq!(s.stats().evictions, 0);
}

#[test]
fn expired_item_is_invisible_to_every_operation() {
    let mut s = store();
    s.set(b"k", b"5", 0, 5, 100); // dead at 105
    assert!(!s.delete(b"k", 105), "delete sees no expired item");
    s.set(b"k", b"5", 0, 5, 100);
    assert_eq!(s.incr(b"k", 1, 105), Err(NumericError::NotFound));
    s.set(b"k", b"5", 0, 5, 100);
    assert_eq!(s.append(b"k", b"x", 105), SetOutcome::NotStored);
    s.set(b"k", b"5", 0, 5, 100);
    // add succeeds over an expired body.
    assert_eq!(s.add(b"k", b"new", 0, 0, 105), SetOutcome::Stored);
}

#[test]
fn hash_expansion_happens_incrementally() {
    let mut s = Store::new(StoreConfig {
        hashpower: 4,
        migrate_per_op: 1, // slowest legal migration
        ..StoreConfig::default()
    });
    for i in 0..60u32 {
        s.set(format!("k{i}").as_bytes(), b"v", 0, 0, 1);
    }
    assert!(s.is_expanding(), "expansion should be mid-flight");
    // Items remain reachable mid-expansion.
    for i in 0..60u32 {
        assert!(s.get(format!("k{i}").as_bytes(), 1).is_some(), "k{i}");
    }
    // Enough operations finish the migration.
    for _ in 0..200 {
        s.get(b"k0", 1);
    }
    assert!(!s.is_expanding());
    assert!(s.stats().hash_expansions >= 1);
}

// ---------------------------------------------------------------------
// stats sub-report surfaces
// ---------------------------------------------------------------------

#[test]
fn slab_and_item_stat_lines_reflect_contents() {
    let mut s = store();
    assert!(s.slab_stat_lines().iter().any(|(k, _)| k == "active_slabs"));
    assert!(s.item_stat_lines().is_empty(), "empty store, no item lines");
    s.set(b"small", &[1u8; 10], 0, 0, 1);
    s.set(b"large", &vec![1u8; 8000], 0, 0, 1);
    let slabs = s.slab_stat_lines();
    let classes_with_pages = slabs
        .iter()
        .filter(|(k, _)| k.ends_with(":total_pages"))
        .count();
    assert_eq!(classes_with_pages, 2, "two distinct classes populated");
    let items = s.item_stat_lines();
    let total: u32 = items
        .iter()
        .filter(|(k, _)| k.ends_with(":number"))
        .map(|(_, v)| v.parse::<u32>().unwrap())
        .sum();
    assert_eq!(total, 2);
    s.delete(b"small", 1);
    let total_after: u32 = s
        .item_stat_lines()
        .iter()
        .filter(|(k, _)| k.ends_with(":number"))
        .map(|(_, v)| v.parse::<u32>().unwrap())
        .sum();
    assert_eq!(total_after, 1);
}

/// The moved-class mask a gauge publisher reads: an eviction marks its
/// class, and a statistics reset marks every class.
#[test]
fn evictions_and_resets_mark_classes_moved() {
    let mut s = tiny();
    let class = usize::from(s.class_of(8, 1000).unwrap().0);
    let mut i = 0;
    while s.class_evictions()[class] == 0 {
        s.set(format!("key-{i:04}").as_bytes(), &[b'v'; 1000], 0, 0, 1);
        i += 1;
    }
    s.take_moved_classes();
    s.set(format!("key-{i:04}").as_bytes(), &[b'v'; 1000], 0, 0, 1);
    assert_eq!(s.class_evictions()[class], 2);
    assert_eq!(s.take_moved_classes(), 1 << class);
    s.reset_stats();
    let every = (1 << s.slabs().class_count()) - 1;
    assert_eq!(s.take_moved_classes(), every);
    assert_eq!(s.take_moved_classes(), 0);
}
