//! Hash→shard routing and the segmented storage engine.
//!
//! This module is the single home of the shard-routing policy: which hash
//! bits pick a segment, how many segments a requested count rounds to, and
//! how a global memory cap splits across segments without silently losing
//! the remainder. [`SegmentedStore`](crate::SegmentedStore) — a plain
//! `Vec<Store>` for the single-threaded simulation, where virtual-time locks
//! (`simnet::vlock`) provide the serialization model — is the one sharded
//! store; the server's executor routes its shard locks by the same
//! [`ShardRouter`](crate::ShardRouter).

use crate::slab::{ClassId, ClassStats};
use crate::store::{hash_key, ItemLocation, SlabEvent, Store, StoreConfig, StoreStats};

/// The hash→shard routing policy: a power-of-two shard count indexed by
/// the *upper* 16 hash bits, so the lower bits remain well distributed
/// for each shard's own bucket index.
#[derive(Clone, Copy, Debug)]
pub struct ShardRouter {
    mask: usize,
}

impl ShardRouter {
    /// A router over `shards` shards, rounded up to a power of two
    /// (minimum 1).
    pub fn new(shards: usize) -> ShardRouter {
        ShardRouter {
            mask: shards.max(1).next_power_of_two() - 1,
        }
    }

    /// Number of shards routed over.
    pub fn count(&self) -> usize {
        self.mask + 1
    }

    /// Shard index for `key`.
    pub fn index(&self, key: &[u8]) -> usize {
        ((hash_key(key) >> 48) as usize) & self.mask
    }

    /// Splits a global memory cap across shards. The remainder is spread
    /// one byte per shard from the front so the shares sum back to
    /// `limit` exactly (no silent rounding loss); every share is then
    /// floored at `page_size` so each shard can hold at least one page.
    pub fn split_mem_limit(&self, limit: usize, page_size: usize) -> Vec<usize> {
        let n = self.count();
        let base = limit / n;
        let rem = limit % n;
        (0..n)
            .map(|i| (base + usize::from(i < rem)).max(page_size))
            .collect()
    }

    /// Per-shard [`StoreConfig`]s: the slab memory cap split by
    /// [`split_mem_limit`](ShardRouter::split_mem_limit), everything else
    /// copied. A single-shard router returns the config untouched.
    pub fn split_config(&self, config: StoreConfig) -> Vec<StoreConfig> {
        self.split_mem_limit(config.slab.mem_limit, config.slab.page_size)
            .into_iter()
            .map(|limit| {
                let mut c = config;
                c.slab.mem_limit = limit;
                c
            })
            .collect()
    }
}

/// [`Store`] split into hash-routed segments, single-threaded.
///
/// A keyed operation is a [`Store`] verb on the segment the shared
/// [`ShardRouter`] picks ([`segment_for`](Self::segment_for)); stats and
/// slab accounting aggregate across segments. With one segment this is
/// exactly a [`Store`] (same routing — everything lands in segment 0 —
/// and the full memory cap), which is what keeps the simulator's default
/// `Idealized` model bit-identical to the pre-sharding code.
pub struct SegmentedStore {
    segments: Vec<Store>,
    router: ShardRouter,
}

impl SegmentedStore {
    /// Creates `shards` (rounded up to a power of two) segments with the
    /// memory cap split losslessly across them.
    pub fn new(config: StoreConfig, shards: usize) -> SegmentedStore {
        let router = ShardRouter::new(shards);
        SegmentedStore {
            segments: router
                .split_config(config)
                .into_iter()
                .map(Store::new)
                .collect(),
            router,
        }
    }

    /// Number of segments.
    pub fn shard_count(&self) -> usize {
        self.segments.len()
    }

    /// The routing policy (the server's executor locks shards by it).
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Read access to one segment.
    pub fn segment(&self, i: usize) -> &Store {
        &self.segments[i]
    }

    /// The segment owning `key`: every keyed verb is [`Store`]'s own,
    /// called on it.
    pub fn segment_for(&mut self, key: &[u8]) -> &mut Store {
        let i = self.router.index(key);
        &mut self.segments[i]
    }

    /// Flushes every segment (see [`Store::flush_all`]).
    pub fn flush_all(&mut self, now: u32) {
        for s in &mut self.segments {
            s.flush_all(now);
        }
    }

    /// Aggregated statistics across segments.
    pub fn stats(&self) -> StoreStats {
        let mut total = StoreStats::default();
        for s in &self.segments {
            total.merge(&s.stats());
        }
        total
    }

    /// Items evicted live from `class`, summed across segments.
    pub fn class_evicted(&self, class: ClassId) -> u64 {
        let c = usize::from(class.0);
        let evicted = |s: &Store| s.class_evictions().get(c).copied().unwrap_or(0);
        self.segments.iter().map(evicted).sum()
    }

    /// See [`Store::take_moved_classes`], united across segments: the
    /// classes whose [`class_stats`](Self::class_stats) or
    /// [`class_evicted`](Self::class_evicted) may answer differently.
    pub fn take_moved_classes(&mut self) -> u64 {
        self.segments
            .iter_mut()
            .fold(0, |moved, s| moved | s.take_moved_classes())
    }

    /// Zeroes the operation counters on every segment.
    pub fn reset_stats(&mut self) {
        for s in &mut self.segments {
            s.reset_stats();
        }
    }

    /// Total live items across segments.
    pub fn curr_items(&self) -> u64 {
        self.segments.iter().map(Store::curr_items).sum()
    }

    /// Total bytes of stored values across segments.
    pub fn bytes_stored(&self) -> u64 {
        self.segments.iter().map(Store::bytes_stored).sum()
    }

    /// Number of slab classes (identical on every segment: the class
    /// table derives from the slab geometry, not the memory cap).
    pub fn class_count(&self) -> usize {
        self.segments[0].slabs().class_count()
    }

    /// Per-class slab occupancy summed across segments (`chunk_size` and
    /// `alloc_count` semantics follow [`ClassStats`]).
    pub fn class_stats(&self, class: ClassId) -> ClassStats {
        let mut total = ClassStats {
            chunk_size: self.segments[0].slabs().chunk_size(class) as u32,
            pages: 0,
            used: 0,
            free: 0,
            alloc_count: 0,
        };
        for s in &self.segments {
            let st = s.slabs().class_stats(class);
            total.pages += st.pages;
            total.used += st.used;
            total.free += st.free;
            total.alloc_count += st.alloc_count;
        }
        total
    }

    /// See [`Store::class_of`] (identical across segments).
    pub fn class_of(&self, key_len: usize, value_len: usize) -> Option<ClassId> {
        self.segments[0].class_of(key_len, value_len)
    }

    /// Enables (or disables) slab-event collection on every segment.
    pub fn set_event_tracking(&mut self, on: bool) {
        for s in &mut self.segments {
            s.set_event_tracking(on);
        }
    }

    /// Drains the slab events of every segment, tagged with the segment
    /// index so a bypass mirror can apply them to the right arena.
    pub fn take_slab_events(&mut self) -> Vec<(usize, Vec<SlabEvent>)> {
        let mut out = Vec::new();
        for (i, s) in self.segments.iter_mut().enumerate() {
            let evs = s.take_slab_events();
            if !evs.is_empty() {
                out.push((i, evs));
            }
        }
        out
    }

    /// Read-only item lookup for the bypass directory: the owning segment
    /// index plus the location inside that segment's slab arena (see
    /// [`Store::locate`]).
    pub fn locate(&self, key: &[u8], now: u32) -> Option<(usize, ItemLocation)> {
        let i = self.router.index(key);
        self.segments[i].locate(key, now).map(|loc| (i, loc))
    }

    /// `stats slabs`-style lines aggregated across segments; byte-identical
    /// to [`Store::slab_stat_lines`] for a single segment.
    pub fn slab_stat_lines(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for c in 0..self.class_count() {
            let st = self.class_stats(ClassId(c as u8));
            if st.pages == 0 {
                continue;
            }
            out.push((format!("{c}:chunk_size"), st.chunk_size.to_string()));
            out.push((format!("{c}:total_pages"), st.pages.to_string()));
            out.push((format!("{c}:used_chunks"), st.used.to_string()));
            out.push((format!("{c}:free_chunks"), st.free.to_string()));
        }
        out.push(("active_slabs".into(), out.len().to_string()));
        out
    }

    /// `stats items`-style lines aggregated across segments; byte-identical
    /// to [`Store::item_stat_lines`] for a single segment.
    pub fn item_stat_lines(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for c in 0..self.class_count() {
            let used = self.class_stats(ClassId(c as u8)).used;
            if used == 0 {
                continue;
            }
            let evicted = self.class_evicted(ClassId(c as u8));
            out.push((format!("items:{c}:number"), used.to_string()));
            out.push((format!("items:{c}:evicted"), evicted.to_string()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;

    #[test]
    fn router_rounds_to_power_of_two() {
        assert_eq!(ShardRouter::new(0).count(), 1);
        assert_eq!(ShardRouter::new(1).count(), 1);
        assert_eq!(ShardRouter::new(3).count(), 4);
        assert_eq!(ShardRouter::new(16).count(), 16);
        assert_eq!(ShardRouter::new(17).count(), 32);
    }

    #[test]
    fn split_mem_limit_is_lossless() {
        let r = ShardRouter::new(8);
        // 1003 bytes over 8 shards with a 1-byte page floor: shares must
        // sum back to the global cap, remainder included.
        let shares = r.split_mem_limit(1003, 1);
        assert_eq!(shares.iter().sum::<usize>(), 1003);
        assert_eq!(
            shares.iter().max().unwrap() - shares.iter().min().unwrap(),
            1
        );
        // Tiny cap: the page floor dominates so every shard stays usable.
        let floored = r.split_mem_limit(4, 1024);
        assert!(floored.iter().all(|&s| s == 1024));
    }

    #[test]
    fn keys_spread_within_balance_bound() {
        let r = ShardRouter::new(16);
        let mut counts = vec![0usize; r.count()];
        let n_keys = 16_000;
        for i in 0..n_keys {
            counts[r.index(format!("key-{i}").as_bytes())] += 1;
        }
        let expect = n_keys / r.count();
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                c > expect / 2 && c < expect * 2,
                "shard {s} holds {c} of {n_keys} keys (expected ~{expect})"
            );
        }
    }

    #[test]
    fn single_segment_matches_plain_store() {
        let cfg = StoreConfig::default();
        let mut seg = SegmentedStore::new(cfg, 1);
        let mut plain = Store::new(cfg);
        for i in 0..200 {
            let k = format!("k{i}");
            let v = format!("value-{i}");
            let (k, v) = (k.as_bytes(), v.as_bytes());
            assert_eq!(
                seg.segment_for(k).set(k, v, 0, 0, 100),
                plain.set(k, v, 0, 0, 100)
            );
        }
        for i in 0..200 {
            let k = format!("k{i}");
            let k = k.as_bytes();
            assert_eq!(seg.segment_for(k).get(k, 101), plain.get(k, 101));
        }
        assert_eq!(seg.stats(), plain.stats());
        assert_eq!(seg.slab_stat_lines(), plain.slab_stat_lines());
        assert_eq!(seg.item_stat_lines(), plain.item_stat_lines());
        assert_eq!(seg.curr_items(), plain.curr_items());
        assert_eq!(seg.bytes_stored(), plain.bytes_stored());
    }

    #[test]
    fn routed_ops_land_on_owning_segment() {
        let mut seg = SegmentedStore::new(StoreConfig::default(), 4);
        for i in 0..64 {
            let k = format!("route-{i}");
            seg.segment_for(k.as_bytes())
                .set(k.as_bytes(), b"v", 0, 0, 100);
            let owner = seg.router().index(k.as_bytes());
            // Only the owning segment can see the key.
            for s in 0..seg.shard_count() {
                let hit = seg.segment(s).locate(k.as_bytes(), 100).is_some();
                assert_eq!(hit, s == owner, "key {k} visible on segment {s}");
            }
        }
        assert_eq!(seg.stats().sets, 64);
        assert_eq!(seg.curr_items(), 64);
    }

    #[test]
    fn tagged_event_drain_per_segment() {
        let mut seg = SegmentedStore::new(StoreConfig::default(), 4);
        seg.set_event_tracking(true);
        seg.segment_for(b"alpha").set(b"alpha", b"1", 0, 0, 100);
        seg.segment_for(b"beta").set(b"beta", b"2", 0, 0, 100);
        let drained = seg.take_slab_events();
        let touched: Vec<usize> = drained.iter().map(|(i, _)| *i).collect();
        assert!(touched.contains(&seg.router().index(b"alpha")));
        assert!(touched.contains(&seg.router().index(b"beta")));
        for (_, evs) in &drained {
            assert!(!evs.is_empty());
        }
        assert!(seg.take_slab_events().is_empty(), "drain must consume");
    }

    #[test]
    fn moved_classes_unite_over_segments() {
        let mut seg = SegmentedStore::new(StoreConfig::default(), 4);
        let small = b"small".as_slice();
        let large = (0..)
            .map(|i| format!("large-{i}"))
            .find(|k| seg.router().index(k.as_bytes()) != seg.router().index(small))
            .unwrap();
        let large = large.as_bytes();
        seg.segment_for(small).set(small, b"v", 0, 0, 100);
        seg.segment_for(large)
            .set(large, &[b'v'; 10_000], 0, 0, 100);
        let (a, b) = (
            seg.class_of(5, 1).unwrap(),
            seg.class_of(7, 10_000).unwrap(),
        );
        assert_ne!(a, b);
        assert_eq!(seg.take_moved_classes(), 1 << a.0 | 1 << b.0);
        assert_eq!(seg.take_moved_classes(), 0);
    }
}
