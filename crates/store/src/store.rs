//! The storage engine: items, hash table, LRU, and the memcached
//! operation set.
//!
//! Faithful to memcached 1.4.x semantics where they matter to the paper:
//!
//! * items live in slab chunks (`[key][value]`, plus a modeled 48-byte
//!   header counted toward the size class);
//! * a power-of-two chained hash table grows by **incremental expansion**
//!   (memcached's `assoc.c`): during an expansion, un-migrated buckets are
//!   still served from the old table and a fixed number of buckets migrate
//!   per operation, so no single request pays the full rehash;
//! * each slab class keeps its own LRU; allocation failure first reclaims
//!   expired items near the tail, then evicts the tail (memcached's
//!   behaviour with `-M` off);
//! * expiration is lazy (checked on access) with `flush_all` implemented
//!   as an `oldest_live` barrier;
//! * every mutation bumps a global CAS counter.
//!
//! All operations take an explicit `now` (unix seconds): the engine is
//! pure state — the simulation (or a wall-clock server) owns time.

use crate::slab::{ClassId, SlabAllocator, SlabConfig, SlabLoc};

/// Modeled per-item header bytes (memcached's `sizeof(item)` ballpark);
/// counted toward size-class selection.
pub const ITEM_HEADER_SIZE: usize = 48;

/// Maximum key length (memcached's `KEY_MAX_LENGTH`).
pub const MAX_KEY_LEN: usize = 250;

/// Seconds threshold below which an expiration time is relative
/// (memcached's `REALTIME_MAXDELTA`, 30 days).
pub const REALTIME_MAXDELTA: u32 = 60 * 60 * 24 * 30;

const NIL: u32 = u32::MAX;

/// FNV-1a, the hash family memcached shipped with.
pub fn hash_key(key: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Outcome of a storage command.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SetOutcome {
    /// Stored successfully.
    Stored,
    /// `add` on an existing key or `replace`/`append`/`prepend` on a
    /// missing one.
    NotStored,
    /// CAS mismatch: the item changed since `gets`.
    Exists,
    /// CAS on a key that no longer exists.
    NotFound,
    /// Item exceeds the largest slab chunk.
    TooLarge,
    /// Allocation failed and nothing was evictable.
    OutOfMemory,
}

/// Error from `incr`/`decr`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NumericError {
    /// Key not present.
    NotFound,
    /// Existing value is not an unsigned decimal integer.
    NotNumeric,
}

/// A fetched value: owned (`Value`, what [`Store::get`] returns), or lent
/// where it sits in its slab chunk (`Value<&[u8]>`, [`Store::get_ref`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Value<D = Vec<u8>> {
    /// The stored bytes.
    pub data: D,
    /// Client-opaque flags.
    pub flags: u32,
    /// CAS token for optimistic concurrency.
    pub cas: u64,
}

impl Value<&[u8]> {
    /// The lent bytes copied out, into a value of their own.
    pub fn into_owned(self) -> Value {
        Value {
            data: self.data.to_vec(),
            flags: self.flags,
            cas: self.cas,
        }
    }
}

/// A chunk-level change notification for the bypass-get mirror (only
/// collected while [`Store::set_event_tracking`] is on). The version is
/// the chunk's seqlock version *after* the change; events are emitted in
/// mutation order, so replaying them keeps an external mirror exactly in
/// step with the slab contents.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SlabEvent {
    /// The chunk holds a (new or updated) live item.
    Written {
        /// Chunk that changed.
        loc: SlabLoc,
        /// Seqlock version after the write.
        version: u64,
    },
    /// The chunk's item died (delete / eviction / expiry / flush) or its
    /// chunk was reassigned; only the version word is meaningful now.
    Invalidated {
        /// Chunk that changed.
        loc: SlabLoc,
        /// Seqlock version after the invalidation.
        version: u64,
    },
}

impl SlabEvent {
    /// The chunk the event refers to.
    pub fn loc(&self) -> SlabLoc {
        match self {
            SlabEvent::Written { loc, .. } | SlabEvent::Invalidated { loc, .. } => *loc,
        }
    }
}

/// Where a live item sits in slab memory — the source of a bypass-get
/// location descriptor (`{rkey, offset, len, version}` once the server
/// maps it onto a registered mirror page).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ItemLocation {
    /// Slab chunk holding `[key][value]`.
    pub loc: SlabLoc,
    /// Key length in bytes.
    pub klen: u16,
    /// Value length in bytes.
    pub vlen: u32,
    /// Client-opaque flags.
    pub flags: u32,
    /// CAS token at lookup time.
    pub cas: u64,
    /// Absolute expiry (unix seconds); 0 = never.
    pub exp: u32,
    /// Chunk seqlock version at lookup time.
    pub version: u64,
}

/// Counters mirroring `stats` fields of interest.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct StoreStats {
    /// get hits.
    pub get_hits: u64,
    /// get misses.
    pub get_misses: u64,
    /// Storage commands accepted.
    pub sets: u64,
    /// Items evicted live to make room.
    pub evictions: u64,
    /// Expired items lazily reclaimed.
    pub reclaimed: u64,
    /// delete hits.
    pub delete_hits: u64,
    /// delete misses.
    pub delete_misses: u64,
    /// CAS stores that matched.
    pub cas_hits: u64,
    /// CAS stores that mismatched.
    pub cas_badval: u64,
    /// incr/decr hits.
    pub incr_hits: u64,
    /// Total items ever stored.
    pub total_items: u64,
    /// Hash-table expansions completed.
    pub hash_expansions: u64,
}

impl StoreStats {
    /// Accumulates another stats block into this one (shard aggregation).
    pub fn merge(&mut self, other: &StoreStats) {
        self.get_hits += other.get_hits;
        self.get_misses += other.get_misses;
        self.sets += other.sets;
        self.evictions += other.evictions;
        self.reclaimed += other.reclaimed;
        self.delete_hits += other.delete_hits;
        self.delete_misses += other.delete_misses;
        self.cas_hits += other.cas_hits;
        self.cas_badval += other.cas_badval;
        self.incr_hits += other.incr_hits;
        self.total_items += other.total_items;
        self.hash_expansions += other.hash_expansions;
    }
}

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// Slab allocator settings.
    pub slab: SlabConfig,
    /// log2 of the initial bucket count (memcached default 16).
    pub hashpower: u32,
    /// Buckets migrated per operation during an expansion.
    pub migrate_per_op: usize,
    /// Evict on memory pressure (memcached default; `-M` turns it off).
    pub evict_on_full: bool,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            slab: SlabConfig::default(),
            hashpower: 16,
            migrate_per_op: 4,
            evict_on_full: true,
        }
    }
}

struct ItemSlot {
    in_use: bool,
    loc: SlabLoc,
    hash: u64,
    klen: u16,
    vlen: u32,
    flags: u32,
    /// Absolute expiry (unix seconds); 0 = never.
    exp: u32,
    stored_at: u32,
    cas: u64,
    h_next: u32,
    lru_prev: u32,
    lru_next: u32,
}

/// The single-threaded storage engine. See the module docs.
pub struct Store {
    slabs: SlabAllocator,
    items: Vec<ItemSlot>,
    free_items: Vec<u32>,
    buckets: Vec<u32>,
    old_buckets: Vec<u32>,
    expanding: bool,
    expand_pos: usize,
    lru_head: Vec<u32>,
    lru_tail: Vec<u32>,
    cas_counter: u64,
    oldest_live: u32,
    item_count: u64,
    bytes_stored: u64,
    config: StoreConfig,
    stats: StoreStats,
    evictions_by_class: Vec<u64>,
    /// Chunk-change events for the bypass mirror; only filled while
    /// `track_events` is on (i.e. a bypass client exists).
    events: Vec<SlabEvent>,
    track_events: bool,
}

impl Store {
    /// Creates an empty store.
    pub fn new(config: StoreConfig) -> Store {
        let slabs = SlabAllocator::new(config.slab);
        let classes = slabs.class_count();
        Store {
            slabs,
            items: Vec::new(),
            free_items: Vec::new(),
            buckets: vec![NIL; 1 << config.hashpower],
            old_buckets: Vec::new(),
            expanding: false,
            expand_pos: 0,
            lru_head: vec![NIL; classes],
            lru_tail: vec![NIL; classes],
            cas_counter: 0,
            oldest_live: 0,
            item_count: 0,
            bytes_stored: 0,
            config,
            stats: StoreStats::default(),
            evictions_by_class: vec![0; classes],
            events: Vec::new(),
            track_events: false,
        }
    }

    /// Creates a store with default settings.
    pub fn with_defaults() -> Store {
        Store::new(StoreConfig::default())
    }

    // ------------------------------------------------------------------
    // Public operations
    // ------------------------------------------------------------------

    /// Unconditional store.
    pub fn set(
        &mut self,
        key: &[u8],
        value: &[u8],
        flags: u32,
        exptime: u32,
        now: u32,
    ) -> SetOutcome {
        let exp = normalize_exptime(exptime, now);
        self.store_item(key, value, flags, exp, now, StorePolicy::Set)
    }

    /// Store only if absent.
    pub fn add(
        &mut self,
        key: &[u8],
        value: &[u8],
        flags: u32,
        exptime: u32,
        now: u32,
    ) -> SetOutcome {
        let exp = normalize_exptime(exptime, now);
        self.store_item(key, value, flags, exp, now, StorePolicy::Add)
    }

    /// Store only if present.
    pub fn replace(
        &mut self,
        key: &[u8],
        value: &[u8],
        flags: u32,
        exptime: u32,
        now: u32,
    ) -> SetOutcome {
        let exp = normalize_exptime(exptime, now);
        self.store_item(key, value, flags, exp, now, StorePolicy::Replace)
    }

    /// Compare-and-store against a CAS token from `get`.
    pub fn cas(
        &mut self,
        key: &[u8],
        value: &[u8],
        flags: u32,
        exptime: u32,
        cas: u64,
        now: u32,
    ) -> SetOutcome {
        let exp = normalize_exptime(exptime, now);
        self.store_item(key, value, flags, exp, now, StorePolicy::Cas(cas))
    }

    /// Appends `data` to an existing value.
    pub fn append(&mut self, key: &[u8], data: &[u8], now: u32) -> SetOutcome {
        self.concat(key, data, now, true)
    }

    /// Prepends `data` to an existing value.
    pub fn prepend(&mut self, key: &[u8], data: &[u8], now: u32) -> SetOutcome {
        self.concat(key, data, now, false)
    }

    /// Fetches a value (bumps LRU; reclaims if expired), copied out of the
    /// slab: [`get_ref`](Store::get_ref) and one copy.
    pub fn get(&mut self, key: &[u8], now: u32) -> Option<Value> {
        self.get_ref(key, now).map(Value::into_owned)
    }

    /// Fetches a value in place: counts the hit or miss, bumps the LRU and
    /// reclaims an expired item as [`get`](Store::get) does, then lends the
    /// value where it sits in its slab chunk. Nothing is copied; the loan
    /// ends before the store can be touched again. Inlined into `get`, so
    /// the owned fetch costs what it did before there were two.
    #[inline]
    pub fn get_ref(&mut self, key: &[u8], now: u32) -> Option<Value<&[u8]>> {
        self.maintain();
        let Some(id) = self.lookup_live(key, now) else {
            self.stats.get_misses += 1;
            return None;
        };
        self.stats.get_hits += 1;
        self.lru_bump(id);
        let it = &self.items[id as usize];
        Some(Value {
            data: self.slabs.read(it.loc, it.klen as usize, it.vlen as usize),
            flags: it.flags,
            cas: it.cas,
        })
    }

    /// Removes a key. True if it existed (and was live).
    pub fn delete(&mut self, key: &[u8], now: u32) -> bool {
        self.maintain();
        match self.lookup_live(key, now) {
            Some(id) => {
                self.stats.delete_hits += 1;
                self.remove_item(id);
                true
            }
            None => {
                self.stats.delete_misses += 1;
                false
            }
        }
    }

    /// Arithmetic increment; wraps at `u64::MAX` like memcached.
    pub fn incr(&mut self, key: &[u8], delta: u64, now: u32) -> Result<u64, NumericError> {
        self.arith(key, delta, now, true)
    }

    /// Arithmetic decrement; clamps at zero like memcached.
    pub fn decr(&mut self, key: &[u8], delta: u64, now: u32) -> Result<u64, NumericError> {
        self.arith(key, delta, now, false)
    }

    /// Updates expiry without touching the value.
    pub fn touch(&mut self, key: &[u8], exptime: u32, now: u32) -> bool {
        self.maintain();
        let exp = normalize_exptime(exptime, now);
        match self.lookup_live(key, now) {
            Some(id) => {
                self.items[id as usize].exp = exp;
                self.lru_bump(id);
                // The item's descriptor (which carries the expiry) is now
                // stale: advance the version so bypass readers refetch.
                let loc = self.items[id as usize].loc;
                let version = self.slabs.bump_version(loc);
                self.emit(SlabEvent::Written { loc, version });
                true
            }
            None => false,
        }
    }

    /// Invalidates everything stored strictly before `now`, from `now` on
    /// (a `now` in the future is a delayed flush).
    pub fn flush_all(&mut self, now: u32) {
        self.oldest_live = now;
        if self.track_events {
            // Reclamation stays lazy, but bypass readers must stop trusting
            // cached descriptors immediately: bump every flushed item's
            // chunk version so direct reads observe the skew.
            for id in 0..self.items.len() {
                let it = &self.items[id];
                if it.in_use && it.stored_at < now {
                    let loc = it.loc;
                    let version = self.slabs.bump_version(loc);
                    self.emit(SlabEvent::Invalidated { loc, version });
                }
            }
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Items evicted live from each slab class, indexed by class id (the
    /// per-class split of [`StoreStats::evictions`]).
    pub fn class_evictions(&self) -> &[u64] {
        &self.evictions_by_class
    }

    /// Zeroes the operation counters (`stats reset` semantics). Level
    /// state — stored items, slab pages, LRU order — is untouched: only
    /// the accounting restarts. Every class counts as moved.
    pub fn reset_stats(&mut self) {
        self.stats = StoreStats::default();
        self.evictions_by_class.iter_mut().for_each(|e| *e = 0);
        self.slabs.mark_all_moved();
    }

    /// The classes whose per-class figures — pages, used and free chunks
    /// ([`SlabAllocator::class_stats`]), evictions
    /// ([`class_evictions`](Store::class_evictions)) — may have moved since
    /// the last call, one bit per class id; clears them. An eviction frees
    /// a chunk, so the allocator's own mask covers everything but a
    /// statistics reset, which marks every class.
    pub fn take_moved_classes(&mut self) -> u64 {
        self.slabs.take_moved()
    }

    /// Live item count (may include not-yet-reclaimed expired items).
    pub fn curr_items(&self) -> u64 {
        self.item_count
    }

    /// Bytes of key+value payload currently stored.
    pub fn bytes_stored(&self) -> u64 {
        self.bytes_stored
    }

    /// Current hash-table bucket count.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// True while an incremental expansion is in progress.
    pub fn is_expanding(&self) -> bool {
        self.expanding
    }

    /// The slab allocator (stats inspection).
    pub fn slabs(&self) -> &SlabAllocator {
        &self.slabs
    }

    /// The slab class an item of this shape lands in, using the same
    /// sizing formula as [`store_item`](Store::store_item). Only tests
    /// call it: they check where the allocator placed an item.
    pub fn class_of(&self, key_len: usize, value_len: usize) -> Option<ClassId> {
        self.slabs.class_for(ITEM_HEADER_SIZE + key_len + value_len)
    }

    /// Enables (or disables) chunk-change event collection for the bypass
    /// mirror. Off by default; the server flips it on when the first
    /// bypass client asks for a location descriptor.
    pub fn set_event_tracking(&mut self, on: bool) {
        self.track_events = on;
        if !on {
            self.events.clear();
        }
    }

    /// Drains the chunk-change events accumulated since the last call.
    pub fn take_slab_events(&mut self) -> Vec<SlabEvent> {
        std::mem::take(&mut self.events)
    }

    /// Read-only item lookup for the bypass directory: where a live item
    /// sits in slab memory plus its current seqlock version. Unlike
    /// [`get`](Store::get) this neither bumps the LRU nor reclaims expired
    /// items nor counts a hit/miss — serving a descriptor is not a cache
    /// access, and the directory handler runs outside the worker path.
    /// The reported `exp` is when the item stops being live: its own
    /// expiry, or an earlier pending flush deadline.
    pub fn locate(&self, key: &[u8], now: u32) -> Option<ItemLocation> {
        let id = self.lookup(key)?;
        if self.is_dead(id, now) {
            return None;
        }
        let it = &self.items[id as usize];
        // A pending flush barrier that covers the item (`flush_all <delay>`)
        // ends its life at the deadline, and nothing bumps the version
        // then: report the barrier as the expiry, the one staleness signal
        // a bypass reader checks on its own clock.
        let exp = if self.oldest_live > now && it.stored_at < self.oldest_live {
            match it.exp {
                0 => self.oldest_live,
                exp => exp.min(self.oldest_live),
            }
        } else {
            it.exp
        };
        Some(ItemLocation {
            loc: it.loc,
            klen: it.klen,
            vlen: it.vlen,
            flags: it.flags,
            cas: it.cas,
            exp,
            version: self.slabs.version(it.loc),
        })
    }

    fn emit(&mut self, ev: SlabEvent) {
        if self.track_events {
            self.events.push(ev);
        }
    }

    /// `stats slabs`-style lines: one `(name, value)` pair per populated
    /// class, mirroring memcached's `STAT <class>:<field> <value>` layout.
    pub fn slab_stat_lines(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for c in 0..self.slabs.class_count() {
            let st = self.slabs.class_stats(ClassId(c as u8));
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

    /// `stats items`-style lines: per-class live item counts and the age
    /// proxy memcached reports (here: the tail key's presence).
    pub fn item_stat_lines(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for c in 0..self.slabs.class_count() {
            let class = ClassId(c as u8);
            let used = self.slabs.class_stats(class).used;
            if used == 0 {
                continue;
            }
            out.push((format!("items:{c}:number"), used.to_string()));
            out.push((
                format!("items:{c}:evicted"),
                self.evictions_by_class[c].to_string(),
            ));
        }
        out
    }

    // ------------------------------------------------------------------
    // Store / concat / arithmetic internals
    // ------------------------------------------------------------------

    /// Core store. `exp_abs` is an already-normalized absolute expiry
    /// (0 = never) — callers from the protocol surface normalize; internal
    /// re-stores (concat, arithmetic) pass the item's existing expiry
    /// through unchanged.
    fn store_item(
        &mut self,
        key: &[u8],
        value: &[u8],
        flags: u32,
        exp_abs: u32,
        now: u32,
        policy: StorePolicy,
    ) -> SetOutcome {
        self.maintain();
        if key.is_empty() || key.len() > MAX_KEY_LEN {
            return SetOutcome::NotStored;
        }
        let need = ITEM_HEADER_SIZE + key.len() + value.len();
        let Some(class) = self.slabs.class_for(need) else {
            return SetOutcome::TooLarge;
        };
        let existing = self.lookup_live(key, now);
        match policy {
            StorePolicy::Add if existing.is_some() => return SetOutcome::NotStored,
            StorePolicy::Replace if existing.is_none() => return SetOutcome::NotStored,
            StorePolicy::Cas(_) if existing.is_none() => {
                return SetOutcome::NotFound;
            }
            StorePolicy::Cas(expected) => {
                let id = existing.expect("checked above");
                if self.items[id as usize].cas != expected {
                    self.stats.cas_badval += 1;
                    return SetOutcome::Exists;
                }
                self.stats.cas_hits += 1;
            }
            _ => {}
        }

        // Out with the old (memcached stores a fresh item and unlinks the
        // previous one rather than updating in place).
        if let Some(id) = existing {
            self.remove_item(id);
        }
        let Some(loc) = self.alloc_with_eviction(class, now) else {
            return SetOutcome::OutOfMemory;
        };
        let id = self.alloc_slot();
        let hash = hash_key(key);
        self.cas_counter += 1;
        self.slabs.write(loc, 0, key);
        self.slabs.write(loc, key.len(), value);
        {
            let slot = &mut self.items[id as usize];
            slot.in_use = true;
            slot.loc = loc;
            slot.hash = hash;
            slot.klen = key.len() as u16;
            slot.vlen = value.len() as u32;
            slot.flags = flags;
            slot.exp = exp_abs;
            slot.stored_at = now;
            slot.cas = self.cas_counter;
            slot.h_next = NIL;
            slot.lru_prev = NIL;
            slot.lru_next = NIL;
        }
        self.hash_insert(id);
        self.lru_push_front(id);
        self.item_count += 1;
        self.bytes_stored += (key.len() + value.len()) as u64;
        self.stats.sets += 1;
        self.stats.total_items += 1;
        let version = self.slabs.bump_version(loc);
        self.emit(SlabEvent::Written { loc, version });
        SetOutcome::Stored
    }

    fn concat(&mut self, key: &[u8], data: &[u8], now: u32, append: bool) -> SetOutcome {
        self.maintain();
        let Some(id) = self.lookup_live(key, now) else {
            return SetOutcome::NotStored;
        };
        let it = &self.items[id as usize];
        let old = self
            .slabs
            .read(it.loc, it.klen as usize, it.vlen as usize)
            .to_vec();
        let (flags, exp_abs) = (it.flags, it.exp);
        let mut newval = Vec::with_capacity(old.len() + data.len());
        if append {
            newval.extend_from_slice(&old);
            newval.extend_from_slice(data);
        } else {
            newval.extend_from_slice(data);
            newval.extend_from_slice(&old);
        }
        // Re-store with the item's absolute expiry preserved.
        match self.store_item(key, &newval, flags, exp_abs, now, StorePolicy::Set) {
            SetOutcome::Stored => SetOutcome::Stored,
            other => other,
        }
    }

    fn arith(&mut self, key: &[u8], delta: u64, now: u32, up: bool) -> Result<u64, NumericError> {
        self.maintain();
        let Some(id) = self.lookup_live(key, now) else {
            return Err(NumericError::NotFound);
        };
        let it = &self.items[id as usize];
        let raw = self.slabs.read(it.loc, it.klen as usize, it.vlen as usize);
        let text = std::str::from_utf8(raw).map_err(|_| NumericError::NotNumeric)?;
        let cur: u64 = text.trim().parse().map_err(|_| NumericError::NotNumeric)?;
        let newv = if up {
            cur.wrapping_add(delta)
        } else {
            cur.saturating_sub(delta)
        };
        let text = newv.to_string();
        let (flags, exp_abs, loc, klen, old_vlen) = {
            let it = &self.items[id as usize];
            (it.flags, it.exp, it.loc, it.klen as usize, it.vlen as usize)
        };
        self.stats.incr_hits += 1;
        if text.len() <= old_vlen {
            // Fits in place (memcached pads shorter numbers by rewriting
            // the length).
            self.slabs.write(loc, klen, text.as_bytes());
            self.cas_counter += 1;
            let it = &mut self.items[id as usize];
            self.bytes_stored -= (old_vlen - text.len()) as u64;
            it.vlen = text.len() as u32;
            it.cas = self.cas_counter;
            let version = self.slabs.bump_version(loc);
            self.emit(SlabEvent::Written { loc, version });
            Ok(newv)
        } else {
            match self.store_item(key, text.as_bytes(), flags, exp_abs, now, StorePolicy::Set) {
                SetOutcome::Stored => Ok(newv),
                _ => Err(NumericError::NotFound),
            }
        }
    }

    // ------------------------------------------------------------------
    // Allocation / eviction
    // ------------------------------------------------------------------

    fn alloc_with_eviction(&mut self, class: ClassId, now: u32) -> Option<SlabLoc> {
        if let Some(loc) = self.slabs.alloc(class) {
            return Some(loc);
        }
        if !self.config.evict_on_full {
            return None;
        }
        // Walk up to 5 items from the LRU tail looking for expired ones to
        // reclaim first (memcached's tail scan), else evict the tail.
        for _ in 0..5 {
            let tail = self.lru_tail[class.0 as usize];
            if tail == NIL {
                return None;
            }
            let expired = self.is_dead(tail, now);
            if expired {
                self.stats.reclaimed += 1;
            } else {
                self.stats.evictions += 1;
                self.evictions_by_class[class.0 as usize] += 1;
            }
            self.remove_item(tail);
            if let Some(loc) = self.slabs.alloc(class) {
                return Some(loc);
            }
        }
        None
    }

    fn alloc_slot(&mut self) -> u32 {
        if let Some(id) = self.free_items.pop() {
            return id;
        }
        let id = self.items.len() as u32;
        self.items.push(ItemSlot {
            in_use: false,
            // Placeholder: overwritten by the caller right away.
            loc: SlabLoc::placeholder(),
            hash: 0,
            klen: 0,
            vlen: 0,
            flags: 0,
            exp: 0,
            stored_at: 0,
            cas: 0,
            h_next: NIL,
            lru_prev: NIL,
            lru_next: NIL,
        });
        id
    }

    fn remove_item(&mut self, id: u32) {
        self.hash_unlink(id);
        self.lru_unlink(id);
        let it = &mut self.items[id as usize];
        debug_assert!(it.in_use);
        it.in_use = false;
        self.item_count -= 1;
        self.bytes_stored -= (it.klen as u64) + (it.vlen as u64);
        let loc = it.loc;
        let version = self.slabs.bump_version(loc);
        self.emit(SlabEvent::Invalidated { loc, version });
        self.slabs.free(loc);
        self.free_items.push(id);
    }

    // ------------------------------------------------------------------
    // Hash table with incremental expansion
    // ------------------------------------------------------------------

    fn bucket_index(&self, hash: u64) -> (bool, usize) {
        if self.expanding {
            let old_idx = (hash as usize) & (self.old_buckets.len() - 1);
            if old_idx >= self.expand_pos {
                return (true, old_idx);
            }
        }
        (false, (hash as usize) & (self.buckets.len() - 1))
    }

    fn hash_insert(&mut self, id: u32) {
        let hash = self.items[id as usize].hash;
        let (in_old, idx) = self.bucket_index(hash);
        let head = if in_old {
            &mut self.old_buckets[idx]
        } else {
            &mut self.buckets[idx]
        };
        self.items[id as usize].h_next = *head;
        *head = id;
        self.maybe_start_expansion();
    }

    fn hash_unlink(&mut self, id: u32) {
        let hash = self.items[id as usize].hash;
        let (in_old, idx) = self.bucket_index(hash);
        let mut cur = if in_old {
            self.old_buckets[idx]
        } else {
            self.buckets[idx]
        };
        if cur == id {
            let next = self.items[id as usize].h_next;
            if in_old {
                self.old_buckets[idx] = next;
            } else {
                self.buckets[idx] = next;
            }
            return;
        }
        while cur != NIL {
            let next = self.items[cur as usize].h_next;
            if next == id {
                self.items[cur as usize].h_next = self.items[id as usize].h_next;
                return;
            }
            cur = next;
        }
        debug_assert!(false, "unlinking an item that is not in its bucket");
    }

    fn lookup(&self, key: &[u8]) -> Option<u32> {
        let hash = hash_key(key);
        let (in_old, idx) = self.bucket_index(hash);
        let mut cur = if in_old {
            self.old_buckets[idx]
        } else {
            self.buckets[idx]
        };
        while cur != NIL {
            let it = &self.items[cur as usize];
            if it.hash == hash {
                let stored = self.slabs.read(it.loc, 0, it.klen as usize);
                if stored == key {
                    return Some(cur);
                }
            }
            cur = it.h_next;
        }
        None
    }

    /// Lookup that lazily reclaims dead (expired / flushed) items.
    fn lookup_live(&mut self, key: &[u8], now: u32) -> Option<u32> {
        let id = self.lookup(key)?;
        if self.is_dead(id, now) {
            self.stats.reclaimed += 1;
            self.remove_item(id);
            return None;
        }
        Some(id)
    }

    fn is_dead(&self, id: u32, now: u32) -> bool {
        let it = &self.items[id as usize];
        // A flush barrier set in the future (`flush_all <delay>`) kills
        // nothing until the clock reaches it.
        let flushed =
            self.oldest_live != 0 && self.oldest_live <= now && it.stored_at < self.oldest_live;
        (it.exp != 0 && it.exp <= now) || flushed
    }

    fn maybe_start_expansion(&mut self) {
        if self.expanding {
            return;
        }
        if self.item_count <= (self.buckets.len() as u64 * 3) / 2 {
            return;
        }
        let new_size = self.buckets.len() * 2;
        self.old_buckets = std::mem::replace(&mut self.buckets, vec![NIL; new_size]);
        self.expanding = true;
        self.expand_pos = 0;
    }

    /// Incremental maintenance: migrate a few buckets per operation.
    fn maintain(&mut self) {
        if !self.expanding {
            return;
        }
        for _ in 0..self.config.migrate_per_op {
            if self.expand_pos >= self.old_buckets.len() {
                self.expanding = false;
                self.old_buckets = Vec::new();
                self.stats.hash_expansions += 1;
                return;
            }
            let mut cur = self.old_buckets[self.expand_pos];
            self.old_buckets[self.expand_pos] = NIL;
            // Must advance before re-inserting so bucket_index routes the
            // migrated items into the new table.
            self.expand_pos += 1;
            while cur != NIL {
                let next = self.items[cur as usize].h_next;
                let hash = self.items[cur as usize].hash;
                let idx = (hash as usize) & (self.buckets.len() - 1);
                self.items[cur as usize].h_next = self.buckets[idx];
                self.buckets[idx] = cur;
                cur = next;
            }
        }
    }

    // ------------------------------------------------------------------
    // LRU
    // ------------------------------------------------------------------

    fn lru_push_front(&mut self, id: u32) {
        let class = self.items[id as usize].loc.class.0 as usize;
        let head = self.lru_head[class];
        self.items[id as usize].lru_prev = NIL;
        self.items[id as usize].lru_next = head;
        if head != NIL {
            self.items[head as usize].lru_prev = id;
        }
        self.lru_head[class] = id;
        if self.lru_tail[class] == NIL {
            self.lru_tail[class] = id;
        }
    }

    fn lru_unlink(&mut self, id: u32) {
        let class = self.items[id as usize].loc.class.0 as usize;
        let (prev, next) = {
            let it = &self.items[id as usize];
            (it.lru_prev, it.lru_next)
        };
        if prev != NIL {
            self.items[prev as usize].lru_next = next;
        } else {
            self.lru_head[class] = next;
        }
        if next != NIL {
            self.items[next as usize].lru_prev = prev;
        } else {
            self.lru_tail[class] = prev;
        }
        self.items[id as usize].lru_prev = NIL;
        self.items[id as usize].lru_next = NIL;
    }

    fn lru_bump(&mut self, id: u32) {
        self.lru_unlink(id);
        self.lru_push_front(id);
    }

    /// The key at the LRU tail of `class` (tests/diagnostics).
    pub fn lru_tail_key(&self, class: ClassId) -> Option<Vec<u8>> {
        let tail = self.lru_tail[class.0 as usize];
        if tail == NIL {
            return None;
        }
        let it = &self.items[tail as usize];
        Some(self.slabs.read(it.loc, 0, it.klen as usize).to_vec())
    }
}

#[derive(Clone, Copy)]
enum StorePolicy {
    Set,
    Add,
    Replace,
    Cas(u64),
}

/// Normalizes a protocol expiration time to an absolute unix second:
/// 0 stays "never"; values up to 30 days are relative to `now`; larger
/// values are already absolute (memcached's `realtime()`).
pub fn normalize_exptime(exptime: u32, now: u32) -> u32 {
    if exptime == 0 {
        0
    } else if exptime <= REALTIME_MAXDELTA {
        now + exptime
    } else {
        exptime
    }
}
