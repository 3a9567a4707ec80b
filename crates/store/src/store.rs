//! The storage engine: items, hash table, LRU, and the memcached
//! operation set.
//!
//! Faithful to memcached 1.4.x semantics where they matter to the paper:
//!
//! * an item lives in one slab chunk: key and value from the chunk's first
//!   byte, its 48-byte header (hash, CAS, flags, expiry, store time,
//!   lengths, and the hash-chain and LRU links) in the chunk's last bytes,
//!   and the chunk's id is the item's — there is no table of items beside
//!   the slabs;
//! * a power-of-two chained hash table grows by **incremental expansion**
//!   (memcached's `assoc.c`): during an expansion, un-migrated buckets are
//!   still served from the old table and a fixed number of buckets migrate
//!   per operation, so no single request pays the full rehash;
//! * each slab class keeps its own LRU; an allocation that finds its class
//!   full first reclaims the first dead (expired or flushed) item among the
//!   `TAIL_SEARCH_DEPTH` = 5 nearest the tail, and evicts the tail only if
//!   there is none (memcached's tail search with `-M` off);
//! * expiration is lazy (checked on access) with `flush_all` implemented
//!   as an `oldest_live` barrier;
//! * every mutation bumps a global CAS counter.
//!
//! All operations take an explicit `now` (unix seconds): the engine is
//! pure state — the simulation (or a wall-clock server) owns time.

use crate::slab::{ClassId, ClassStats, SlabAllocator, SlabConfig, SlabLoc, ITEM_HEADER_SIZE};

/// Maximum key length (memcached's `KEY_MAX_LENGTH`).
pub const MAX_KEY_LEN: usize = 250;

/// Seconds threshold below which an expiration time is relative
/// (memcached's `REALTIME_MAXDELTA`, 30 days).
pub const REALTIME_MAXDELTA: u32 = 60 * 60 * 24 * 30;

const NIL: u32 = u32::MAX;

/// Items an allocation that finds its class full looks at, from the LRU
/// tail up, for a dead one to reclaim before it evicts the tail.
const TAIL_SEARCH_DEPTH: usize = 5;

// An item's header, the last `ITEM_HEADER_SIZE` bytes of its chunk, by
// each field's byte offset: hash and CAS (u64), flags, expiry, store
// time, value length and the hash-chain and LRU links (u32), key length
// (u16) and a byte that is 1 while the chunk holds a live item.
const HASH: usize = 0;
const CAS: usize = 8;
const FLAGS: usize = 16;
/// Absolute expiry (unix seconds); 0 = never.
const EXP: usize = 20;
const STORED_AT: usize = 24;
const VLEN: usize = 28;
const H_NEXT: usize = 32;
const LRU_PREV: usize = 36;
const LRU_NEXT: usize = 40;
const KLEN: usize = 44;
const LIVE: usize = 46;

fn field<const N: usize>(h: &[u8; ITEM_HEADER_SIZE], at: usize) -> [u8; N] {
    std::array::from_fn(|i| h[at + i])
}

fn u32_at(h: &[u8; ITEM_HEADER_SIZE], at: usize) -> u32 {
    u32::from_le_bytes(field(h, at))
}

fn u64_at(h: &[u8; ITEM_HEADER_SIZE], at: usize) -> u64 {
    u64::from_le_bytes(field(h, at))
}

fn put32(h: &mut [u8; ITEM_HEADER_SIZE], at: usize, to: u32) {
    h[at..at + 4].copy_from_slice(&to.to_le_bytes());
}

fn put64(h: &mut [u8; ITEM_HEADER_SIZE], at: usize, to: u64) {
    h[at..at + 8].copy_from_slice(&to.to_le_bytes());
}

/// An item's key and value, from its chunk's payload and header.
fn key_value<'a>(payload: &'a [u8], h: &[u8; ITEM_HEADER_SIZE]) -> (&'a [u8], &'a [u8]) {
    let klen = usize::from(u16::from_le_bytes(field(h, KLEN)));
    payload[..klen + u32_at(h, VLEN) as usize].split_at(klen)
}

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

/// The single-threaded storage engine. See the module docs.
pub struct Store {
    slabs: SlabAllocator,
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
        let (payload, h) = self.slabs.item(id);
        Some(Value {
            data: key_value(payload, h).1,
            flags: u32_at(h, FLAGS),
            cas: u64_at(h, CAS),
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
        let Some(id) = self.lookup_live(key, now) else {
            return false;
        };
        put32(self.slabs.header_mut(id), EXP, exp);
        self.lru_bump(id);
        // The item's descriptor (which carries the expiry) is now stale:
        // advance the version so bypass readers refetch.
        self.changed(id, true);
        true
    }

    /// Invalidates everything stored strictly before `now`, from `now` on
    /// (a `now` in the future is a delayed flush).
    pub fn flush_all(&mut self, now: u32) {
        self.oldest_live = now;
        if self.track_events {
            // Reclamation stays lazy, but bypass readers must stop trusting
            // cached descriptors immediately: bump every flushed item's
            // chunk version so direct reads observe the skew. The live
            // chunks are found where they sit, class by class, page by page.
            let flushed: Vec<u32> = (0..self.slabs.class_count())
                .flat_map(|c| self.slabs.carved(ClassId(c as u8)))
                .filter(|&id| {
                    self.slabs.header(id)[LIVE] == 1
                        && u32_at(self.slabs.header(id), STORED_AT) < now
                })
                .collect();
            for id in flushed {
                self.changed(id, false);
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
    /// sizing formula as `Store::store_item`. Only tests
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
        let (exp, stored_at) = (
            u32_at(self.slabs.header(id), EXP),
            u32_at(self.slabs.header(id), STORED_AT),
        );
        // A pending flush barrier that covers the item (`flush_all <delay>`)
        // ends its life at the deadline, and nothing bumps the version
        // then: report the barrier as the expiry, the one staleness signal
        // a bypass reader checks on its own clock.
        let exp = if self.oldest_live > now && stored_at < self.oldest_live {
            match exp {
                0 => self.oldest_live,
                exp => exp.min(self.oldest_live),
            }
        } else {
            exp
        };
        Some(ItemLocation {
            loc: self.slabs.loc_of(id),
            klen: self.key(id).len() as u16,
            vlen: u32_at(self.slabs.header(id), VLEN),
            flags: u32_at(self.slabs.header(id), FLAGS),
            cas: u64_at(self.slabs.header(id), CAS),
            exp,
            version: self.slabs.version(id),
        })
    }

    /// Bumps chunk `id`'s version and, while events are tracked, reports
    /// the change: the chunk holds a live item (`written`) or it died.
    fn changed(&mut self, id: u32, written: bool) {
        let version = self.slabs.bump_version(id);
        if self.track_events {
            let loc = self.slabs.loc_of(id);
            self.events.push(match written {
                true => SlabEvent::Written { loc, version },
                false => SlabEvent::Invalidated { loc, version },
            });
        }
    }

    /// `stats slabs`-style lines: one `(name, value)` pair per populated
    /// class, mirroring memcached's `STAT <class>:<field> <value>` layout.
    pub fn slab_stat_lines(&self) -> Vec<(String, String)> {
        slab_lines(self.slabs.class_count(), |c| self.slabs.class_stats(c))
    }

    /// `stats items`-style lines: per-class live item counts and
    /// evictions.
    pub fn item_stat_lines(&self) -> Vec<(String, String)> {
        let evicted = |c: ClassId| self.evictions_by_class[c.0 as usize];
        item_lines(
            self.slabs.class_count(),
            |c| self.slabs.class_stats(c),
            evicted,
        )
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
                if u64_at(self.slabs.header(id), CAS) != expected {
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
        let Some(id) = self.alloc_with_eviction(class, now) else {
            return SetOutcome::OutOfMemory;
        };
        self.cas_counter += 1;
        self.slabs.write(id, 0, key);
        self.slabs.write(id, key.len(), value);
        let hash = hash_key(key);
        let h = self.slabs.header_mut(id);
        put64(h, HASH, hash);
        put64(h, CAS, self.cas_counter);
        put32(h, FLAGS, flags);
        put32(h, EXP, exp_abs);
        put32(h, STORED_AT, now);
        put32(h, VLEN, value.len() as u32);
        h[KLEN..KLEN + 2].copy_from_slice(&(key.len() as u16).to_le_bytes());
        h[LIVE] = 1;
        self.hash_insert(id, hash);
        self.lru_push_front(id);
        self.item_count += 1;
        self.bytes_stored += (key.len() + value.len()) as u64;
        self.stats.sets += 1;
        self.stats.total_items += 1;
        self.changed(id, true);
        SetOutcome::Stored
    }

    fn concat(&mut self, key: &[u8], data: &[u8], now: u32, append: bool) -> SetOutcome {
        self.maintain();
        let Some(id) = self.lookup_live(key, now) else {
            return SetOutcome::NotStored;
        };
        let old = self.value(id);
        let newval = match append {
            true => [old, data].concat(),
            false => [data, old].concat(),
        };
        let (flags, exp) = (
            u32_at(self.slabs.header(id), FLAGS),
            u32_at(self.slabs.header(id), EXP),
        );
        // Re-store with the item's absolute expiry preserved.
        self.store_item(key, &newval, flags, exp, now, StorePolicy::Set)
    }

    fn arith(&mut self, key: &[u8], delta: u64, now: u32, up: bool) -> Result<u64, NumericError> {
        self.maintain();
        let Some(id) = self.lookup_live(key, now) else {
            return Err(NumericError::NotFound);
        };
        let raw = self.value(id);
        let text = std::str::from_utf8(raw).map_err(|_| NumericError::NotNumeric)?;
        let cur: u64 = text.trim().parse().map_err(|_| NumericError::NotNumeric)?;
        let newv = if up {
            cur.wrapping_add(delta)
        } else {
            cur.saturating_sub(delta)
        };
        let text = newv.to_string();
        self.stats.incr_hits += 1;
        let vlen = u32_at(self.slabs.header(id), VLEN);
        if text.len() <= vlen as usize {
            // Fits in place (memcached pads shorter numbers by rewriting
            // the length).
            self.slabs.write(id, self.key(id).len(), text.as_bytes());
            self.cas_counter += 1;
            self.bytes_stored -= u64::from(vlen) - text.len() as u64;
            let h = self.slabs.header_mut(id);
            put32(h, VLEN, text.len() as u32);
            put64(h, CAS, self.cas_counter);
            self.changed(id, true);
            Ok(newv)
        } else {
            let (flags, exp) = (
                u32_at(self.slabs.header(id), FLAGS),
                u32_at(self.slabs.header(id), EXP),
            );
            match self.store_item(key, text.as_bytes(), flags, exp, now, StorePolicy::Set) {
                SetOutcome::Stored => Ok(newv),
                _ => Err(NumericError::NotFound),
            }
        }
    }

    // ------------------------------------------------------------------
    // Allocation / eviction
    // ------------------------------------------------------------------

    fn alloc_with_eviction(&mut self, class: ClassId, now: u32) -> Option<u32> {
        if let Some(id) = self.slabs.alloc(class) {
            return Some(id);
        }
        if !self.config.evict_on_full {
            return None;
        }
        let tail = self.lru_tail[class.0 as usize];
        if tail == NIL {
            return None;
        }
        // The first dead item up from the tail is reclaimed; with none in
        // reach, the tail is evicted. Either frees a chunk of the class.
        let up = |&id: &u32| Some(u32_at(self.slabs.header(id), LRU_PREV)).filter(|&p| p != NIL);
        let dead = std::iter::successors(Some(tail), up)
            .take(TAIL_SEARCH_DEPTH)
            .find(|&id| self.is_dead(id, now));
        match dead {
            Some(id) => {
                self.stats.reclaimed += 1;
                self.remove_item(id);
            }
            None => {
                self.stats.evictions += 1;
                self.evictions_by_class[class.0 as usize] += 1;
                self.remove_item(tail);
            }
        }
        self.slabs.alloc(class)
    }

    fn remove_item(&mut self, id: u32) {
        let (payload, h) = self.slabs.item(id);
        let (key, value) = key_value(payload, h);
        let (hash, bytes) = (u64_at(h, HASH), key.len() + value.len());
        self.hash_unlink(id, hash);
        self.lru_unlink(id);
        let live = &mut self.slabs.header_mut(id)[LIVE];
        debug_assert_eq!(*live, 1);
        *live = 0;
        self.item_count -= 1;
        self.bytes_stored -= bytes as u64;
        self.changed(id, false);
        self.slabs.free(id);
    }

    /// Item `id`'s key, where it sits in its chunk.
    fn key(&self, id: u32) -> &[u8] {
        let (payload, h) = self.slabs.item(id);
        key_value(payload, h).0
    }

    /// Item `id`'s value, where it sits in its chunk.
    fn value(&self, id: u32) -> &[u8] {
        let (payload, h) = self.slabs.item(id);
        key_value(payload, h).1
    }

    // ------------------------------------------------------------------
    // Hash table with incremental expansion
    // ------------------------------------------------------------------

    /// Where `hash`'s bucket is: in the old table (`true`) while an
    /// expansion has not migrated it yet, else in the new one.
    fn bucket_index(&self, hash: u64) -> (bool, usize) {
        if self.expanding {
            let old_idx = (hash as usize) & (self.old_buckets.len() - 1);
            if old_idx >= self.expand_pos {
                return (true, old_idx);
            }
        }
        (false, (hash as usize) & (self.buckets.len() - 1))
    }

    /// The head of `hash`'s chain.
    fn bucket(&mut self, hash: u64) -> &mut u32 {
        match self.bucket_index(hash) {
            (true, idx) => &mut self.old_buckets[idx],
            (false, idx) => &mut self.buckets[idx],
        }
    }

    fn hash_insert(&mut self, id: u32, hash: u64) {
        let next = std::mem::replace(self.bucket(hash), id);
        put32(self.slabs.header_mut(id), H_NEXT, next);
        self.maybe_start_expansion();
    }

    fn hash_unlink(&mut self, id: u32, hash: u64) {
        let next = u32_at(self.slabs.header(id), H_NEXT);
        let mut cur = *self.bucket(hash);
        if cur == id {
            *self.bucket(hash) = next;
            return;
        }
        while cur != NIL {
            let after = u32_at(self.slabs.header(cur), H_NEXT);
            if after == id {
                put32(self.slabs.header_mut(cur), H_NEXT, next);
                return;
            }
            cur = after;
        }
        debug_assert!(false, "unlinking an item that is not in its bucket");
    }

    fn lookup(&self, key: &[u8]) -> Option<u32> {
        let hash = hash_key(key);
        let mut cur = match self.bucket_index(hash) {
            (true, idx) => self.old_buckets[idx],
            (false, idx) => self.buckets[idx],
        };
        while cur != NIL {
            let (payload, h) = self.slabs.item(cur);
            if u64_at(h, HASH) == hash && key_value(payload, h).0 == key {
                return Some(cur);
            }
            cur = u32_at(h, H_NEXT);
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
        let h = self.slabs.header(id);
        let (exp, stored_at) = (u32_at(h, EXP), u32_at(h, STORED_AT));
        // A flush barrier set in the future (`flush_all <delay>`) kills
        // nothing until the clock reaches it.
        let flushed =
            self.oldest_live != 0 && self.oldest_live <= now && stored_at < self.oldest_live;
        (exp != 0 && exp <= now) || flushed
    }

    fn maybe_start_expansion(&mut self) {
        if self.expanding || self.item_count <= (self.buckets.len() as u64 * 3) / 2 {
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
                let next = u32_at(self.slabs.header(cur), H_NEXT);
                let idx =
                    (u64_at(self.slabs.header(cur), HASH) as usize) & (self.buckets.len() - 1);
                put32(self.slabs.header_mut(cur), H_NEXT, self.buckets[idx]);
                self.buckets[idx] = cur;
                cur = next;
            }
        }
    }

    // ------------------------------------------------------------------
    // LRU
    // ------------------------------------------------------------------

    fn lru_push_front(&mut self, id: u32) {
        let class = self.slabs.class_of(id).0 as usize;
        let head = self.lru_head[class];
        let h = self.slabs.header_mut(id);
        put32(h, LRU_PREV, NIL);
        put32(h, LRU_NEXT, head);
        if head != NIL {
            put32(self.slabs.header_mut(head), LRU_PREV, id);
        }
        self.lru_head[class] = id;
        if self.lru_tail[class] == NIL {
            self.lru_tail[class] = id;
        }
    }

    fn lru_unlink(&mut self, id: u32) {
        let class = self.slabs.class_of(id).0 as usize;
        let h = self.slabs.header(id);
        let (prev, next) = (u32_at(h, LRU_PREV), u32_at(h, LRU_NEXT));
        if prev != NIL {
            put32(self.slabs.header_mut(prev), LRU_NEXT, next);
        } else {
            self.lru_head[class] = next;
        }
        if next != NIL {
            put32(self.slabs.header_mut(next), LRU_PREV, prev);
        } else {
            self.lru_tail[class] = prev;
        }
    }

    fn lru_bump(&mut self, id: u32) {
        // Moving the head to the front leaves the list as it is.
        if self.lru_head[self.slabs.class_of(id).0 as usize] != id {
            self.lru_unlink(id);
            self.lru_push_front(id);
        }
    }

    /// The key at the LRU tail of `class` (tests/diagnostics).
    pub fn lru_tail_key(&self, class: ClassId) -> Option<Vec<u8>> {
        let tail = self.lru_tail[class.0 as usize];
        if tail == NIL {
            return None;
        }
        Some(self.key(tail).to_vec())
    }
}

#[derive(Clone, Copy)]
enum StorePolicy {
    Set,
    Add,
    Replace,
    Cas(u64),
}

/// `stats slabs` lines from the figures of `classes` classes: four per
/// class holding a page, then `active_slabs`.
pub(crate) fn slab_lines(
    classes: usize,
    stats: impl Fn(ClassId) -> ClassStats,
) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for c in 0..classes {
        let st = stats(ClassId(c as u8));
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

/// `stats items` lines from the figures of `classes` classes: live items
/// and evictions of each class holding an item.
pub(crate) fn item_lines(
    classes: usize,
    stats: impl Fn(ClassId) -> ClassStats,
    evicted: impl Fn(ClassId) -> u64,
) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for class in (0..classes).map(|c| ClassId(c as u8)) {
        let used = stats(class).used;
        if used > 0 {
            let c = class.0;
            out.push((format!("items:{c}:number"), used.to_string()));
            out.push((format!("items:{c}:evicted"), evicted(class).to_string()));
        }
    }
    out
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
