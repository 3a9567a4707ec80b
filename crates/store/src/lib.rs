//! # mcstore — the memcached storage engine
//!
//! The in-memory cache the paper's system serves: slab allocation
//! (`slabs.c`), a chained hash table with incremental expansion
//! (`assoc.c`), per-class LRU with expired-tail reclaim, lazy expiration,
//! `flush_all` barriers, CAS, and the full storage/arithmetic command set
//! (`items.c`/`memcached.c` semantics). [`Store`] is the pure, clock-free
//! engine; [`SegmentedStore`] splits it into hash-routed segments for the
//! simulated server (one segment = the classic unsharded layout), routed by
//! the one [`ShardRouter`] policy. Serialization is the caller's model
//! (`simnet::vlock` in virtual time): nothing here is shared between threads.
//!
//! ```
//! use mcstore::{SetOutcome, Store};
//!
//! let mut store = Store::with_defaults();
//! assert_eq!(store.set(b"k", b"v1", 0, 0, 100), SetOutcome::Stored);
//! let v = store.get(b"k", 100).unwrap();
//! assert_eq!(v.data, b"v1");
//! // CAS: a concurrent change invalidates the token.
//! store.set(b"k", b"v2", 0, 0, 101);
//! assert_eq!(store.cas(b"k", b"v3", 0, 0, v.cas, 101), SetOutcome::Exists);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type))]

mod shard;
mod slab;
mod store;

pub use shard::{SegmentedStore, ShardRouter};
pub use slab::{ClassId, ClassStats, SlabAllocator, SlabConfig, SlabLoc, ITEM_HEADER_SIZE};
pub use store::{
    hash_key, normalize_exptime, ItemLocation, NumericError, SetOutcome, SlabEvent, Store,
    StoreConfig, StoreStats, Value, MAX_KEY_LEN, REALTIME_MAXDELTA,
};
