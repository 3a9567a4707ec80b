//! # rdma-memcached — facade crate
//!
//! Re-exports the whole workspace of the ICPP 2011 reproduction
//! (*"Memcached Design on High Performance RDMA Capable Interconnects"*,
//! Jose et al.) so examples and integration tests can reach every layer
//! through one dependency:
//!
//! * [`simnet`] — deterministic discrete-event cluster simulation,
//! * [`verbs`] — InfiniBand-verbs-like API (QPs, CQs, MRs, RDMA, CM),
//! * [`socksim`] — the byte-stream baseline transports + UDP datagrams,
//! * [`ucr`] — the paper's Unified Communication Runtime (§IV),
//! * [`mcstore`] — the memcached storage engine (slabs, LRU, CAS),
//! * [`mcproto`] — the ASCII, binary, and UDP wire protocols,
//! * [`rmc`] — the RDMA-capable Memcached server and client (§V).
//!
//! Start with [`rmc::World`], [`rmc::McServer`], and [`rmc::McClient`];
//! see `examples/quickstart.rs`.

#![cfg_attr(not(test), deny(clippy::iter_over_hash_type))]

pub use {mcproto, mcstore, rmc, simnet, socksim, ucr, verbs};
