//! # rmc — RDMA-capable Memcached (the paper's system, §V)
//!
//! The complete Memcached of Jose et al. (ICPP 2011): a server that keeps
//! the upstream libevent + worker-thread architecture while serving both
//! classic sockets clients (ASCII protocol over SDP / IPoIB / 10GigE-TOE /
//! 1GigE) and UCR clients (typed active messages over InfiniBand verbs),
//! plus a libmemcached-style client library that runs the same API over
//! either family. `set` and `get` follow the paper's flows exactly: the
//! client names a counter in AM 1, the server stores/fetches through the
//! slab engine and answers with AM 2 targeting that counter, using RDMA
//! read rendezvous for values past the 8 KB eager buffer.
//!
//! ```
//! use rmc::{McClient, McClientConfig, McServer, McServerConfig, Transport, World};
//! use simnet::NodeId;
//!
//! let world = World::cluster_b(42, 4);
//! let server = McServer::start(&world, NodeId(0), McServerConfig::default());
//! let client = McClient::new(
//!     &world,
//!     NodeId(1),
//!     McClientConfig::single(Transport::Ucr, NodeId(0)),
//! );
//! let hit = world.sim().block_on(async move {
//!     client.set(b"user:42", b"arthur", 0, 0).await.unwrap();
//!     client.get(b"user:42").await.unwrap()
//! });
//! assert_eq!(hit.unwrap().data, b"arthur");
//! assert_eq!(server.curr_items(), 1);
//! ```

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::iter_over_hash_type
    )
)]

mod am_wire;
mod client;
mod codec;
mod request;
mod server;
mod world;

pub use am_wire::{
    encode_mget_entry, DirReq, DirResp, Keys, McOp, ReqHeader, RespHeader, RespStatus, MSG_MC_REQ,
    MSG_MC_RESP, RESP_HEADER_BYTES,
};
pub use client::{
    crc32, fnv1a_32, one_at_a_time, Distribution, InFlight, InFlightGet, InFlightSet, KeyHash,
    McClient, McClientConfig, McError, Transport,
};
pub use server::{McServer, McServerConfig, SrvStats, StoreModel, BASE_UNIX_TIME, SERVER_VERSION};
pub use world::{Scenario, World};

/// A fetched value: its bytes are lent by the client's pools and go back
/// to them when the value is dropped (`data` reads as a `&[u8]`).
pub type Value = mcstore::Value<simnet::Lent>;
