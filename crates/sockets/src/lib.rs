//! # socksim — byte-stream transports over the simulated fabric
//!
//! The baseline side of the paper's comparison: BSD-socket semantics over
//! four stacks — plain kernel TCP on **1GigE**, hardware-offloaded TCP on
//! **10GigE-TOE**, kernel TCP over **IPoIB** (connected mode), and **SDP**
//! (buffered-copy mode) — each with a calibrated cost model from
//! [`simnet::profiles`]. Unmodified Memcached runs on this API exactly as
//! the real one runs on sockets; the RDMA design (`ucr` crate) never
//! touches it.
//!
//! ```
//! use std::rc::Rc;
//! use simnet::{Cluster, NodeId, Stack};
//! use socksim::{SockFabric, SocketAddr, DEFAULT_CONNECT_TIMEOUT};
//!
//! let cluster = Rc::new(Cluster::cluster_a(3, 2));
//! let sim = cluster.sim().clone();
//! let fabric = SockFabric::new(cluster);
//!
//! let listener = fabric.listen(Stack::TenGigEToe, NodeId(1), 11211).unwrap();
//! let f2 = fabric.clone();
//! let server = sim.spawn(async move {
//!     let sock = listener.accept().await.unwrap();
//!     let req = sock.read_exact(4).await.unwrap();
//!     sock.write_all(&req).await.unwrap(); // echo
//! });
//! let echoed = sim.block_on(async move {
//!     let sock = f2
//!         .connect(Stack::TenGigEToe, NodeId(0), SocketAddr { node: NodeId(1), port: 11211 },
//!                  DEFAULT_CONNECT_TIMEOUT)
//!         .await
//!         .unwrap();
//!     sock.set_nodelay(true);
//!     sock.write_all(b"ping").await.unwrap();
//!     let out = sock.read_exact(4).await.unwrap();
//!     server.await;
//!     out
//! });
//! assert_eq!(echoed, b"ping");
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

mod dgram;
mod fabric;
mod stream;

pub use dgram::{DgramSocket, DGRAM_RCVBUF_DATAGRAMS, MAX_DGRAM_BYTES};
pub use fabric::{
    Listener, SockFabric, DEFAULT_CONNECT_TIMEOUT, SEGMENT_POOL_CAP, STREAM_BUF_KEEP,
};
pub use stream::{SockError, Socket, SocketAddr};
