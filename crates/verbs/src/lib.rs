//! # verbs — an InfiniBand-verbs-like API over the simulated fabric
//!
//! The lowest access layer of the paper's stack (§II-A1): queue pairs,
//! completion queues, registered memory with lkeys/rkeys, two-sided
//! SEND/RECV, one-sided RDMA READ/WRITE, shared receive queues, and a
//! connection manager. The UCR runtime (`ucr` crate) is written against
//! this API exactly as it would be against OpenFabrics libibverbs; the
//! byte-stream transports (`socksim`) deliberately do *not* use it, so the
//! OS-bypass advantage appears only where the paper says it should.
//!
//! ```
//! use std::rc::Rc;
//! use simnet::{Cluster, NodeId};
//! use verbs::{Access, IbFabric, QpType, SendOp, SendWr};
//!
//! let cluster = Rc::new(Cluster::cluster_a(7, 2));
//! let sim = cluster.sim().clone();
//! let fabric = IbFabric::new(cluster);
//! let (a, b) = (fabric.open(NodeId(0)), fabric.open(NodeId(1)));
//!
//! // Wire two RC QPs together directly (tests); real users go through
//! // `listen`/`connect`.
//! let (pda, pdb) = (a.alloc_pd(), b.alloc_pd());
//! let (cqa, cqb) = (a.create_cq(), b.create_cq());
//! let qa = pda.create_qp(QpType::Rc, &cqa, &cqa, None);
//! let qb = pdb.create_qp(QpType::Rc, &cqb, &cqb, None);
//! qa.connect_to(b.node(), qb.qpn()).unwrap();
//! qb.connect_to(a.node(), qa.qpn()).unwrap();
//!
//! let mr = pdb.register(64, Access::LOCAL_WRITE);
//! qb.post_recv(1, mr.full());
//! qa.post_send(SendWr::new(2, SendOp::SendInline { data: b"ping".to_vec(), imm: None }))
//!     .unwrap();
//!
//! let wc = sim.block_on({ let cqb = cqb.clone(); async move { cqb.next().await } });
//! assert!(wc.status.is_ok());
//! assert_eq!(mr.read_at(0, 4), b"ping");
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

mod cm;
mod cq;
mod fabric;
mod mr;
mod qp;
mod types;

pub use cm::{connect, Listener, DEFAULT_CONNECT_TIMEOUT};
pub use cq::Cq;
pub use fabric::{Hca, IbFabric};
pub use mr::{Mr, MrSlice, Pd, IDLE_MR_RECORDS};
pub use qp::{QpType, QueuePair, SendOp, SendWr, Srq, RETRY_EXCEEDED_DELAY};
pub use types::{
    Access, RemoteMemory, VerbsError, Wc, WcOpcode, WcStatus, UD_GRH_BYTES, WIRE_HEADER_BYTES,
};
