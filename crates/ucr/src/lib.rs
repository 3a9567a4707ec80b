//! # ucr — the Unified Communication Runtime (paper §IV)
//!
//! The communication library this paper contributes: an active-message
//! runtime over InfiniBand verbs that unifies HPC-style communication
//! design (MVAPICH-derived buffer management, SRQ, eager/rendezvous
//! protocols) with data-center requirements:
//!
//! * **endpoint model** — client/server channels instead of MPI ranks;
//!   bi-directional; reliable (RC-backed);
//! * **fault isolation** — a failing endpoint errors out locally; the
//!   runtime and every other endpoint keep working;
//! * **active messages** — header handler picks the data destination,
//!   completion handler post-processes (Figure 2 of the paper);
//! * **counters** — monotonically increasing origin/target/completion
//!   counters with timeout-bounded waiting;
//! * **eager/rendezvous switch** — header+data in one 8 KB network buffer
//!   for small messages (memcpy at the target), RDMA-read rendezvous
//!   (zero-copy) beyond it, between buffers from a pool both ends reuse;
//! * **eager coalescing** — small messages queued behind a backed-up send
//!   queue share one network buffer, posted when the next send completes
//!   (the MVAPICH eager channel; DESIGN.md §15);
//! * **progress contexts** — one or more completion queues, each polled
//!   by its own task; an endpoint is bound to one, round-robin, and is
//!   never delayed by another context's handlers (DESIGN.md §16).
//!
//! Memcached (`rmc` crate) is built purely on this API: `set`/`get` are
//! two active messages and a counter wait (paper §V).

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

mod counter;
mod endpoint;
mod handler;
mod onesided;
mod runtime;
mod wire;

pub use counter::Counter;
pub use endpoint::{Endpoint, SendOptions};
pub use handler::{AmBytes, AmData, AmDest, AmHandler, FnHandler};
pub use onesided::{MemoryDescriptor, UcrMemory};
pub use runtime::{EpListener, RtStats, UcrRuntime, MAX_HEADER_BYTES, MAX_RNDV_BYTES};
pub use wire::{PacketHeader, PacketKind, PACKET_HEADER_BYTES};

/// Errors surfaced by UCR operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UcrError {
    /// A counter wait (or connect) exceeded its deadline.
    Timeout,
    /// The endpoint's peer is unreachable; the endpoint is dead, the
    /// runtime is fine.
    EndpointFailed,
    /// No listener answered at the target.
    ConnectionRefused,
    /// The service port is already bound.
    PortInUse,
    /// The runtime behind this handle has been dropped.
    RuntimeGone,
    /// Message exceeds what the endpoint's transport can carry: an
    /// application header longer than [`MAX_HEADER_BYTES`] or data longer
    /// than [`MAX_RNDV_BYTES`] on any endpoint, anything past one MTU on a
    /// UD endpoint (no RDMA rendezvous without a connection).
    MessageTooLarge,
}

impl std::fmt::Display for UcrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UcrError::Timeout => write!(f, "timed out"),
            UcrError::EndpointFailed => write!(f, "endpoint failed"),
            UcrError::ConnectionRefused => write!(f, "connection refused"),
            UcrError::PortInUse => write!(f, "port in use"),
            UcrError::RuntimeGone => write!(f, "runtime dropped"),
            UcrError::MessageTooLarge => write!(f, "message too large for transport"),
        }
    }
}

impl std::error::Error for UcrError {}
