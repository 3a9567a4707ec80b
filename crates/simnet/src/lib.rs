//! # simnet — deterministic network/host simulation substrate
//!
//! This crate replaces the hardware testbeds of Jose et al., *"Memcached
//! Design on High Performance RDMA Capable Interconnects"* (ICPP 2011):
//! two InfiniBand clusters (ConnectX DDR and QDR), 10GigE TCP-offload NICs,
//! and 1GigE. It provides:
//!
//! * a **discrete-event engine** with a virtual nanosecond clock and a
//!   single-threaded async executor ([`Sim`]) — tasks are futures that
//!   suspend on simulated time, so protocol code reads like ordinary
//!   blocking code while runs stay perfectly deterministic;
//! * **FIFO occupancy resources** ([`FifoResource`]) modeling links, HCA
//!   pipelines, and kernel protocol processing — the contention sources
//!   behind the paper's multi-client throughput results;
//! * a **fabric** ([`Cluster`], [`Network`]) wiring nodes together over up
//!   to three physical networks;
//! * **calibrated cost profiles** ([`profiles`]) for both clusters and all
//!   five transports of the paper's evaluation.
//!
//! Higher layers (`verbs`, `socksim`, `ucr`, `rmc`) implement real protocol
//! logic — real bytes move end to end — on top of [`Network::carry`],
//! the single primitive through which all inter-node traffic flows.
//!
//! ```
//! use simnet::{Sim, SimDuration};
//!
//! let sim = Sim::new(42);
//! let s = sim.clone();
//! let elapsed = sim.block_on(async move {
//!     let t0 = s.now();
//!     s.sleep(SimDuration::from_micros(12)).await;
//!     s.now() - t0
//! });
//! assert_eq!(elapsed, SimDuration::from_micros(12));
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type))]

mod engine;
mod fabric;
pub mod metrics;
pub mod profiler;
pub mod profiles;
mod resource;
mod rng;
mod slab;
pub mod sync;
mod time;
pub mod trace;
pub mod trace_export;
pub mod vlock;

pub use engine::{EventTarget, JoinHandle, Sim, TaskId};
pub use fabric::{Cluster, Network, Node, NodeId};
pub use metrics::Metrics;
pub use profiler::{
    AuditReport, CriticalPath, PathStage, Profiler, ProfilerConfig, PATH_STAGE_COUNT,
};
pub use profiles::{ClusterProfile, NetKind, Stack};
pub use resource::FifoResource;
pub use rng::SimRng;
pub use slab::{Slab, SlabKey};
pub use time::{SimDuration, SimTime};
pub use trace::{Event, EventRecorder, EventSink, Layer, Phase, Tracer, Track};
pub use vlock::{VLockMeters, VLockStats, VLockTable};
