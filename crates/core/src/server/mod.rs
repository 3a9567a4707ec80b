//! The Memcached server (paper §V).
//!
//! One server process per node, preserving the upstream architecture the
//! paper extends: an event-driven dispatcher accepts connections and hands
//! each one to a **worker thread in round-robin order**; that worker then
//! serves every request of the connection. Both client families are served
//! concurrently by the same process:
//!
//! * **Sockets clients** speak the ASCII protocol over any of the
//!   byte-stream transports (the unmodified baseline);
//! * **UCR clients** speak typed active messages: the server's UCR
//!   runtime has one progress context — completion queue plus polling
//!   task — per four workers, a connection is bound to one of them when
//!   it is accepted, and the request's handlers run in that context's
//!   progress task and enqueue the work to the connection's worker; the
//!   worker executes against the store and responds with AM 2 targeting
//!   the counter named in AM 1 (§V-B, §V-C).
//!
//! Workers are simulated threads: each occupies itself for the service
//! time of a request, which is what caps server throughput in Figure 6.
//!
//! The transports are front-ends, not servers of their own (DESIGN.md §6):
//! `frontend` decodes each wire into one `Request` and encodes the
//! `Reply`; `executor` owns the store and is the only code
//! that charges, locks and runs a request; `bypass` is the one-sided GET
//! directory; `stats` is the `stats` surface. This module is the process
//! around them: configuration, listeners, the worker pool.

use std::cell::{Cell, RefCell};
use std::rc::{Rc, Weak};

use mcproto::Response;
use mcstore::StoreConfig;
use simnet::metrics::{Counter, Gauge, Metrics};
use simnet::sync::{self, Receiver, Sender};
use simnet::{FreeList, NodeId, Sim, Stack};
use socksim::{DgramSocket, Listener, Socket, STREAM_BUF_KEEP};
use ucr::{Endpoint, UcrRuntime};

use crate::am_wire::{MSG_MC_DIR_REQ, MSG_MC_REQ, ONE_KEY_LIST};
use crate::world::World;

mod bypass;
mod executor;
mod frontend;
mod stats;
#[cfg(test)]
mod tests;

use bypass::{DirDispatch, FabricSide};
use executor::Executor;
use frontend::{MgetMerge, ReqDispatch};

/// Simulated epoch: the store's unix clock starts here (spring 2011).
pub const BASE_UNIX_TIME: u32 = 1_300_000_000;

/// The store's unix clock: whole seconds of virtual time past the epoch.
pub(crate) fn unix_now(sim: &Sim) -> u32 {
    BASE_UNIX_TIME + sim.now().as_secs_f64() as u32
}

/// Version string the server reports.
pub const SERVER_VERSION: &str = "1.4.5-rmc";

/// How store access is serialized across workers (paper §V-A).
///
/// Upstream memcached wraps the whole cache — hash table, LRU, slab
/// allocator — in one global `cache_lock`; adding worker threads past the
/// point where that lock saturates buys nothing (the flat curves of
/// Figure 6's multi-worker runs). The simulation can model that lock, or
/// idealize it away, or replace it with hash-routed segments the way
/// later memcached/scaling work does.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum StoreModel {
    /// Store access costs CPU time but never contends: the historical
    /// model every existing experiment was run under. The default —
    /// schedules are bit-identical to pre-`StoreModel` builds.
    #[default]
    Idealized,
    /// One virtual-time lock serializes the hash/item portion of every
    /// request's service time across all workers, reproducing upstream
    /// memcached's flat worker-scaling curve.
    GlobalLock,
    /// The store is split into this many hash-routed segments (rounded up
    /// to a power of two), each with its own lock, slab arena, and stat
    /// counters. UCR dispatch routes requests to workers by key-hash
    /// shard affinity so a shard's lock is only ever contended when
    /// shards outnumber workers.
    Sharded(usize),
}

/// Server configuration.
#[derive(Clone)]
pub struct McServerConfig {
    /// Service port for all transports (memcached's 11211).
    pub port: u16,
    /// Worker threads (memcached `-t`, paper uses a runtime parameter).
    pub workers: usize,
    /// Storage engine settings.
    pub store: StoreConfig,
    /// Lock-contention model for store access. [`StoreModel::Idealized`]
    /// (the default) registers no locks and no shard metrics, keeping
    /// every schedule and stats surface byte-identical to earlier builds.
    pub store_model: StoreModel,
}

impl Default for McServerConfig {
    fn default() -> Self {
        McServerConfig {
            port: 11211,
            workers: 4,
            store: StoreConfig::default(),
            store_model: StoreModel::default(),
        }
    }
}

/// Server-level counts: instruments of the cluster registry
/// (`mc.nodeN.<field>`), taken when the server starts.
pub struct SrvStats {
    /// Connections accepted (all transports), reported as
    /// `curr_connections`. Nothing decrements it yet, so it counts every
    /// connection accepted, closed ones too; it is a gauge so that it
    /// outlives a `stats reset`, as the level it is meant to become.
    pub curr_connections: Rc<Gauge>,
    /// Requests served over UCR.
    pub ucr_requests: Rc<Counter>,
    /// Requests served over sockets.
    pub sock_requests: Rc<Counter>,
}

impl SrvStats {
    fn new(metrics: &Metrics, node: NodeId) -> SrvStats {
        let n = node.0;
        SrvStats {
            curr_connections: metrics.gauge(&format!("mc.node{n}.curr_connections")),
            ucr_requests: metrics.counter(&format!("mc.node{n}.ucr_requests")),
            sock_requests: metrics.counter(&format!("mc.node{n}.sock_requests")),
        }
    }

    fn connection_accepted(&self) {
        self.curr_connections.set(self.curr_connections.get() + 1.0);
    }
}

enum WorkItem {
    Ucr {
        ep: Endpoint,
        /// The request's header, its key list in a buffer lent by
        /// [`SrvInner::key_list`].
        req: crate::am_wire::HeldReq,
        /// The request's data where UCR landed it, until the service has
        /// copied it into the store.
        data: ucr::AmBytes,
    },
    /// One shard's slice of a multi-shard `Mget`, routed to that shard's
    /// affine worker. Parts share a [`MgetMerge`]; the last part to finish
    /// encodes the combined response.
    UcrMgetPart {
        ep: Endpoint,
        merge: Rc<MgetMerge>,
        shard: usize,
        /// Indices into the request's keys owned by `shard`.
        idxs: Vec<usize>,
    },
    /// An ASCII or binary TCP request, read in place by its worker from
    /// the frame it arrived in: a buffer lent by [`SrvInner::frames`].
    Sock {
        sock: Rc<Socket>,
        binary: bool,
        frame: Vec<u8>,
    },
    /// An ASCII/TCP line answered without service (`ERROR`,
    /// `CLIENT_ERROR`): it queues on the connection's worker so that its
    /// answer keeps its place among the replies.
    SockRefused { sock: Rc<Socket>, reply: Response },
    /// An ASCII/UDP command, read in place by its worker from the
    /// datagram it arrived in, a buffer from the socket fabric's pool; the
    /// reply's datagrams are written over it.
    SockUdp {
        sock: Rc<DgramSocket>,
        src: socksim::SocketAddr,
        request_id: u16,
        datagram: Vec<u8>,
    },
}

/// Most idle key-list buffers a server keeps: one per UCR request queued
/// or in service, up to the 128 that 16 clients eight deep keep in flight.
/// Each holds at most `ONE_KEY_LIST` bytes, so the idle ones hold at most
/// 32 KiB.
const KEY_LIST_POOL_CAP: usize = 128;

/// Most idle frame buffers a server keeps: one per ASCII/TCP command
/// queued or in service, up to the 128 that 16 clients eight deep keep in
/// flight. Each holds at most `STREAM_BUF_KEEP` bytes, so the idle ones
/// hold at most 1 MiB.
const FRAME_POOL_CAP: usize = 128;

/// The server process: the executor plus the dispatch state around it.
struct SrvInner {
    exec: Executor,
    /// Span keys for socket-path service and lock spans (sockets carry no
    /// `req_id`); starts at 1 so no span is keyed by a literal zero.
    sock_op: Cell<u64>,
    workers: Vec<Sender<WorkItem>>,
    /// Round-robin cursor binding socket connections (and UDP requests)
    /// to workers; a UCR connection's worker follows from its endpoint id
    /// ([`SrvInner::worker_for_ep`]).
    next_worker: Cell<usize>,
    running: Cell<bool>,
    /// Idle buffers for the key lists of UCR requests, at most
    /// [`KEY_LIST_POOL_CAP`], each with room for any single key.
    key_lists: FreeList<Vec<u8>>,
    /// Idle buffers for ASCII/TCP connections' bytes: a connection reader
    /// reads into one and hands each command to its worker in it. At most
    /// [`FRAME_POOL_CAP`], each at most [`STREAM_BUF_KEEP`] bytes.
    frames: FreeList<Vec<u8>>,
    /// The sockets ports this server bound. `shutdown` closes them, so a
    /// server started on the node again can bind them.
    listeners: RefCell<Vec<Rc<Listener>>>,
    dgram_socks: RefCell<Vec<Rc<DgramSocket>>>,
}

/// A running Memcached server.
#[derive(Clone)]
pub struct McServer {
    inner: Rc<SrvInner>,
}

impl McServer {
    /// Starts a server on `node` of `world`.
    pub fn start(world: &World, node: NodeId, config: McServerConfig) -> McServer {
        let sim = world.sim().clone();
        let mut worker_txs = Vec::new();
        let mut worker_rxs = Vec::new();
        for _ in 0..config.workers.max(1) {
            let (tx, rx) = sync::channel();
            worker_txs.push(tx);
            worker_rxs.push(rx);
        }
        let inner = Rc::new(SrvInner {
            exec: Executor::new(world, node, &config),
            sock_op: Cell::new(1),
            workers: worker_txs,
            next_worker: Cell::new(0),
            running: Cell::new(true),
            key_lists: FreeList::of_bytes(KEY_LIST_POOL_CAP, ONE_KEY_LIST),
            frames: FreeList::of_bytes(FRAME_POOL_CAP, STREAM_BUF_KEEP),
            listeners: RefCell::new(Vec::new()),
            dgram_socks: RefCell::new(Vec::new()),
        });

        for (widx, rx) in worker_rxs.into_iter().enumerate() {
            let weak = Rc::downgrade(&inner);
            sim.spawn(worker_loop(weak, rx, widx as u32));
        }

        // UCR over native InfiniBand, and over RoCE when the cluster's
        // Ethernet adapters support it (paper SVII future work).
        start_ucr_listener(&sim, &inner, &world.ib, config.port, FabricSide::Ib);
        if let Some(roce) = &world.roce {
            start_ucr_listener(&sim, &inner, roce, config.port, FabricSide::Roce);
        }

        // Every sockets stack the profile supports serves the memcached UDP
        // protocol (the SIII Facebook baseline: connection-less gets) and
        // the TCP byte stream.
        let stacks = Stack::ALL
            .iter()
            .filter(|s| s.is_sockets() && world.profile().supports(**s));
        for stack in stacks.clone() {
            let Ok(udp) = world.socks.udp_bind(*stack, node, config.port) else {
                continue;
            };
            let udp = Rc::new(udp);
            inner.dgram_socks.borrow_mut().push(udp.clone());
            let weak = Rc::downgrade(&inner);
            sim.spawn(frontend::udp_receiver(weak, udp));
        }

        for stack in stacks {
            let Ok(listener) = world.socks.listen(*stack, node, config.port) else {
                continue;
            };
            let listener = Rc::new(listener);
            inner.listeners.borrow_mut().push(listener.clone());
            let weak = Rc::downgrade(&inner);
            let sim2 = sim.clone();
            sim.spawn(async move {
                while let Ok(sock) = listener.accept().await {
                    let Some(srv) = weak.upgrade() else { break };
                    if !srv.running.get() {
                        break;
                    }
                    sock.set_nodelay(true);
                    srv.exec.counters.connection_accepted();
                    let widx = srv.next_worker();
                    let weak2 = Rc::downgrade(&srv);
                    drop(srv);
                    sim2.spawn(frontend::conn_reader(weak2, Rc::new(sock), widx));
                }
            });
        }

        McServer { inner }
    }

    /// The node this server runs on.
    pub fn node(&self) -> NodeId {
        self.inner.exec.node
    }

    /// Server counters.
    pub fn stats(&self) -> &SrvStats {
        &self.inner.exec.counters
    }

    /// Storage-engine statistics.
    pub fn store_stats(&self) -> mcstore::StoreStats {
        self.inner.exec.store().stats()
    }

    /// Live item count.
    pub fn curr_items(&self) -> u64 {
        self.inner.exec.store().curr_items()
    }

    /// Number of store segments (1 unless [`StoreModel::Sharded`]).
    pub fn shard_count(&self) -> usize {
        self.inner.exec.store().shard_count()
    }

    /// Per-lock contention statistics, one entry per serialization
    /// domain: one for [`StoreModel::GlobalLock`], one per segment for
    /// [`StoreModel::Sharded`], empty under [`StoreModel::Idealized`]
    /// (which has no locks).
    pub fn lock_stats(&self) -> Vec<simnet::vlock::VLockStats> {
        self.inner.exec.lock_stats()
    }

    /// The server's UCR runtime, when UCR is enabled (ablation hooks:
    /// eager-threshold sweeps, runtime statistics).
    pub fn ucr_runtime(&self) -> Option<UcrRuntime> {
        self.inner.exec.fabrics[FabricSide::Ib as usize]
            .borrow()
            .clone()
    }

    /// The server's RoCE-side UCR runtime, when running.
    pub fn roce_runtime(&self) -> Option<UcrRuntime> {
        self.inner.exec.fabrics[FabricSide::Roce as usize]
            .borrow()
            .clone()
    }

    /// Stops accepting and serving, and frees every port it bound. UCR
    /// endpoints fail over to their error path; socket clients see EOF on
    /// their next read.
    pub fn shutdown(&self) {
        self.inner.running.set(false);
        for rt in &self.inner.exec.fabrics {
            if let Some(rt) = rt.borrow_mut().take() {
                rt.shutdown();
            }
        }
        for listener in self.inner.listeners.take() {
            listener.close();
        }
        for udp in self.inner.dgram_socks.take() {
            udp.close();
        }
    }
}

/// Workers per UCR progress context. Every committed figure was measured
/// on memcached's default four workers behind one progress task; a server
/// configured with more workers gets pollers in the same proportion
/// (DESIGN.md §4.2; EXPERIMENTS.md has the sweep: more pollers than that
/// buy no throughput and make the hand-off to the workers burstier).
const WORKERS_PER_CONTEXT: usize = 4;

/// Brings up one UCR runtime on `fabric`, with its share of progress
/// contexts, registers the request and directory handlers, and runs the
/// accept loop.
fn start_ucr_listener(
    sim: &Sim,
    inner: &Rc<SrvInner>,
    fabric: &verbs::IbFabric,
    port: u16,
    side: FabricSide,
) {
    let contexts = inner.workers.len().div_ceil(WORKERS_PER_CONTEXT);
    let rt = UcrRuntime::with_contexts(fabric, inner.exec.node, contexts);
    rt.register_handler(
        MSG_MC_REQ,
        ReqDispatch {
            srv: Rc::downgrade(inner),
        },
    );
    rt.register_handler(
        MSG_MC_DIR_REQ,
        DirDispatch {
            srv: Rc::downgrade(inner),
            side,
        },
    );
    *inner.exec.fabrics[side as usize].borrow_mut() = Some(rt.clone());
    // A taken port means another runtime already owns this fabric's
    // service port (a misconfigured double-start). Degrade gracefully:
    // the runtime stays up for outbound use but accepts nothing, and
    // clients of this fabric fail over to their error paths.
    let Ok(listener) = rt.listen(port) else {
        return;
    };
    let weak = Rc::downgrade(inner);
    sim.spawn(async move {
        while listener.accept().await.is_ok() {
            let Some(srv) = weak.upgrade() else { break };
            if !srv.running.get() {
                break;
            }
            srv.exec.counters.connection_accepted();
        }
    });
}

impl SrvInner {
    fn next_worker(&self) -> usize {
        let w = self.next_worker.get();
        self.next_worker.set((w + 1) % self.workers.len());
        w
    }

    /// A UCR connection's worker (§V-A: connections go to workers in
    /// round-robin order, and that worker serves every request of the
    /// connection). A runtime numbers its endpoints from 1 in the order
    /// they are established — unreliable ones by their first datagram —
    /// so the id is the round-robin position and nothing is kept per
    /// connection.
    fn worker_for_ep(&self, ep: &Endpoint) -> usize {
        (ep.id() - 1) as usize % self.workers.len()
    }

    /// Shard-affine worker binding: a shard's requests always land on the
    /// same worker, so its lock only sees cross-worker contention when
    /// shards outnumber workers (or sockets race the UCR path).
    fn worker_for_shard(&self, shard: usize) -> usize {
        shard % self.workers.len()
    }

    /// Fresh span key for one socket-path request (sockets have no
    /// `req_id`); never zero.
    fn next_sock_op(&self) -> u64 {
        let op = self.sock_op.get();
        self.sock_op.set(op + 1);
        op
    }
}

async fn worker_loop(srv: Weak<SrvInner>, rx: Receiver<WorkItem>, widx: u32) {
    // Per-worker queue instruments: the gauge holds the number of ready
    // requests each wake found (the batch it drained); the counters give
    // mean batch size over the run. Metrics writes cost no virtual time.
    let (depth_gauge, wakes, batched) = match srv.upgrade() {
        Some(inner) => {
            let metrics = &inner.exec.metrics;
            let prefix = format!("mc.node{}.worker{}", inner.exec.node.0, widx);
            (
                metrics.gauge(&format!("{prefix}.queue_depth")),
                metrics.counter(&format!("{prefix}.wakes")),
                metrics.counter(&format!("{prefix}.batch_items")),
            )
        }
        None => return,
    };
    let mut batch = Vec::new();
    // The wire bytes of the socket reply in hand: kept from one request to
    // the next, freed if a large reply grew it past `STREAM_BUF_KEEP`.
    let mut reply = Vec::new();
    loop {
        let Ok(first) = rx.recv().await else { break };
        // Drain everything already queued so one wake services all ready
        // requests. `try_recv` pops without suspending and `recv` on a
        // non-empty queue completes on its first poll, so the service
        // order and virtual-time schedule are identical to the classic
        // item-at-a-time loop — the batch is pure accounting.
        batch.push(first);
        while let Some(item) = rx.try_recv() {
            batch.push(item);
        }
        depth_gauge.set(batch.len() as f64);
        wakes.inc();
        batched.add(batch.len() as u64);
        for item in batch.drain(..) {
            let Some(inner) = srv.upgrade() else { return };
            if !inner.running.get() {
                return;
            }
            frontend::serve(&inner, item, widx, &mut reply).await;
            if reply.capacity() > STREAM_BUF_KEEP {
                reply = Vec::new();
            }
        }
        // Batch drained: refresh the storage-occupancy gauges so a
        // registry read between requests sees live slab state.
        if let Some(inner) = srv.upgrade() {
            inner.exec.publish_gauges();
        }
    }
}
