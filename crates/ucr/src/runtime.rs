//! The UCR runtime: progress engine, buffer pools, endpoint establishment.
//!
//! One [`UcrRuntime`] exists per process (node). It owns a protection
//! domain, a shared receive queue of 8 KB network buffers — none at start,
//! one more registered each time a message finds it empty, up to
//! `RECV_POOL_DEPTH` (128) — a pool of registered send buffers of the same
//! size and a pool of idle rendezvous bytes (the MVAPICH-derived buffer
//! management the paper reuses, §I refs [10][11]), the handler and
//! counter registries, and one or more **progress
//! contexts**: a completion queue plus the task that reaps it and
//! dispatches active messages. Every endpoint is bound to one context when
//! its queue pair is created, round-robin, so the thread that owns a
//! connection is the thread that polls for it (paper §V-A); endpoints on
//! different contexts never wait for each other's handlers. Everything
//! else — buffer pool, tables, statistics — is the one runtime's
//! (DESIGN.md §4.2, §4.3).

use std::borrow::Cow;
use std::cell::{Cell, Ref, RefCell};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::future::{poll_fn, Future};
use std::pin::{pin, Pin};
use std::rc::{Rc, Weak};
use std::task::{Poll, Waker};

use simnet::profiles::{ClusterProfile, UCR_EAGER_THRESHOLD};
use simnet::sync::{oneshot, OneReceiver, OneSender};
use simnet::trace::{Layer, Track};
use simnet::{take_fitting, FreeList, Lender, NodeId, Sim, SimDuration, SimTime, Tracer};
use verbs::{
    Access, Cq, Hca, IbFabric, Mr, Pd, QpType, QueuePair, SendOp, SendWr, Srq, Wc, WcOpcode,
};

use crate::counter::{Counter, CtrInner};
use crate::endpoint::{Endpoint, EpInner, QueuedRndv};
use crate::handler::{AmBytes, AmData, AmDest, AmHandler};
use crate::wire::{packet_at, Located, PacketHeader, PacketKind, PACKET_HEADER_BYTES};
use crate::UcrError;

/// Most 8 KB network buffers the receive pool holds between post and reap.
/// The pool starts empty and grows on the SRQ's limit event, one buffer per
/// message that finds no receive posted, up to this depth; the reap of a
/// buffer re-posts one, so the depth reached is kept. At the depth — this
/// many landed and not yet reaped — a landing parks until the next reap.
/// The growth posts take receive ids 1 to this, in order.
const RECV_POOL_DEPTH: usize = 128;

/// Most idle send buffers the runtime keeps registered. The pool grows on
/// demand, one buffer per packet in flight; a buffer that comes back to a
/// full pool is deregistered.
pub const SEND_POOL_CAP: usize = 128;

/// Bytes of one network buffer, send or receive: a packet header and the
/// eager threshold's worth of payload (the paper's 8 KB, §IV-C).
const NET_BUF_BYTES: usize = PACKET_HEADER_BYTES + UCR_EAGER_THRESHOLD;

/// The largest application header a message can carry. Whatever its kind,
/// a message's packet header and application header travel in one network
/// buffer; a longer header is refused with [`UcrError::MessageTooLarge`].
pub const MAX_HEADER_BYTES: usize = NET_BUF_BYTES - PACKET_HEADER_BYTES;

/// The most data one message can carry: 64 MiB, far past memcached's 1 MB
/// item. A longer payload is refused at the send with
/// [`UcrError::MessageTooLarge`]; a `RndvReq` advertising more is a protocol
/// violation that ends its endpoint at the target, which allocates nothing
/// for it.
pub const MAX_RNDV_BYTES: usize = 64 << 20;

/// Most idle rendezvous header buffers the runtime keeps. A `RndvReq`'s
/// application header is copied off its receive buffer into one and held
/// until the read completes; a buffer that comes back to a full list is
/// freed. Each holds at most [`MAX_HEADER_BYTES`], so the idle ones hold at
/// most 512 KiB.
const RNDV_HDR_POOL_CAP: usize = 64;

/// Most idle eager payload buffers the runtime keeps. An eager message's
/// data is copied off its network buffer into one for a handler that asks
/// for a pool buffer, and comes back when the handler drops it; a buffer
/// that comes back to a full list is freed. Each holds at most
/// [`UCR_EAGER_THRESHOLD`], so the idle ones hold at most 1 MiB.
const EAGER_POOL_CAP: usize = 128;

/// Most bytes of idle rendezvous buffers the runtime keeps. A buffer that
/// would take the pool past it when it comes back is freed.
const RNDV_POOL_BYTES: usize = 1 << 20;

/// Declares [`RtStats`] from the one list of its counters: each field is
/// the registry counter `ucr.<net>.nodeN.<field>` and the `stats` line
/// `ucr_<field>`.
macro_rules! rt_stats {
    ($($(#[$doc:meta])* $field:ident,)*) => {
        /// Runtime statistics: the cluster registry's `ucr.<net>.nodeN.*`
        /// counters, taken when the runtime is brought up.
        pub struct RtStats {
            $($(#[$doc])* pub $field: Rc<simnet::metrics::Counter>,)*
        }

        impl RtStats {
            fn new(metrics: &simnet::Metrics, net: &str, node: NodeId) -> RtStats {
                RtStats {
                    $($field: metrics
                        .counter(&format!("ucr.{net}.{node}.{}", stringify!($field))),)*
                }
            }

            /// Every counter's `stats` name and value, in report order.
            pub fn table(&self) -> Vec<(&'static str, u64)> {
                vec![$((concat!("ucr_", stringify!($field)), self.$field.get()),)*]
            }
        }
    };
}

rt_stats! {
    /// Active messages sent (eager + rendezvous).
    messages_sent,
    /// Eager messages delivered.
    eager_delivered,
    /// Rendezvous transfers completed (RDMA reads).
    rndv_delivered,
    /// Internal (Fin) messages sent.
    fins_sent,
    /// Messages dropped for an unregistered msg_id.
    unknown_msg_dropped,
    /// Send-side failures observed (endpoint faults).
    send_failures,
    /// Rendezvous buffers taken from the runtime's pool: the bytes of a
    /// source or a landing region, reused (and registered afresh). Named
    /// for the registration cache the pool replaced, because
    /// `benchmark/src/layers.rs` reads it by this name.
    mr_cache_hits,
    /// Rendezvous buffers freshly allocated: the pool held none that fit.
    mr_cache_misses,
    /// Eager receive buffers recycled from the free list instead of
    /// freshly registered.
    recv_bufs_recycled,
    /// Progress-engine wakeups; each services a whole CQ backlog batch.
    progress_wakes,
    /// Completions serviced by the progress engine across all wakeups.
    progress_completions,
    /// Bypass gets served by a client-direct RDMA read of server slab
    /// memory (zero remote CPU involvement).
    bypass_reads,
    /// Bypass reads that observed a seqlock version skew (a concurrent
    /// writer) and were retried with a fresh descriptor.
    bypass_retries,
    /// Bypass gets that gave up on the one-sided path and fell back to
    /// the AM get (descriptor miss, retry budget exhausted, read error).
    bypass_fallbacks,
    /// Eager messages that rode behind another one in a shared network
    /// buffer (each saved a work request at both HCAs).
    eager_coalesced,
    /// Eager work requests posted, each carrying one or more messages.
    eager_wrs_posted,
}

/// A registered send buffer from the runtime's pool, with the packets
/// written into it so far, back to back: what one SEND carries. It is the
/// work request's from the post until its completion is reaped.
pub(crate) struct SendBuf {
    mr: Mr,
    len: usize,
}

impl SendBuf {
    /// Appends one packet: packet header, application header, data. The
    /// caller has made sure it fits (`EpInner::plan`, [`room`](Self::room)).
    fn push(&mut self, pkt: &PacketHeader, hdr: &[u8], data: &[u8]) {
        for part in [&pkt.encode()[..], hdr, data] {
            self.mr.write_at(self.len, part);
            self.len += part.len();
        }
    }

    /// Appends the packets of `other`.
    pub(crate) fn append(&mut self, other: &SendBuf) {
        self.mr.write_at(self.len, &other.bytes());
        self.len += other.len;
    }

    /// Bytes written so far.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Bytes that can still be appended.
    pub(crate) fn room(&self) -> usize {
        NET_BUF_BYTES - self.len
    }

    /// The packets, in place.
    pub(crate) fn bytes(&self) -> Ref<'_, [u8]> {
        Ref::map(self.mr.bytes(), |b| &b[..self.len])
    }
}

pub(crate) enum Pending {
    /// One eager work request: a lone message or the `msgs` an endpoint
    /// had held, with the origin counters of those that named one.
    Eager {
        msgs: u64,
        origins: Vec<Counter>,
        ep: Weak<EpInner>,
        posted: SimTime,
    },
    OneSided {
        done: Option<Counter>,
        ep: Weak<EpInner>,
        /// A put's registered source, pinned until the write completes;
        /// its bytes then go back to the rendezvous pool.
        src: Option<Mr>,
    },
    /// A rendezvous request or a Fin.
    CtrlSend { ep: Weak<EpInner> },
    /// A rendezvous read into `landing`, a region over bytes from the
    /// rendezvous pool. Its bytes become the handler's [`AmBytes`] if its
    /// header handler took the data (`keep`), and go straight back to the
    /// pool otherwise.
    RndvRead {
        ep: Weak<EpInner>,
        pkt: PacketHeader,
        hdr: Vec<u8>,
        landing: Mr,
        keep: bool,
    },
}

/// A runtime's idle rendezvous buffers, of `idle_bytes` capacity in all,
/// at most [`RNDV_POOL_BYTES`]: the home a source's bytes, a landing
/// region's and a handler's rendezvous [`AmBytes`] go back to.
#[derive(Default)]
pub(crate) struct RndvPool {
    free: RefCell<Vec<Vec<u8>>>,
    idle_bytes: Cell<usize>,
}

impl RndvPool {
    /// The idle buffer [`take_fitting`] picks for `len` bytes.
    fn take(&self, len: usize) -> Option<Vec<u8>> {
        let buf = take_fitting(&mut self.free.borrow_mut(), len)?;
        self.idle_bytes.set(self.idle_bytes.get() - buf.capacity());
        Some(buf)
    }

    /// Number of idle buffers.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.free.borrow().len()
    }
}

/// Takes back the bytes of a rendezvous region that is done — read by the
/// peer, or never to be; landed and handled, or discarded: into the pool,
/// or freed if they would take it past [`RNDV_POOL_BYTES`].
impl Lender for RndvPool {
    fn take_back(&self, buf: Vec<u8>) {
        let idle = self.idle_bytes.get() + buf.capacity();
        if buf.capacity() == 0 || idle > RNDV_POOL_BYTES {
            return;
        }
        self.idle_bytes.set(idle);
        self.free.borrow_mut().push(buf);
    }
}

pub(crate) struct RtInner {
    pub node: NodeId,
    pub sim: Sim,
    pub hca: Hca,
    pub pd: Pd,
    /// One completion queue per progress context; a queue pair's send and
    /// receive completions both land on its context's.
    cqs: Vec<Cq>,
    /// Round-robin cursor binding new endpoints to contexts.
    next_ctx: Cell<usize>,
    /// Dropping a context's sender ends its progress task, and the last
    /// one the rendezvous sender task: `shutdown` clears them, the last
    /// handle going away drops them.
    stop: RefCell<Vec<OneSender<()>>>,
    pub srq: Srq,
    pub eager_threshold: std::cell::Cell<usize>,
    profile: ClusterProfile,
    handlers: RefCell<HashMap<u16, Rc<dyn AmHandler>>>,
    /// An entry per counter made and not yet swept, by id. Ids only grow,
    /// so a push keeps the table sorted. An entry the table holds the only
    /// reference to is released: its counter was dropped.
    counters: RefCell<Vec<Rc<CtrInner>>>,
    /// Boxes of released counters the sweep took out of `counters`, for
    /// [`UcrRuntime::counter`] to refill under fresh ids; never more than
    /// the table has room for.
    idle_ctrs: RefCell<Vec<Rc<CtrInner>>>,
    /// By QP number; ordered, so `shutdown` fails them in QP order.
    eps: RefCell<BTreeMap<u32, Rc<EpInner>>>,
    /// Work requests awaiting their completion: what it comes back for,
    /// and the send buffer a SEND of packets holds until then.
    pending: RefCell<HashMap<u64, (Pending, Option<SendBuf>)>>,
    /// Receive buffers posted or landed and not yet reaped, by receive id:
    /// at most [`RECV_POOL_DEPTH`].
    recv_bufs: RefCell<HashMap<u64, Mr>>,
    /// Retired eager receive buffers awaiting re-posting (registration
    /// reuse instead of a fresh MR per message), at most
    /// [`RECV_POOL_DEPTH`].
    recv_free: FreeList<Mr>,
    /// Idle send buffers, at most [`SEND_POOL_CAP`]; one in use lives in
    /// the staged record, the endpoint's held batch or the pending entry of
    /// the work request that carries it.
    send_free: FreeList<Mr>,
    /// Idle rendezvous buffers. One in use is the bytes of a region
    /// registered for that one use — a source in its endpoint's `sources`,
    /// a landing region in its read's `Pending` entry — or a handler's
    /// [`AmBytes`], wherever the handler passed it on to.
    pub(crate) rndv: Rc<RndvPool>,
    /// Idle eager payload buffers, at most [`EAGER_POOL_CAP`]; one in use
    /// is a handler's [`AmBytes`], wherever the handler passed it on to.
    eager_free: Rc<FreeList<Vec<u8>>>,
    /// Idle rendezvous header buffers, at most [`RNDV_HDR_POOL_CAP`]; one
    /// in use is the `hdr` of a read's `Pending` entry.
    rndv_hdr_free: FreeList<Vec<u8>>,
    /// Rendezvous replies [`Endpoint::post_message`] accepted, oldest
    /// first, for the sender task to advertise: each post wakes the task
    /// once and each poll sends one, so the queue is empty again before
    /// virtual time moves on.
    rndv_sends: RefCell<VecDeque<QueuedRndv>>,
    /// The sender task's waker, from its first poll on.
    rndv_sender: RefCell<Option<Waker>>,
    ud_qp: RefCell<Option<QueuePair>>,
    ud_eps: RefCell<HashMap<(u32, u32), Rc<EpInner>>>,
    next_wr: Cell<u64>,
    next_ctr: Cell<u64>,
    next_ep: Cell<u64>,
    pub stats: RtStats,
    pub(crate) tracer: Rc<Tracer>,
}

impl Drop for RtInner {
    /// The last handle is gone and with it the progress engine: nothing
    /// will reap the completion that would have posted the held messages,
    /// so they go out now (they were accepted; only `shutdown` and an
    /// endpoint failure discard).
    fn drop(&mut self) {
        for ep in self.eps.borrow().values() {
            ep.flush_held(self);
        }
        // Queued rendezvous replies go with the runtime that was to send
        // them.
        let queued = self.rndv_sends.borrow().len();
        self.stats.send_failures.add(queued as u64);
    }
}

/// The progress loop of one context: reaps its completion queue and runs
/// each completion's protocol step and handlers to the end before taking
/// the next. State it shares with the other contexts' loops is borrowed
/// only between awaits.
async fn progress(rt: Weak<RtInner>, cq: Cq) {
    loop {
        let wc = cq.next().await;
        let Some(rt) = rt.upgrade() else { break };
        // One wakeup drains the whole CQ backlog before the engine
        // re-arms: every already-reaped completion is serviced in this
        // batch. `Cq::next` on a non-empty queue returns immediately
        // (still charging the same per-completion poll overhead), so
        // batching changes accounting, not virtual time.
        rt.stats.progress_wakes.inc();
        rt.stats.progress_completions.inc();
        rt.handle_completion(wc).await;
        while cq.backlog() > 0 {
            let wc = cq.next().await;
            rt.stats.progress_completions.inc();
            rt.handle_completion(wc).await;
        }
    }
}

/// The rendezvous sender of a runtime: each poll advertises the oldest
/// reply [`Endpoint::post_message`] queued. A post wakes it once, so every
/// reply goes out at the ready-queue position, and with the poll, that a
/// task spawned for it would have had.
async fn rndv_sender(rt: Weak<RtInner>) {
    poll_fn(|cx| {
        if let Some(rt) = rt.upgrade() {
            rt.send_queued(cx.waker());
        }
        Poll::<()>::Pending
    })
    .await
}

/// Spawns `task`, to run until `stopped`'s sender is dropped.
fn spawn_until(sim: &Sim, mut stopped: OneReceiver<()>, task: impl Future<Output = ()> + 'static) {
    sim.spawn(async move {
        let mut run = pin!(task);
        poll_fn(|cx| match Pin::new(&mut stopped).poll(cx) {
            Poll::Ready(_) => Poll::Ready(()),
            Poll::Pending => run.as_mut().poll(cx),
        })
        .await
    });
}

/// The Unified Communication Runtime for one node.
#[derive(Clone)]
pub struct UcrRuntime {
    pub(crate) inner: Rc<RtInner>,
}

/// Accepts inbound UCR endpoint connections on a service port.
pub struct EpListener {
    listener: verbs::Listener,
    rt: Rc<RtInner>,
}

impl UcrRuntime {
    /// Brings up UCR on `node` with one progress context: allocates verbs
    /// resources, arms the receive pool's growth, and starts the progress
    /// engine.
    pub fn new(fabric: &IbFabric, node: NodeId) -> UcrRuntime {
        UcrRuntime::with_contexts(fabric, node, 1)
    }

    /// Brings up UCR on `node` with `contexts` progress contexts (at least
    /// one), each its own completion queue and progress task — what a
    /// server sizes to its worker pool. A node whose adapter a
    /// [`shutdown`](Self::shutdown) or a crash took down gets it back: this
    /// is a process started there again.
    pub fn with_contexts(fabric: &IbFabric, node: NodeId, contexts: usize) -> UcrRuntime {
        let hca = fabric.open(node);
        hca.revive();
        let pd = hca.alloc_pd();
        let cqs: Vec<Cq> = (0..contexts.max(1)).map(|_| hca.create_cq()).collect();
        // One stop per context, and one for the rendezvous sender.
        let (stop, stopped): (Vec<_>, Vec<_>) = (0..=cqs.len()).map(|_| oneshot::<()>()).unzip();
        let srq = Srq::new();
        let sim = hca.sim();
        let profile = fabric.cluster().profile().clone();
        let tracer = fabric.cluster().tracer().clone();
        let net = match fabric.kind() {
            simnet::NetKind::Ib => "ib",
            simnet::NetKind::TenGigE => "roce",
            simnet::NetKind::OneGigE => "gige",
        };
        let stats = RtStats::new(fabric.cluster().metrics(), net, node);
        let inner = Rc::new(RtInner {
            node,
            sim: sim.clone(),
            hca,
            pd,
            cqs,
            next_ctx: Cell::new(0),
            stop: RefCell::new(stop),
            srq,
            eager_threshold: std::cell::Cell::new(UCR_EAGER_THRESHOLD),
            profile,
            handlers: RefCell::new(HashMap::new()),
            counters: RefCell::new(Vec::new()),
            idle_ctrs: RefCell::new(Vec::new()),
            eps: RefCell::new(BTreeMap::new()),
            pending: RefCell::new(HashMap::new()),
            recv_bufs: RefCell::new(HashMap::new()),
            recv_free: FreeList::new(RECV_POOL_DEPTH),
            send_free: FreeList::new(SEND_POOL_CAP),
            rndv: Rc::default(),
            eager_free: Rc::new(FreeList::of_bytes(EAGER_POOL_CAP, UCR_EAGER_THRESHOLD)),
            rndv_hdr_free: FreeList::new(RNDV_HDR_POOL_CAP),
            rndv_sends: RefCell::new(VecDeque::new()),
            rndv_sender: RefCell::new(None),
            ud_qp: RefCell::new(None),
            ud_eps: RefCell::new(HashMap::new()),
            // Past the receive ids the pool's growth takes.
            next_wr: Cell::new(RECV_POOL_DEPTH as u64 + 1),
            next_ctr: Cell::new(1),
            next_ep: Cell::new(1),
            stats,
            tracer,
        });
        // The limit event stocks the receive pool as traffic needs it.
        let weak = Rc::downgrade(&inner);
        inner.srq.set_limit_handler(move || {
            if let Some(rt) = weak.upgrade() {
                rt.grow_recv_pool();
            }
        });
        // One progress task per context, then the rendezvous sender. Each
        // holds the runtime weakly and runs until its stop sender is
        // dropped — by `shutdown`, or with the last UcrRuntime handle, so
        // everything unwinds.
        let mut stopped = stopped.into_iter();
        for (cq, stopped) in inner.cqs.iter().cloned().zip(stopped.by_ref()) {
            spawn_until(&sim, stopped, progress(Rc::downgrade(&inner), cq));
        }
        for stopped in stopped {
            spawn_until(&sim, stopped, rndv_sender(Rc::downgrade(&inner)));
        }
        UcrRuntime { inner }
    }

    /// Number of progress contexts.
    pub fn contexts(&self) -> usize {
        self.inner.cqs.len()
    }

    /// The node this runtime serves.
    pub fn node(&self) -> NodeId {
        self.inner.node
    }

    /// The simulation world.
    pub fn sim(&self) -> Sim {
        self.inner.sim.clone()
    }

    /// Creates a fresh counter registered with this runtime: a new id, in
    /// the box of a released counter when one is idle.
    pub fn counter(&self) -> Counter {
        let rt = &self.inner;
        let id = rt.next_ctr.get();
        rt.next_ctr.set(id + 1);
        let mut counters = rt.counters.borrow_mut();
        let mut idle = rt.idle_ctrs.borrow_mut();
        // A full table moves the boxes of released counters to the idle
        // list and grows, to twice the live ones, only if they still fill
        // more than half of it: it holds at most twice the counters live at
        // once, a sweep comes at most once per half a table of counters
        // made, and the boxes it frees are the ones those counters reuse.
        if counters.len() == counters.capacity() {
            let room = counters.capacity();
            for released in counters.extract_if(.., |c| Rc::strong_count(c) == 1) {
                if idle.len() < room {
                    idle.push(released);
                }
            }
            let live = counters.len();
            if 2 * live > counters.capacity() {
                counters.reserve_exact(live);
            }
        }
        // An idle box is referenced by the list alone, so it is refilled in
        // place: value 0, and no waker of its last life left parked on it.
        let reused = idle.pop().and_then(|mut boxed| {
            *Rc::get_mut(&mut boxed)? = CtrInner::new(id);
            Some(boxed)
        });
        let inner = reused.unwrap_or_else(|| Rc::new(CtrInner::new(id)));
        counters.push(inner.clone());
        Counter::new(inner, rt.sim.clone(), rt.tracer.clone(), rt.node)
    }

    /// Registers the handler for `msg_id`, replacing any previous one.
    pub fn register_handler(&self, msg_id: u16, handler: impl AmHandler + 'static) {
        self.inner
            .handlers
            .borrow_mut()
            .insert(msg_id, Rc::new(handler));
    }

    /// Binds a UCR service port for inbound endpoints.
    pub fn listen(&self, port: u16) -> Result<EpListener, UcrError> {
        let listener = self
            .inner
            .hca
            .listen(port)
            .map_err(|_| UcrError::PortInUse)?;
        Ok(EpListener {
            listener,
            rt: self.inner.clone(),
        })
    }

    /// Establishes an endpoint to a listening runtime at `(dst, port)`.
    pub async fn connect(
        &self,
        dst: NodeId,
        port: u16,
        timeout: SimDuration,
    ) -> Result<Endpoint, UcrError> {
        let rt = &self.inner;
        let ctx = rt.next_context();
        let cq = &rt.cqs[ctx];
        let qp = verbs::connect(&rt.hca, &rt.pd, cq, cq, Some(&rt.srq), dst, port, timeout)
            .await
            .map_err(|e| match e {
                verbs::VerbsError::ConnectionTimeout => UcrError::Timeout,
                _ => UcrError::ConnectionRefused,
            })?;
        Ok(rt.make_endpoint(qp, dst, ctx))
    }

    /// Tears the runtime down: every progress task stops, all endpoints
    /// fail and the adapter dies with its listeners, so the port is free
    /// for a runtime started on the node again. Models a process exit.
    pub fn shutdown(&self) {
        let rt = &self.inner;
        rt.stop.borrow_mut().clear();
        for ep in rt.eps.borrow().values() {
            ep.fail(rt);
            ep.qp.close();
        }
        rt.eps.borrow_mut().clear();
        // The sender is gone: what it had queued fails here.
        let queued = std::mem::take(&mut *rt.rndv_sends.borrow_mut());
        for reply in queued {
            rt.discard_rndv(reply);
        }
        rt.hca.kill();
    }

    /// Binds this runtime's shared UD queue pair and returns its QP
    /// number — the address clients use for unreliable endpoints. One UD
    /// QP serves every unreliable client of the runtime, which is the
    /// memory-scaling property the paper's SVII future work targets
    /// (versus one RC QP per client).
    pub fn ud_bind(&self) -> u32 {
        self.inner.ud_bound_qp().qpn()
    }

    /// The bound UD QP number, if [`ud_bind`](Self::ud_bind) has run.
    pub fn ud_qpn(&self) -> Option<u32> {
        self.inner.ud_qp.borrow().as_ref().map(|q| q.qpn())
    }

    /// Creates an unreliable endpoint addressing `(node, qpn)` — the
    /// peer's UD QP number learned out of band (e.g. from a directory or
    /// an RC bootstrap exchange). No handshake: UD is connectionless.
    pub fn ud_endpoint(&self, node: NodeId, qpn: u32) -> Endpoint {
        self.ud_bind();
        self.inner.ud_endpoint_for(node, qpn)
    }

    /// Number of queue pairs this runtime holds open (RC endpoints plus
    /// at most one shared UD QP) — the server-side memory metric of the
    /// UD scaling study.
    pub fn qp_count(&self) -> usize {
        self.inner.eps.borrow().len() + usize::from(self.inner.ud_qp.borrow().is_some())
    }

    /// Adjusts the eager/rendezvous switch point (ablation studies; the
    /// paper fixes it at the 8 KB network buffer). Capped at the receive
    /// pool's buffer size.
    pub fn set_eager_threshold(&self, bytes: usize) {
        assert!(
            bytes <= UCR_EAGER_THRESHOLD,
            "eager threshold cannot exceed the {UCR_EAGER_THRESHOLD}-byte network buffers"
        );
        self.inner.eager_threshold.set(bytes);
    }

    /// The current eager/rendezvous switch point.
    pub fn eager_threshold(&self) -> usize {
        self.inner.eager_threshold.get()
    }

    /// Runtime statistics.
    pub fn stats(&self) -> &RtStats {
        &self.inner.stats
    }

    /// Number of live endpoints.
    pub fn endpoints(&self) -> usize {
        self.inner.eps.borrow().len()
    }

    /// Send buffers idle in the pool, registered and waiting for a packet
    /// (at most [`SEND_POOL_CAP`]). Every other region the runtime holds
    /// registered — a buffer in flight, a receive buffer, a rendezvous
    /// source — counts in its HCA's
    /// [`registered_regions`](verbs::Hca::registered_regions) beside them.
    pub fn idle_send_buffers(&self) -> usize {
        self.inner.send_free.len()
    }

    /// Receive buffers the runtime holds registered: posted on the SRQ,
    /// landed and not yet reaped (together at most the pool depth, 128),
    /// and retired awaiting re-posting (at most as many again). The pool
    /// grows to the traffic, so a depth-1 client holds two.
    pub fn recv_buffers(&self) -> usize {
        self.inner.recv_bufs.borrow().len() + self.inner.recv_free.len()
    }
}

impl EpListener {
    /// Accepts one inbound endpoint.
    pub async fn accept(&self) -> Result<Endpoint, UcrError> {
        let ctx = self.rt.next_context();
        let cq = &self.rt.cqs[ctx];
        let qp = self
            .listener
            .accept(&self.rt.pd, cq, cq, Some(&self.rt.srq))
            .await
            .map_err(|_| UcrError::ConnectionRefused)?;
        let Some((peer, _)) = qp.remote() else {
            // A QP handed back by accept() should always carry its peer;
            // if it does not, the connection state is torn — report it
            // through the endpoint-failure model rather than aborting.
            self.rt
                .tracer
                .fault("accepted QP has no peer address; refusing connection");
            return Err(UcrError::ConnectionRefused);
        };
        Ok(self.rt.make_endpoint(qp, peer, ctx))
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.listener.port()
    }
}

impl RtInner {
    /// A fresh work request id.
    pub(crate) fn next_wr_id(&self) -> u64 {
        let id = self.next_wr.get();
        self.next_wr.set(id + 1);
        id
    }

    pub(crate) fn alloc_wr(&self, p: Pending) -> u64 {
        let id = self.next_wr_id();
        self.pending.borrow_mut().insert(id, (p, None));
        id
    }

    /// Posts a work request allocated with [`alloc_wr`](Self::alloc_wr).
    /// A refused post (the queue pair has left ready-to-send, or the local
    /// HCA is down) withdraws it, and whatever it pinned, so `pending` holds
    /// only what a completion will come back for; its send buffer, if it
    /// has one, a put's source bytes, and a rendezvous read's header buffer
    /// and landing bytes go back to their pools.
    pub(crate) fn post(&self, qp: &QueuePair, wr: SendWr) -> Result<(), UcrError> {
        let wr_id = wr.wr_id;
        qp.post_send(wr).map_err(|_| {
            let withdrawn = self.pending.borrow_mut().remove(&wr_id);
            match withdrawn {
                Some((_, Some(buf))) => self.return_send_buf(buf),
                Some((Pending::OneSided { src: Some(src), .. }, None)) => {
                    self.rndv.take_back(src.into_vec());
                }
                Some((Pending::RndvRead { hdr, landing, .. }, None)) => {
                    self.rndv_hdr_free.give_back_bytes(hdr);
                    self.rndv.take_back(landing.into_vec());
                }
                _ => {}
            }
            UcrError::EndpointFailed
        })
    }

    /// Posts the packets in `buf` as one SEND on `ep`, as work request
    /// `wr_id` (from [`next_wr_id`](Self::next_wr_id)) that `pending` comes
    /// back for. Its entry holds the buffer until then: the target HCA
    /// reads it when the message lands.
    pub(crate) fn post_packets(
        &self,
        ep: &EpInner,
        wr_id: u64,
        buf: SendBuf,
        pending: Pending,
    ) -> Result<(), UcrError> {
        let local = buf.mr.slice(0, buf.len);
        self.pending
            .borrow_mut()
            .insert(wr_id, (pending, Some(buf)));
        let mut wr = SendWr::new(wr_id, SendOp::Send { local, imm: None });
        wr.ud_dest = ep.ud_dest;
        self.post(&ep.qp, wr)
    }

    /// One packet written into a send buffer from the pool: the one copy
    /// its bytes get at this end.
    pub(crate) fn stage(&self, pkt: &PacketHeader, hdr: &[u8], data: &[u8]) -> SendBuf {
        let idle = self.send_free.take();
        let mr = idle.unwrap_or_else(|| self.pd.register(NET_BUF_BYTES, Access::LOCAL_READ));
        let mut buf = SendBuf { mr, len: 0 };
        buf.push(pkt, hdr, data);
        buf
    }

    /// Takes back a send buffer whose packets are gone — completed, refused
    /// or discarded: into the pool, or deregistered if the pool is full.
    pub(crate) fn return_send_buf(&self, buf: SendBuf) {
        self.send_free.give_back(buf.mr);
    }

    /// A buffer for a rendezvous region of `len` bytes: the idle one given
    /// back last whose capacity is at least `len` and under twice it, so a
    /// small payload never pins a large buffer, or else a fresh one. A
    /// reused buffer still holds its last bytes; the caller writes over
    /// them.
    fn rndv_buffer(&self, len: usize) -> Vec<u8> {
        match self.rndv.take(len) {
            Some(buf) => {
                self.stats.mr_cache_hits.inc();
                buf
            }
            None => {
                self.stats.mr_cache_misses.inc();
                Vec::with_capacity(len)
            }
        }
    }

    /// The bytes a rendezvous source is registered over: the caller's own,
    /// or a borrow copied once into a buffer from the pool.
    pub(crate) fn rndv_source(&self, data: Cow<'_, [u8]>) -> Vec<u8> {
        match data {
            Cow::Owned(bytes) => bytes,
            Cow::Borrowed(data) => {
                let mut buf = self.rndv_buffer(data.len());
                buf.clear();
                buf.extend_from_slice(data);
                buf
            }
        }
    }

    /// A landing region for a rendezvous read of `len` bytes, registered
    /// afresh over a buffer from the pool. Whatever a reused buffer held is
    /// not cleared: the read writes all `len` bytes before any handler
    /// sees them, and a read that fails hands nothing to a handler.
    fn rndv_landing(&self, len: usize) -> Mr {
        let mut buf = self.rndv_buffer(len);
        buf.resize(len, 0);
        self.pd.register_with(buf, Access::LOCAL_WRITE)
    }

    /// A copy of a rendezvous message's application header, held until
    /// its read completes, in an idle header buffer when there is one.
    pub(crate) fn rndv_header(&self, hdr: &[u8]) -> Vec<u8> {
        let mut buf = self.rndv_hdr_free.take().unwrap_or_default();
        buf.extend_from_slice(hdr);
        buf
    }

    /// Queues a rendezvous reply for the sender task and wakes it once.
    pub(crate) fn queue_rndv(&self, reply: QueuedRndv) {
        self.rndv_sends.borrow_mut().push_back(reply);
        if let Some(sender) = self.rndv_sender.borrow().as_ref() {
            sender.wake_by_ref();
        }
    }

    /// One poll of the sender task: advertises the oldest queued reply, or
    /// discards it if its endpoint has failed. Its header buffer goes back
    /// to the pool either way.
    fn send_queued(&self, waker: &Waker) {
        // The first poll comes before any post can: an endpoint exists only
        // once its handshake has yielded, and unreliable ones never queue.
        self.rndv_sender
            .borrow_mut()
            .get_or_insert_with(|| waker.clone());
        let Some(reply) = self.rndv_sends.borrow_mut().pop_front() else {
            return;
        };
        if reply.ep.failed.get() {
            return self.discard_rndv(reply);
        }
        let QueuedRndv { ep, pkt, hdr, data } = reply;
        let sent = ep.send_rndv(self, pkt, &hdr, data);
        self.rndv_hdr_free.give_back_bytes(hdr);
        if sent.is_err() {
            self.stats.send_failures.inc();
        }
    }

    /// A queued rendezvous reply that will not go counts one send failure,
    /// and its bytes and header buffer go back to their pools.
    fn discard_rndv(&self, reply: QueuedRndv) {
        self.stats.send_failures.inc();
        self.rndv.take_back(reply.data);
        self.rndv_hdr_free.give_back_bytes(reply.hdr);
    }

    pub(crate) fn drop_endpoint(&self, qpn: u32) {
        self.eps.borrow_mut().remove(&qpn);
    }

    /// Largest UD payload (UCR packet header + app header + data) that
    /// fits one datagram on this fabric.
    pub(crate) fn ud_payload_limit(&self) -> usize {
        // The verbs layer enforces payload <= path MTU.
        self.hca.net_mtu() as usize
    }

    /// The next context in round-robin order.
    fn next_context(&self) -> usize {
        let ctx = self.next_ctx.get();
        self.next_ctx.set((ctx + 1) % self.cqs.len());
        ctx
    }

    /// The shared UD queue pair, binding it on first use. Idempotent:
    /// repeated calls return the same QP. Context 0 reaps it.
    fn ud_bound_qp(&self) -> QueuePair {
        if let Some(qp) = self.ud_qp.borrow().as_ref() {
            return qp.clone();
        }
        let cq = &self.cqs[0];
        let qp = self.pd.create_qp(QpType::Ud, cq, cq, Some(&self.srq));
        *self.ud_qp.borrow_mut() = Some(qp.clone());
        qp
    }

    fn ud_endpoint_for(self: &Rc<Self>, node: NodeId, qpn: u32) -> Endpoint {
        if let Some(ep) = self.ud_eps.borrow().get(&(node.0, qpn)) {
            return Endpoint { inner: ep.clone() };
        }
        // Binding is lazy: every live caller has already bound (the
        // public path via ud_endpoint(), the recv path by matching the
        // bound QPN), so this never creates in practice.
        let qp = self.ud_bound_qp();
        let id = self.next_ep.get();
        self.next_ep.set(id + 1);
        let inner = EpInner::new(id, qp, node, 0, Rc::downgrade(self), Some((node, qpn)));
        self.ud_eps
            .borrow_mut()
            .insert((node.0, qpn), inner.clone());
        Endpoint { inner }
    }

    /// Cost of staging `bytes` through a communication buffer on one side
    /// of the eager path: memcpy plus the calibrated per-KB host share.
    pub(crate) fn stage_cost(&self, bytes: usize) -> SimDuration {
        let copy = SimDuration::for_bytes_at(bytes as u64, self.profile.host.copy_bw_bps);
        copy + self.profile.ucr_eager_cost(bytes as u64) / 2
    }

    fn make_endpoint(self: &Rc<Self>, qp: QueuePair, peer: NodeId, ctx: usize) -> Endpoint {
        let id = self.next_ep.get();
        self.next_ep.set(id + 1);
        let inner = EpInner::new(id, qp, peer, ctx, Rc::downgrade(self), None);
        self.eps.borrow_mut().insert(inner.qp.qpn(), inner.clone());
        Endpoint { inner }
    }

    /// The SRQ's limit event: a message found no receive posted. Posts one
    /// more buffer unless the pool is at [`RECV_POOL_DEPTH`]. Every reap
    /// re-posts the buffer it takes, so the pool holds one buffer per growth
    /// and the next growth takes receive id `held + 1`.
    fn grow_recv_pool(&self) {
        let held = self.recv_bufs.borrow().len();
        if held < RECV_POOL_DEPTH {
            self.post_recv_buffer(held as u64 + 1);
        }
    }

    /// Posts a receive buffer on the SRQ as receive `wr_id`.
    fn post_recv_buffer(&self, wr_id: u64) {
        // Recycle a retired buffer when one is available: the
        // registration (and rkey) is reused instead of paid per message.
        let recycled = self.recv_free.take();
        let mr = match recycled {
            Some(mr) => {
                self.stats.recv_bufs_recycled.inc();
                mr
            }
            None => self.pd.register(NET_BUF_BYTES, Access::LOCAL_WRITE),
        };
        self.srq.post_recv(wr_id, mr.full());
        self.recv_bufs.borrow_mut().insert(wr_id, mr);
    }

    fn bump_counter(&self, id: u64) {
        if id == 0 {
            return;
        }
        // A released entry, held by the table alone, is bumped no more
        // than a counter already swept.
        let ctr = {
            let counters = self.counters.borrow();
            let at = counters.binary_search_by_key(&id, |c| c.id);
            at.ok()
                .filter(|&at| Rc::strong_count(&counters[at]) > 1)
                .map(|at| counters[at].clone())
        };
        if let Some(c) = ctr {
            c.bump();
            self.tracer.instant(
                Layer::Ucr,
                "counter_bump",
                self.node,
                Track::Main,
                id,
                0,
                self.sim.now(),
            );
        }
    }

    async fn handle_completion(self: &Rc<Self>, wc: Wc) {
        match wc.opcode {
            WcOpcode::Recv | WcOpcode::RecvRdmaImm => self.handle_recv(wc).await,
            _ => self.handle_send_completion(wc).await,
        }
    }

    async fn handle_recv(self: &Rc<Self>, wc: Wc) {
        // Reclaim the network buffer and re-post one at once, so the pool
        // keeps the depth its growth reached (flow control by
        // replenishment): a landing parks only when that depth is
        // RECV_POOL_DEPTH and every buffer is landed and unreaped.
        let buf = self.recv_bufs.borrow_mut().remove(&wc.wr_id);
        self.post_recv_buffer(self.next_wr_id());
        let Some(buf) = buf else { return };
        if !wc.status.is_ok() {
            self.recv_free.give_back(buf);
            return;
        }
        // Every length below comes off the wire: `packet_at` is the one
        // place they are checked, and nothing past `len` is ever read.
        let len = (wc.byte_len as usize).min(buf.len());
        let Some(first) = packet_at(&buf.bytes()[..len], 0) else {
            self.stats.unknown_msg_dropped.inc();
            self.recv_free.give_back(buf);
            return;
        };
        let ud_qpn = self.ud_qp.borrow().as_ref().map(|q| q.qpn());
        let ep = if ud_qpn == Some(wc.qp_num) {
            // Arrived on the shared UD QP: the endpoint is identified by
            // the datagram's source address handle.
            let Some((src_node, src_qpn)) = wc.src else {
                self.recv_free.give_back(buf);
                return;
            };
            self.ud_endpoint_for(src_node, src_qpn)
        } else {
            let ep = self.eps.borrow().get(&wc.qp_num).cloned();
            let Some(ep) = ep else {
                self.recv_free.give_back(buf);
                return;
            };
            Endpoint { inner: ep }
        };

        let pkt = first.pkt;
        match pkt.kind {
            PacketKind::Eager => {
                // One network buffer carries one or more eager packets
                // back to back; each runs the whole per-message path. A
                // remainder that is not a well-formed eager packet ends
                // the buffer.
                let mut next = Some(first);
                while let Some(p) = next {
                    self.deliver_eager(&ep, &buf, &p, wc.wr_id).await;
                    if p.end == len {
                        break;
                    }
                    next = packet_at(&buf.bytes()[..len], p.end)
                        .filter(|n| n.pkt.kind == PacketKind::Eager);
                    if next.is_none() {
                        self.stats.unknown_msg_dropped.inc();
                    }
                }
                self.recv_free.give_back(buf);
            }
            PacketKind::RndvReq => {
                if ep.is_unreliable() {
                    // RDMA read needs a connection; a rendezvous header on
                    // UD is a protocol violation — drop it.
                    self.stats.unknown_msg_dropped.inc();
                    self.recv_free.give_back(buf);
                    return;
                }
                if pkt.data_len > MAX_RNDV_BYTES as u64 {
                    // No sender advertises this much: a protocol violation.
                    // The endpoint goes, and nothing is allocated for it.
                    self.stats.unknown_msg_dropped.inc();
                    self.recv_free.give_back(buf);
                    self.end_ep(&ep.inner, "rendezvous past MAX_RNDV_BYTES");
                    ep.inner.qp.close();
                    return;
                }
                self.sim.sleep(self.profile.host.am_dispatch).await;
                let handler = self.handlers.borrow().get(&pkt.msg_id).cloned();
                let Some(handler) = handler else {
                    self.stats.unknown_msg_dropped.inc();
                    self.recv_free.give_back(buf);
                    return;
                };
                let hdr = self.rndv_header(first.hdr(&buf.bytes()));
                self.recv_free.give_back(buf);
                let track = Track::Endpoint(ep.id());
                let dest =
                    self.handler_phase("header_handler", &ep, wc.wr_id, pkt.data_len, || {
                        handler.on_header(&ep, &hdr, pkt.data_len as usize)
                    });
                let landing = self.rndv_landing(pkt.data_len as usize);
                let local = landing.full();
                let remote = verbs::RemoteMemory {
                    node: ep.peer(),
                    rkey: pkt.rkey,
                    offset: pkt.offset,
                    len: pkt.data_len,
                };
                let data_len = pkt.data_len;
                let wr_id = self.alloc_wr(Pending::RndvRead {
                    ep: Rc::downgrade(&ep.inner),
                    pkt,
                    hdr,
                    landing,
                    keep: matches!(dest, AmDest::Pool),
                });
                // The rendezvous window: open when the target posts its
                // RDMA read, closed when the pulled data has been
                // dispatched (`handle_send_completion`).
                self.tracer.begin(
                    Layer::Ucr,
                    "rndv_window",
                    self.node,
                    track,
                    wr_id,
                    data_len,
                    self.sim.now(),
                );
                let read = SendWr::new(wr_id, SendOp::RdmaRead { local, remote });
                if self.post(&ep.inner.qp, read).is_err() {
                    self.tracer.end(
                        Layer::Ucr,
                        "rndv_window",
                        self.node,
                        track,
                        wr_id,
                        0,
                        self.sim.now(),
                    );
                    self.fail_ep(&Rc::downgrade(&ep.inner), 1);
                }
            }
            PacketKind::Fin => {
                self.recv_free.give_back(buf);
                self.bump_counter(pkt.origin_ctr);
                self.bump_counter(pkt.completion_ctr);
                ep.inner.release_source(self, pkt.token);
            }
        }
    }

    /// The per-message eager path: dispatch + copy off the network buffer,
    /// header and completion handlers, target counter, Fin. Charged once
    /// per message however many share `buf`.
    async fn deliver_eager(self: &Rc<Self>, ep: &Endpoint, buf: &Mr, p: &Located, wr_id: u64) {
        let pkt = &p.pkt;
        // The peer's latest word on its own send queue (see `EagerQueue`).
        ep.inner.eager.peer_backed_up.set(pkt.backed_up);
        // Checked against the buffer by `packet_at`, so it fits a usize.
        let data_len = pkt.data_len as usize;
        self.sim
            .sleep(self.profile.host.am_dispatch + self.stage_cost(data_len))
            .await;
        let handler = self.handlers.borrow().get(&pkt.msg_id).cloned();
        let Some(handler) = handler else {
            self.stats.unknown_msg_dropped.inc();
            return;
        };
        // The handlers read the application header in place, in the
        // network buffer; the caller retires it once every packet in it
        // has been delivered.
        let bytes = buf.bytes();
        let (hdr, data) = (p.hdr(&bytes), p.data(&bytes));
        let dest = self.handler_phase("header_handler", ep, wr_id, pkt.data_len, || {
            handler.on_header(ep, hdr, data_len)
        });
        let am_data = match dest {
            // Single copy: the payload moves straight off the network
            // buffer into a buffer lent by the eager pool.
            AmDest::Pool => AmData::Pool(self.eager_free.lend(data)),
            AmDest::Discard => AmData::Discarded,
        };
        self.handler_phase("completion_handler", ep, wr_id, pkt.data_len, || {
            handler.on_complete(ep, hdr, am_data)
        });
        drop(bytes);
        self.stats.eager_delivered.inc();
        self.bump_counter(pkt.target_ctr);
        if pkt.completion_ctr != 0 {
            self.send_fin(ep, 0, pkt.completion_ctr, 0);
        }
    }

    /// Runs `call`, one phase of a message's handler, inside the span
    /// `name` (`header_handler` or `completion_handler`) on `ep`'s track,
    /// keyed by the work request `wr_id` that brought the message's
    /// `bytes`.
    fn handler_phase<R>(
        &self,
        name: &'static str,
        ep: &Endpoint,
        wr_id: u64,
        bytes: u64,
        call: impl FnOnce() -> R,
    ) -> R {
        let (node, track) = (self.node, Track::Endpoint(ep.id()));
        self.tracer
            .begin(Layer::Ucr, name, node, track, wr_id, bytes, self.sim.now());
        let out = call();
        self.tracer
            .end(Layer::Ucr, name, node, track, wr_id, bytes, self.sim.now());
        out
    }

    async fn handle_send_completion(self: &Rc<Self>, wc: Wc) {
        let pending = self.pending.borrow_mut().remove(&wc.wr_id);
        let Some((pending, buf)) = pending else {
            return;
        };
        if let Some(buf) = buf {
            self.return_send_buf(buf);
        }
        match pending {
            Pending::OneSided { done, ep, src } => {
                if let Some(src) = src {
                    self.rndv.take_back(src.into_vec());
                }
                if !crate::onesided::complete_onesided(done, &ep, wc.status) {
                    self.stats.send_failures.inc();
                }
            }
            Pending::Eager {
                msgs,
                origins,
                ep,
                posted,
            } => {
                if !wc.status.is_ok() {
                    return self.fail_ep(&ep, msgs);
                }
                self.eager_send_done(&ep, posted, origins);
            }
            Pending::CtrlSend { ep } => {
                if !wc.status.is_ok() {
                    self.fail_ep(&ep, 1);
                }
            }
            Pending::RndvRead {
                ep,
                pkt,
                hdr,
                landing,
                keep,
            } => {
                // The landing region deregisters here, whatever became of
                // the read. Zero copy: its bytes become the handler's
                // payload, which gives them back to the pool when dropped.
                let am_data = if keep {
                    let home: Weak<RndvPool> = Rc::downgrade(&self.rndv);
                    AmData::Pool(AmBytes::new(landing.into_vec(), home))
                } else {
                    self.rndv.take_back(landing.into_vec());
                    AmData::Discarded
                };
                let Some(ep_rc) = ep.upgrade() else {
                    self.rndv_hdr_free.give_back_bytes(hdr);
                    return;
                };
                let ep = Endpoint { inner: ep_rc };
                let track = Track::Endpoint(ep.id());
                if !wc.status.is_ok() {
                    self.rndv_hdr_free.give_back_bytes(hdr);
                    self.tracer.end(
                        Layer::Ucr,
                        "rndv_window",
                        self.node,
                        track,
                        wc.wr_id,
                        0,
                        self.sim.now(),
                    );
                    self.fail_ep(&Rc::downgrade(&ep.inner), 1);
                    return;
                }
                // Zero-copy path: only the calibrated host cost, no copy.
                self.sim
                    .sleep(self.profile.host.am_dispatch + self.profile.ucr_rdma_cost(pkt.data_len))
                    .await;
                let handler = self.handlers.borrow().get(&pkt.msg_id).cloned();
                if let Some(handler) = handler {
                    self.handler_phase("completion_handler", &ep, wc.wr_id, pkt.data_len, || {
                        handler.on_complete(&ep, &hdr, am_data)
                    });
                }
                self.rndv_hdr_free.give_back_bytes(hdr);
                self.tracer.end(
                    Layer::Ucr,
                    "rndv_window",
                    self.node,
                    track,
                    wc.wr_id,
                    pkt.data_len,
                    self.sim.now(),
                );
                self.stats.rndv_delivered.inc();
                self.bump_counter(pkt.target_ctr);
                // Fin always returns for rendezvous: it releases the
                // origin's source buffer and carries any counter updates.
                self.send_fin(&ep, pkt.origin_ctr, pkt.completion_ctr, pkt.token);
            }
        }
    }

    /// An eager work request completed. Local completion means the
    /// application buffers of every message it carried are reusable (no
    /// extra message needed for eager), so their origin counters bump
    /// here; and the send queue just drained by one, so whatever the
    /// endpoint held meanwhile goes out now, as one work request.
    fn eager_send_done(&self, ep: &Weak<EpInner>, posted: SimTime, origins: Vec<Counter>) {
        for c in origins {
            c.bump();
        }
        if let Some(ep) = ep.upgrade() {
            ep.eager_reaped(self.sim.now().saturating_since(posted));
            if !ep.failed.get() {
                ep.flush_held(self);
            }
            ep.close_if_done(self);
        }
    }

    /// A work request of `ep` carrying `msgs` messages failed. Each of them
    /// counts; only the first such completion ends the endpoint, so the work
    /// requests it strands neither end it again nor each raise a fault.
    fn fail_ep(&self, ep: &Weak<EpInner>, msgs: u64) {
        self.stats.send_failures.add(msgs);
        if let Some(ep) = ep.upgrade() {
            if self.eps.borrow().contains_key(&ep.qp.qpn()) {
                self.end_ep(&ep, "send error");
            }
        }
    }

    /// Fails `ep` and forgets it, for `why`; every other endpoint of the
    /// runtime is untouched (§IV).
    fn end_ep(&self, ep: &EpInner, why: &str) {
        ep.fail(self);
        self.drop_endpoint(ep.qp.qpn());
        self.tracer.instant(
            Layer::Ucr,
            "ep_failed",
            self.node,
            Track::Endpoint(ep.id),
            ep.id,
            0,
            self.sim.now(),
        );
        self.tracer.fault(&format!(
            "endpoint {} on {} to {} failed ({why})",
            ep.id, self.node, ep.peer
        ));
    }

    pub(crate) fn send_fin(
        self: &Rc<Self>,
        ep: &Endpoint,
        origin_ctr: u64,
        completion_ctr: u64,
        token: u64,
    ) {
        let mut pkt = PacketHeader::new(PacketKind::Fin, 0);
        pkt.origin_ctr = origin_ctr;
        pkt.completion_ctr = completion_ctr;
        pkt.token = token;
        ep.inner.flush_held(self);
        let wr_id = self.next_wr_id();
        let fin = self.stage(&pkt, &[], &[]);
        let ctrl = Pending::CtrlSend {
            ep: Rc::downgrade(&ep.inner),
        };
        let _ = self.post_packets(&ep.inner, wr_id, fin, ctrl);
        self.stats.fins_sent.inc();
    }
}

#[cfg(test)]
mod tests {
    use simnet::Cluster;
    use verbs::IbFabric;

    use super::*;
    use crate::endpoint::SendOptions;
    use crate::handler::FnHandler;

    const PORT: u16 = 11211;
    const MSG: u16 = 1;
    const TIMEOUT: SimDuration = SimDuration::from_millis(100);

    type Linked = (
        Rc<Cluster>,
        UcrRuntime,
        UcrRuntime,
        Vec<(Endpoint, Endpoint)>,
    );

    /// Two runtimes on cluster B with a handler for `MSG` that does nothing,
    /// and `n` connections between them: the world, the accepting runtime
    /// (node 1), the connecting one (node 0) and, per connection, its
    /// endpoint and the accepted endpoint.
    fn linked(seed: u64, n: usize) -> Linked {
        linked_on(Cluster::cluster_b(seed, 2), n)
    }

    /// [`linked`] in a world of two nodes built by the caller.
    fn linked_on(cluster: Cluster, n: usize) -> Linked {
        let cluster = Rc::new(cluster);
        let fabric = IbFabric::new(cluster.clone());
        let server = UcrRuntime::new(&fabric, NodeId(1));
        let client = UcrRuntime::new(&fabric, NodeId(0));
        for rt in [&server, &client] {
            rt.register_handler(MSG, FnHandler(|_: &Endpoint, _: &[u8], _: AmData| {}));
        }
        let listener = Rc::new(server.listen(PORT).expect("port free"));
        let connecting = client.clone();
        let pairs = cluster.sim().block_on(async move {
            let mut pairs = Vec::new();
            for _ in 0..n {
                let listener = listener.clone();
                let accepted = connecting
                    .sim()
                    .spawn(async move { listener.accept().await });
                let ep = connecting.connect(NodeId(1), PORT, TIMEOUT).await;
                pairs.push((ep.expect("up"), accepted.await.expect("accepted")));
            }
            pairs
        });
        (cluster, server, client, pairs)
    }

    /// Send options whose completion counter is `done`.
    fn completing(done: &Counter) -> SendOptions {
        let completion = Some(done.clone());
        SendOptions {
            completion,
            ..Default::default()
        }
    }

    /// [`linked`] by one connection.
    fn connected(seed: u64) -> (Rc<Cluster>, UcrRuntime, UcrRuntime, Endpoint, Endpoint) {
        let (cluster, server, client, mut pairs) = linked(seed, 1);
        let (ep, peer) = pairs.remove(0);
        (cluster, server, client, ep, peer)
    }

    /// What a send can leave behind at its sender: work requests awaiting a
    /// completion, sources `ep` has advertised and regions registered, idle
    /// send buffers aside (a send buffer in flight counts here) — and, in a
    /// column of its own, what the pools keep idle: send buffers, and
    /// rendezvous buffers (registered only while in use).
    fn send_tables(rt: &UcrRuntime, ep: &Endpoint) -> ((usize, usize, usize), (usize, usize)) {
        let idle = rt.idle_send_buffers();
        let regions = rt.inner.hca.registered_regions() - idle;
        let pending = rt.inner.pending.borrow().len();
        let idle_rndv = rt.inner.rndv.len();
        (
            (pending, ep.inner.sources.borrow().len(), regions),
            (idle, idle_rndv),
        )
    }

    /// A header handler that drops a message's data hands its completion
    /// handler `Discarded`, eager or rendezvous, and the runtime takes back
    /// what it landed: the discard half of `tests/ucr.rs`'s
    /// `header_handler_can_place_into_registered_buffer`.
    #[test]
    fn bytes_a_buffer_refuses_are_handed_over_as_discarded() {
        crate::header_choice::discard_delivers_nothing();
    }

    /// A send whose post the queue pair refuses is withdrawn whole: no
    /// pending entry, advertised source or registration outlives it, and
    /// its send buffer and rendezvous bytes go back to their pools, not
    /// away.
    #[test]
    fn refused_posts_leave_nothing_behind() {
        const N: usize = 8;
        let (cluster, server, client, ep, _peer) = connected(21);
        cluster.sim().block_on(async move {
            let tables = || send_tables(&client, &ep);
            // One round trip each way and one put first, so the baseline is
            // a settled runtime and not an empty one.
            let done = client.counter();
            let large = vec![7u8; 2 * client.eager_threshold()];
            ep.send_message(MSG, b"h", b"small", completing(&done))
                .await
                .expect("eager");
            ep.send_message(MSG, b"h", &large, completing(&done))
                .await
                .expect("rendezvous");
            let target = server.register_memory(64);
            ep.put(target.descriptor(0, 64), &[1; 64], Some(done.clone()))
                .expect("put");
            done.wait_for(3, TIMEOUT)
                .await
                .expect("both Fins and the put");
            let baseline = tables();

            // The queue pair leaves ready-to-send under a live endpoint: the
            // window between an error completion and `fail_ep`.
            ep.inner.qp.close();
            let window = client.register_memory(64);
            let remote = window.descriptor(0, 64);
            let refused = Err(UcrError::EndpointFailed);
            for _ in 0..N {
                let eager = ep.send_message(MSG, b"h", b"small", completing(&done));
                assert_eq!(eager.await, refused);
                let rndv = ep.send_message(MSG, b"h", &large, completing(&done));
                assert_eq!(rndv.await, refused);
                client.inner.send_fin(&ep, 0, done.id(), 0);
                assert_eq!(ep.put(remote, &[1; 64], None), refused);
                assert_eq!(ep.get(&window, 0, remote, None), refused);
            }
            drop(window);
            assert_eq!(tables(), baseline);
        });
    }

    /// A source whose Fin will never come goes with the endpoint that
    /// advertised it: when the endpoint fails, or — where the request was
    /// delivered, so that nothing else reports a failure — when the probe
    /// its close sends fails. Its bytes go back to the rendezvous pool.
    #[test]
    fn an_advertised_source_goes_with_its_endpoint() {
        /// The peer's process exits when the first rendezvous request
        /// reaches its header handler: delivered, never read.
        struct ExitOnHeader(Weak<RtInner>);
        impl AmHandler for ExitOnHeader {
            fn on_header(&self, _: &Endpoint, _: &[u8], _: usize) -> AmDest {
                if let Some(rt) = self.0.upgrade() {
                    UcrRuntime { inner: rt }.shutdown();
                }
                AmDest::Discard
            }
            fn on_complete(&self, _: &Endpoint, _: &[u8], _: AmData) {}
        }
        /// Advertises `sends` sources to a peer that exits on the first
        /// header (`delivered`) or before any request arrives, runs the
        /// world dry, and checks what the sender still pins.
        fn run(sends: usize, delivered: bool) {
            let (cluster, server, client, ep, _peer) = connected(34);
            server.register_handler(MSG, ExitOnHeader(Rc::downgrade(&server.inner)));
            cluster.sim().block_on(async move {
                let tables = || send_tables(&client, &ep);
                let baseline = tables();
                let large = vec![7u8; 2 * client.eager_threshold()];
                for _ in 0..sends {
                    ep.send_message(MSG, b"h", &large, SendOptions::default())
                        .await
                        .expect("advertised");
                }
                assert_eq!(tables().0 .1, baseline.0 .1 + sends);
                if !delivered {
                    server.shutdown();
                }
                // Well past the RC retry budget.
                client.sim().sleep(SimDuration::from_millis(5)).await;
                assert_eq!(ep.is_failed(), !delivered);
                if delivered {
                    // The sender cannot know the read will never come: its
                    // close waits for a Fin until the probe fails.
                    assert_eq!(tables().0 .1, baseline.0 .1 + sends);
                    ep.close();
                    assert_eq!(tables().0 .1, baseline.0 .1 + sends);
                    client.sim().sleep(SimDuration::from_millis(5)).await;
                }
                assert_eq!(tables().0, baseline.0);
                assert_eq!(tables().1 .1, baseline.1 .1 + sends);
            });
        }
        run(1, true);
        run(8, false);
    }

    /// What `post_message` staged or queued and then could not post counts
    /// one `send_failures` per message — on the record path (eager) and
    /// the sender's queue (rendezvous) alike — and leaves no record,
    /// pending entry, advertised source or registration behind.
    #[test]
    fn a_reply_that_cannot_be_posted_counts_once_and_leaves_nothing_behind() {
        const N: u64 = 8;
        /// Posts `N` replies of `len` bytes from the accepting side, breaks
        /// the connection with `fault` before any of them is past its
        /// staging delay, runs the world dry, and returns the accepting
        /// runtime's `send_failures`.
        fn failures_after(len: usize, fault: impl FnOnce(&UcrRuntime, &Endpoint) + 'static) -> u64 {
            let (cluster, server, client, ep, peer) = connected(33);
            let srv = server.clone();
            cluster.sim().block_on(async move {
                // One message in first, so the baseline is a settled
                // receive pool and not a fresh one.
                let done = client.counter();
                ep.send_message(MSG, b"h", b"warm", completing(&done))
                    .await
                    .expect("eager");
                done.wait_for(1, TIMEOUT).await.expect("its Fin");
                let settle = SimDuration::from_millis(5);
                srv.sim().sleep(settle).await;
                let tables = || (peer.inner.staged.borrow().len(), send_tables(&srv, &peer).0);
                let baseline = tables();
                assert_eq!(baseline.0, 0);
                for _ in 0..N {
                    peer.post_message(MSG, [7u8; 32], vec![9u8; len], SendOptions::default());
                }
                let eager = len <= srv.eager_threshold();
                assert_eq!(tables().0, if eager { N as usize } else { 0 });
                fault(&client, &peer);
                // Well past the staging delay and the RC retry budget.
                srv.sim().sleep(settle).await;
                assert_eq!(tables(), baseline);
            });
            server.stats().send_failures.get()
        }

        const SMALL: usize = 4;
        const LARGE: usize = 2 * UCR_EAGER_THRESHOLD;
        // Nothing breaks: nothing counts.
        assert_eq!(failures_after(SMALL, |_, _| {}), 0);
        assert_eq!(failures_after(LARGE, |_, _| {}), 0);
        // The peer's process exits: the replies are posted, and each comes
        // back as an error completion.
        assert_eq!(failures_after(SMALL, |client, _| client.shutdown()), N);
        assert_eq!(failures_after(LARGE, |client, _| client.shutdown()), N);
        // The queue pair leaves ready-to-send between the worker's send and
        // the post: each reply is refused.
        assert_eq!(failures_after(SMALL, |_, peer| peer.inner.qp.close()), N);
        assert_eq!(failures_after(LARGE, |_, peer| peer.inner.qp.close()), N);
    }
    /// A rendezvous reply queued for the sender and not yet advertised when
    /// its endpoint fails, or its runtime shuts down, counts one
    /// `send_failures`, and its source bytes and header buffer go back to
    /// their pools. The replies echo a rendezvous's landed payload, whose
    /// [`AmBytes`] the handler drops: at quiesce every rendezvous buffer the
    /// target drew — the landing region and each reply's source — is idle
    /// in its pool, and so is every header buffer.
    #[test]
    fn a_queued_rendezvous_reply_that_cannot_go_counts_once_and_gives_its_buffers_back() {
        const N: usize = 4;
        const LEN: usize = 64 << 10;
        /// Echoes the payload `N` times, then breaks the endpoint or the
        /// whole runtime before the sender has polled once.
        struct EchoThenFail {
            rt: Weak<RtInner>,
            shutdown: bool,
        }
        impl AmHandler for EchoThenFail {
            fn on_complete(&self, ep: &Endpoint, hdr: &[u8], data: AmData) {
                let AmData::Pool(bytes) = data else {
                    panic!("a pool payload");
                };
                for _ in 0..N {
                    ep.post_message(MSG, hdr, &bytes[..], SendOptions::default());
                }
                let rt = self.rt.upgrade().expect("live");
                assert_eq!(rt.rndv_sends.borrow().len(), N, "queued, not sent");
                if self.shutdown {
                    UcrRuntime { inner: rt }.shutdown();
                } else {
                    rt.end_ep(&ep.inner, "test fault");
                }
            }
        }
        for shutdown in [false, true] {
            let (cluster, server, client, ep, _peer) = connected(41);
            let rt = Rc::downgrade(&server.inner);
            server.register_handler(MSG, EchoThenFail { rt, shutdown });
            let sending = client.clone();
            cluster.sim().block_on(async move {
                let data = vec![3u8; LEN];
                let sent = ep.send_message(MSG, b"h", &data, SendOptions::default());
                sent.await.expect("advertised");
                sending.sim().sleep(SimDuration::from_millis(5)).await;
            });
            let rt = &server.inner;
            assert_eq!(server.stats().send_failures.get(), N as u64, "{shutdown}");
            assert_eq!(server.stats().messages_sent.get(), 0, "{shutdown}");
            assert!(rt.rndv_sends.borrow().is_empty());
            assert_eq!(drawn(&server), (0, N as u64 + 1), "{shutdown}");
            assert_eq!(rt.rndv.len(), N + 1, "{shutdown}");
            assert_eq!(rt.rndv.idle_bytes.get(), (N + 1) * LEN, "{shutdown}");
            assert_eq!(rt.rndv_hdr_free.len(), N + 1, "{shutdown}");
        }
    }

    /// The send pool grows to what is in flight and keeps no more than its
    /// cap: twice the cap of replies in flight at once takes a buffer each;
    /// at quiesce exactly the cap is idle, the surplus is deregistered and
    /// no buffer is in flight.
    #[test]
    fn the_send_pool_keeps_its_cap_and_deregisters_the_surplus() {
        const N: usize = 2 * SEND_POOL_CAP;
        let (cluster, server, _client, _ep, peer) = connected(35);
        let srv = server.clone();
        cluster.sim().block_on(async move {
            let tables = || send_tables(&srv, &peer);
            let (baseline, idle) = tables();
            assert_eq!(idle, (0, 0), "nothing sent yet");
            let in_flight = (baseline.0 + N, baseline.1, baseline.2 + N);
            for _ in 0..N {
                peer.post_message(MSG, [7u8; 32], vec![9u8; 4], SendOptions::default());
            }
            let staged = srv.inner.stage_cost(4) + SimDuration::from_nanos(1);
            srv.sim().sleep(staged).await;
            assert_eq!(
                tables(),
                (in_flight, (0, 0)),
                "every reply posted on its own"
            );
            srv.sim().sleep(SimDuration::from_millis(5)).await;
            assert_eq!(tables(), (baseline, (SEND_POOL_CAP, 0)));
        });
        let st = server.stats();
        assert_eq!(st.send_failures.get(), 0);
        assert_eq!(st.eager_wrs_posted.get(), N as u64);
    }

    /// The counter table follows the live counters. Behind 3 held ones,
    /// or 8 in flight at a time, 5 000 counters made and dropped never
    /// take it past room for twice the most counters live at once (a
    /// first table has room for four), nor its entries and the idle boxes
    /// together past that bound; and a held counter is still bumped by a
    /// remote active message after the sweeps.
    #[test]
    fn the_counter_table_holds_at_most_twice_the_live_counters() {
        for (held, in_flight) in [(3, 1), (0, 8)] {
            let (cluster, _server, client, mut pairs) = linked(36, 1);
            let (_ep, peer) = pairs.remove(0);
            let held: Vec<Counter> = (0..held).map(|_| client.counter()).collect();
            let most_live = held.len() + in_flight;
            let bound = (2 * most_live).max(4);
            let mut window = std::collections::VecDeque::new();
            for _ in 0..5_000 {
                if window.len() == in_flight {
                    window.pop_front();
                }
                window.push_back(client.counter());
                let table = client.inner.counters.borrow();
                let idle = client.inner.idle_ctrs.borrow().len();
                assert!(
                    table.capacity() <= bound && table.len() + idle <= bound,
                    "{} held, {in_flight} in flight: capacity {}, {} entries and {idle} idle, past {bound}",
                    held.len(),
                    table.capacity(),
                    table.len(),
                );
            }
            let watched = held.first().or(window.back()).cloned();
            let watched = watched.expect("a counter is live");
            let opts = SendOptions {
                target_ctr: watched.id(),
                ..Default::default()
            };
            cluster.sim().block_on(async move {
                peer.send_message(MSG, b"h", b"bump", opts)
                    .await
                    .expect("eager");
                watched.wait_for(1, TIMEOUT).await.expect("bumped");
            });
            let table = client.inner.counters.borrow();
            let kept = |c: &Counter| table.binary_search_by_key(&c.id(), |t| t.id).is_ok();
            assert!(held.iter().all(kept));
        }
    }

    /// A dropped counter's box is reused, from 0, never its id. A remote
    /// bump naming the dropped counter's id changes no counter and is not
    /// traced as a `counter_bump`: while its released entry is still in the
    /// table, and again once its box counts for a counter with a fresh id.
    /// A live counter's remote bump still lands.
    #[test]
    fn a_bump_for_a_dropped_counter_reaches_no_counter_before_or_after_reuse() {
        let (cluster, _server, client, _ep, peer) = connected(38);
        let recorder = simnet::EventRecorder::new();
        cluster.tracer().add_sink(recorder.clone());
        let bumps = || {
            let on_client =
                |e: &simnet::Event| e.name == "counter_bump" && e.node == Some(client.node());
            recorder
                .events()
                .into_iter()
                .filter(on_client)
                .map(|e| e.op)
                .collect::<Vec<_>>()
        };
        let bump = |id: u64| {
            let peer = peer.clone();
            let sim = cluster.sim().clone();
            cluster.sim().block_on(async move {
                let opts = SendOptions {
                    target_ctr: id,
                    ..Default::default()
                };
                peer.send_message(MSG, b"h", b"bump", opts)
                    .await
                    .expect("eager");
                sim.sleep(SimDuration::from_millis(1)).await;
            });
        };
        let live = client.counter();
        let dropped = client.counter();
        let (dead_id, dead_box) = (dropped.id(), Rc::as_ptr(&dropped.inner));
        drop(client.counter());
        bump(dead_id);
        assert_eq!(
            (dropped.value(), bumps()),
            (1, vec![dead_id]),
            "bumped while held"
        );
        recorder.take();
        drop(dropped);

        bump(dead_id);
        assert_eq!((live.value(), bumps()), (0, vec![]), "released, not reused");

        // The fourth counter fills the first table (room for four); the
        // fifth sweeps the two released boxes to the idle list and takes the
        // later one; the sixth takes the dropped counter's.
        let mut made = vec![client.counter(), client.counter()];
        assert_eq!(client.inner.idle_ctrs.borrow().len(), 1, "a box waits");
        made.push(client.counter());
        let fresh = &made[2];
        assert_eq!(Rc::as_ptr(&fresh.inner), dead_box, "the box is reused");
        assert_eq!(fresh.value(), 0, "from 0");
        assert!(fresh.id() > dead_id);
        bump(dead_id);
        assert!(made.iter().chain([&live]).all(|c| c.value() == 0));
        assert_eq!(bumps(), vec![], "reused under a fresh id");

        bump(live.id());
        assert_eq!((live.value(), bumps()), (1, vec![live.id()]));
        assert!(made.iter().all(|c| c.value() == 0));
    }

    /// The receive pool grows to its traffic and keeps its cap. One round
    /// trip registers two receive buffers at each end: the one the message
    /// landed in and the one its reap posted. Then, while the target's
    /// progress task dispatches one message, twice the cap of eager
    /// messages land, each in a work request of its own: the cap's worth
    /// hold a buffer each, landed and unreaped, and the rest park. Every one
    /// is handled, in send order, and at quiesce the free list is within
    /// the cap.
    #[test]
    fn the_receive_pool_grows_to_its_traffic_and_keeps_its_cap() {
        const N: usize = 2 * RECV_POOL_DEPTH;
        // Past half a network buffer, so no two share a work request.
        const LEN: usize = NET_BUF_BYTES / 2;
        let mut profile = ClusterProfile::cluster_b();
        // Long enough for the whole burst to land during one dispatch.
        let dispatch = SimDuration::from_millis(10);
        profile.host.am_dispatch = dispatch;
        let world = Cluster::new(Sim::new(40), profile, 2);
        let (cluster, server, client, mut pairs) = linked_on(world, 1);
        let (ep, _peer) = pairs.remove(0);
        let seen: Rc<RefCell<Vec<u32>>> = Rc::default();
        let (seen2, watched) = (seen.clone(), seen.clone());
        server.register_handler(
            MSG,
            FnHandler(move |_: &Endpoint, hdr: &[u8], _: AmData| {
                if let Ok(i) = hdr.try_into() {
                    seen2.borrow_mut().push(u32::from_le_bytes(i));
                }
            }),
        );
        let srv = server.clone();
        cluster.sim().block_on(async move {
            let done = client.counter();
            ep.send_message(MSG, b"h", b"warm", completing(&done))
                .await
                .expect("eager");
            done.wait_for(1, TIMEOUT).await.expect("its Fin");
            assert_eq!((client.recv_buffers(), srv.recv_buffers()), (2, 2));

            let wrs = client.stats().eager_wrs_posted.get();
            let data = vec![7u8; LEN];
            // The first message occupies the target's progress task.
            let first = ep.send_message(MSG, b"h", &data, SendOptions::default());
            first.await.expect("eager");
            for i in 0..N as u32 {
                let hdr = i.to_le_bytes();
                let sent = ep.send_message(MSG, &hdr, &data, SendOptions::default());
                sent.await.expect("eager");
            }
            client.sim().sleep(dispatch / 2).await;
            let rt = &srv.inner;
            assert!(watched.borrow().is_empty(), "still dispatching the first");
            assert_eq!(rt.recv_bufs.borrow().len(), RECV_POOL_DEPTH);
            assert_eq!(rt.srq.available(), 0);
            assert_eq!(rt.cqs[0].backlog(), RECV_POOL_DEPTH, "the rest parked");

            client.sim().sleep(dispatch * (N as u64 + 2)).await;
            let wrs = client.stats().eager_wrs_posted.get() - wrs;
            assert_eq!(wrs, N as u64 + 1, "one work request per message");
            assert!(rt.recv_free.len() <= RECV_POOL_DEPTH);
            assert!(srv.recv_buffers() <= 2 * RECV_POOL_DEPTH);
        });
        let seen = seen.borrow();
        assert!(seen.iter().copied().eq(0..N as u32), "in send order");
        assert_eq!(server.stats().eager_delivered.get(), N as u64 + 2);
    }

    /// Bytes drawn from the rendezvous pool and freshly allocated, so far.
    fn drawn(rt: &UcrRuntime) -> (u64, u64) {
        (
            rt.stats().mr_cache_hits.get(),
            rt.stats().mr_cache_misses.get(),
        )
    }

    /// The rendezvous pool grows to what is in flight and keeps no more
    /// than its byte cap: twice the cap's worth of 64 KB sources in flight
    /// at once takes a fresh buffer each; at quiesce exactly the cap is idle
    /// at the sender, no more than it at the target, the surplus is freed
    /// and no rendezvous buffer is in flight. The next round draws the
    /// cap's worth from the pool.
    #[test]
    fn the_rendezvous_pool_keeps_its_byte_cap_and_frees_the_surplus() {
        const LEN: usize = 64 << 10;
        const KEPT: usize = RNDV_POOL_BYTES / LEN;
        const N: usize = 2 * KEPT;
        let (cluster, server, client, ep, _peer) = connected(37);
        cluster.sim().block_on(async move {
            let tables = || send_tables(&client, &ep);
            // One round trip first, so the receive pool is settled.
            let done = client.counter();
            ep.send_message(MSG, b"h", b"warm", completing(&done))
                .await
                .expect("eager");
            done.wait_for(1, TIMEOUT).await.expect("its Fin");
            let (baseline, _) = tables();
            let data = vec![7u8; LEN];
            for round in 1..=2 {
                for _ in 0..N {
                    let sent = ep.send_message(MSG, b"h", &data, SendOptions::default());
                    sent.await.expect("advertised");
                }
                assert_eq!(tables().0 .1, N, "every source in flight at once");
                client.sim().sleep(SimDuration::from_millis(5)).await;
                assert_eq!(tables().0, baseline, "none in flight at quiesce");
                assert_eq!(tables().1 .1, KEPT);
                assert_eq!(client.inner.rndv.idle_bytes.get(), RNDV_POOL_BYTES);
                let reused = (round - 1) * KEPT;
                assert_eq!(drawn(&client), (reused as u64, (round * N - reused) as u64));
                // The target drew a landing region per read; each came back
                // when its handler dropped it, and the pool kept what fits.
                let (hits, misses) = drawn(&server);
                assert_eq!(hits + misses, (round * N) as u64);
                let idle = server.inner.rndv.len();
                assert_eq!(idle, KEPT.min(misses as usize));
            }
        });
    }

    /// An eager payload a handler takes from the pool is copied into a
    /// buffer from the runtime's eager pool. One the handler drops goes back
    /// and carries the next payload it fits; one it keeps leaves the pool; a
    /// payload no idle buffer fits (by `take_fitting`: at least its length,
    /// under twice it) takes a fresh buffer of exactly its length, and an
    /// empty one takes none. None of them is
    /// a rendezvous buffer, so `mr_cache_*` count none.
    #[test]
    fn an_eager_payload_rides_in_a_buffer_from_the_eager_pool() {
        let (cluster, server, client, ep, _peer) = connected(44);
        // Each payload's address and length.
        type Seen = RefCell<Vec<(*const u8, usize)>>;
        let seen: Rc<Seen> = Rc::default();
        let kept: Rc<RefCell<Vec<Vec<u8>>>> = Rc::default();
        let (seen2, kept2) = (seen.clone(), kept.clone());
        server.register_handler(
            MSG,
            FnHandler(move |_: &Endpoint, hdr: &[u8], data: AmData| {
                if let AmData::Pool(bytes) = &data {
                    seen2.borrow_mut().push((bytes.as_ptr(), bytes.len()));
                }
                if hdr == b"keep" {
                    kept2.borrow_mut().extend(data.into_vec());
                }
            }),
        );
        let sending = client.clone();
        cluster.sim().block_on(async move {
            for (hdr, len) in [("drop", 64), ("drop", 64), ("keep", 64), ("drop", 64)] {
                let done = sending.counter();
                let data = vec![1u8; len];
                ep.send_message(MSG, hdr.as_bytes(), &data, completing(&done))
                    .await
                    .expect("eager");
                done.wait_for(1, TIMEOUT).await.expect("handled");
            }
            for len in [0, 16] {
                let done = sending.counter();
                let data = vec![2u8; len];
                ep.send_message(MSG, b"drop", &data, completing(&done))
                    .await
                    .expect("eager");
                done.wait_for(1, TIMEOUT).await.expect("handled");
            }
        });
        let seen = seen.borrow();
        let lens: Vec<usize> = seen.iter().map(|s| s.1).collect();
        assert_eq!(lens, [64, 64, 64, 64, 0, 16]);
        assert_eq!(seen[1].0, seen[0].0, "a dropped payload's buffer is reused");
        assert_eq!(seen[2].0, seen[0].0, "and then kept");
        assert_eq!(kept.borrow()[0].as_ptr(), seen[0].0);
        assert_ne!(seen[3].0, seen[0].0, "a kept buffer has left the pool");
        let idle = server.inner.eager_free.idle();
        let idle: Vec<_> = idle.iter().map(|b| (b.as_ptr(), b.capacity())).collect();
        assert_eq!(
            idle,
            [(seen[3].0, 64), (seen[5].0, 16)],
            "the empty one took none"
        );
        assert_eq!(drawn(&server), (0, 0));
    }

    /// A payload its handler lends on — kept past the handler, as a
    /// memcached client keeps a reply for its caller — goes back to its
    /// pool when its last holder drops it: a rendezvous payload dropped
    /// after its handler returned is the buffer the next rendezvous lands
    /// in. A thousand payloads of each kind held at once and then dropped
    /// leave the eager pool at its cap and the rendezvous pool within
    /// [`RNDV_POOL_BYTES`].
    #[test]
    fn a_payload_lent_on_goes_back_to_its_pool_when_dropped() {
        const HELD: usize = 1000;
        let (cluster, server, client, ep, _peer) = connected(45);
        let held: Rc<RefCell<Vec<AmBytes>>> = Rc::default();
        let held2 = held.clone();
        server.register_handler(
            MSG,
            FnHandler(move |_: &Endpoint, _: &[u8], data: AmData| {
                if let AmData::Pool(bytes) = data {
                    held2.borrow_mut().push(bytes);
                }
            }),
        );
        // Sends `n` messages of `len` bytes, one at a time.
        let send = |len: usize, n: usize| {
            let (client, ep) = (client.clone(), ep.clone());
            cluster.sim().block_on(async move {
                let data = vec![3u8; len];
                for _ in 0..n {
                    let done = client.counter();
                    ep.send_message(MSG, b"", &data, completing(&done))
                        .await
                        .expect("sent");
                    done.wait_for(1, TIMEOUT).await.expect("handled");
                }
            })
        };
        let first_landing = || held.borrow().first().map(|b| b.as_ptr());
        send(16 << 10, 1);
        let at = first_landing();
        held.borrow_mut().clear();
        send(16 << 10, 1);
        assert_eq!(
            first_landing(),
            at,
            "landed in the dropped payload's buffer"
        );
        held.borrow_mut().clear();

        send(64, HELD);
        send(9 << 10, HELD);
        assert_eq!(held.borrow().len(), 2 * HELD);
        assert!(server.inner.eager_free.is_empty() && server.inner.rndv.len() == 0);
        held.borrow_mut().clear();
        assert_eq!(server.inner.eager_free.len(), EAGER_POOL_CAP);
        let idle = server.inner.rndv.idle_bytes.get();
        assert!(idle <= RNDV_POOL_BYTES && idle > RNDV_POOL_BYTES - (10 << 10));
    }

    /// A rendezvous's application header is held in a buffer from the
    /// target's list until its read completes: one rendezvous after another
    /// reuses the one buffer. The cap itself is the list's
    /// [`FreeList`]'s.
    #[test]
    fn the_rendezvous_header_list_reuses_its_buffers_and_keeps_its_cap() {
        let (cluster, server, client, ep, _peer) = connected(39);
        let idle = || {
            let free = server.inner.rndv_hdr_free.idle();
            free.iter().map(|h| h.as_ptr()).collect::<Vec<_>>()
        };
        let mut first = None;
        for _ in 0..3 {
            let (client, ep) = (client.clone(), ep.clone());
            cluster.sim().block_on(async move {
                let done = client.counter();
                let data = vec![7u8; 16 << 10];
                ep.send_message(MSG, b"header", &data, completing(&done))
                    .await
                    .expect("advertised");
                done.wait_for(1, TIMEOUT).await.expect("handled");
            });
            let held = idle();
            assert_eq!(held.len(), 1);
            assert_eq!(*first.get_or_insert(held[0]), held[0], "reused");
        }
    }

    /// Only a region's bytes are reused, and only for a message they fit:
    /// a 16 KB rendezvous after a 64 KB one is too small for its buffer and
    /// takes a fresh one, a 48 KB one reuses it. Each hands its handler
    /// exactly its own bytes.
    #[test]
    fn a_rendezvous_lands_exactly_its_length_whatever_buffer_it_reuses() {
        let (cluster, server, client, ep, _peer) = connected(38);
        // What each handler saw: its length and the byte it is filled with;
        // the 16 KB payload is kept, the others go back to the pool.
        type Seen = RefCell<Vec<(usize, Option<u8>)>>;
        let seen: Rc<Seen> = Rc::default();
        let kept: Rc<RefCell<Vec<Vec<u8>>>> = Rc::default();
        let (seen2, kept2) = (seen.clone(), kept.clone());
        server.register_handler(
            MSG,
            FnHandler(move |_: &Endpoint, hdr: &[u8], data: AmData| {
                if let AmData::Pool(bytes) = &data {
                    let fill = bytes.iter().all(|&b| b == bytes[0]).then_some(bytes[0]);
                    seen2.borrow_mut().push((bytes.len(), fill));
                }
                if hdr == b"keep" {
                    kept2.borrow_mut().extend(data.into_vec());
                }
            }),
        );
        let sending = client.clone();
        cluster.sim().block_on(async move {
            for (len, fill, hdr) in [(64, 1, "drop"), (16, 2, "keep"), (48, 3, "drop")] {
                let done = sending.counter();
                let data = vec![fill; len << 10];
                ep.send_message(MSG, hdr.as_bytes(), &data, completing(&done))
                    .await
                    .expect("advertised");
                done.wait_for(1, TIMEOUT).await.expect("read and handled");
            }
        });
        let seen = seen.borrow().clone();
        assert_eq!(
            seen,
            [(65_536, Some(1)), (16_384, Some(2)), (49_152, Some(3))]
        );
        assert_eq!(kept.borrow()[0].len(), 16_384);
        // One reuse at each end: the 48 KB source and landing region.
        assert_eq!(drawn(&client), (1, 2));
        assert_eq!(drawn(&server), (1, 2));
    }

    /// A source released by its endpoint's failure while the peer's READ
    /// of it is still outstanding gives its bytes to the next rendezvous,
    /// registered under a fresh rkey: the stale READ completes in error,
    /// ending the reader's endpoint, and the only payload the peer's
    /// handler sees is the next message's, read through its own rkey.
    #[test]
    fn a_source_released_under_a_read_never_lands_the_next_message() {
        const LEN: usize = 64 << 10;
        /// Fails `source` when the first message's header arrives — just
        /// before the target posts its READ — and advertises the next
        /// message on `next`, from the same bytes.
        struct FailOnHeader {
            source: Endpoint,
            next: Endpoint,
            landed: Rc<RefCell<Vec<Vec<u8>>>>,
        }
        impl AmHandler for FailOnHeader {
            fn on_header(&self, _: &Endpoint, hdr: &[u8], _: usize) -> AmDest {
                if hdr == b"first" {
                    let rt = self.source.inner.rt.upgrade().expect("live");
                    rt.end_ep(&self.source.inner, "failed under a read");
                    let next = self.next.clone();
                    rt.sim.spawn(async move {
                        let data = vec![2; LEN];
                        let sent = next.send_message(MSG, b"next", &data, Default::default());
                        sent.await.expect("advertised");
                    });
                }
                AmDest::Pool
            }
            fn on_complete(&self, _: &Endpoint, _: &[u8], data: AmData) {
                self.landed.borrow_mut().extend(data.into_vec());
            }
        }
        let (cluster, server, client, mut pairs) = linked(39, 2);
        let (first, first_peer) = pairs.remove(0);
        let (second, _) = pairs.remove(0);
        let landed: Rc<RefCell<Vec<Vec<u8>>>> = Rc::default();
        server.register_handler(
            MSG,
            FailOnHeader {
                source: first.clone(),
                next: second,
                landed: landed.clone(),
            },
        );
        let sending = client.clone();
        cluster.sim().block_on(async move {
            let data = vec![1; LEN];
            let sent = first.send_message(MSG, b"first", &data, Default::default());
            sent.await.expect("advertised");
            sending.sim().sleep(SimDuration::from_millis(5)).await;
        });
        assert_eq!(drawn(&client), (1, 1), "the next source reused the bytes");
        assert!(first_peer.is_failed(), "the stale READ failed");
        assert_eq!(server.stats().send_failures.get(), 1);
        let landed = landed.borrow();
        assert_eq!(landed.len(), 1, "only the next message landed");
        assert!(landed[0] == vec![2; LEN]);
        assert_eq!(server.stats().rndv_delivered.get(), 1);
    }

    /// A rendezvous whose READ the target's queue pair refuses — its header
    /// handler closed it — ends the endpoint and counts one
    /// `send_failures`, and its landing bytes and header buffer go back to
    /// their pools.
    #[test]
    fn a_refused_rendezvous_read_ends_its_endpoint_and_gives_its_buffers_back() {
        struct CloseOnHeader;
        impl AmHandler for CloseOnHeader {
            fn on_header(&self, ep: &Endpoint, _: &[u8], _: usize) -> AmDest {
                ep.inner.qp.close();
                AmDest::Pool
            }
            fn on_complete(&self, _: &Endpoint, _: &[u8], _: AmData) {
                panic!("a refused read lands nothing");
            }
        }
        let (cluster, server, client, ep, _peer) = connected(43);
        server.register_handler(MSG, CloseOnHeader);
        cluster.sim().block_on(async move {
            let data = vec![4u8; 64 << 10];
            let sent = ep.send_message(MSG, b"h", &data, SendOptions::default());
            sent.await.expect("advertised");
            client.sim().sleep(SimDuration::from_millis(5)).await;
        });
        let rt = &server.inner;
        assert_eq!(server.endpoints(), 0);
        assert_eq!(server.stats().send_failures.get(), 1);
        assert!(rt.pending.borrow().is_empty());
        let idle = (rt.rndv.len(), rt.rndv_hdr_free.len());
        assert_eq!(idle, (1, 1), "landing bytes and header buffer");
    }

    /// A `RndvReq` advertising more than [`MAX_RNDV_BYTES`] — `u64::MAX`, or
    /// one byte more — is a protocol violation: the target drops it, ends
    /// the endpoint that sent it and allocates nothing for it, and keeps
    /// serving its other endpoints (§IV).
    #[test]
    fn a_rendezvous_past_the_limit_ends_its_endpoint_and_nothing_else() {
        for data_len in [u64::MAX, MAX_RNDV_BYTES as u64 + 1] {
            let (cluster, server, client, mut pairs) = linked(36, 2);
            let (hostile, hostile_peer) = pairs.remove(0);
            let (other, _) = pairs.remove(0);
            cluster.sim().block_on(async move {
                let done = client.counter();
                // One message first, so the target's receive pool is settled.
                other
                    .send_message(MSG, b"h", b"warm", completing(&done))
                    .await
                    .expect("eager");
                done.wait_for(1, TIMEOUT).await.expect("its Fin");
                let settle = SimDuration::from_millis(1);
                client.sim().sleep(settle).await;
                let stats = server.stats();
                let (regions, dropped) = (
                    server.inner.hca.registered_regions(),
                    stats.unknown_msg_dropped.get(),
                );

                // Written and posted as a sender writes a well-formed one.
                let mut pkt = PacketHeader::new(PacketKind::RndvReq, MSG);
                (pkt.hdr_len, pkt.data_len) = (1, data_len);
                let rt = &client.inner;
                let ctrl = Pending::CtrlSend {
                    ep: Rc::downgrade(&hostile.inner),
                };
                let req = rt.stage(&pkt, b"h", &[]);
                rt.post_packets(&hostile.inner, rt.next_wr_id(), req, ctrl)
                    .expect("posted");
                client.sim().sleep(settle).await;
                assert!(hostile_peer.is_failed());
                assert_eq!(server.endpoints(), 1);
                assert_eq!(stats.unknown_msg_dropped.get(), dropped + 1);
                assert_eq!(drawn(&server), (0, 0), "no buffer drawn");
                assert_eq!(server.inner.hca.registered_regions(), regions);

                // The other endpoint is served: a rendezvous and its Fin.
                let data = vec![5; 2 * UCR_EAGER_THRESHOLD];
                other
                    .send_message(MSG, b"h", &data, completing(&done))
                    .await
                    .expect("sent");
                done.wait_for(2, TIMEOUT).await.expect("read and handled");
            });
        }
    }
}
