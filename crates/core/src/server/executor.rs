//! The request executor: the one place a [`Request`] is charged, locked,
//! run against the store, timed, and turned into a [`Reply`], which the
//! front-end's encoder writes out while the store still lends a hit.
//!
//! The store's `RefCell` is a private field of [`Executor`], so no
//! front-end can reach a store verb except through [`Executor::serve`]
//! (or, for one shard's slice of a scattered multiget,
//! [`Executor::fetch_shard`]). Everything a request costs in virtual time
//! is charged here. The [`StoreModel`] is read once, into a shape — how
//! many shards, locked or not (DESIGN.md §12) — and nothing below
//! [`Executor::new`] asks which model it came from.

use std::cell::{Cell, Ref, RefCell};
use std::collections::BTreeMap;
use std::ops::Range;
use std::rc::Rc;

use mcstore::{NumericError, SegmentedStore, SetOutcome, ShardRouter, Store, Value};
use simnet::metrics::{Histogram, Metrics};
use simnet::trace::{Event, Layer, Phase, Track};
use simnet::vlock::{Held, VLockMeters, VLockStats, VLockTable};
use simnet::{NodeId, Sim, SimDuration, SimTime, Tracer};
use ucr::UcrRuntime;

use super::bypass::BypassDir;
use super::stats::{self, StoreGauges};
use super::{unix_now, McServerConfig, SrvStats, StoreModel, SERVER_VERSION};
use crate::am_wire::{DirReq, DirResp, McOp};
use crate::request::{Reply, Request};
use crate::world::World;

/// The trace span covering a worker's service of one request; opened and
/// closed under this one name.
const SERVICE_SPAN: &str = "worker_service";

/// How a front-end names a request on the trace stream.
#[derive(Clone, Copy)]
pub(super) enum OpId {
    /// UCR: the request id on the wire, the same id the client's
    /// `client_op` span carries.
    Wire(u64),
    /// Sockets: the wire carries no id, so this is a server-local span
    /// key (the profiler attributes it to the single open client op).
    Local(u64),
}

impl OpId {
    fn key(self) -> u64 {
        match self {
            OpId::Wire(op) | OpId::Local(op) => op,
        }
    }
}

/// Store, locks, cost model and telemetry of one server.
pub(super) struct Executor {
    store: RefCell<SegmentedStore>,
    router: ShardRouter,
    /// Virtual-time locks guarding store access: none when the store is
    /// unlocked, else one per shard.
    locks: VLockTable,
    worker_fixed: SimDuration,
    hash_lookup: SimDuration,
    /// Item-directory mirrors for the bypass-GET path, one per RDMA
    /// fabric (`[ib, roce]`). Empty until a client's first
    /// `MSG_MC_DIR_REQ` lands on that fabric.
    mirrors: [BypassDir; 2],
    /// Set once any directory request has been served; gates the store's
    /// slab-event tracking and the post-op mirror sync.
    bypass_on: Cell<bool>,
    /// Worker service times per verb — the registry's
    /// `mc.nodeN.svc.<verb>` histograms, by [`McOp::index`]. `stats`
    /// reports them.
    pub(super) svc_times: [Rc<Histogram>; McOp::ALL.len()],
    pub(super) node: NodeId,
    pub(super) sim: Sim,
    pub(super) counters: SrvStats,
    /// UCR runtimes, `[ib, roce]`, once listening.
    pub(super) fabrics: [RefCell<Option<UcrRuntime>>; 2],
    /// Cross-layer event tracer (cluster-wide; adds no virtual time).
    pub(super) tracer: Rc<Tracer>,
    /// Cluster metrics registry (adds no virtual time).
    pub(super) metrics: Rc<Metrics>,
    pub(super) gauges: StoreGauges,
}

impl Executor {
    pub(super) fn new(world: &World, node: NodeId, config: &McServerConfig) -> Executor {
        let sim = world.sim().clone();
        let metrics = world.cluster.metrics().clone();
        let tracer = world.cluster.tracer().clone();
        // The model is a shape: shards × locked. `GlobalLock` is one shard
        // with one lock; `Sharded(n)` splits the arena (memory cap divided
        // losslessly) and locks each part.
        let (shards, locked) = match config.store_model {
            StoreModel::Idealized => (1, false),
            StoreModel::GlobalLock => (1, true),
            StoreModel::Sharded(n) => (n, true),
        };
        let store = SegmentedStore::new(config.store, shards);
        let router = *store.router();
        // Unlocked means no lock at all: lock setup registers metrics and
        // tracer bindings, and the default model must leave every
        // observable surface untouched.
        let lock_count = if locked { router.count() } else { 0 };
        let meters = (0..lock_count).map(|s| {
            let prefix = format!("mc.node{}.shard{}", node.0, s);
            VLockMeters {
                ops: metrics.counter(&format!("{prefix}.ops")),
                lock_wait_ns: metrics.counter(&format!("{prefix}.lock_wait_ns")),
                lock_hold_ns: metrics.counter(&format!("{prefix}.lock_hold_ns")),
                contended: metrics.counter(&format!("{prefix}.contended")),
            }
        });
        let locks = VLockTable::new(&sim, meters, Some((tracer.clone(), node)));
        let profile = world.profile();
        let gauges = StoreGauges::new(&metrics, node, store.class_count());
        Executor {
            store: RefCell::new(store),
            router,
            locks,
            worker_fixed: profile.host.worker_fixed,
            hash_lookup: profile.host.hash_lookup,
            mirrors: Default::default(),
            bypass_on: Cell::new(false),
            svc_times: service_histograms(&metrics, node.0),
            node,
            sim,
            counters: SrvStats::new(&metrics, node),
            fabrics: Default::default(),
            gauges,
            tracer,
            metrics,
        }
    }

    /// Serves one request on the calling worker: charges its service time,
    /// takes the locks of the shards it touches, executes it, hands the
    /// reply to the front-end's `encode`, feeds the telemetry, and syncs
    /// the bypass mirrors. Returns what `encode` made of the reply.
    ///
    /// A `Get` hit is lent by the store, so `encode` runs at the service
    /// instant, with the store borrowed and the shard guards held, and
    /// writes the hit once, straight into its wire buffer. Nothing awaits
    /// in between: the store's `RefCell` would refuse any other access.
    ///
    /// The returned guards still hold the request's store locks. UCR
    /// posts its reply from `encode` and so sends inside the critical
    /// section (the historical schedule); a sockets front-end drops the
    /// guards before its awaited write.
    pub(super) async fn serve<T>(
        &self,
        req: &Request<'_>,
        id: OpId,
        track: Track,
        encode: impl FnOnce(&Reply<&[u8]>) -> T,
    ) -> (T, Held) {
        let started = self.begin(id, track, req.value.len() as u64);
        let mut guards = Held::default();
        let (wire, out) = if self.locks.is_empty() {
            // The whole service time is one uncontended charge — the exact
            // schedule every pre-`StoreModel` experiment ran under.
            self.sim.sleep(self.service_cost(req.keys.len())).await;
            self.run(req, encode)
        } else {
            // A locked store splits it: the fixed dispatch/parse portion runs
            // lock-free, then `lock_shards` serializes the hash/item portion.
            self.charge_fixed().await;
            if let Some(groups) = self.shard_groups(req.op, req.keys) {
                // A multi-key read spanning shards, not split at dispatch
                // (sockets connections keep their worker under every
                // model): visit the shards group by group.
                let mut hits = Vec::new();
                for (shard, idxs) in groups {
                    let fetch = self.fetch_shard(shard, req.keys, &idxs, &mut hits, id, track);
                    drop(fetch.await); // release this shard before the next
                }
                hits.sort_unstable_by_key(|(i, _)| *i);
                let reply = Reply::Values(hits);
                (encode(&reply), reply.payload_len(req.keys))
            } else {
                let shards = match req.op {
                    // Flush and stats touch every segment.
                    McOp::FlushAll | McOp::Stats => 0..self.router.count(),
                    _ => {
                        let s = self.router.index(req.key());
                        s..s + 1
                    }
                };
                guards = self
                    .lock_shards(shards, req.keys.len(), id.key(), track)
                    .await;
                self.run(req, encode)
            }
        };
        self.record(req.op, started);
        self.end(id, track, out as u64);
        (wire, guards)
    }

    /// Executes `req` against the store at the current instant and has
    /// `encode` write the reply while the store still lends a hit; then
    /// syncs the mirrors (no await between the mutation and the sync).
    /// Returns what `encode` made and the reply's payload length.
    fn run<T>(&self, req: &Request<'_>, encode: impl FnOnce(&Reply<&[u8]>) -> T) -> (T, usize) {
        let now = unix_now(&self.sim);
        let mut store = self.store.borrow_mut();
        let reply = execute(&mut store, req, now, |store, name| {
            stats::report(self, store, name)
        });
        let (wire, out) = (encode(&reply), reply.payload_len(req.keys));
        drop(store);
        self.sync_mirrors();
        (wire, out)
    }

    /// Locks one shard, charges its keys' hash/item time, and fetches
    /// `keys[i]` for `i` in `idxs`, appending the hits to `hits` — one
    /// shard's share of a scattered multiget, wherever it was split (the
    /// UCR dispatcher's per-worker parts, or [`Executor::serve`]'s
    /// in-worker groups). Returns the still-held shard lock.
    pub(super) async fn fetch_shard(
        &self,
        shard: usize,
        keys: &[Vec<u8>],
        idxs: &[usize],
        hits: &mut Vec<(usize, Value)>,
        id: OpId,
        track: Track,
    ) -> Held {
        let guards = self
            .lock_shards(shard..shard + 1, idxs.len(), id.key(), track)
            .await;
        let now = unix_now(&self.sim);
        let mut store = self.store.borrow_mut();
        fetch(&mut store, keys, idxs.iter().copied(), now, hits);
        drop(store);
        self.sync_mirrors();
        guards
    }

    /// Groups a multi-key read's key indices by owning shard when it has
    /// to be served shard by shard: an `Mget` with keys on more than one
    /// shard. `None` otherwise.
    pub(super) fn shard_groups(
        &self,
        op: McOp,
        keys: &[Vec<u8>],
    ) -> Option<BTreeMap<usize, Vec<usize>>> {
        if op != McOp::Mget || self.router.count() == 1 {
            return None;
        }
        let mut shards = keys.iter().map(|k| self.router.index(k));
        let first = shards.next()?;
        if shards.all(|s| s == first) {
            return None;
        }
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, k) in keys.iter().enumerate() {
            groups.entry(self.router.index(k)).or_default().push(i);
        }
        Some(groups)
    }

    /// The shard owning `key` when requests route by shard affinity: the
    /// store has more than one.
    pub(super) fn affine_shard(&self, key: &[u8]) -> Option<usize> {
        (self.router.count() > 1).then(|| self.router.index(key))
    }

    /// Acquires the locks of `shards` ([`VLockTable::lock`]), then charges
    /// the per-key hash/item cost *inside* the critical section — that is
    /// the serialized portion of upstream memcached's `cache_lock`.
    async fn lock_shards(&self, shards: Range<usize>, keys: usize, op: u64, track: Track) -> Held {
        let held = self.locks.lock(shards, op, track).await;
        self.sim.sleep(self.hash_lookup * keys.max(1) as u64).await;
        held
    }

    /// The lock-free fixed portion (dispatch, parse) of a request's
    /// service time under the locked models.
    pub(super) async fn charge_fixed(&self) {
        self.sim.sleep(self.worker_fixed).await;
    }

    /// Worker-thread service charge for one request.
    fn service_cost(&self, keys: usize) -> SimDuration {
        self.worker_fixed + self.hash_lookup * keys.max(1) as u64
    }

    /// Emits a stage boundary of request `id` on the trace stream.
    pub(super) fn mark(
        &self,
        id: OpId,
        phase: Phase,
        name: &'static str,
        track: Track,
        bytes: u64,
    ) {
        self.tracer.emit(Event {
            layer: Layer::Core,
            name,
            phase,
            node: Some(self.node),
            track,
            op: id.key(),
            bytes,
            at: self.sim.now(),
        });
    }

    /// Opens a worker's service window for one request (or one part of a
    /// scattered multiget): the worker-queue stage ends here.
    pub(super) fn begin(&self, id: OpId, track: Track, bytes: u64) -> SimTime {
        self.mark(id, Phase::Begin, SERVICE_SPAN, track, bytes);
        self.sim.now()
    }

    /// Closes a service window opened by [`Executor::begin`].
    pub(super) fn end(&self, id: OpId, track: Track, bytes: u64) {
        self.mark(id, Phase::End, SERVICE_SPAN, track, bytes);
    }

    /// Books one served request — one sample, however many workers had a
    /// part in it: its service time since `started` into the per-op
    /// histogram.
    pub(super) fn record(&self, op: McOp, started: SimTime) {
        let service = self.sim.now().saturating_since(started);
        self.svc_times[op.index()].record(service);
    }

    /// Propagates store mutations to the bypass mirrors: drains the slab
    /// events the just-finished operation emitted and applies them to
    /// every fabric's mirror pages. Called synchronously after each
    /// store-touching request (no await between the mutation and the
    /// drain), so a client's RDMA read can never observe a mirror that
    /// lags the store across a scheduling point. No-op until the first
    /// directory request turns event tracking on.
    fn sync_mirrors(&self) {
        if !self.bypass_on.get() {
            return;
        }
        let batches = self.store.borrow_mut().take_slab_events();
        if batches.is_empty() {
            return;
        }
        let store = self.store.borrow();
        for (seg, events) in &batches {
            for dir in &self.mirrors {
                dir.apply(store.segment(*seg), *seg, events);
            }
        }
    }

    /// Serves one bypass directory lookup on fabric `side` (`[ib, roce]`).
    /// The key resolves read-only — no LRU bump, no stats. The first
    /// lookup turns the store's slab-event tracking on.
    pub(super) fn dir_lookup(&self, side: usize, rt: &UcrRuntime, req: &DirReq) -> DirResp {
        if !self.bypass_on.replace(true) {
            self.store.borrow_mut().set_event_tracking(true);
        }
        self.mirrors[side].serve(&self.store.borrow(), unix_now(&self.sim), rt, req)
    }

    /// Read-only view of the store (occupancy, statistics).
    pub(super) fn store(&self) -> Ref<'_, SegmentedStore> {
        self.store.borrow()
    }

    /// Refreshes the storage-occupancy gauges from the store.
    pub(super) fn publish_gauges(&self) {
        self.gauges.publish(&mut self.store.borrow_mut());
    }

    pub(super) fn lock_stats(&self) -> Vec<VLockStats> {
        self.locks.stats()
    }
}

/// Fetches `keys[i]` for each `i` in `idxs`, appending the hits in order.
fn fetch(
    store: &mut SegmentedStore,
    keys: &[Vec<u8>],
    idxs: impl Iterator<Item = usize>,
    now: u32,
    hits: &mut Vec<(usize, Value)>,
) {
    hits.extend(idxs.filter_map(|i| {
        let key = &keys[i];
        Some((i, store.segment_for(key).get(key, now)?))
    }));
}

/// The per-verb worker service-time histograms (`mc.nodeN.svc.<verb>`) of
/// the server on node ordinal `node_ord`, in [`McOp::ALL`] order. Every
/// server has them — the executor records into them and `stats` reports
/// them.
fn service_histograms(metrics: &Metrics, node_ord: u32) -> [Rc<Histogram>; McOp::ALL.len()] {
    McOp::ALL.map(|op| metrics.histogram(&format!("mc.node{node_ord}.svc.{}", op.label())))
}

/// One storage verb, `verb`, run on the store owning `key`. A stored
/// item's fresh CAS token comes from a read-only `locate`: no hit counted,
/// no LRU bump, no value copy.
fn store_item<'s>(
    store: &mut SegmentedStore,
    key: &[u8],
    now: u32,
    verb: impl FnOnce(&mut Store) -> SetOutcome,
) -> Reply<&'s [u8]> {
    let shard = store.segment_for(key);
    let outcome = verb(shard);
    let cas = match outcome {
        SetOutcome::Stored => shard.locate(key, now).map_or(0, |item| item.cas),
        _ => 0,
    };
    Reply::Stored { outcome, cas }
}

/// Executes one request against the store: the one place every store
/// verb is called from — a keyed verb on the [`mcstore::Store`] owning the
/// key, an aggregating one on the whole. `stats` renders a statistics
/// sub-report (it needs server state the store does not hold). A `Get`
/// hit is lent, so the reply holds the store until it is dropped.
pub(super) fn execute<'s>(
    store: &'s mut SegmentedStore,
    req: &Request<'_>,
    now: u32,
    stats: impl FnOnce(&mut SegmentedStore, &[u8]) -> Vec<(String, String)>,
) -> Reply<&'s [u8]> {
    let (key, value, flags, exptime) = (req.key(), req.value, req.flags, req.exptime);
    match req.op {
        McOp::Get => Reply::Value(store.segment_for(key).get_ref(key, now)),
        McOp::Mget => {
            let mut hits = Vec::new();
            fetch(store, req.keys, 0..req.keys.len(), now, &mut hits);
            Reply::Values(hits)
        }
        McOp::Set => store_item(store, key, now, |s| s.set(key, value, flags, exptime, now)),
        McOp::Add => store_item(store, key, now, |s| s.add(key, value, flags, exptime, now)),
        McOp::Replace => store_item(store, key, now, |s| {
            s.replace(key, value, flags, exptime, now)
        }),
        McOp::Append => store_item(store, key, now, |s| s.append(key, value, now)),
        McOp::Prepend => store_item(store, key, now, |s| s.prepend(key, value, now)),
        McOp::Cas => store_item(store, key, now, |s| {
            s.cas(key, value, flags, exptime, req.cas, now)
        }),
        McOp::Delete => Reply::Found(store.segment_for(key).delete(key, now)),
        McOp::Incr | McOp::Decr => {
            let shard = store.segment_for(key);
            let result = if req.op == McOp::Incr {
                shard.incr(key, req.delta, now)
            } else {
                shard.decr(key, req.delta, now)
            };
            match (result, req.initial) {
                (Err(NumericError::NotFound), Some(initial)) => {
                    let digits = initial.to_string();
                    store_item(store, key, now, |s| {
                        s.set(key, digits.as_bytes(), 0, exptime, now)
                    });
                    Reply::Number(Ok(initial))
                }
                (result, _) => Reply::Number(result),
            }
        }
        McOp::Touch => Reply::Found(store.segment_for(key).touch(key, exptime, now)),
        McOp::FlushAll => {
            store.flush_all(now.saturating_add(exptime));
            Reply::Done
        }
        McOp::Version => Reply::Version(SERVER_VERSION.to_string()),
        McOp::Stats => Reply::Stats(stats(store, key)),
    }
}
