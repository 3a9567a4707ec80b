//! The InfiniBand fabric view and per-node HCA handles.
//!
//! [`IbFabric`] owns one [`Hca`] per node and the routing needed for
//! cross-node delivery (a send must find the destination node's QP table).
//! An HCA can be [`killed`](Hca::kill) to simulate a node/process failure:
//! in-flight and future messages to it complete with `RetryExceeded`, which
//! is what UCR's timeout model (paper §IV-A) turns into an endpoint error
//! rather than a whole-runtime failure.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::rc::{Rc, Weak};

use simnet::profiles::VerbsProfile;
use simnet::sync;
use simnet::{Cluster, FreeList, NetKind, Network, NodeId, Sim, Tracer};

use crate::cm::CmMessage;
use crate::cq::Cq;
use crate::mr::{MrInner, Pd, IDLE_MR_RECORDS};
use crate::qp::QpInner;
use crate::types::VerbsError;

pub(crate) struct IbFabricInner {
    pub cluster: Rc<Cluster>,
    pub net_kind: NetKind,
    /// The physical network, resolved once at fabric creation so `open`
    /// never has to re-derive it fallibly.
    pub net: Rc<Network>,
    /// The RDMA cost model for that network, resolved likewise.
    pub verbs: VerbsProfile,
    pub hcas: RefCell<HashMap<NodeId, Rc<HcaInner>>>,
}

/// Handle to the whole InfiniBand fabric of a cluster.
#[derive(Clone)]
pub struct IbFabric {
    pub(crate) inner: Rc<IbFabricInner>,
}

pub(crate) struct HcaInner {
    pub node: NodeId,
    pub sim: Sim,
    pub net: Rc<Network>,
    pub hw: Rc<simnet::Node>,
    pub profile: VerbsProfile,
    pub fabric: Weak<IbFabricInner>,
    pub mrs: RefCell<HashMap<u32, Weak<MrInner>>>,
    /// Records of deregistered regions, emptied, for the next
    /// registrations to refill: at most [`IDLE_MR_RECORDS`].
    idle_mrs: FreeList<Rc<MrInner>>,
    pub qps: RefCell<HashMap<u32, Rc<QpInner>>>,
    /// By port; ordered, so `kill` closes them in port order.
    pub listeners: RefCell<BTreeMap<u16, sync::Sender<CmMessage>>>,
    /// By connection id; ordered, so `kill` refuses them in id order.
    pub pending_connects: RefCell<BTreeMap<u64, sync::OneSender<Result<u32, VerbsError>>>>,
    pub tracer: Rc<Tracer>,
    pub alive: Cell<bool>,
    /// Kills so far: a listener bound before the latest one no longer owns
    /// its port.
    pub incarnation: Cell<u64>,
    next_key: Cell<u32>,
    next_qpn: Cell<u32>,
    next_pd: Cell<u32>,
    next_conn: Cell<u64>,
}

/// A node's host channel adapter. Holding an `Hca` keeps the whole fabric
/// view alive (routing tables are shared fabric state).
#[derive(Clone)]
pub struct Hca {
    pub(crate) inner: Rc<HcaInner>,
    _keepalive: Rc<IbFabricInner>,
}

impl IbFabric {
    /// Creates the fabric view over a cluster's native IB network. Native
    /// IB is unconditionally modeled (the verbs profile and the IB
    /// network exist in every cluster), so unlike [`new_on`](IbFabric::new_on)
    /// this cannot fail.
    pub fn new(cluster: Rc<Cluster>) -> IbFabric {
        let verbs = cluster.profile().verbs;
        let net = cluster.ib().clone();
        IbFabric {
            inner: Rc::new(IbFabricInner {
                cluster,
                net_kind: NetKind::Ib,
                net,
                verbs,
                hcas: RefCell::new(HashMap::new()),
            }),
        }
    }

    /// Creates a verbs fabric over an arbitrary physical network — RoCE
    /// when pointed at converged Ethernet adapters (paper SVII). `None`
    /// when the cluster's adapters on that network have no RDMA engine.
    pub fn new_on(cluster: Rc<Cluster>, net: NetKind) -> Option<IbFabric> {
        let verbs = cluster.profile().verbs_for(net)?;
        let network = cluster.network(net)?.clone();
        Some(IbFabric {
            inner: Rc::new(IbFabricInner {
                cluster,
                net_kind: net,
                net: network,
                verbs,
                hcas: RefCell::new(HashMap::new()),
            }),
        })
    }

    /// Opens (or returns the already-open) HCA of `node`.
    pub fn open(&self, node: NodeId) -> Hca {
        if let Some(h) = self.inner.hcas.borrow().get(&node) {
            return Hca {
                inner: h.clone(),
                _keepalive: self.inner.clone(),
            };
        }
        let cluster = &self.inner.cluster;
        assert!(
            node.0 < cluster.len(),
            "node {node} outside cluster of {} nodes",
            cluster.len()
        );
        let inner = Rc::new(HcaInner {
            node,
            sim: cluster.sim().clone(),
            net: self.inner.net.clone(),
            hw: cluster.node(node).clone(),
            profile: self.inner.verbs,
            fabric: Rc::downgrade(&self.inner),
            mrs: RefCell::new(HashMap::new()),
            idle_mrs: FreeList::new(IDLE_MR_RECORDS),
            qps: RefCell::new(HashMap::new()),
            listeners: RefCell::new(BTreeMap::new()),
            pending_connects: RefCell::new(BTreeMap::new()),
            tracer: cluster.tracer().clone(),
            alive: Cell::new(true),
            incarnation: Cell::new(0),
            next_key: Cell::new(1),
            next_qpn: Cell::new(1),
            next_pd: Cell::new(1),
            next_conn: Cell::new(1),
        });
        self.inner.hcas.borrow_mut().insert(node, inner.clone());
        Hca {
            inner,
            _keepalive: self.inner.clone(),
        }
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &Rc<Cluster> {
        &self.inner.cluster
    }

    /// The physical network this fabric view runs over ([`NetKind::Ib`]
    /// native, or converged Ethernet for RoCE).
    pub fn kind(&self) -> NetKind {
        self.inner.net_kind
    }
}

impl IbFabricInner {
    /// Routing lookup: the HCA of `node`, if opened and alive.
    pub(crate) fn live_hca(&self, node: NodeId) -> Option<Rc<HcaInner>> {
        self.hcas
            .borrow()
            .get(&node)
            .filter(|h| h.alive.get())
            .cloned()
    }
}

impl HcaInner {
    /// The idle record given back last, or a blank one, for a registration.
    pub(crate) fn idle_record(&self) -> Rc<MrInner> {
        self.idle_mrs.take().unwrap_or_default()
    }

    /// Keeps a deregistered region's emptied record unless the list is full.
    pub(crate) fn keep_record(&self, record: Rc<MrInner>) {
        self.idle_mrs.give_back(record);
    }

    pub(crate) fn next_key(&self) -> u32 {
        let k = self.next_key.get();
        self.next_key.set(k + 1);
        k
    }

    pub(crate) fn next_qpn(&self) -> u32 {
        let k = self.next_qpn.get();
        self.next_qpn.set(k + 1);
        k
    }

    pub(crate) fn next_conn(&self) -> u64 {
        let k = self.next_conn.get();
        self.next_conn.set(k + 1);
        k
    }
}

impl Hca {
    /// The node this adapter belongs to.
    pub fn node(&self) -> NodeId {
        self.inner.node
    }

    /// The simulation world.
    pub fn sim(&self) -> Sim {
        self.inner.sim.clone()
    }

    /// The verbs cost profile in force.
    pub fn profile(&self) -> VerbsProfile {
        self.inner.profile
    }

    /// Path MTU of the underlying fabric (UD datagram payload ceiling).
    pub fn net_mtu(&self) -> u32 {
        self.inner.net.mtu()
    }

    /// Allocates a protection domain.
    pub fn alloc_pd(&self) -> Pd {
        let id = self.inner.next_pd.get();
        self.inner.next_pd.set(id + 1);
        Pd {
            node: self.inner.node,
            pd_id: id,
            hca: self.inner.clone(),
        }
    }

    /// Creates a completion queue bound to this adapter.
    pub fn create_cq(&self) -> Cq {
        Cq::new(self.inner.sim.clone(), self.inner.profile.poll_overhead)
    }

    /// Simulates the node's IB stack dying (process crash, cable pull).
    /// Subsequent traffic to or from this HCA fails with `RetryExceeded`,
    /// and every listener is closed: its port is free for whoever
    /// [`revive`](Hca::revive)s the adapter.
    pub fn kill(&self) {
        self.inner.alive.set(false);
        self.inner.incarnation.set(self.inner.incarnation.get() + 1);
        // Fail anyone mid-handshake immediately.
        let pending = std::mem::take(&mut *self.inner.pending_connects.borrow_mut());
        for tx in pending.into_values() {
            let _ = tx.send(Err(VerbsError::ConnectionRefused));
        }
        // Close every listener, in port order: a parked accept returns.
        drop(std::mem::take(&mut *self.inner.listeners.borrow_mut()));
    }

    /// Brings a killed adapter back (a process started on the node again):
    /// traffic flows and ports can be bound. What the kill closed stays
    /// closed, and queue pair numbers and keys keep counting, so nothing
    /// addressed to the old process reaches the new one.
    pub fn revive(&self) {
        self.inner.alive.set(true);
    }

    /// Memory regions currently registered with this adapter.
    pub fn registered_regions(&self) -> usize {
        self.inner.mrs.borrow().len()
    }

    /// Records of deregistered regions the adapter keeps for its next
    /// registrations, at most [`IDLE_MR_RECORDS`];
    /// each holds no bytes.
    pub fn idle_region_records(&self) -> usize {
        self.inner.idle_mrs.len()
    }
}
