//! Nodes, networks, and message delivery.
//!
//! A [`Cluster`] instantiates one of the paper's testbeds: a set of compute
//! nodes, each with a kernel network-processing resource and an InfiniBand
//! HCA pipeline, joined by up to three physical networks (IB, 10GigE,
//! 1GigE). [`Network::carry`] is the only way bytes move between nodes: it
//! models egress serialization, propagation, and ingress occupancy, and
//! returns the arrival instant, for which the caller schedules what happens
//! then ([`Network::transmit`] does both, with a closure). Everything above
//! (verbs, sockets, UCR, Memcached) is protocol logic layered on this one
//! primitive.

use std::collections::HashMap;
use std::rc::Rc;

use crate::engine::Sim;
use crate::metrics::Metrics;
use crate::profiles::{ClusterProfile, NetKind};
use crate::resource::FifoResource;
use crate::time::{SimDuration, SimTime};
use crate::trace::{self, Tracer};

/// Identifier of a compute node within a cluster.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Per-node shared hardware: the kernel's network-processing pipeline (the
/// resource socket stacks saturate) and the HCA work-request pipeline (the
/// resource verbs traffic saturates).
pub struct Node {
    /// This node's identifier.
    pub id: NodeId,
    /// Kernel protocol-processing occupancy (softirq, socket buffers). All
    /// byte-stream transports on this node contend here. Verbs bypasses it.
    pub kernel: FifoResource,
    /// HCA work-request pipeline. Reciprocal of per-WQE occupancy is the
    /// adapter message rate.
    pub hca: FifoResource,
}

struct Port {
    egress: FifoResource,
    ingress: FifoResource,
}

/// One physical network: a full-duplex port per node plus a switch.
pub struct Network {
    kind: NetKind,
    bits_per_sec: u64,
    propagation: SimDuration,
    mtu: u32,
    ports: Vec<Port>,
    tracer: Rc<Tracer>,
}

impl Network {
    fn new(
        kind: NetKind,
        link: &crate::profiles::LinkProfile,
        nodes: u32,
        tracer: Rc<Tracer>,
    ) -> Network {
        let ports = (0..nodes)
            .map(|_| Port {
                egress: FifoResource::new(match kind {
                    NetKind::Ib => "ib.egress",
                    NetKind::TenGigE => "10ge.egress",
                    NetKind::OneGigE => "1ge.egress",
                }),
                ingress: FifoResource::new(match kind {
                    NetKind::Ib => "ib.ingress",
                    NetKind::TenGigE => "10ge.ingress",
                    NetKind::OneGigE => "1ge.ingress",
                }),
            })
            .collect();
        Network {
            kind,
            bits_per_sec: link.bits_per_sec,
            propagation: link.propagation,
            mtu: link.mtu,
            ports,
            tracer,
        }
    }

    /// Which physical network this is.
    pub fn kind(&self) -> NetKind {
        self.kind
    }

    /// Link MTU in bytes.
    pub fn mtu(&self) -> u32 {
        self.mtu
    }

    /// One-way propagation delay (cable + switch).
    pub fn propagation(&self) -> SimDuration {
        self.propagation
    }

    /// Serialization time for `bytes` on this link.
    pub fn ser_time(&self, bytes: u64) -> SimDuration {
        SimDuration::for_bytes_at(bytes, self.bits_per_sec)
    }

    /// Moves `bytes` from `src` to `dst`, beginning no earlier than `start`,
    /// and returns the delivery instant. Scheduling what happens then is the
    /// caller's: the data path schedules a targeted event, which costs no
    /// allocation per message.
    ///
    /// Model: the message occupies the sender's egress port for its
    /// serialization time (FIFO with earlier traffic); the first bit reaches
    /// the receiver one propagation delay after egress *starts*; the
    /// receiver's ingress port is then occupied for the serialization time
    /// (cut-through, so an uncontended transfer costs `ser + propagation`
    /// once, not twice, while ingress contention still queues).
    ///
    /// Each message reaches the cluster [`Tracer`] as one `wire_tx`/`wire_rx`
    /// instant pair stamped with its computed times — what the
    /// protocol-efficiency tests count (a UCR eager get is exactly two).
    pub fn carry(&self, src: NodeId, dst: NodeId, bytes: u64, start: SimTime) -> SimTime {
        assert_ne!(src, dst, "loopback does not traverse the network");
        let ser = self.ser_time(bytes);
        let egress_done = self.ports[src.0 as usize].egress.occupy_from(start, ser);
        let egress_start = egress_done - ser;
        let arrival_start = egress_start + self.propagation;
        let delivered = self.ports[dst.0 as usize]
            .ingress
            .occupy_from(arrival_start, ser);
        // The ingress port cannot finish before the last bit left the wire.
        let delivered = delivered.max(egress_done + self.propagation);
        self.tracer.instant(
            trace::Layer::Wire,
            "wire_tx",
            src,
            trace::Track::Main,
            0,
            bytes,
            egress_start,
        );
        self.tracer.instant(
            trace::Layer::Wire,
            "wire_rx",
            dst,
            trace::Track::Main,
            0,
            bytes,
            delivered,
        );
        delivered
    }

    /// [`carry`](Network::carry), with `deliver` fired at the delivery
    /// instant: for what happens once per connection (handshakes, rejects),
    /// where a boxed closure is no cost that counts.
    pub fn transmit(
        &self,
        sim: &Sim,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        start: SimTime,
        deliver: impl FnOnce() + 'static,
    ) -> SimTime {
        let delivered = self.carry(src, dst, bytes, start);
        sim.schedule_at(delivered, deliver);
        delivered
    }

    /// Utilization of a node's egress port (diagnostics).
    pub fn egress_utilization(&self, src: NodeId, now: SimTime) -> f64 {
        self.ports[src.0 as usize].egress.utilization(now)
    }
}

/// A simulated testbed: the event engine plus nodes and networks built from
/// a [`ClusterProfile`].
pub struct Cluster {
    sim: Sim,
    profile: ClusterProfile,
    nodes: Vec<Rc<Node>>,
    networks: HashMap<NetKind, Rc<Network>>,
    metrics: Rc<Metrics>,
    tracer: Rc<Tracer>,
}

impl Cluster {
    /// Builds a cluster with `nodes` nodes from `profile` (capped at the
    /// profile's node count) on a fresh simulation world.
    pub fn new(sim: Sim, profile: ClusterProfile, nodes: u32) -> Cluster {
        assert!(nodes >= 2, "a cluster needs at least a client and a server");
        let n = nodes.min(profile.nodes);
        let node_list = (0..n)
            .map(|i| {
                Rc::new(Node {
                    id: NodeId(i),
                    kernel: FifoResource::new("kernel"),
                    hca: FifoResource::new("hca"),
                })
            })
            .collect();
        // One registry; the tracer counts in it from the start.
        let metrics = Rc::new(Metrics::new());
        let tracer = Tracer::new(&metrics);
        let mut networks = HashMap::new();
        networks.insert(
            NetKind::Ib,
            Rc::new(Network::new(NetKind::Ib, &profile.ib, n, tracer.clone())),
        );
        if let Some(l) = &profile.tengige {
            networks.insert(
                NetKind::TenGigE,
                Rc::new(Network::new(NetKind::TenGigE, l, n, tracer.clone())),
            );
        }
        if let Some(l) = &profile.onegige {
            networks.insert(
                NetKind::OneGigE,
                Rc::new(Network::new(NetKind::OneGigE, l, n, tracer.clone())),
            );
        }
        Cluster {
            sim,
            profile,
            nodes: node_list,
            networks,
            metrics,
            tracer,
        }
    }

    /// Convenience: Cluster A with a fresh simulation.
    pub fn cluster_a(seed: u64, nodes: u32) -> Cluster {
        Cluster::new(Sim::new(seed), ClusterProfile::cluster_a(), nodes)
    }

    /// Convenience: Cluster B with a fresh simulation.
    pub fn cluster_b(seed: u64, nodes: u32) -> Cluster {
        Cluster::new(Sim::new(seed), ClusterProfile::cluster_b(), nodes)
    }

    /// The simulation world.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// The hardware/cost profile.
    pub fn profile(&self) -> &ClusterProfile {
        &self.profile
    }

    /// Number of nodes.
    pub fn len(&self) -> u32 {
        self.nodes.len() as u32
    }

    /// True if the cluster has no nodes (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Shared per-node hardware.
    pub fn node(&self, id: NodeId) -> &Rc<Node> {
        &self.nodes[id.0 as usize]
    }

    /// A physical network, if this cluster has it.
    pub fn network(&self, kind: NetKind) -> Option<&Rc<Network>> {
        self.networks.get(&kind)
    }

    /// The InfiniBand network (always present).
    pub fn ib(&self) -> &Rc<Network> {
        &self.networks[&NetKind::Ib]
    }

    /// The cluster-wide metrics registry. Benchmarks and the memcached
    /// stack publish counters/gauges/histograms here by dotted name.
    pub fn metrics(&self) -> &Rc<Metrics> {
        &self.metrics
    }

    /// The cluster-wide tracing hub: every layer (wire, verbs, UCR, core)
    /// emits its span/instant events here, and the always-on flight
    /// recorder lives inside it. See [`trace`](crate::trace).
    pub fn tracer(&self) -> &Rc<Tracer> {
        &self.tracer
    }

    /// The whole metrics registry rendered in Prometheus text exposition
    /// format (`# TYPE`/`# HELP` lines, `node`/`worker`/`layer` labels
    /// recovered from the dotted names). See
    /// [`metrics::prometheus_text`](crate::metrics::prometheus_text).
    pub fn export_prometheus(&self) -> String {
        crate::metrics::prometheus_text(&self.metrics)
    }

    /// Publishes each node's shared-resource occupancy into the metrics
    /// registry as gauges (`nodeN.hca.utilization`, `nodeN.kernel.
    /// utilization`) and counters-as-gauges for completed jobs, measured
    /// over the window from `since` to the current virtual time. This is
    /// the §VI-D bottleneck attribution: it tells you *which* server
    /// resource saturates under load.
    pub fn export_node_metrics(&self, since: SimTime) {
        let now = self.sim.now();
        let window = now.saturating_since(since).as_nanos().max(1) as f64;
        for node in &self.nodes {
            for (res, name) in [(&node.hca, "hca"), (&node.kernel, "kernel")] {
                let busy = res.busy_total().as_nanos() as f64;
                self.metrics
                    .gauge(&format!("{}.{}.utilization", node.id, name))
                    .set((busy / window).min(1.0));
                self.metrics
                    .gauge(&format!("{}.{}.jobs", node.id, name))
                    .set(res.jobs() as f64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::Stack;
    use std::cell::Cell;

    fn small_cluster() -> Cluster {
        Cluster::cluster_a(1, 4)
    }

    #[test]
    fn uncontended_transfer_is_ser_plus_prop() {
        let c = small_cluster();
        let ib = c.ib().clone();
        let delivered = ib.transmit(c.sim(), NodeId(0), NodeId(1), 0, SimTime::ZERO, || {});
        // Zero bytes: pure propagation.
        assert_eq!(delivered.as_nanos(), ib_prop_ns(&c));
        let t0 = c.sim().now();
        let d2 = ib.transmit(c.sim(), NodeId(2), NodeId(3), 1024, t0, || {});
        let expect =
            ib.ser_time(1024) + crate::profiles::ClusterProfile::cluster_a().ib.propagation;
        assert_eq!(d2, t0 + expect);
    }

    fn ib_prop_ns(c: &Cluster) -> u64 {
        c.profile().ib.propagation.as_nanos()
    }

    #[test]
    fn egress_contention_queues_in_fifo_order() {
        let c = small_cluster();
        let ib = c.ib().clone();
        let d1 = ib.transmit(c.sim(), NodeId(0), NodeId(1), 100_000, SimTime::ZERO, || {});
        let d2 = ib.transmit(c.sim(), NodeId(0), NodeId(2), 100_000, SimTime::ZERO, || {});
        // Second transfer waits for the first to clear the egress port.
        assert!(d2 > d1);
        let ser = ib.ser_time(100_000);
        assert_eq!(d2 - d1, ser);
    }

    #[test]
    fn ingress_contention_at_a_hot_receiver() {
        let c = small_cluster();
        let ib = c.ib().clone();
        // Two different senders target node 3 simultaneously.
        let d1 = ib.transmit(c.sim(), NodeId(0), NodeId(3), 50_000, SimTime::ZERO, || {});
        let d2 = ib.transmit(c.sim(), NodeId(1), NodeId(3), 50_000, SimTime::ZERO, || {});
        assert!(
            d2 > d1,
            "receiver ingress must serialize concurrent senders"
        );
    }

    #[test]
    fn delivery_callback_fires_at_delivery_time() {
        let c = small_cluster();
        let ib = c.ib().clone();
        let hit: Rc<Cell<Option<SimTime>>> = Rc::new(Cell::new(None));
        let hit2 = hit.clone();
        let sim2 = c.sim().clone();
        let expected = ib.transmit(
            c.sim(),
            NodeId(0),
            NodeId(1),
            4096,
            SimTime::ZERO,
            move || {
                hit2.set(Some(sim2.now()));
            },
        );
        c.sim().run();
        assert_eq!(hit.get(), Some(expected));
    }

    #[test]
    #[should_panic(expected = "loopback")]
    fn loopback_is_rejected() {
        let c = small_cluster();
        let ib = c.ib().clone();
        ib.transmit(c.sim(), NodeId(0), NodeId(0), 1, SimTime::ZERO, || {});
    }

    #[test]
    fn cluster_b_has_no_ethernet_networks() {
        let c = Cluster::cluster_b(1, 4);
        assert!(c.network(NetKind::Ib).is_some());
        assert!(c.network(NetKind::TenGigE).is_none());
        assert!(c.network(NetKind::OneGigE).is_none());
        assert!(!c.profile().supports(Stack::TenGigEToe));
    }

    #[test]
    fn node_count_capped_by_profile() {
        let c = Cluster::cluster_a(1, 1000);
        assert_eq!(c.len(), 64);
        assert!(!c.is_empty());
    }

    #[test]
    fn bandwidth_shapes_transfer_time() {
        // The same 64 KB transfer is faster on QDR (cluster B) than DDR (A).
        let a = Cluster::cluster_a(1, 2);
        let b = Cluster::cluster_b(1, 2);
        let da = a
            .ib()
            .transmit(a.sim(), NodeId(0), NodeId(1), 65536, SimTime::ZERO, || {});
        let db = b
            .ib()
            .transmit(b.sim(), NodeId(0), NodeId(1), 65536, SimTime::ZERO, || {});
        assert!(db < da);
    }
}
