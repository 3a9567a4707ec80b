//! Testbed assembly: one object wiring the cluster, the InfiniBand fabric
//! view, and the socket fabric together, so examples and benchmarks can
//! say "give me Cluster A" and start placing servers and clients — and
//! [`Scenario`], the one server and its clients every experiment of the
//! paper's §VI places there.

use std::rc::Rc;

use simnet::{Cluster, ClusterProfile, NetKind, NodeId, Sim};
use socksim::SockFabric;
use verbs::IbFabric;

use crate::client::{McClient, McClientConfig, Transport};
use crate::server::{McServer, McServerConfig};

/// A fully wired simulated testbed. Its fields are shared handles, so a
/// clone is the same testbed.
#[derive(Clone)]
pub struct World {
    /// The cluster (nodes, links, profile).
    pub cluster: Rc<Cluster>,
    /// InfiniBand fabric view (verbs/UCR traffic).
    pub ib: IbFabric,
    /// RoCE fabric view (verbs over converged Ethernet), when the
    /// cluster's Ethernet adapters have an RDMA engine (paper SVII).
    pub roce: Option<IbFabric>,
    /// Byte-stream transports (the sockets baseline).
    pub socks: SockFabric,
}

impl World {
    fn new(cluster: Rc<Cluster>) -> World {
        World {
            ib: IbFabric::new(cluster.clone()),
            roce: IbFabric::new_on(cluster.clone(), NetKind::TenGigE),
            socks: SockFabric::new(cluster.clone()),
            cluster,
        }
    }

    /// Cluster A (Clovertown + ConnectX DDR + 10GigE-TOE + 1GigE).
    pub fn cluster_a(seed: u64, nodes: u32) -> World {
        World::new(Rc::new(Cluster::cluster_a(seed, nodes)))
    }

    /// Cluster B (Westmere + ConnectX QDR).
    pub fn cluster_b(seed: u64, nodes: u32) -> World {
        World::new(Rc::new(Cluster::cluster_b(seed, nodes)))
    }

    /// The simulation engine.
    pub fn sim(&self) -> &Sim {
        self.cluster.sim()
    }

    /// The hardware/cost profile in force.
    pub fn profile(&self) -> &ClusterProfile {
        self.cluster.profile()
    }

    /// Crashes a node across every transport: its IB stack dies (UCR
    /// endpoints fail) and its sockets reset.
    pub fn crash_node(&self, node: NodeId) {
        self.ib.open(node).kill();
        if let Some(roce) = &self.roce {
            roce.open(node).kill();
        }
        self.socks.kill_node(node);
    }
}

/// One server on node 0 and its clients on nodes 1, 2, …, each with node 0
/// as its one server: the testbed of every experiment in the paper's §VI.
///
/// The server starts first, then the clients in node order. A UCR client
/// spawns its runtime's tasks as it is built, so this order is part of the
/// schedule: a run that builds the same shape in another order may break
/// same-instant ties differently. The server's tasks hold it weakly, so
/// keep `server` alive for as long as it should serve.
pub struct Scenario {
    /// The testbed the scenario was placed on.
    pub world: World,
    /// The server, on node 0.
    pub server: McServer,
    /// The clients; `clients[i]` runs on node `i + 1`.
    pub clients: Vec<McClient>,
}

impl Scenario {
    /// The default server and one client over `transport`.
    pub fn start(world: World, transport: Transport) -> Scenario {
        let client = McClientConfig::single(transport, NodeId(0));
        Scenario::new(world, McServerConfig::default(), [client])
    }

    /// Starts a server with `server` on node 0, then one client per config
    /// on nodes 1, 2, … in order. Each config must name node 0 as its one
    /// server.
    pub fn new(
        world: World,
        server: McServerConfig,
        clients: impl IntoIterator<Item = McClientConfig>,
    ) -> Scenario {
        let server = McServer::start(&world, NodeId(0), server);
        let clients = (1..)
            .zip(clients)
            .map(|(node, cfg)| {
                assert_eq!(cfg.servers, [NodeId(0)], "a scenario's clients use node 0");
                McClient::new(&world, NodeId(node), cfg)
            })
            .collect();
        Scenario {
            world,
            server,
            clients,
        }
    }
}
