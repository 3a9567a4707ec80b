//! Socket fabric: listeners, connection establishment, failure injection.
//!
//! The same listen/connect shape as BSD sockets: a server binds
//! `(stack, node, port)`, a client connects across the matching physical
//! network, and both sides get a [`Socket`]. The handshake pays the
//! stack's per-message costs in both directions (SYN / SYN-ACK), so
//! connection setup over 1GigE is visibly slower than over SDP — but no
//! benchmark in the paper measures it; Memcached connects once.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::rc::Rc;

use simnet::profiles::SocketStackProfile;
use simnet::sync::{self, timeout};
use simnet::{Cluster, Network, NodeId, SimDuration, Slab, Stack};

use crate::dgram::{Datagram, DgramInbox, DgramSocket};
use crate::stream::{RecvBuf, SockError, Socket, SocketAddr};

/// Default connect handshake timeout.
pub const DEFAULT_CONNECT_TIMEOUT: SimDuration = SimDuration::from_millis(200);

/// Wire size of a handshake control segment.
const HANDSHAKE_BYTES: u64 = 74;

struct ConnRequest {
    src: SocketAddr,
    /// The buffer the client reads from; the server writes into it.
    client_rx: Rc<RecvBuf>,
    /// Resolver: hands the client the buffer the server reads from.
    reply: sync::OneSender<Rc<RecvBuf>>,
}

struct SockRec {
    node: NodeId,
    rx: Rc<RecvBuf>,
    peer_rx: Rc<RecvBuf>,
}

pub(crate) struct SockFabricInner {
    pub cluster: Rc<Cluster>,
    listeners: RefCell<HashMap<(Stack, NodeId, u16), sync::Sender<ConnRequest>>>,
    dgram_socks: RefCell<HashMap<(Stack, NodeId, u16), Rc<DgramInbox>>>,
    /// The datagrams on their way between sockets.
    pub(crate) datagrams: RefCell<Slab<Datagram>>,
    /// By socket id; ordered, so `kill_node` resets them in id order.
    socks: RefCell<BTreeMap<u64, SockRec>>,
    dead: RefCell<HashSet<NodeId>>,
    next_sock: Cell<u64>,
    next_port: Cell<u16>,
}

/// Handle to a cluster's byte-stream transports.
#[derive(Clone)]
pub struct SockFabric {
    inner: Rc<SockFabricInner>,
}

impl SockFabric {
    /// Creates the socket fabric over a cluster.
    pub fn new(cluster: Rc<Cluster>) -> SockFabric {
        SockFabric {
            inner: Rc::new(SockFabricInner {
                cluster,
                listeners: RefCell::new(HashMap::new()),
                dgram_socks: RefCell::new(HashMap::new()),
                datagrams: RefCell::new(Slab::new()),
                socks: RefCell::new(BTreeMap::new()),
                dead: RefCell::new(HashSet::new()),
                next_sock: Cell::new(1),
                next_port: Cell::new(40000),
            }),
        }
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &Rc<Cluster> {
        &self.inner.cluster
    }

    /// Binds a listener for `stack` traffic at `(node, port)`.
    pub fn listen(&self, stack: Stack, node: NodeId, port: u16) -> Result<Listener, SockError> {
        self.check_stack(stack)?;
        let key = (stack, node, port);
        let mut listeners = self.inner.listeners.borrow_mut();
        if listeners.contains_key(&key) {
            return Err(SockError::ConnectionRefused);
        }
        let (tx, rx) = sync::channel();
        listeners.insert(key, tx);
        Ok(Listener {
            fabric: self.inner.clone(),
            stack,
            addr: SocketAddr { node, port },
            rx,
        })
    }

    /// Connects from `src` to a listener at `dst` over `stack`.
    pub async fn connect(
        &self,
        stack: Stack,
        src: NodeId,
        dst: SocketAddr,
        connect_timeout: SimDuration,
    ) -> Result<Socket, SockError> {
        self.check_stack(stack)?;
        let inner = &self.inner;
        let sim = inner.cluster.sim().clone();
        if inner.is_dead(src) {
            return Err(SockError::Closed);
        }
        if src == dst.node {
            // Loopback never touches the simulated network; Memcached
            // deployments always separate clients and servers.
            return Err(SockError::ConnectionRefused);
        }
        let (profile, net) = inner.stack_env(stack)?;

        let client_rx = RecvBuf::new(src, profile);
        let (reply_tx, reply_rx) = sync::oneshot();
        let local_port = inner.next_port.get();
        inner.next_port.set(local_port.wrapping_add(1).max(40000));
        let local = SocketAddr {
            node: src,
            port: local_port,
        };

        // SYN across the fabric.
        sim.sleep(profile.app_send).await;
        let launch = inner
            .cluster
            .node(src)
            .kernel
            .occupy_from(sim.now(), profile.kernel_send);
        let fabric2 = inner.clone();
        let client_rx2 = client_rx.clone();
        let sim2 = sim.clone();
        net.transmit(&sim, src, dst.node, HANDSHAKE_BYTES, launch, move || {
            if fabric2.is_dead(dst.node) {
                client_rx2.close();
                return;
            }
            let kernel = &fabric2.cluster.node(dst.node).kernel;
            let ready = kernel.occupy_from(sim2.now(), profile.kernel_recv);
            let fabric3 = fabric2.clone();
            sim2.clone().schedule_at(ready, move || {
                let listener = fabric3
                    .listeners
                    .borrow()
                    .get(&(stack, dst.node, dst.port))
                    .cloned();
                let delivered = listener
                    .map(|tx| {
                        tx.send(ConnRequest {
                            src: local,
                            client_rx: client_rx2.clone(),
                            reply: reply_tx,
                        })
                        .is_ok()
                    })
                    .unwrap_or(false);
                if !delivered {
                    // RST: wake the connecting client with a refusal.
                    client_rx2.close();
                }
            });
        });

        match timeout(&sim, connect_timeout, reply_rx).await {
            Ok(Ok(server_rx)) => {
                let sock_id = inner.register(src, client_rx.clone(), server_rx.clone());
                Ok(Socket {
                    fabric: inner.clone(),
                    stack,
                    profile,
                    net,
                    local,
                    peer: dst,
                    rx: client_rx,
                    peer_rx: server_rx,
                    nodelay: Cell::new(false),
                    sock_id,
                    local_closed: Cell::new(false),
                })
            }
            Ok(Err(_)) => Err(SockError::ConnectionRefused),
            Err(_) => Err(SockError::ConnectionTimeout),
        }
    }

    /// Binds a datagram (UDP-style) socket at `(stack, node, port)`.
    /// Memcached's UDP mode (§III's Facebook baseline) runs on this.
    pub fn udp_bind(
        &self,
        stack: Stack,
        node: NodeId,
        port: u16,
    ) -> Result<DgramSocket, SockError> {
        self.check_stack(stack)?;
        let key = (stack, node, port);
        let mut socks = self.inner.dgram_socks.borrow_mut();
        if socks.contains_key(&key) {
            return Err(SockError::ConnectionRefused);
        }
        let inbox = Rc::new(DgramInbox {
            queue: RefCell::new(std::collections::VecDeque::new()),
            notify: simnet::sync::Notify::new(),
            dropped: Cell::new(0),
        });
        let (profile, net) = self.inner.stack_env(stack)?;
        socks.insert(key, inbox.clone());
        Ok(DgramSocket {
            fabric: self.inner.clone(),
            stack,
            profile,
            net,
            local: SocketAddr { node, port },
            inbox,
        })
    }

    /// Simulates a node dying: all its sockets reset; traffic to it is
    /// dropped; peers see EOF after one round trip.
    pub fn kill_node(&self, node: NodeId) {
        let inner = &self.inner;
        inner.dead.borrow_mut().insert(node);
        let sim = inner.cluster.sim().clone();
        let rst_delay = inner.cluster.profile().ib.propagation * 2;
        for rec in inner.socks.borrow().values() {
            if rec.node == node {
                rec.rx.close();
                let peer = rec.peer_rx.clone();
                sim.schedule(rst_delay, move || peer.close());
            }
        }
        // Listeners on the dead node stop accepting.
        inner
            .listeners
            .borrow_mut()
            .retain(|(_, n, _), _| *n != node);
    }

    /// True if `node` has been killed.
    pub fn is_dead(&self, node: NodeId) -> bool {
        self.inner.is_dead(node)
    }

    fn check_stack(&self, stack: Stack) -> Result<(), SockError> {
        if stack == Stack::Ucr {
            // UCR is not a byte-stream transport.
            return Err(SockError::StackUnavailable(stack));
        }
        if self.inner.cluster.profile().socket_stack(stack).is_none() {
            return Err(SockError::StackUnavailable(stack));
        }
        Ok(())
    }
}

impl SockFabricInner {
    pub(crate) fn is_dead(&self, node: NodeId) -> bool {
        self.dead.borrow().contains(&node)
    }

    /// Stack profile + physical network for `stack`. Callers have already
    /// validated the stack (`check_stack`, or a live listener/socket that
    /// could only exist for a configured stack), but the lookup stays
    /// fallible so racing a profile away can surface as a socket error
    /// instead of a panic.
    fn stack_env(&self, stack: Stack) -> Result<(SocketStackProfile, Rc<Network>), SockError> {
        let Some(profile) = self.cluster.profile().socket_stack(stack) else {
            return Err(SockError::StackUnavailable(stack));
        };
        let Some(net) = self.cluster.network(stack.net()) else {
            return Err(SockError::StackUnavailable(stack));
        };
        Ok((*profile, net.clone()))
    }

    fn register(self: &Rc<Self>, node: NodeId, rx: Rc<RecvBuf>, peer_rx: Rc<RecvBuf>) -> u64 {
        let id = self.next_sock.get();
        self.next_sock.set(id + 1);
        self.socks
            .borrow_mut()
            .insert(id, SockRec { node, rx, peer_rx });
        id
    }

    pub(crate) fn forget(&self, sock_id: u64) {
        self.socks.borrow_mut().remove(&sock_id);
    }

    pub(crate) fn dgram_inbox(&self, stack: Stack, addr: SocketAddr) -> Option<Rc<DgramInbox>> {
        self.dgram_socks
            .borrow()
            .get(&(stack, addr.node, addr.port))
            .cloned()
    }

    pub(crate) fn dgram_unbind(&self, stack: Stack, addr: SocketAddr) {
        self.dgram_socks
            .borrow_mut()
            .remove(&(stack, addr.node, addr.port));
    }
}

/// A bound, accepting socket.
pub struct Listener {
    fabric: Rc<SockFabricInner>,
    stack: Stack,
    addr: SocketAddr,
    rx: sync::Receiver<ConnRequest>,
}

impl Listener {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Accepts one connection: completes the handshake and returns the
    /// server-side socket.
    pub async fn accept(&self) -> Result<Socket, SockError> {
        let req = self.rx.recv().await.map_err(|_| SockError::Closed)?;
        let inner = &self.fabric;
        let sim = inner.cluster.sim().clone();
        let (profile, net) = inner.stack_env(self.stack)?;

        // Server-side accept cost + SYN-ACK back to the client.
        sim.sleep(profile.app_recv).await;
        let server_rx = RecvBuf::new(self.addr.node, profile);
        let launch = inner
            .cluster
            .node(self.addr.node)
            .kernel
            .occupy_from(sim.now(), profile.kernel_send);
        let reply = req.reply;
        let server_rx2 = server_rx.clone();
        net.transmit(
            &sim,
            self.addr.node,
            req.src.node,
            HANDSHAKE_BYTES,
            launch,
            move || {
                let _ = reply.send(server_rx2);
            },
        );

        let sock_id = inner.register(self.addr.node, server_rx.clone(), req.client_rx.clone());
        Ok(Socket {
            fabric: inner.clone(),
            stack: self.stack,
            profile,
            net,
            local: self.addr,
            peer: req.src,
            rx: server_rx,
            peer_rx: req.client_rx,
            nodelay: Cell::new(false),
            sock_id,
            local_closed: Cell::new(false),
        })
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.fabric
            .listeners
            .borrow_mut()
            .remove(&(self.stack, self.addr.node, self.addr.port));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Delivered, lost into a dead node, or sent to a port nobody is bound
    /// to: once the event queue is empty no segment or datagram record is
    /// left in any table.
    #[test]
    fn nothing_in_flight_outlives_the_event_queue() {
        const PORT: u16 = 11211;
        let cluster = Rc::new(Cluster::cluster_a(5, 4));
        let fabric = SockFabric::new(cluster.clone());
        let sim = cluster.sim().clone();
        let stack = Stack::TenGigEToe;
        let server = SocketAddr {
            node: NodeId(1),
            port: PORT,
        };
        let listener = fabric.listen(stack, server.node, PORT).expect("port free");
        let f = fabric.clone();
        let (sock, peer, _udp, _udp_peer) = sim.block_on(async move {
            let accepted = f
                .cluster()
                .sim()
                .spawn(async move { listener.accept().await });
            let sock = f
                .connect(stack, NodeId(0), server, DEFAULT_CONNECT_TIMEOUT)
                .await
                .expect("connected");
            let peer = accepted.await.expect("accepted");
            let udp = f.udp_bind(stack, NodeId(0), PORT).expect("port free");
            let udp_peer = f.udp_bind(stack, server.node, PORT).expect("port free");
            let unbound = SocketAddr {
                node: NodeId(2),
                port: PORT,
            };
            for _ in 0..4 {
                sock.write_all(&[1; 100]).await.expect("open");
                peer.write_all(&[2; 3000]).await.expect("open");
                udp.send_to(server, &[3; 64]).await.expect("up");
                udp.send_to(unbound, &[4; 64]).await.expect("up");
            }
            (sock, peer, udp, udp_peer)
        });
        // Still on their way: the last writes of each kind.
        let in_flight = |sock: &Socket| sock.peer_rx.segments.borrow().len();
        assert!(in_flight(&sock) > 0 && in_flight(&peer) > 0);
        assert!(!fabric.inner.datagrams.borrow().is_empty());
        // The server's node dies with bytes heading for it.
        fabric.kill_node(server.node);
        sim.run();
        assert_eq!(sim.pending_events(), 0);
        assert_eq!((in_flight(&sock), in_flight(&peer)), (0, 0));
        assert!(fabric.inner.datagrams.borrow().is_empty());
    }
}
