//! Connection manager: rendezvous for RC queue pairs.
//!
//! InfiniBand RC requires both sides to learn each other's QP number before
//! traffic can flow; real deployments use the RDMA CM (or sockets) for this
//! exchange. Here a listener binds a service port on a node; a client's
//! [`connect`] sends a small CM request over the fabric, the acceptor
//! creates a passive QP and replies, and both QPs transition to RTS. UCR's
//! endpoint establishment (paper §IV-A) is built directly on this.

use simnet::sync::{self, timeout};
use simnet::trace::{Layer, Track};
use simnet::{NodeId, SimDuration};

use crate::cq::Cq;
use crate::fabric::Hca;
use crate::mr::Pd;
use crate::qp::{QpType, QueuePair, Srq};
use crate::types::VerbsError;

/// Size of CM control messages on the wire.
const CM_MSG_BYTES: u64 = 64;

/// Fixed CM software processing per handshake step (connection setup is
/// not on the benchmarked fast path; real CM is far slower than this).
const CM_STEP_COST: SimDuration = SimDuration::from_micros(5);

/// Default handshake timeout.
pub const DEFAULT_CONNECT_TIMEOUT: SimDuration = SimDuration::from_millis(100);

/// Messages the CM exchanges (crate-internal).
#[derive(Clone)]
pub struct CmMessage {
    /// Connection attempt id, echoed in the reply.
    pub conn_id: u64,
    /// Requesting node.
    pub src_node: NodeId,
    /// Requesting QP number.
    pub src_qpn: u32,
    /// Target service port.
    pub port: u16,
}

/// A bound service port accepting RC connections.
pub struct Listener {
    hca: Hca,
    port: u16,
    /// The adapter's incarnation when the port was bound.
    incarnation: u64,
    rx: sync::Receiver<CmMessage>,
}

impl Hca {
    /// Binds `port` and returns a listener. Fails if the port is taken.
    pub fn listen(&self, port: u16) -> Result<Listener, VerbsError> {
        let mut listeners = self.inner.listeners.borrow_mut();
        if listeners.contains_key(&port) {
            return Err(VerbsError::InvalidState("port already bound"));
        }
        let (tx, rx) = sync::channel();
        listeners.insert(port, tx);
        Ok(Listener {
            hca: self.clone(),
            port,
            incarnation: self.inner.incarnation.get(),
            rx,
        })
    }
}

impl Listener {
    /// The bound port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Accepts one inbound connection: creates a passive RC QP with the
    /// given resources, replies to the requester, and returns the QP ready
    /// to send.
    pub async fn accept(
        &self,
        pd: &Pd,
        send_cq: &Cq,
        recv_cq: &Cq,
        srq: Option<&Srq>,
    ) -> Result<QueuePair, VerbsError> {
        let req = self
            .rx
            .recv()
            .await
            .map_err(|_| VerbsError::InvalidState("listener closed"))?;
        let sim = self.hca.sim();
        sim.sleep(CM_STEP_COST).await;

        let qp = pd.create_qp(QpType::Rc, send_cq, recv_cq, srq);
        qp.connect_to(req.src_node, req.src_qpn)?;

        // Reply with our QP number.
        let inner = &self.hca.inner;
        let fabric = inner
            .fabric
            .upgrade()
            .ok_or(VerbsError::NotFound("fabric"))?;
        let dst = req.src_node;
        let conn_id = req.conn_id;
        let qpn = qp.qpn();
        let fabric_weak = inner.fabric.clone();
        inner
            .net
            .clone()
            .transmit(&sim, inner.node, dst, CM_MSG_BYTES, sim.now(), move || {
                if let Some(f) = fabric_weak.upgrade() {
                    if let Some(rhca) = f.live_hca(dst) {
                        if let Some(tx) = rhca.pending_connects.borrow_mut().remove(&conn_id) {
                            let _ = tx.send(Ok(qpn));
                        }
                    }
                }
            });
        let _ = fabric;
        inner.tracer.instant(
            Layer::Verbs,
            "cm_accept",
            inner.node,
            Track::Qp(qp.qpn()),
            conn_id,
            0,
            sim.now(),
        );
        Ok(qp)
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        // Past a kill the port is no longer this listener's: another may
        // hold it now.
        if self.hca.inner.incarnation.get() == self.incarnation {
            self.hca.inner.listeners.borrow_mut().remove(&self.port);
        }
    }
}

/// Connects an RC QP to a listener at `(dst, port)`, creating the active QP
/// from the supplied resources. Resolves once the handshake completes or
/// `connect_timeout` elapses.
#[allow(clippy::too_many_arguments)] // mirrors the rdma_cm parameter surface
pub async fn connect(
    hca: &Hca,
    pd: &Pd,
    send_cq: &Cq,
    recv_cq: &Cq,
    srq: Option<&Srq>,
    dst: NodeId,
    port: u16,
    connect_timeout: SimDuration,
) -> Result<QueuePair, VerbsError> {
    let sim = hca.sim();
    if dst == hca.node() {
        return Err(VerbsError::InvalidState("CM loopback not modeled"));
    }
    sim.sleep(CM_STEP_COST).await;

    let qp = pd.create_qp(QpType::Rc, send_cq, recv_cq, srq);
    let inner = &hca.inner;
    let conn_id = inner.next_conn();
    let (tx, rx) = sync::oneshot();
    inner.pending_connects.borrow_mut().insert(conn_id, tx);

    let msg = CmMessage {
        conn_id,
        src_node: inner.node,
        src_qpn: qp.qpn(),
        port,
    };
    let fabric_weak = inner.fabric.clone();
    let src = inner.node;
    inner
        .net
        .clone()
        .transmit(&sim, src, dst, CM_MSG_BYTES, sim.now(), move || {
            let Some(f) = fabric_weak.upgrade() else {
                return;
            };
            let reject = match f.live_hca(dst) {
                Some(rhca) => {
                    let delivered = rhca
                        .listeners
                        .borrow()
                        .get(&msg.port)
                        .map(|tx| tx.send(msg.clone()).is_ok())
                        .unwrap_or(false);
                    !delivered
                }
                None => true,
            };
            if reject {
                // Send a reject straight back.
                let sim2 = f.cluster.sim().clone();
                let f2 = fabric_weak.clone();
                if let Some(rhca) = f.hcas.borrow().get(&dst).cloned() {
                    rhca.net.clone().transmit(
                        &sim2,
                        dst,
                        src,
                        CM_MSG_BYTES,
                        sim2.now(),
                        move || {
                            if let Some(f) = f2.upgrade() {
                                if let Some(sh) = f.live_hca(src) {
                                    if let Some(tx) =
                                        sh.pending_connects.borrow_mut().remove(&conn_id)
                                    {
                                        let _ = tx.send(Err(VerbsError::ConnectionRefused));
                                    }
                                }
                            }
                        },
                    );
                }
            }
        });

    let res = match timeout(&sim, connect_timeout, rx).await {
        Ok(Ok(Ok(remote_qpn))) => {
            qp.connect_to(dst, remote_qpn)?;
            Ok(qp)
        }
        Ok(Ok(Err(e))) => {
            qp.close();
            Err(e)
        }
        Ok(Err(_cancelled)) => {
            qp.close();
            Err(VerbsError::ConnectionRefused)
        }
        Err(_elapsed) => {
            inner.pending_connects.borrow_mut().remove(&conn_id);
            qp.close();
            Err(VerbsError::ConnectionTimeout)
        }
    };
    inner.tracer.instant(
        Layer::Verbs,
        if res.is_ok() {
            "cm_connect"
        } else {
            "cm_connect_failed"
        },
        inner.node,
        match &res {
            Ok(qp) => Track::Qp(qp.qpn()),
            Err(_) => Track::Main,
        },
        conn_id,
        0,
        sim.now(),
    );
    res
}
