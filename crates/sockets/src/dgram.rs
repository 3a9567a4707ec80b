//! Datagram (UDP) sockets.
//!
//! Memcached's UDP mode is the §III baseline: Facebook's scaling work
//! ("Scaling memcached at Facebook") moved gets to UDP to cut per-
//! connection memory and kernel overhead, reaching ~250 K requests/s per
//! server at 173 µs average latency. Datagrams here are unreliable: no
//! connection, silent loss when the receiver's socket buffer overflows
//! (the real failure mode Facebook engineered around), silent loss into
//! dead nodes, and per-message kernel costs like the TCP paths — but no
//! per-connection state.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use simnet::profiles::SocketStackProfile;
use simnet::sync::Notify;
use simnet::{EventTarget, Network, Sim, SimTime, SlabKey, Stack};

use crate::fabric::SockFabricInner;
use crate::stream::{SockError, SocketAddr};

/// Datagrams queued beyond this bound are dropped (SO_RCVBUF overflow).
pub const DGRAM_RCVBUF_DATAGRAMS: usize = 256;

/// Largest UDP payload accepted (IPv4 datagram limit minus headers).
pub const MAX_DGRAM_BYTES: usize = 65_507;

pub(crate) struct DgramInbox {
    pub queue: RefCell<VecDeque<(SocketAddr, Vec<u8>)>>,
    pub notify: Notify,
    pub dropped: std::cell::Cell<u64>,
}

/// One datagram on its way, as the stage it waits for. The table is the
/// fabric's: a datagram is addressed to a port, and which socket is bound
/// there is looked up when it is delivered.
pub(crate) struct Datagram {
    stack: Stack,
    profile: SocketStackProfile,
    src: SocketAddr,
    dst: SocketAddr,
    payload: Vec<u8>,
    /// False on the wire; true once the receiving kernel has it.
    in_kernel: bool,
}

impl SockFabricInner {
    /// Puts `dgram` in the table and schedules its stage for `at`.
    fn launch(self: &Rc<Self>, at: SimTime, dgram: Datagram) {
        let key = self.datagrams.borrow_mut().insert(dgram);
        self.cluster
            .sim()
            .schedule_target_at(at, self.clone(), key.token());
    }
}

impl EventTarget for SockFabricInner {
    /// Advances the datagram `token` names by the stage it was waiting for.
    fn fire(self: Rc<Self>, token: u64) {
        let taken = self
            .datagrams
            .borrow_mut()
            .remove(SlabKey::from_token(token));
        let Some(mut dgram) = taken else { return };
        let dst = dgram.dst;
        if !dgram.in_kernel {
            if self.is_dead(dst.node) {
                return; // dropped on the floor
            }
            let kernel = &self.cluster.node(dst.node).kernel;
            let p = &dgram.profile;
            let service = p.kernel_recv + p.data_path_cost(dgram.payload.len() as u64);
            let ready = kernel.occupy_from(self.cluster.sim().now(), service);
            dgram.in_kernel = true;
            self.launch(ready, dgram);
            return;
        }
        let Some(inbox) = self.dgram_inbox(dgram.stack, dst) else {
            return; // no socket bound: ICMP port unreachable, i.e. silence
        };
        let mut q = inbox.queue.borrow_mut();
        if q.len() >= DGRAM_RCVBUF_DATAGRAMS {
            // Receive buffer overflow: the datagram is lost. This
            // is UDP's defining hazard under load.
            inbox.dropped.set(inbox.dropped.get() + 1);
            return;
        }
        q.push_back((dgram.src, dgram.payload));
        drop(q);
        inbox.notify.notify_all();
    }
}

/// An unconnected datagram socket bound to `(stack, node, port)`.
pub struct DgramSocket {
    pub(crate) fabric: Rc<SockFabricInner>,
    pub(crate) stack: Stack,
    pub(crate) profile: SocketStackProfile,
    pub(crate) net: Rc<Network>,
    pub(crate) local: SocketAddr,
    pub(crate) inbox: Rc<DgramInbox>,
}

impl DgramSocket {
    /// Datagrams dropped at this socket due to buffer overflow.
    pub fn dropped(&self) -> u64 {
        self.inbox.dropped.get()
    }

    /// Sends one datagram to `dst`. Resolves when the local kernel has
    /// taken the packet; delivery is best-effort.
    pub async fn send_to(&self, dst: SocketAddr, payload: &[u8]) -> Result<(), SockError> {
        if payload.len() > MAX_DGRAM_BYTES {
            return Err(SockError::Closed);
        }
        let sim = self.sim();
        if self.fabric.is_dead(self.local.node) {
            return Err(SockError::Closed);
        }
        if dst.node == self.local.node {
            return Err(SockError::ConnectionRefused);
        }
        sim.sleep(self.profile.app_send).await;
        let kernel = &self.fabric.cluster.node(self.local.node).kernel;
        let launch = kernel.occupy_from(sim.now(), self.profile.kernel_send);
        let wire = payload.len() as u64 + 46; // UDP/IP/Ethernet headers
        let arrives = self.net.carry(self.local.node, dst.node, wire, launch);
        let on_wire = Datagram {
            stack: self.stack,
            profile: self.profile,
            src: self.local,
            dst,
            payload: payload.to_vec(),
            in_kernel: false,
        };
        self.fabric.launch(arrives, on_wire);
        Ok(())
    }

    /// Receives the next datagram (waits if none is queued).
    pub async fn recv_from(&self) -> Result<(SocketAddr, Vec<u8>), SockError> {
        let sim = self.sim();
        loop {
            let popped = self.inbox.queue.borrow_mut().pop_front();
            if let Some(dgram) = popped {
                sim.sleep(self.profile.app_recv).await;
                return Ok(dgram);
            }
            if self.fabric.is_dead(self.local.node) {
                return Err(SockError::Closed);
            }
            let inbox = &self.inbox;
            inbox
                .notify
                .wait_until(|| !inbox.queue.borrow().is_empty())
                .await;
        }
    }

    fn sim(&self) -> Sim {
        self.fabric.cluster.sim().clone()
    }
}

impl Drop for DgramSocket {
    fn drop(&mut self) {
        self.fabric.dgram_unbind(self.stack, self.local);
    }
}
