//! Byte-stream sockets: the data path.
//!
//! A [`Socket`] is one endpoint of a full-duplex byte stream. Unlike the
//! verbs layer, a socket write crosses the kernel: the sender pays a
//! syscall cost, the sending node's kernel pipeline is occupied per
//! message, the bytes are segmented onto the wire with per-segment header
//! overhead, and the receiving node's kernel pipeline is occupied for the
//! per-message cost *plus the per-byte data-path cost* (buffer copies and
//! byte-stream re-framing — the semantic mismatch the paper identifies as
//! the fundamental sockets limitation, §III). The reader finally pays a
//! wakeup/copy-out cost. All of this is driven by the per-stack
//! [`SocketStackProfile`](simnet::profiles::SocketStackProfile).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::rc::Rc;

use simnet::profiles::SocketStackProfile;
use simnet::sync::Notify;
use simnet::{EventTarget, Network, NodeId, Sim, SimDuration, SimTime, Slab, SlabKey, Stack};

use crate::fabric::SockFabricInner;

/// Errors from socket operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SockError {
    /// The peer closed (or its node died) and all buffered data is drained.
    Closed,
    /// No listener at the target, or the target node is down.
    ConnectionRefused,
    /// Connect handshake timed out.
    ConnectionTimeout,
    /// The requested transport does not exist on this cluster.
    StackUnavailable(Stack),
}

impl fmt::Display for SockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SockError::Closed => write!(f, "connection closed"),
            SockError::ConnectionRefused => write!(f, "connection refused"),
            SockError::ConnectionTimeout => write!(f, "connection timed out"),
            SockError::StackUnavailable(s) => {
                write!(f, "transport {} not available on this cluster", s.label())
            }
        }
    }
}

impl std::error::Error for SockError {}

/// A socket address: node + service port.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SocketAddr {
    /// Target node.
    pub node: NodeId,
    /// Service port.
    pub port: u16,
}

/// One write on its way into a [`RecvBuf`], as the stage it waits for.
/// Its payload is a buffer from the fabric's segment pool, given back once
/// the bytes are in the socket buffer or have nowhere to go.
pub(crate) enum Segment {
    /// On the wire to the receiving node.
    Arrive {
        fabric: Rc<SockFabricInner>,
        payload: Vec<u8>,
    },
    /// In the receiving kernel, due in the socket buffer.
    Deliver {
        fabric: Rc<SockFabricInner>,
        payload: Vec<u8>,
    },
    /// The peer closed: its FIN is one propagation delay out.
    Fin,
}

/// Per-direction receive buffer (lives at the receiving endpoint).
pub(crate) struct RecvBuf {
    /// The receiving node, and its stack's costs.
    node: NodeId,
    profile: SocketStackProfile,
    pub data: RefCell<VecDeque<u8>>,
    pub notify: Notify,
    pub closed: Cell<bool>,
    /// Latest scheduled delivery instant: keeps the byte stream in order
    /// even when a jitter spike delays one message.
    pub last_delivery: Cell<SimTime>,
    /// The writes still on their way in.
    pub(crate) segments: RefCell<Slab<Segment>>,
}

impl RecvBuf {
    pub(crate) fn new(node: NodeId, profile: SocketStackProfile) -> Rc<RecvBuf> {
        Rc::new(RecvBuf {
            node,
            profile,
            data: RefCell::new(VecDeque::new()),
            notify: Notify::new(),
            closed: Cell::new(false),
            last_delivery: Cell::new(SimTime::ZERO),
            segments: RefCell::new(Slab::new()),
        })
    }

    /// Puts `segment` in the table and schedules its stage for `at`.
    fn launch(self: &Rc<Self>, sim: &Sim, at: SimTime, segment: Segment) {
        let key = self.segments.borrow_mut().insert(segment);
        sim.schedule_target_at(at, self.clone(), key.token());
    }

    pub(crate) fn push(&self, bytes: &[u8]) {
        self.data.borrow_mut().extend(bytes.iter().copied());
        self.notify.notify_all();
    }

    pub(crate) fn close(&self) {
        self.closed.set(true);
        self.notify.notify_all();
    }
}

impl EventTarget for RecvBuf {
    /// Advances the segment `token` names by the stage it was waiting for.
    fn fire(self: Rc<Self>, token: u64) {
        let segment = self
            .segments
            .borrow_mut()
            .remove(SlabKey::from_token(token));
        let Some(segment) = segment else { return };
        match segment {
            Segment::Arrive { fabric, payload } => {
                let (dst, profile) = (self.node, &self.profile);
                if fabric.is_dead(dst) {
                    // The bytes vanish into the dead node.
                    fabric.seg_free.give_back_bytes(payload);
                    return;
                }
                let sim = fabric.cluster.sim().clone();
                // Kernel receive-side occupancy: per-message cost plus the
                // per-byte data path (copies, re-framing).
                let service = profile.kernel_recv + profile.data_path_cost(payload.len() as u64);
                let dst_kernel = &fabric.cluster.node(dst).kernel;
                let mut ready = dst_kernel.occupy_from(sim.now(), service);
                // Jitter spikes (the SDP-on-QDR artifact, §VI-B) delay this
                // message's delivery but do not burn shared kernel time —
                // the paper observes noisy latency, not collapsed
                // throughput.
                if let Some(j) = profile.jitter {
                    let spike = sim.with_rng(|r| {
                        if r.gen_bool(j.prob) {
                            r.gen_exp(j.mean)
                        } else {
                            SimDuration::ZERO
                        }
                    });
                    ready += spike;
                }
                // TCP ordering: never deliver before earlier bytes of this
                // direction.
                ready = ready.max(self.last_delivery.get());
                self.last_delivery.set(ready);
                self.launch(&sim, ready, Segment::Deliver { fabric, payload });
            }
            Segment::Deliver { fabric, payload } => {
                // A reset that got here first leaves the bytes nowhere to go.
                if !self.closed.get() {
                    self.push(&payload);
                }
                fabric.seg_free.give_back_bytes(payload);
            }
            Segment::Fin => self.close(),
        }
    }
}

/// Ethernet/IP/TCP (or IPoIB/SDP framing) header bytes charged per segment.
const SEGMENT_HEADER_BYTES: u64 = 66;

/// Extra launch delay for small writes when Nagle's algorithm is left on.
/// The paper's benchmarks set `MEMCACHED_BEHAVIOR_TCP_NODELAY, 1` to avoid
/// exactly this coalescing penalty (§VI).
const NAGLE_COALESCE_DELAY: SimDuration = SimDuration::from_micros(400);

/// One endpoint of an established byte-stream connection.
pub struct Socket {
    pub(crate) fabric: Rc<SockFabricInner>,
    pub(crate) stack: Stack,
    pub(crate) profile: SocketStackProfile,
    pub(crate) net: Rc<Network>,
    pub(crate) local: SocketAddr,
    pub(crate) peer: SocketAddr,
    /// Inbound bytes for this endpoint.
    pub(crate) rx: Rc<RecvBuf>,
    /// The peer's inbound buffer (where our writes land).
    pub(crate) peer_rx: Rc<RecvBuf>,
    pub(crate) nodelay: Cell<bool>,
    pub(crate) sock_id: u64,
    /// Set by [`close`](Socket::close): writes fail immediately (EPIPE).
    pub(crate) local_closed: Cell<bool>,
}

impl Socket {
    /// Transport this socket runs on.
    pub fn stack(&self) -> Stack {
        self.stack
    }

    /// Enables/disables Nagle coalescing (`TCP_NODELAY`). Memcached's
    /// clients set this, and the paper's benchmarks rely on it.
    pub fn set_nodelay(&self, on: bool) {
        self.nodelay.set(on);
    }

    /// Queues `buf` for transmission. Resolves when the local kernel has
    /// accepted the bytes (socket-buffer semantics): the transfer itself
    /// completes asynchronously in simulated time.
    ///
    /// The bytes are copied into a segment buffer from the fabric's pool
    /// when the call is made, so the returned future does not borrow
    /// `buf`: the caller may write its next frame into the same buffer
    /// while this one is on its way.
    pub fn write_all(&self, buf: &[u8]) -> impl Future<Output = Result<(), SockError>> + '_ {
        let mut payload = self.fabric.seg_free.take().unwrap_or_default();
        payload.extend_from_slice(buf);
        async move {
            let sim = self.sim();
            if self.local_closed.get()
                || self.peer_rx.closed.get()
                || self.fabric.is_dead(self.local.node)
            {
                self.fabric.seg_free.give_back_bytes(payload);
                return Err(SockError::Closed);
            }
            // Application-side syscall + copy into the socket buffer.
            sim.sleep(self.profile.app_send).await;

            let len = payload.len() as u64;
            let mss = (self.net.mtu() as u64)
                .saturating_sub(SEGMENT_HEADER_BYTES)
                .max(1);
            let nseg = len.div_ceil(mss).max(1);
            let wire_bytes = len + nseg * SEGMENT_HEADER_BYTES;

            // Kernel send-side occupancy (shared with every other socket on
            // this node).
            let src_kernel = &self.fabric.cluster.node(self.local.node).kernel;
            let mut launch = src_kernel.occupy_from(sim.now(), self.profile.kernel_send);
            if !self.nodelay.get() && len < mss {
                launch += NAGLE_COALESCE_DELAY;
            }

            // Receive-side work happens at delivery.
            let dst = self.peer.node;
            let arrives = self.net.carry(self.local.node, dst, wire_bytes, launch);
            let on_wire = Segment::Arrive {
                fabric: self.fabric.clone(),
                payload,
            };
            self.peer_rx.launch(&sim, arrives, on_wire);
            Ok(())
        }
    }

    /// Reads up to `max` available bytes onto the end of `buf`, waiting for
    /// at least one; returns how many. `Err(Closed)` once the peer has
    /// closed and the buffer is drained.
    pub async fn read(&self, buf: &mut Vec<u8>, max: usize) -> Result<usize, SockError> {
        assert!(max > 0, "read of zero bytes");
        let sim = self.sim();
        loop {
            if self.local_closed.get() {
                return Err(SockError::Closed);
            }
            let taken = {
                let mut data = self.rx.data.borrow_mut();
                let n = data.len().min(max);
                let (front, back) = data.as_slices();
                let from_front = front.len().min(n);
                buf.extend_from_slice(&front[..from_front]);
                buf.extend_from_slice(&back[..n - from_front]);
                data.drain(..n);
                n
            };
            if taken > 0 {
                // Reader wakeup + copy-out.
                sim.sleep(self.profile.app_recv).await;
                return Ok(taken);
            }
            if self.rx.closed.get() {
                return Err(SockError::Closed);
            }
            let rx = &self.rx;
            rx.notify
                .wait_until(|| !rx.data.borrow().is_empty() || rx.closed.get())
                .await;
        }
    }

    /// Reads exactly `n` bytes (looping over [`read`](Socket::read)).
    pub async fn read_exact(&self, n: usize) -> Result<Vec<u8>, SockError> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let max = n - out.len();
            self.read(&mut out, max).await?;
        }
        Ok(out)
    }

    /// Bytes currently buffered for reading.
    pub fn available(&self) -> usize {
        self.rx.data.borrow().len()
    }

    /// Closes both directions. The peer observes EOF after the in-flight
    /// data drains (a FIN takes one propagation delay).
    pub fn close(&self) {
        let sim = self.sim();
        self.local_closed.set(true);
        self.rx.close();
        let fin_at = sim.now() + self.net.propagation();
        self.peer_rx.launch(&sim, fin_at, Segment::Fin);
        self.fabric.forget(self.sock_id);
    }

    fn sim(&self) -> Sim {
        self.fabric.cluster.sim().clone()
    }
}

impl fmt::Debug for Socket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Socket")
            .field("stack", &self.stack)
            .field("local", &self.local)
            .field("peer", &self.peer)
            .finish()
    }
}
