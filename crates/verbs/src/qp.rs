//! Queue pairs, work requests, shared receive queues.
//!
//! Implements the verbs data path over the simulated fabric:
//!
//! * **SEND/RECV** (two-sided): payload travels with the message; the
//!   receiver must have a receive posted (on the QP or its SRQ). Receive
//!   completions carry immediate data and the arrival QP number.
//! * **RDMA WRITE / WRITE-with-imm** (one-sided): data lands directly in
//!   the target region; no target CPU cost is charged — OS-bypass is the
//!   paper's core mechanism. WRITE-with-imm additionally consumes a
//!   receive and produces a target completion.
//! * **RDMA READ** (one-sided): the requester pulls remote bytes; the
//!   target HCA serves the read without any software involvement. This is
//!   how the UCR server fetches large `set` payloads (paper §V-B).
//!
//! Timing per operation: the poster pays the doorbell cost, the local HCA
//! pipeline is occupied per work request (its reciprocal is the adapter
//! message rate — the Figure 6 ceiling), the fabric moves the bytes, and
//! the remote HCA pipeline is occupied on arrival. Reliability: RC
//! operations targeting a dead or closed endpoint complete locally with
//! `RetryExceeded` after a retry delay; UD sends complete immediately and
//! drop silently on the floor, as real UD does.
//!
//! A work request in transit is one [`Flight`] record in a table of the
//! queue pair that posted it, advanced stage by stage by targeted events
//! (`impl EventTarget for QpInner`; DESIGN.md §5 has the stage table per
//! opcode). Nothing is allocated for a stage. A registered request carries
//! its local window, and the target HCA's stage copies region to region: a
//! SEND lands from the posted window in the receive it matches, a WRITE in
//! the target window, a READ from the source window at the instant it is
//! served. Only an inline SEND, a UD datagram (read at the post: UD
//! completes at the local HCA) and a SEND parked for want of a receive
//! carry bytes of their own.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::{Rc, Weak};

use simnet::trace::{Layer, Track};
use simnet::{EventTarget, NodeId, Sim, SimDuration, SimTime, Slab, SlabKey};

use crate::cq::Cq;
use crate::fabric::{HcaInner, IbFabricInner};
use crate::mr::{resolve_remote, MrSlice, Pd};
use crate::types::{
    Access, RemoteMemory, VerbsError, Wc, WcOpcode, WcStatus, UD_GRH_BYTES, WIRE_HEADER_BYTES,
};

/// Transport type of a queue pair.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QpType {
    /// Reliable Connection: ordered, acknowledged, supports RDMA.
    Rc,
    /// Unreliable Datagram: connectionless, MTU-limited, may drop.
    Ud,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum QpState {
    Init,
    Rts,
    Closed,
}

/// Simulated cost of exhausting RC retries against a dead peer before the
/// HCA reports `RetryExceeded`. (Real stacks take retry_cnt × timeout; we
/// use a compressed constant so fault tests stay fast.)
pub const RETRY_EXCEEDED_DELAY: SimDuration = SimDuration::from_micros(200);

/// A posted receive.
struct RecvWr {
    wr_id: u64,
    buf: MrSlice,
}

/// An inbound two-sided message waiting for receive matching.
struct Inbound {
    payload: Payload,
    imm: Option<u32>,
    opcode: WcOpcode,
    src: Option<(NodeId, u32)>,
}

/// The bytes of a two-sided message.
enum Payload {
    /// A registered SEND's posted window: the work request's until it
    /// completes, so the target HCA reads it when the message lands.
    Region(MrSlice),
    /// Bytes the message owns: an inline SEND's, a datagram's, a parked
    /// SEND's snapshot; none for a WRITE_WITH_IMM notice.
    Owned(Vec<u8>),
}

impl Payload {
    fn len(&self) -> usize {
        match self {
            Payload::Region(window) => window.len(),
            Payload::Owned(bytes) => bytes.len(),
        }
    }

    /// Runs `f` over the bytes as the HCA reads them now; `None` if it
    /// cannot (see [`MrSlice::dma_view`]).
    fn read<R>(&self, f: impl FnOnce(&[u8]) -> R) -> Option<R> {
        match self {
            Payload::Region(window) => window.dma_view().map(|bytes| f(&bytes)),
            Payload::Owned(bytes) => Some(f(bytes)),
        }
    }
}

/// A work request in transit, as the stage it is waiting for. Posting makes
/// the first stage; each event takes the record out of the posting queue
/// pair's table, does what the stage does and, unless that was the last,
/// puts the next stage in. [`Flight::Complete`] is the last stage of every
/// reliable work request.
enum Flight {
    /// A SEND (registered or inline) is on the wire to `to`, the connected
    /// peer's node and queue pair.
    SendArrive {
        wr_id: u64,
        msg: Inbound,
        to: (NodeId, u32),
    },
    /// The target HCA's pipeline has the SEND: copy it into a receive of
    /// `rqp` (or park it) and acknowledge.
    SendDeliver {
        wr_id: u64,
        msg: Inbound,
        rqp: Rc<QpInner>,
    },
    /// A UD datagram is on the wire.
    DgramArrive { msg: Inbound, to: (NodeId, u32) },
    /// The target HCA's pipeline has the datagram: deliver it if `rqp` has
    /// a receive posted, else drop it.
    DgramDeliver { msg: Inbound, rqp: Rc<QpInner> },
    /// An RDMA WRITE (with or without immediate) is on the wire.
    WriteArrive(Write),
    /// The target HCA has the WRITE: check the window, copy the posted
    /// window into it, consume a receive for the immediate, acknowledge.
    WriteLand(Write, Rc<HcaInner>),
    /// An RDMA READ request is on the wire to the target.
    ReadRequest(Read, RemoteMemory),
    /// The target HCA has the READ request: check the window, copy it into
    /// the requester's window and put the data on the wire, or NAK.
    ReadServe(Read, RemoteMemory, Rc<HcaInner>),
    /// The READ's data is on the wire back to the requester, with what
    /// became of the copy.
    ReadData(Read, WcStatus),
    /// The requester's HCA has the data: complete.
    ReadLand(Read, WcStatus),
    /// The completion reaches the send CQ.
    Complete {
        wr_id: u64,
        opcode: WcOpcode,
        status: WcStatus,
        byte_len: u32,
    },
}

/// An RDMA WRITE on its way: the posted window (the work request's until it
/// completes, so the target HCA reads it when it lands), where it goes
/// (`remote.node` is the connected peer, checked at the post) and the target
/// queue pair whose receive an immediate consumes.
struct Write {
    wr_id: u64,
    local: MrSlice,
    imm: Option<u32>,
    remote: RemoteMemory,
    dqpn: u32,
}

/// An RDMA READ on its way: where the data lands, and the requester's HCA,
/// held as the request holds it from post to completion.
struct Read {
    wr_id: u64,
    local: MrSlice,
    hca: Rc<HcaInner>,
}

/// A shared receive queue: one pool of receives serving many QPs — the
/// MVAPICH scalability design the paper reuses for buffer management.
///
/// A message that finds the pool empty first raises the SRQ's limit event
/// (`IBV_EVENT_SRQ_LIMIT_REACHED`, armed by `ibv_modify_srq`), at no
/// virtual time: the owner's handler, if it installed one, may post, and
/// the message takes what was posted. Otherwise it is parked on its QP (RC
/// would RNR-NAK and retry) and the SRQ remembers the QP, so the next
/// buffer posted goes to the oldest parked message; a datagram is dropped.
/// Invariant: the pool holds a buffer only while nothing is parked, so an
/// arrival never overtakes a parked message — on its own QP or on a
/// sibling.
#[derive(Clone)]
pub struct Srq {
    inner: Rc<SrqInner>,
}

struct SrqInner {
    queue: RefCell<VecDeque<RecvWr>>,
    /// One entry per parked message, in arrival order: the QP whose
    /// `pending_inbound` holds it.
    parked: RefCell<VecDeque<Weak<QpInner>>>,
    /// Runs when a message finds the pool empty.
    on_limit: RefCell<Option<Rc<dyn Fn()>>>,
}

impl Srq {
    /// Creates an empty SRQ.
    pub fn new() -> Srq {
        Srq {
            inner: Rc::new(SrqInner {
                queue: RefCell::new(VecDeque::new()),
                parked: RefCell::new(VecDeque::new()),
                on_limit: RefCell::new(None),
            }),
        }
    }

    /// Installs the limit event's handler, replacing any previous one: it
    /// runs whenever a message finds the pool empty, before the message
    /// parks or drops, and may [`post_recv`](Self::post_recv). It must not
    /// hold the SRQ strongly, or the two keep each other alive.
    pub fn set_limit_handler(&self, handler: impl Fn() + 'static) {
        *self.inner.on_limit.borrow_mut() = Some(Rc::new(handler));
    }

    /// Posts a receive buffer to the shared pool, or straight to the
    /// oldest message parked for want of one.
    pub fn post_recv(&self, wr_id: u64, buf: MrSlice) {
        let rwr = RecvWr { wr_id, buf };
        loop {
            let Some(qp) = self.inner.parked.borrow_mut().pop_front() else {
                break;
            };
            // A QP dropped or closed since took its parked messages along.
            let Some(qp) = qp.upgrade().filter(|q| q.state.get() != QpState::Closed) else {
                continue;
            };
            let Some(msg) = qp.pending_inbound.borrow_mut().pop_front() else {
                continue;
            };
            qp.complete_recv(rwr, msg);
            return;
        }
        self.inner.queue.borrow_mut().push_back(rwr);
    }

    /// Buffers currently available.
    pub fn available(&self) -> usize {
        self.inner.queue.borrow().len()
    }

    /// The next buffer for an arrival: the oldest posted, or else whatever
    /// the limit event's handler posts for it.
    fn pop(&self) -> Option<RecvWr> {
        let posted = self.inner.queue.borrow_mut().pop_front();
        posted.or_else(|| {
            let handler = self.inner.on_limit.borrow().clone();
            handler?();
            self.inner.queue.borrow_mut().pop_front()
        })
    }
}

impl Default for Srq {
    fn default() -> Self {
        Srq::new()
    }
}

/// The work to perform in a send-side work request.
pub enum SendOp {
    /// Two-sided send of a registered window. On RC the target HCA reads it
    /// when the message lands, so it must not be rewritten before the send
    /// completes; on UD it is read at the post.
    Send {
        /// Local data to transmit.
        local: MrSlice,
        /// Optional immediate word delivered in the receive completion.
        imm: Option<u32>,
    },
    /// Two-sided send of an inline byte buffer (convenience for small
    /// control messages; real verbs has IBV_SEND_INLINE).
    SendInline {
        /// Bytes to transmit.
        data: Vec<u8>,
        /// Optional immediate word.
        imm: Option<u32>,
    },
    /// One-sided write into remote memory.
    RdmaWrite {
        /// Local source window.
        local: MrSlice,
        /// Remote destination window (rkey-addressed).
        remote: RemoteMemory,
        /// If set, the write consumes a remote receive and completes it
        /// with this immediate (WRITE_WITH_IMM).
        imm: Option<u32>,
    },
    /// One-sided read from remote memory into a local window.
    RdmaRead {
        /// Local destination window.
        local: MrSlice,
        /// Remote source window (rkey-addressed).
        remote: RemoteMemory,
    },
}

/// A send-side work request.
pub struct SendWr {
    /// Caller-chosen id returned in the completion.
    pub wr_id: u64,
    /// The operation.
    pub op: SendOp,
    /// UD only: destination address handle (node, QP number).
    pub ud_dest: Option<(NodeId, u32)>,
}

impl SendWr {
    /// Convenience constructor for RC work requests.
    pub fn new(wr_id: u64, op: SendOp) -> SendWr {
        SendWr {
            wr_id,
            op,
            ud_dest: None,
        }
    }
}

pub(crate) struct QpInner {
    pub qpn: u32,
    pub qp_type: QpType,
    pub pd_id: u32,
    /// Owning node, copied out of the HCA at creation so it stays
    /// readable even after the adapter is torn down.
    pub node: NodeId,
    /// Weak by necessity: the HCA's QP table holds `Rc<QpInner>`.
    pub hca: Weak<HcaInner>,
    /// For routing to the target; gone once the fabric is torn down (what
    /// is in flight then vanishes).
    fabric: Weak<IbFabricInner>,
    sim: Sim,
    pub send_cq: Cq,
    pub recv_cq: Cq,
    srq: Option<Srq>,
    recv_queue: RefCell<VecDeque<RecvWr>>,
    pending_inbound: RefCell<VecDeque<Inbound>>,
    remote: Cell<Option<(NodeId, u32)>>,
    state: Cell<QpState>,
    /// What an ack or a NAK takes to come back: one propagation delay (they
    /// are tiny and coalesced; their serialization is negligible).
    ack_delay: SimDuration,
    /// The work requests this queue pair has posted that are still in
    /// transit, each as the stage it waits for.
    flights: RefCell<Slab<Flight>>,
}

/// A queue pair.
#[derive(Clone)]
pub struct QueuePair {
    pub(crate) inner: Rc<QpInner>,
}

impl Pd {
    /// Creates a queue pair in this protection domain. RC QPs must be
    /// connected (via [`QueuePair::connect_to`] or the connection manager)
    /// before posting sends.
    pub fn create_qp(
        &self,
        qp_type: QpType,
        send_cq: &Cq,
        recv_cq: &Cq,
        srq: Option<&Srq>,
    ) -> QueuePair {
        let hca = &self.hca;
        let qpn = hca.next_qpn();
        let inner = Rc::new(QpInner {
            qpn,
            qp_type,
            pd_id: self.pd_id,
            node: hca.node,
            hca: Rc::downgrade(hca),
            fabric: hca.fabric.clone(),
            sim: hca.sim.clone(),
            send_cq: send_cq.clone(),
            recv_cq: recv_cq.clone(),
            srq: srq.cloned(),
            recv_queue: RefCell::new(VecDeque::new()),
            pending_inbound: RefCell::new(VecDeque::new()),
            remote: Cell::new(None),
            state: Cell::new(if qp_type == QpType::Ud {
                QpState::Rts // UD is usable immediately
            } else {
                QpState::Init
            }),
            ack_delay: hca.net.ser_time(0) + hca.net.propagation(),
            flights: RefCell::new(Slab::new()),
        });
        hca.qps.borrow_mut().insert(qpn, inner.clone());
        QueuePair { inner }
    }
}

impl QueuePair {
    /// This QP's number (exchange it out of band or via the CM).
    pub fn qpn(&self) -> u32 {
        self.inner.qpn
    }

    /// Transport type.
    pub fn qp_type(&self) -> QpType {
        self.inner.qp_type
    }

    /// The node this QP lives on.
    pub fn node(&self) -> NodeId {
        self.inner.node
    }

    /// Transitions an RC QP to ready-to-send against `(node, qpn)` —
    /// the INIT→RTR→RTS walk collapsed into one call. The peer must do the
    /// same with this QP's coordinates.
    pub fn connect_to(&self, node: NodeId, qpn: u32) -> Result<(), VerbsError> {
        if self.inner.qp_type != QpType::Rc {
            return Err(VerbsError::InvalidState("connect_to is for RC QPs"));
        }
        if self.inner.state.get() != QpState::Init {
            return Err(VerbsError::InvalidState("QP already connected or closed"));
        }
        self.inner.remote.set(Some((node, qpn)));
        self.inner.state.set(QpState::Rts);
        Ok(())
    }

    /// The connected peer, if any.
    pub fn remote(&self) -> Option<(NodeId, u32)> {
        self.inner.remote.get()
    }

    /// Tears the QP down. Peers sending afterwards see `RetryExceeded`.
    pub fn close(&self) {
        self.inner.state.set(QpState::Closed);
        if let Some(hca) = self.inner.hca.upgrade() {
            hca.tracer.instant(
                Layer::Verbs,
                "qp_close",
                hca.node,
                Track::Qp(self.inner.qpn),
                0,
                0,
                hca.sim.now(),
            );
            hca.qps.borrow_mut().remove(&self.inner.qpn);
        }
    }

    /// Posts a receive buffer on this QP. Panics if the QP uses an SRQ
    /// (post to the SRQ instead, as verbs requires) or if the buffer was
    /// registered under a different protection domain.
    pub fn post_recv(&self, wr_id: u64, buf: MrSlice) {
        assert!(
            self.inner.srq.is_none(),
            "QP uses an SRQ; post receives there"
        );
        assert_eq!(
            buf.inner.pd_id, self.inner.pd_id,
            "receive buffer and QP belong to different protection domains"
        );
        if let Some(hca) = self.inner.hca.upgrade() {
            hca.tracer.instant(
                Layer::Verbs,
                "post_recv",
                hca.node,
                Track::Qp(self.inner.qpn),
                wr_id,
                buf.len() as u64,
                hca.sim.now(),
            );
        }
        self.inner
            .recv_queue
            .borrow_mut()
            .push_back(RecvWr { wr_id, buf });
        self.inner.match_pending();
    }

    /// Posts a send-side work request. Returns synchronously; the outcome
    /// arrives on the send CQ.
    pub fn post_send(&self, wr: SendWr) -> Result<(), VerbsError> {
        let inner = &self.inner;
        let hca = inner.hca.upgrade().ok_or(VerbsError::NotFound("HCA"))?;
        if !hca.alive.get() {
            return Err(VerbsError::InvalidState("local HCA is down"));
        }
        if inner.state.get() != QpState::Rts {
            return Err(VerbsError::InvalidState("QP not ready to send"));
        }
        // Span begin for the work request; the matching end fires when its
        // completion lands on the send CQ (`complete_send_now`).
        let (ev_name, ev_bytes) = match &wr.op {
            SendOp::Send { local, .. } => ("send", local.len() as u64),
            SendOp::SendInline { data, .. } => ("send", data.len() as u64),
            SendOp::RdmaWrite { local, .. } => ("rdma_write", local.len() as u64),
            SendOp::RdmaRead { local, .. } => ("rdma_read", local.len() as u64),
        };
        let wr_id = wr.wr_id;
        let res = match inner.qp_type {
            QpType::Rc => self.post_send_rc(&hca, wr),
            QpType::Ud => self.post_send_ud(&hca, wr),
        };
        if res.is_ok() {
            hca.tracer.begin(
                Layer::Verbs,
                ev_name,
                hca.node,
                Track::Qp(inner.qpn),
                wr_id,
                ev_bytes,
                hca.sim.now(),
            );
        }
        res
    }

    fn post_send_rc(&self, hca: &Rc<HcaInner>, wr: SendWr) -> Result<(), VerbsError> {
        let this = &self.inner;
        let (dst, dqpn) = this
            .remote
            .get()
            .ok_or(VerbsError::InvalidState("RC QP has no peer"))?;
        // The fabric carries nothing to its own node, so a one-sided copy
        // never has one region at both ends.
        if dst == hca.node {
            return Err(VerbsError::InvalidState("RC loopback not modeled"));
        }
        // Local buffers must come from this QP's protection domain.
        let local_pd = match &wr.op {
            SendOp::Send { local, .. }
            | SendOp::RdmaWrite { local, .. }
            | SendOp::RdmaRead { local, .. } => Some(local.inner.pd_id),
            SendOp::SendInline { .. } => None,
        };
        if let Some(pd) = local_pd {
            if pd != this.pd_id {
                return Err(VerbsError::AccessViolation(
                    "MR and QP belong to different protection domains",
                ));
            }
        }
        let start = hca.sim.now() + hca.profile.post_overhead;
        let t_hca = hca.hw.hca.occupy_from(start, hca.profile.hca_msg);
        let wr_id = wr.wr_id;
        let two_sided = |payload: Payload, imm| {
            let wire = payload.len() as u64 + WIRE_HEADER_BYTES;
            let msg = this.outbound(payload, imm);
            let to = (dst, dqpn);
            (wire, Flight::SendArrive { wr_id, msg, to })
        };

        // What goes on the wire, and the stage that waits for it there.
        let (wire, flight) = match wr.op {
            SendOp::Send { local, imm } => two_sided(Payload::Region(local), imm),
            SendOp::SendInline { data, imm } => two_sided(Payload::Owned(data), imm),
            SendOp::RdmaWrite { local, remote, imm } => {
                if remote.node != dst {
                    return Err(VerbsError::AccessViolation(
                        "RDMA target is not the connected peer",
                    ));
                }
                if local.len() as u64 > remote.len {
                    return Err(VerbsError::AccessViolation("write exceeds remote window"));
                }
                let wire = local.len() as u64 + WIRE_HEADER_BYTES;
                let write = Write {
                    wr_id,
                    local,
                    imm,
                    remote,
                    dqpn,
                };
                (wire, Flight::WriteArrive(write))
            }
            SendOp::RdmaRead { local, remote } => {
                if remote.node != dst {
                    return Err(VerbsError::AccessViolation(
                        "RDMA target is not the connected peer",
                    ));
                }
                if local.len() as u64 > remote.len {
                    return Err(VerbsError::AccessViolation("read exceeds remote window"));
                }
                // Only the request packet travels out.
                let read = Read {
                    wr_id,
                    local,
                    hca: hca.clone(),
                };
                (WIRE_HEADER_BYTES, Flight::ReadRequest(read, remote))
            }
        };
        let arrives = hca.net.carry(hca.node, dst, wire, t_hca);
        this.launch(arrives, flight);
        Ok(())
    }

    fn post_send_ud(&self, hca: &Rc<HcaInner>, wr: SendWr) -> Result<(), VerbsError> {
        let this = &self.inner;
        let (dst, dqpn) = wr
            .ud_dest
            .ok_or(VerbsError::InvalidState("UD send needs ud_dest"))?;
        let (payload, imm) = match wr.op {
            // A datagram's send completes at the local HCA: the window is
            // the caller's again at once, so the bytes are read now.
            SendOp::Send { local, imm } => {
                let bytes = local.dma_view().map(|bytes| bytes.to_vec());
                let bytes = bytes.ok_or(VerbsError::AccessViolation("send window unreadable"))?;
                (bytes, imm)
            }
            SendOp::SendInline { data, imm } => (data, imm),
            _ => return Err(VerbsError::InvalidState("UD supports only SEND")),
        };
        if payload.len() as u64 > hca.net.mtu() as u64 {
            return Err(VerbsError::AccessViolation("UD payload exceeds path MTU"));
        }
        let start = hca.sim.now() + hca.profile.post_overhead;
        let t_hca = hca.hw.hca.occupy_from(start, hca.profile.hca_msg);
        let src = hca.node;
        let wire = payload.len() as u64 + WIRE_HEADER_BYTES + UD_GRH_BYTES;
        let bytes = payload.len() as u32;
        if dst == src {
            return Err(VerbsError::InvalidState("UD loopback not modeled"));
        }
        let msg = this.outbound(Payload::Owned(payload), imm);
        let arrives = hca.net.carry(src, dst, wire, t_hca);
        let to = (dst, dqpn);
        this.launch(arrives, Flight::DgramArrive { msg, to });
        // UD send completes locally as soon as the HCA has it.
        this.complete_send_at(t_hca, wr.wr_id, WcOpcode::Send, WcStatus::Success, bytes);
        Ok(())
    }
}

impl QpInner {
    /// A two-sided message as its target will see it arrive from this
    /// queue pair.
    fn outbound(&self, payload: Payload, imm: Option<u32>) -> Inbound {
        Inbound {
            payload,
            imm,
            opcode: WcOpcode::Recv,
            src: Some((self.node, self.qpn)),
        }
    }

    /// Puts `flight` in the table and schedules its stage for `at`.
    fn launch(self: &Rc<Self>, at: SimTime, flight: Flight) {
        let key = self.flights.borrow_mut().insert(flight);
        self.sim.schedule_target_at(at, self.clone(), key.token());
    }

    fn pop_recv(&self) -> Option<RecvWr> {
        match &self.srq {
            Some(s) => s.pop(),
            None => self.recv_queue.borrow_mut().pop_front(),
        }
    }

    /// Handles an inbound two-sided message (or WRITE_WITH_IMM notification):
    /// copies it into the next receive (on an empty SRQ, one its limit event
    /// posts), or parks it until one is posted.
    /// A registered SEND's window is read here, once — into the receive, or
    /// into a snapshot the parked message then owns, because the sender's
    /// completion does not wait for the park and the window is the sender's
    /// again once it has it. A window the HCA cannot read refuses the
    /// message: no receive is consumed, and the returned status is what the
    /// sender's completion reports.
    fn rx_inbound(self: &Rc<Self>, mut msg: Inbound) -> WcStatus {
        if msg.payload.read(|_| ()).is_none() {
            return WcStatus::LocalLengthError;
        }
        match self.pop_recv() {
            Some(rwr) => self.complete_recv(rwr, msg),
            None => {
                // RC would RNR-NAK and retry; we park the message until a
                // receive shows up (the wait is not modeled as a cost).
                if let Payload::Region(window) = &msg.payload {
                    let snapshot = window.dma_view().map(|bytes| bytes.to_vec());
                    msg.payload = Payload::Owned(snapshot.unwrap_or_default());
                }
                self.pending_inbound.borrow_mut().push_back(msg);
                if let Some(srq) = &self.srq {
                    srq.inner.parked.borrow_mut().push_back(Rc::downgrade(self));
                }
            }
        }
        WcStatus::Success
    }

    /// Matches parked messages against this QP's own receive queue (an
    /// SRQ hands its buffers out itself, see [`Srq::post_recv`]).
    fn match_pending(self: &Rc<Self>) {
        loop {
            let Some(msg) = self.pending_inbound.borrow_mut().pop_front() else {
                break;
            };
            let Some(rwr) = self.pop_recv() else {
                // More parked than posted: re-park the message at the
                // front and wait for the next post.
                self.pending_inbound.borrow_mut().push_front(msg);
                break;
            };
            self.complete_recv(rwr, msg);
        }
    }

    fn complete_recv(&self, rwr: RecvWr, msg: Inbound) {
        let landed = msg.payload.read(|bytes| rwr.buf.dma_write(bytes));
        let (status, byte_len) = match landed {
            Some(Ok(())) => (WcStatus::Success, msg.payload.len() as u32),
            _ => (WcStatus::LocalLengthError, 0),
        };
        if let Some(hca) = self.hca.upgrade() {
            hca.tracer.instant(
                Layer::Verbs,
                "recv_complete",
                hca.node,
                Track::Qp(self.qpn),
                rwr.wr_id,
                byte_len as u64,
                hca.sim.now(),
            );
        }
        self.recv_cq.push(Wc {
            wr_id: rwr.wr_id,
            opcode: msg.opcode,
            status,
            byte_len,
            imm: msg.imm,
            qp_num: self.qpn,
            src: msg.src,
        });
    }

    fn complete_send_now(&self, wr_id: u64, opcode: WcOpcode, status: WcStatus, byte_len: u32) {
        if let Some(hca) = self.hca.upgrade() {
            let name = match opcode {
                WcOpcode::RdmaWrite => "rdma_write",
                WcOpcode::RdmaRead => "rdma_read",
                _ => "send",
            };
            if status != WcStatus::Success {
                hca.tracer.instant(
                    Layer::Verbs,
                    "wc_error",
                    hca.node,
                    Track::Qp(self.qpn),
                    wr_id,
                    0,
                    hca.sim.now(),
                );
            }
            hca.tracer.end(
                Layer::Verbs,
                name,
                hca.node,
                Track::Qp(self.qpn),
                wr_id,
                byte_len as u64,
                hca.sim.now(),
            );
        }
        self.send_cq.push(Wc {
            wr_id,
            opcode,
            status,
            byte_len,
            imm: None,
            qp_num: self.qpn,
            src: None,
        });
    }

    fn complete_send_after(
        self: &Rc<Self>,
        delay: SimDuration,
        wr_id: u64,
        opcode: WcOpcode,
        status: WcStatus,
        byte_len: u32,
    ) {
        let at = self.sim.now() + delay;
        self.complete_send_at(at, wr_id, opcode, status, byte_len);
    }

    fn complete_send_at(
        self: &Rc<Self>,
        at: SimTime,
        wr_id: u64,
        opcode: WcOpcode,
        status: WcStatus,
        byte_len: u32,
    ) {
        // An adapter torn down takes its completions with it.
        if self.hca.strong_count() == 0 {
            return;
        }
        let done = Flight::Complete {
            wr_id,
            opcode,
            status,
            byte_len,
        };
        self.launch(at, done);
    }
}

impl HcaInner {
    /// Occupies this adapter's pipeline for `service` from now on; returns
    /// when it is done.
    fn pipeline(&self, service: SimDuration) -> SimTime {
        self.hw.hca.occupy_from(self.sim.now(), service)
    }
}

impl EventTarget for QpInner {
    /// Advances the flight `token` names by the stage it was waiting for.
    fn fire(self: Rc<Self>, token: u64) {
        let flight = self.flights.borrow_mut().remove(SlabKey::from_token(token));
        let Some(flight) = flight else { return };
        // The target is gone: the requester's HCA retries, then gives up.
        let retried_out = |wr_id, opcode| {
            self.complete_send_after(
                RETRY_EXCEEDED_DELAY,
                wr_id,
                opcode,
                WcStatus::RetryExceeded,
                0,
            )
        };
        match flight {
            Flight::SendArrive { wr_id, msg, to } => {
                let Some(fabric) = self.fabric.upgrade() else {
                    return;
                };
                let target = fabric.live_hca(to.0);
                let rqp = target
                    .as_ref()
                    .and_then(|t| t.qps.borrow().get(&to.1).cloned());
                match (target, rqp) {
                    (Some(thca), Some(rqp)) if rqp.state.get() != QpState::Closed => {
                        let t = thca.pipeline(thca.profile.hca_msg);
                        self.launch(t, Flight::SendDeliver { wr_id, msg, rqp });
                    }
                    _ => retried_out(wr_id, WcOpcode::Send),
                }
            }
            Flight::SendDeliver { wr_id, msg, rqp } => {
                let bytes = msg.payload.len() as u32;
                let status = rqp.rx_inbound(msg);
                // RC ack: local send completion one propagation later.
                self.complete_send_after(self.ack_delay, wr_id, WcOpcode::Send, status, bytes);
            }
            Flight::DgramArrive { msg, to } => {
                // Unreliable: deliver if possible, else drop on the floor.
                let Some(thca) = self.fabric.upgrade().and_then(|f| f.live_hca(to.0)) else {
                    return;
                };
                let t = thca.pipeline(thca.profile.hca_msg);
                let rqp = thca.qps.borrow().get(&to.1).cloned();
                if let Some(rqp) = rqp.filter(|q| q.qp_type == QpType::Ud) {
                    self.launch(t, Flight::DgramDeliver { msg, rqp });
                }
            }
            Flight::DgramDeliver { msg, rqp } => {
                // UD with no receive to take drops the datagram.
                if let Some(rwr) = rqp.pop_recv() {
                    rqp.complete_recv(rwr, msg);
                }
            }
            Flight::WriteArrive(write) => {
                let Some(fabric) = self.fabric.upgrade() else {
                    return;
                };
                match fabric.live_hca(write.remote.node) {
                    Some(thca) => {
                        let t = thca.pipeline(thca.profile.rdma_target);
                        self.launch(t, Flight::WriteLand(write, thca));
                    }
                    None => retried_out(write.wr_id, WcOpcode::RdmaWrite),
                }
            }
            Flight::WriteLand(write, thca) => {
                let Write {
                    wr_id,
                    local,
                    imm,
                    remote,
                    dqpn,
                } = write;
                let len = local.len();
                let landed = resolve_remote(&thca, &remote, Access::REMOTE_WRITE, len as u64)
                    .and_then(|(mr, off)| local.dma_copy_to(&mr, off));
                let status = match landed {
                    Ok(()) => {
                        // WRITE_WITH_IMM consumes a receive.
                        let rqp = imm.and_then(|_| thca.qps.borrow().get(&dqpn).cloned());
                        if let Some(rqp) = rqp {
                            rqp.rx_inbound(Inbound {
                                payload: Payload::Owned(Vec::new()),
                                imm,
                                opcode: WcOpcode::RecvRdmaImm,
                                src: Some((self.node, self.qpn)),
                            });
                        }
                        WcStatus::Success
                    }
                    Err(_) => WcStatus::RemoteAccessError,
                };
                // Ack back to the requester.
                let opcode = WcOpcode::RdmaWrite;
                self.complete_send_after(self.ack_delay, wr_id, opcode, status, len as u32);
            }
            Flight::ReadRequest(read, remote) => {
                let Some(fabric) = read.hca.fabric.upgrade() else {
                    return;
                };
                match fabric.live_hca(remote.node) {
                    Some(thca) => {
                        let t = thca.pipeline(thca.profile.rdma_target);
                        self.launch(t, Flight::ReadServe(read, remote, thca));
                    }
                    None => retried_out(read.wr_id, WcOpcode::RdmaRead),
                }
            }
            Flight::ReadServe(read, remote, thca) => {
                let want = read.local.len();
                match resolve_remote(&thca, &remote, Access::REMOTE_READ, want as u64) {
                    Ok((mr, off)) => {
                        // The source as it reads now lands in the requester's
                        // window; the data response carries it back.
                        let status = match read.local.dma_fill(&mr, off) {
                            Ok(()) => WcStatus::Success,
                            Err(_) => WcStatus::LocalLengthError,
                        };
                        let wire = want as u64 + WIRE_HEADER_BYTES;
                        let now = thca.sim.now();
                        let back = thca.net.carry(remote.node, read.hca.node, wire, now);
                        self.launch(back, Flight::ReadData(read, status));
                    }
                    // NAK travels back; requester errors out.
                    Err(_) => self.complete_send_after(
                        self.ack_delay,
                        read.wr_id,
                        WcOpcode::RdmaRead,
                        WcStatus::RemoteAccessError,
                        0,
                    ),
                }
            }
            Flight::ReadData(read, status) => {
                let t = read.hca.pipeline(read.hca.profile.hca_msg);
                self.launch(t, Flight::ReadLand(read, status));
            }
            Flight::ReadLand(read, status) => {
                let bytes = read.local.len() as u32;
                self.complete_send_now(read.wr_id, WcOpcode::RdmaRead, status, bytes);
            }
            Flight::Complete {
                wr_id,
                opcode,
                status,
                byte_len,
            } => self.complete_send_now(wr_id, opcode, status, byte_len),
        }
    }
}

impl std::fmt::Debug for QueuePair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueuePair")
            .field("qpn", &self.inner.qpn)
            .field("type", &self.inner.qp_type)
            .field("remote", &self.inner.remote.get())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use simnet::Cluster;

    use super::*;
    use crate::IbFabric;

    /// Whatever becomes of a work request — delivered, refused, retried
    /// out, dropped on the floor — its flight record is gone once the event
    /// queue is empty, and the table it lived in has not grown past what
    /// was in transit at once.
    #[test]
    fn no_flight_outlives_the_event_queue() {
        for peer_dies in [false, true] {
            let cluster = Rc::new(Cluster::cluster_b(3, 2));
            let fabric = IbFabric::new(cluster.clone());
            let (a, b) = (fabric.open(NodeId(0)), fabric.open(NodeId(1)));
            let (pda, pdb) = (a.alloc_pd(), b.alloc_pd());
            let (cqa, cqb) = (a.create_cq(), b.create_cq());
            let qa = pda.create_qp(QpType::Rc, &cqa, &cqa, None);
            let qb = pdb.create_qp(QpType::Rc, &cqb, &cqb, None);
            qa.connect_to(b.node(), qb.qpn()).expect("fresh QP");
            qb.connect_to(a.node(), qa.qpn()).expect("fresh QP");
            let ua = pda.create_qp(QpType::Ud, &cqa, &cqa, None);
            let ub = pdb.create_qp(QpType::Ud, &cqb, &cqb, None);

            let all = Access::LOCAL_WRITE | Access::REMOTE_READ | Access::REMOTE_WRITE;
            let (local, remote) = (pda.register(64, all), pdb.register(64, all));
            let mut stale = remote.remote(0, 64);
            stale.rkey += 1000;
            for wr_id in 0..4 {
                qb.post_recv(wr_id, remote.full());
                ub.post_recv(wr_id, remote.full());
            }
            let inline = || SendOp::SendInline {
                data: vec![1; 16],
                imm: None,
            };
            let ops = [
                SendOp::Send {
                    local: local.full(),
                    imm: Some(1),
                },
                inline(),
                SendOp::RdmaWrite {
                    local: local.full(),
                    remote: remote.remote(0, 64),
                    imm: Some(4),
                },
                SendOp::RdmaWrite {
                    local: local.full(),
                    remote: stale,
                    imm: None,
                },
                SendOp::RdmaRead {
                    local: local.full(),
                    remote: remote.remote(0, 64),
                },
                SendOp::RdmaRead {
                    local: local.full(),
                    remote: stale,
                },
            ];
            let posted = ops.len();
            for (wr_id, op) in ops.into_iter().enumerate() {
                qa.post_send(SendWr::new(wr_id as u64, op)).expect("RTS");
            }
            let mut dgram = SendWr::new(9, inline());
            dgram.ud_dest = Some((b.node(), ub.qpn()));
            ua.post_send(dgram).expect("UD is always ready");
            assert_eq!(qa.inner.flights.borrow().len(), posted);
            assert_eq!(
                ua.inner.flights.borrow().len(),
                2,
                "datagram and completion"
            );
            if peer_dies {
                b.kill();
            }
            cluster.sim().run();
            assert_eq!(cluster.sim().pending_events(), 0);
            for qp in [&qa, &qb, &ua, &ub] {
                assert!(qp.inner.flights.borrow().is_empty(), "{qp:?}");
            }
            assert_eq!(cqa.backlog(), posted + 1, "one completion per request");
        }
    }
}
