//! Endpoints and message transmission (paper §IV-A, §IV-B).
//!
//! An endpoint is a bi-directional, client-server communication channel —
//! the departure from MPI's rank-addressed world that the data-center
//! model requires. A failed endpoint is isolated: sends on it error out,
//! counters waiting on its traffic time out, and every other endpoint of
//! the runtime keeps working.

use std::cell::Cell;
use std::rc::{Rc, Weak};

use simnet::trace::{Layer, Track};
use simnet::NodeId;
use verbs::{QueuePair, SendOp, SendWr};

use crate::counter::Counter;
use crate::runtime::{Pending, RtInner};
use crate::wire::{PacketHeader, PacketKind, PACKET_HEADER_BYTES};
use crate::UcrError;

/// Delivery/progress options for one [`Endpoint::send_message`] call. The
/// three counters mirror the paper's `ucr_send_message` signature; each is
/// optional, and omitting origin/completion suppresses the corresponding
/// internal message.
#[derive(Default)]
pub struct SendOptions {
    /// Bumped locally when the message's buffers are reusable.
    pub origin: Option<Counter>,
    /// Identifier of a counter *at the target* to bump when the data has
    /// arrived and the completion handler has run (0 = none). The id is
    /// typically learned from a prior message's application header.
    pub target_ctr: u64,
    /// Bumped locally when the target's completion handler has finished.
    pub completion: Option<Counter>,
}

/// Borrowed-or-owned payload for one send. Owned payloads are moved all
/// the way down — into the HCA's gather list (eager) or into the MR
/// (rendezvous) — with no staging copy; borrowed payloads are staged
/// exactly as before.
enum SendBuf<'a> {
    Borrowed(&'a [u8]),
    Owned(Vec<u8>),
}

impl SendBuf<'_> {
    fn len(&self) -> usize {
        match self {
            SendBuf::Borrowed(s) => s.len(),
            SendBuf::Owned(v) => v.len(),
        }
    }

    /// Source-buffer identity `(address, length)` — the registration-cache
    /// key. For borrowed sends this is the caller's buffer, so reusing the
    /// same buffer across sends hits the cache. Owned sends never cache
    /// (their address dies with the MR), so their identity is only used
    /// for tracing.
    fn ident(&self) -> (usize, usize) {
        match self {
            SendBuf::Borrowed(s) => (s.as_ptr() as usize, s.len()),
            SendBuf::Owned(v) => (v.as_ptr() as usize, v.len()),
        }
    }

    fn is_owned(&self) -> bool {
        matches!(self, SendBuf::Owned(_))
    }

    fn into_vec(self) -> Vec<u8> {
        match self {
            SendBuf::Borrowed(s) => s.to_vec(),
            SendBuf::Owned(v) => v,
        }
    }
}

/// Stages the wire prefix of a message — packet header, then application
/// header — in a buffer with room for `extra` more bytes, so the HCA's
/// gather of an eager payload appends without reallocating.
pub(crate) fn stage_head(pkt: &PacketHeader, hdr: &[u8], extra: usize) -> Vec<u8> {
    let mut head = Vec::with_capacity(PACKET_HEADER_BYTES + hdr.len() + extra);
    head.extend_from_slice(&pkt.encode());
    head.extend_from_slice(hdr);
    head
}

pub(crate) struct EpInner {
    pub id: u64,
    pub qp: QueuePair,
    pub peer: NodeId,
    pub rt: Weak<RtInner>,
    pub failed: Cell<bool>,
    /// For unreliable endpoints: the peer's UD QP number. The QP is the
    /// runtime's shared UD QP; many endpoints multiplex over it — the
    /// scaling property SVII is after.
    pub ud_dest: Option<(NodeId, u32)>,
}

/// One end of an established UCR channel.
#[derive(Clone)]
pub struct Endpoint {
    pub(crate) inner: Rc<EpInner>,
}

impl Endpoint {
    /// The peer node.
    pub fn peer(&self) -> NodeId {
        self.inner.peer
    }

    /// Runtime-unique endpoint id.
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// True once the peer is unreachable (RC retries exhausted). Other
    /// endpoints of the runtime are unaffected — the fault-isolation
    /// property the paper adds over MPI-style runtimes.
    pub fn is_failed(&self) -> bool {
        self.inner.failed.get()
    }

    /// True for unreliable (UD-backed) endpoints: messages may be dropped
    /// and are limited to one MTU; use counters + timeouts to detect loss.
    pub fn is_unreliable(&self) -> bool {
        self.inner.ud_dest.is_some()
    }

    /// Sends an active message: `hdr` (application header, run through the
    /// target's header handler) plus `data`. Messages that fit the 8 KB
    /// network buffer go eagerly (header + data in one transaction, memcpy
    /// at the target); larger data is advertised for RDMA read (§IV-B,
    /// Figure 2). Resolves once the message is handed to the HCA.
    pub async fn send_message(
        &self,
        msg_id: u16,
        hdr: &[u8],
        data: &[u8],
        opts: SendOptions,
    ) -> Result<(), UcrError> {
        self.send_impl(msg_id, hdr, SendBuf::Borrowed(data), opts)
            .await
    }

    /// Like [`send_message`](Self::send_message), but takes ownership of
    /// `data`, eliminating the per-send payload copy: eager sends hand the
    /// buffer to the HCA as a gather entry, and rendezvous sends register
    /// it in place (always a fresh registration — only borrowed buffers,
    /// whose addresses are stable, participate in the registration
    /// cache). Saved bytes are counted in the runtime's
    /// [`RtStats`](crate::RtStats).
    pub async fn send_message_owned(
        &self,
        msg_id: u16,
        hdr: &[u8],
        data: Vec<u8>,
        opts: SendOptions,
    ) -> Result<(), UcrError> {
        self.send_impl(msg_id, hdr, SendBuf::Owned(data), opts)
            .await
    }

    async fn send_impl(
        &self,
        msg_id: u16,
        hdr: &[u8],
        data: SendBuf<'_>,
        opts: SendOptions,
    ) -> Result<(), UcrError> {
        let inner = &self.inner;
        if inner.failed.get() {
            return Err(UcrError::EndpointFailed);
        }
        let rt = inner.rt.upgrade().ok_or(UcrError::RuntimeGone)?;
        let sim = rt.sim.clone();
        // The eager threshold governs *payload* bytes (application header
        // + data): receive buffers are sized `PACKET_HEADER_BYTES +
        // threshold` (see `post_recv_buffer`), so the 64-byte packet
        // header must not count against it — a payload of exactly
        // `eager_threshold` bytes (the paper's 8 KB, §IV-C) rides eager.
        let payload = hdr.len() + data.len();
        let total = PACKET_HEADER_BYTES + payload;

        let mut pkt = PacketHeader::new(PacketKind::Eager, msg_id);
        pkt.hdr_len = hdr.len() as u32;
        pkt.data_len = data.len() as u64;
        pkt.target_ctr = opts.target_ctr;
        pkt.origin_ctr = opts.origin.as_ref().map(Counter::id).unwrap_or(0);
        pkt.completion_ctr = opts.completion.as_ref().map(Counter::id).unwrap_or(0);

        let eager = payload <= rt.eager_threshold.get();
        if inner.ud_dest.is_some() && !(eager && total <= rt.ud_payload_limit()) {
            // Unreliable endpoint: single-datagram eager only. The eager
            // threshold bounds the payload; the MTU bounds the full
            // datagram (packet header included) — both must hold.
            return Err(UcrError::MessageTooLarge);
        }
        if eager {
            // Eager: stage header+data into a communication buffer (one
            // copy at this end, one at the target), single transaction.
            // Owned payloads skip the staging copy: the buffer rides the
            // HCA's gather list as-is.
            sim.sleep(rt.stage_cost(data.len())).await;
            let head = stage_head(&pkt, hdr, data.len());
            if data.is_owned() {
                rt.stats.eager_copy_saved_bytes.add(data.len() as u64);
            }
            let wr_id = rt.alloc_wr(Pending::EagerSend {
                origin: opts.origin,
                ep: Rc::downgrade(inner),
            });
            let mut wr = SendWr::new(
                wr_id,
                SendOp::SendGather {
                    head,
                    data: data.into_vec(),
                    imm: None,
                },
            );
            wr.ud_dest = inner.ud_dest;
            inner
                .qp
                .post_send(wr)
                .map_err(|_| UcrError::EndpointFailed)?;
            let sent = if inner.ud_dest.is_some() {
                "am_send_ud"
            } else {
                "am_send_eager"
            };
            rt.tracer.instant(
                Layer::Ucr,
                sent,
                rt.node,
                Track::Endpoint(inner.id),
                wr_id,
                payload as u64,
                sim.now(),
            );
            // The completion counter (if any) is bumped when the target's
            // Fin arrives; its id already travels in the packet header.
        } else {
            // Rendezvous: register the source buffer and advertise it; the
            // target pulls with RDMA read — zero copy. Repeat borrowed
            // sends from the same buffer reuse the cached registration
            // when it is idle; owned buffers register afresh every time.
            pkt.kind = PacketKind::RndvReq;
            let ident = data.ident();
            let owned = data.is_owned();
            let mr = rt.rndv_mr_for(inner.id, ident, data.into_vec(), owned);
            pkt.rkey = mr.rkey();
            pkt.offset = 0;
            pkt.token = rt.stash_rndv_src(mr);
            let wr_id = rt.alloc_wr(Pending::CtrlSend {
                ep: Rc::downgrade(inner),
            });
            inner
                .qp
                .post_send(SendWr::new(
                    wr_id,
                    SendOp::SendInline {
                        data: stage_head(&pkt, hdr, 0),
                        imm: None,
                    },
                ))
                .map_err(|_| UcrError::EndpointFailed)?;
            rt.tracer.instant(
                Layer::Ucr,
                "am_send_rndv",
                rt.node,
                Track::Endpoint(inner.id),
                wr_id,
                ident.1 as u64,
                sim.now(),
            );
        }
        rt.stats.messages_sent.inc();
        Ok(())
    }

    /// Fire-and-forget variant usable from inside (synchronous) completion
    /// handlers: spawns the send on the runtime's executor.
    pub fn post_message(&self, msg_id: u16, hdr: Vec<u8>, data: Vec<u8>, opts: SendOptions) {
        let ep = self.clone();
        if let Some(rt) = self.inner.rt.upgrade() {
            rt.sim.clone().spawn(async move {
                let _ = ep.send_message_owned(msg_id, &hdr, data, opts).await;
            });
        }
    }

    pub(crate) fn runtime(&self) -> Result<crate::runtime::UcrRuntime, UcrError> {
        self.inner
            .rt
            .upgrade()
            .map(crate::runtime::UcrRuntime::from_inner)
            .ok_or(UcrError::RuntimeGone)
    }

    pub(crate) fn downgrade(&self) -> Weak<EpInner> {
        Rc::downgrade(&self.inner)
    }

    pub(crate) fn qp_ref(&self) -> &QueuePair {
        &self.inner.qp
    }

    /// Closes the endpoint. The peer's sends will fail over to its error
    /// path; this runtime drops the QP immediately.
    pub fn close(&self) {
        if let Some(rt) = self.inner.rt.upgrade() {
            rt.drop_endpoint(self.inner.qp.qpn());
        }
        self.inner.qp.close();
        self.inner.failed.set(true);
    }
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("id", &self.inner.id)
            .field("peer", &self.inner.peer)
            .field("failed", &self.inner.failed.get())
            .finish()
    }
}
