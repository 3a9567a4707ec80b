//! Endpoints and message transmission (paper §IV-A, §IV-B).
//!
//! An endpoint is a bi-directional, client-server communication channel —
//! the departure from MPI's rank-addressed world that the data-center
//! model requires. A failed endpoint is isolated: sends on it error out,
//! counters waiting on its traffic time out, and every other endpoint of
//! the runtime keeps working.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::rc::{Rc, Weak};

use simnet::trace::{Layer, Track};
use simnet::{EventTarget, NodeId, SimDuration, Slab, SlabKey};
use verbs::{Access, Mr, QueuePair};

use crate::counter::Counter;
use crate::runtime::{Pending, RtInner, SendBuf, MAX_HEADER_BYTES, MAX_RNDV_BYTES};
use crate::wire::{packet_at, PacketHeader, PacketKind, PACKET_HEADER_BYTES};
use crate::UcrError;

/// An endpoint's send queue counts as backed up while its last eager
/// completion took more than this multiple of the fastest one it has ever
/// shown: a message sent now would only wait in the HCA FIFO or behind the
/// progress engine that reaps the completion. Swept in EXPERIMENTS.md: the
/// smallest multiple that leaves a single pipelined client untouched.
const BACKLOG_MULTIPLE: u64 = 3;

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

/// A reply [`Endpoint::post_message`] has staged and not yet handed to
/// [`EpInner::send_eager`]: it sits out the staging delay here, as a record
/// a targeted event comes back for.
pub(crate) struct Staged {
    /// The runtime outlives what it has staged.
    rt: Rc<RtInner>,
    /// The packet, written into a send buffer at the post.
    buf: SendBuf,
    origin: Option<Counter>,
}

/// Send-side eager coalescing state of one RC endpoint. While either end
/// of the connection is backed up — this end by its own completions (see
/// [`BACKLOG_MULTIPLE`]), the peer by its own word, carried in every eager
/// packet it sends — eager messages are staged here instead of posted,
/// and the next eager send completion posts them all as one work request.
/// So the HCA's own drain rate clocks the coalescing, and at depth 1
/// nothing is ever held.
///
/// The peer's word is what keeps the regime steady. A sender sees only
/// the path up to the peer's HCA; once coalescing has relieved that, its
/// completions are fast again although the peer's progress engine is now
/// the queue every message waits in. Left to its own completions the
/// sender would stop holding, refill the HCA, start again — and settle in
/// whichever of several limit cycles the request order led it to.
///
/// Invariant: `held` is taken only while `in_flight > 0`, so a future
/// completion (or the endpoint's failure) always disposes of it.
#[derive(Default)]
pub(crate) struct EagerQueue {
    /// Eager work requests posted and not yet reaped.
    in_flight: Cell<u32>,
    /// Fastest post → completion-reaped time any eager work request of
    /// this endpoint has shown (`None` until the first one is reaped).
    fastest: Cell<Option<SimDuration>>,
    /// The same time for the most recently reaped one.
    last: Cell<SimDuration>,
    /// What the most recent eager packet from the peer said of the peer's
    /// own send queue ([`PacketHeader::backed_up`]).
    pub(crate) peer_backed_up: Cell<bool>,
    /// The held packets, back to back in one send buffer from the pool:
    /// the first held message's own, which the flush posts as it is.
    held: RefCell<Option<SendBuf>>,
    held_msgs: Cell<u64>,
    /// Origin counters named by held messages; bumped when the work
    /// request that carries them completes.
    origins: RefCell<Vec<Counter>>,
}

pub(crate) struct EpInner {
    pub id: u64,
    pub qp: QueuePair,
    pub peer: NodeId,
    /// The progress context this endpoint was bound to at creation.
    pub ctx: usize,
    pub rt: Weak<RtInner>,
    pub failed: Cell<bool>,
    /// For unreliable endpoints: the peer's UD QP number. The QP is the
    /// runtime's shared UD QP; many endpoints multiplex over it — the
    /// scaling property SVII is after.
    pub ud_dest: Option<(NodeId, u32)>,
    pub eager: EagerQueue,
    /// Replies staged by [`Endpoint::post_message`], until their staging
    /// delay has passed.
    pub(crate) staged: RefCell<Slab<Staged>>,
    /// Rendezvous sources this endpoint has advertised and its peer has
    /// not yet acknowledged with a Fin: each stays registered here until
    /// the Fin names it or the endpoint goes ([`release_sources`]
    /// (Self::release_sources)), so nothing advertised outlives its
    /// connection; then it deregisters and its bytes go back to the
    /// runtime's rendezvous pool. The `RndvReq` and the Fin carry the slab
    /// key plus one as [`PacketHeader::token`]: 0 on the wire means "no
    /// source".
    pub(crate) sources: RefCell<Slab<Mr>>,
}

impl EpInner {
    pub(crate) fn new(
        id: u64,
        qp: QueuePair,
        peer: NodeId,
        ctx: usize,
        rt: Weak<RtInner>,
        ud_dest: Option<(NodeId, u32)>,
    ) -> Rc<EpInner> {
        Rc::new(EpInner {
            id,
            qp,
            peer,
            ctx,
            rt,
            failed: Cell::new(false),
            ud_dest,
            eager: EagerQueue::default(),
            staged: RefCell::new(Slab::new()),
            sources: RefCell::new(Slab::new()),
        })
    }

    /// Deregisters the source advertised under wire `token` — the Fin for
    /// it arrived, so the target has read it, or its `RndvReq` was never
    /// posted — and gives its bytes back to the pool. A token naming
    /// nothing (0, or a source already released) is ignored.
    pub(crate) fn release_source(&self, rt: &RtInner, token: u64) {
        let Some(key) = token.checked_sub(1) else {
            return;
        };
        let source = self.sources.borrow_mut().remove(SlabKey::from_token(key));
        if let Some(mr) = source {
            rt.give_back(mr.into_vec());
        }
    }

    /// Deregisters everything this endpoint has advertised and not seen a
    /// Fin for, and gives the bytes back to the pool while the runtime is
    /// there to take them. A peer still reading one of them holds a dead
    /// rkey: its read fails, whatever the bytes carry next.
    pub(crate) fn release_sources(&self) {
        let rt = self.rt.upgrade();
        for mr in self.sources.borrow_mut().drain() {
            let bytes = mr.into_vec();
            if let Some(rt) = &rt {
                rt.give_back(bytes);
            }
        }
    }

    /// The first half of a send, before any time passes: the packet header
    /// of the message and whether it goes eagerly. Refuses what the
    /// endpoint cannot carry.
    fn plan(
        &self,
        rt: &RtInner,
        msg_id: u16,
        hdr_len: usize,
        data_len: usize,
        opts: &SendOptions,
    ) -> Result<(PacketHeader, bool), UcrError> {
        // A rendezvous request carries its application header inline too:
        // one that overflows a network buffer could be neither staged here
        // nor received there. Data past MAX_RNDV_BYTES the target refuses.
        if hdr_len > MAX_HEADER_BYTES || data_len > MAX_RNDV_BYTES {
            return Err(UcrError::MessageTooLarge);
        }
        // The eager threshold governs *payload* bytes (application header
        // + data): receive buffers are sized `PACKET_HEADER_BYTES +
        // threshold` (see `post_recv_buffer`), so the 64-byte packet
        // header must not count against it — a payload of exactly
        // `eager_threshold` bytes (the paper's 8 KB, §IV-C) rides eager.
        let payload = hdr_len + data_len;
        let total = PACKET_HEADER_BYTES + payload;

        let mut pkt = PacketHeader::new(PacketKind::Eager, msg_id);
        pkt.hdr_len = hdr_len as u32;
        pkt.data_len = data_len as u64;
        pkt.target_ctr = opts.target_ctr;
        pkt.origin_ctr = opts.origin.as_ref().map(Counter::id).unwrap_or(0);
        pkt.completion_ctr = opts.completion.as_ref().map(Counter::id).unwrap_or(0);

        let eager = payload <= rt.eager_threshold.get();
        // Tell the peer whether this end is backed up, so that it keeps
        // coalescing towards a bottleneck only this end can see.
        pkt.backed_up = eager && self.backed_up();
        if self.ud_dest.is_some() && !(eager && total <= rt.ud_payload_limit()) {
            // Unreliable endpoint: single-datagram eager only. The eager
            // threshold bounds the payload; the MTU bounds the full
            // datagram (packet header included) — both must hold.
            return Err(UcrError::MessageTooLarge);
        }
        Ok((pkt, eager))
    }

    /// The second half of an eager send, once the staging delay has passed:
    /// holds the message behind a backed-up send queue, or posts it.
    fn send_eager(
        self: &Rc<Self>,
        rt: &RtInner,
        buf: SendBuf,
        origin: Option<Counter>,
    ) -> Result<(), UcrError> {
        if self.should_hold() {
            // The send queue is backed up: this message would only
            // wait in the HCA FIFO, so it waits here instead and
            // shares the next work request (see `EagerQueue`).
            if self.failed.get() {
                rt.return_send_buf(buf);
                return Err(UcrError::EndpointFailed);
            }
            self.hold(rt, buf, origin);
            rt.stats.messages_sent.inc();
            return Ok(());
        }
        // Header and data go out as one transaction, from the buffer they
        // were staged in; the target HCA copies them into a receive.
        let payload = buf.len() - PACKET_HEADER_BYTES;
        let wr_id = rt.next_wr_id();
        let eager = Pending::EagerSend {
            origin,
            ep: Rc::downgrade(self),
            posted: rt.sim.now(),
        };
        rt.post_packets(self, wr_id, buf, eager)?;
        self.eager_posted(rt);
        let sent = if self.ud_dest.is_some() {
            "am_send_ud"
        } else {
            "am_send_eager"
        };
        rt.tracer.instant(
            Layer::Ucr,
            sent,
            rt.node,
            Track::Endpoint(self.id),
            wr_id,
            payload as u64,
            rt.sim.now(),
        );
        // The completion counter (if any) is bumped when the target's
        // Fin arrives; its id already travels in the packet header.
        rt.stats.messages_sent.inc();
        Ok(())
    }

    /// The second half of a rendezvous send: registers `data` where it is,
    /// under a fresh rkey, and advertises it; the target pulls it with an
    /// RDMA read — zero copy — and its Fin releases the source (see
    /// [`sources`](Self::sources)).
    fn send_rndv(
        self: &Rc<Self>,
        rt: &RtInner,
        mut pkt: PacketHeader,
        hdr: &[u8],
        data: Vec<u8>,
    ) -> Result<(), UcrError> {
        pkt.kind = PacketKind::RndvReq;
        self.flush_held(rt);
        let len = data.len();
        let mr = rt.pd.register_with(data, Access::REMOTE_READ);
        pkt.rkey = mr.rkey();
        pkt.offset = 0;
        let source = self.sources.borrow_mut().insert(mr);
        pkt.token = source.token() + 1;
        let wr_id = rt.next_wr_id();
        let req = rt.stage(&pkt, hdr, &[]);
        let ctrl = Pending::CtrlSend {
            ep: Rc::downgrade(self),
        };
        rt.post_packets(self, wr_id, req, ctrl)
            .inspect_err(|_| self.release_source(rt, pkt.token))?;
        rt.tracer.instant(
            Layer::Ucr,
            "am_send_rndv",
            rt.node,
            Track::Endpoint(self.id),
            wr_id,
            len as u64,
            rt.sim.now(),
        );
        rt.stats.messages_sent.inc();
        Ok(())
    }

    /// True while this end's own send queue is measurably backed up. UD
    /// endpoints never are: their sends complete at the local HCA and say
    /// nothing about the path.
    fn backed_up(&self) -> bool {
        let q = &self.eager;
        self.ud_dest.is_none()
            && q.fastest
                .get()
                .is_some_and(|fastest| q.last.get() > fastest * BACKLOG_MULTIPLE)
    }

    /// True when an eager message should be staged behind the in-flight
    /// sends instead of posted.
    fn should_hold(&self) -> bool {
        let q = &self.eager;
        if q.held_msgs.get() > 0 {
            return true; // keep per-endpoint send order
        }
        self.ud_dest.is_none()
            && q.in_flight.get() > 0
            && (self.backed_up() || q.peer_backed_up.get())
    }

    /// Stages one eager packet behind the held ones: appended to their
    /// buffer, whose own then goes back to the pool, or — when nothing is
    /// held, or this packet would overflow the receiver's network buffer
    /// and the held ones are posted first — held in its own buffer.
    fn hold(self: &Rc<Self>, rt: &RtInner, buf: SendBuf, origin: Option<Counter>) {
        let q = &self.eager;
        let full = q
            .held
            .borrow()
            .as_ref()
            .is_some_and(|h| h.room() < buf.len());
        if full {
            self.flush_held(rt);
        }
        let mut held = q.held.borrow_mut();
        match held.as_mut() {
            Some(held) => {
                held.append(&buf);
                rt.return_send_buf(buf);
            }
            None => *held = Some(buf),
        }
        q.held_msgs.set(q.held_msgs.get() + 1);
        q.origins.borrow_mut().extend(origin);
    }

    /// Posts whatever is held as one work request. Called by every eager
    /// send completion, and ahead of anything that must not overtake the
    /// held messages (a rendezvous request, a Fin, `close`, runtime drop).
    pub(crate) fn flush_held(self: &Rc<Self>, rt: &RtInner) {
        let q = &self.eager;
        let Some(buf) = q.held.borrow_mut().take() else {
            return;
        };
        let msgs = q.held_msgs.replace(0);
        let wr_id = rt.next_wr_id();
        // One `am_send_eager` per logical message, keyed by the work
        // request that carries it.
        {
            let bytes = buf.bytes();
            let mut at = 0;
            while let Some(p) = packet_at(&bytes, at) {
                rt.tracer.instant(
                    Layer::Ucr,
                    "am_send_eager",
                    rt.node,
                    Track::Endpoint(self.id),
                    wr_id,
                    (p.hdr(&bytes).len() + p.data(&bytes).len()) as u64,
                    rt.sim.now(),
                );
                at = p.end;
            }
        }
        let batch = Pending::EagerBatch {
            origins: std::mem::take(&mut *q.origins.borrow_mut()),
            ep: Rc::downgrade(self),
            posted: rt.sim.now(),
        };
        if rt.post_packets(self, wr_id, buf, batch).is_ok() {
            self.eager_posted(rt);
            rt.stats.eager_coalesced.add(msgs.saturating_sub(1));
        } else {
            rt.stats.send_failures.add(msgs);
            self.failed.set(true);
        }
    }

    /// The endpoint is over (a send on it failed, or the runtime shut
    /// down). Whatever is held is dropped: each message counts as a send
    /// failure, its origin counter never bumps and its buffer goes back to
    /// the pool. Whatever is advertised deregisters: no Fin will come for it.
    pub(crate) fn fail(&self, rt: &RtInner) {
        self.failed.set(true);
        let q = &self.eager;
        rt.stats.send_failures.add(q.held_msgs.replace(0));
        if let Some(buf) = q.held.borrow_mut().take() {
            rt.return_send_buf(buf);
        }
        q.origins.borrow_mut().clear();
        self.release_sources();
    }

    fn eager_posted(&self, rt: &RtInner) {
        self.eager.in_flight.set(self.eager.in_flight.get() + 1);
        rt.stats.eager_wrs_posted.inc();
    }

    /// An eager work request of this endpoint was reaped `took` after it
    /// was posted: refresh the backlog measure.
    pub(crate) fn eager_reaped(&self, took: SimDuration) {
        let q = &self.eager;
        q.in_flight.set(q.in_flight.get().saturating_sub(1));
        q.last.set(took);
        if q.fastest.get().is_none_or(|f| took < f) {
            q.fastest.set(Some(took));
        }
    }
}

impl EventTarget for EpInner {
    /// The staging delay of the reply `token` names has passed.
    fn fire(self: Rc<Self>, token: u64) {
        let staged = self.staged.borrow_mut().remove(SlabKey::from_token(token));
        let Some(Staged { rt, buf, origin }) = staged else {
            return;
        };
        let sent = self.send_eager(&rt, buf, origin);
        if sent.is_err() {
            rt.stats.send_failures.inc();
        }
    }
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

    /// The progress context this endpoint is bound to, in `0..n` of
    /// [`UcrRuntime::with_contexts`](crate::UcrRuntime::with_contexts):
    /// the one whose completion queue and progress task serve its queue
    /// pair, so no other context's handlers ever delay it. Unreliable
    /// endpoints share one queue pair; all of them are on context 0.
    pub fn context(&self) -> usize {
        self.inner.ctx
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
    /// Figure 2).
    ///
    /// Resolves once the message is *accepted in order*: posted to the
    /// HCA, or — on a reliable endpoint whose send queue, or whose peer's,
    /// is backed up — queued behind the in-flight eager sends, to share one
    /// work request with whatever else is queued by the time the next of
    /// them completes. Either way it leaves in per-endpoint send order:
    /// nothing sent later on this endpoint (eager, rendezvous request or
    /// Fin) overtakes it, and [`close`](Self::close) or dropping the
    /// runtime posts it first. Only an endpoint failure or
    /// [`UcrRuntime::shutdown`](crate::UcrRuntime::shutdown) discards a
    /// queued message; it then counts in `send_failures` exactly like a
    /// posted one whose completion reports an error, and its origin
    /// counter never bumps. The origin counter of a message that shared a
    /// work request bumps when that work request completes.
    ///
    /// An eager message is copied once, with its headers, into a registered
    /// send buffer from the runtime's pool, and the target HCA copies it
    /// from there into a receive. Past the eager threshold `data` is copied
    /// once into a buffer from the runtime's rendezvous pool, registered
    /// as the source its `RndvReq` advertises; this endpoint holds it until
    /// the target's Fin, or the endpoint's own end, releases it to the
    /// pool. A header longer than
    /// [`MAX_HEADER_BYTES`](crate::MAX_HEADER_BYTES), or data longer than
    /// [`MAX_RNDV_BYTES`](crate::MAX_RNDV_BYTES), is refused with
    /// [`UcrError::MessageTooLarge`].
    pub async fn send_message(
        &self,
        msg_id: u16,
        hdr: &[u8],
        data: &[u8],
        opts: SendOptions,
    ) -> Result<(), UcrError> {
        self.send(msg_id, hdr, Cow::Borrowed(data), opts).await
    }

    /// [`send_message`](Self::send_message), with owned data past the eager
    /// threshold registered where it is instead of copied.
    async fn send(
        &self,
        msg_id: u16,
        hdr: &[u8],
        data: Cow<'_, [u8]>,
        opts: SendOptions,
    ) -> Result<(), UcrError> {
        let inner = &self.inner;
        if inner.failed.get() {
            return Err(UcrError::EndpointFailed);
        }
        let rt = inner.rt.upgrade().ok_or(UcrError::RuntimeGone)?;
        let (pkt, eager) = inner.plan(&rt, msg_id, hdr.len(), data.len(), &opts)?;
        if eager {
            rt.sim.sleep(rt.stage_cost(data.len())).await;
            let buf = rt.stage(&pkt, hdr, &data);
            inner.send_eager(&rt, buf, opts.origin)
        } else {
            inner.send_rndv(&rt, pkt, hdr, rt.rndv_source(data))
        }
    }

    /// Fire-and-forget variant usable from inside (synchronous) completion
    /// handlers, taking `data` borrowed or owned. An eager message on a
    /// reliable endpoint — a server's reply — is written into a send buffer
    /// at the post, straight from `data`, staged in a record of the
    /// endpoint and handed on by a targeted event once the staging delay
    /// has passed (hold or post, as [`send_message`](Self::send_message)
    /// does after the same delay); a rendezvous or unreliable one is sent
    /// by a spawned task, with `data` as owned bytes. A borrow is copied
    /// once, here: a rendezvous source into a buffer from the runtime's
    /// rendezvous pool, a datagram into one of its own; an owned
    /// rendezvous source is registered where it is. Either way a message
    /// that could not be posted — the endpoint failed, its queue pair left
    /// ready-to-send — counts one `send_failures`.
    pub fn post_message<'d>(
        &self,
        msg_id: u16,
        hdr: impl AsRef<[u8]>,
        data: impl Into<Cow<'d, [u8]>>,
        opts: SendOptions,
    ) {
        let inner = &self.inner;
        let Some(rt) = inner.rt.upgrade() else { return };
        let (hdr, data) = (hdr.as_ref(), data.into());
        let planned = if inner.failed.get() {
            Err(UcrError::EndpointFailed)
        } else {
            inner.plan(&rt, msg_id, hdr.len(), data.len(), &opts)
        };
        match planned {
            Ok((pkt, true)) if inner.ud_dest.is_none() => {
                let at = rt.sim.now() + rt.stage_cost(data.len());
                let key = inner.staged.borrow_mut().insert(Staged {
                    buf: rt.stage(&pkt, hdr, &data),
                    origin: opts.origin,
                    rt: rt.clone(),
                });
                rt.sim.schedule_target_at(at, inner.clone(), key.token());
            }
            Ok((_, eager)) => {
                let data = if eager {
                    data.into_owned()
                } else {
                    rt.rndv_source(data)
                };
                let (ep, hdr) = (self.clone(), hdr.to_vec());
                let failures = rt.stats.send_failures.clone();
                rt.sim.spawn(async move {
                    let sent = ep.send(msg_id, &hdr, Cow::Owned(data), opts).await;
                    if sent.is_err() {
                        failures.inc();
                    }
                });
            }
            Err(_) => rt.stats.send_failures.inc(),
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
            self.inner.flush_held(&rt);
            rt.drop_endpoint(self.inner.qp.qpn());
        }
        self.inner.qp.close();
        self.inner.failed.set(true);
        self.inner.release_sources();
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
