//! The four wire front-ends: UCR active messages, ASCII over TCP, binary
//! over TCP, ASCII over UDP.
//!
//! Each is decode → [`Executor::serve`](super::executor::Executor::serve)
//! → encode, plus what only its wire knows: how a request reaches a
//! worker (connection binding, shard-affine routing, the multiget
//! scatter), `noreply`, quiet opcodes, datagram fragmentation.

use std::cell::{Cell, RefCell};
use std::rc::{Rc, Weak};

use mcproto::{
    encode_response, parse_command, udp_fragment, BinFrame, BinOpcode, BinStatus, Command,
    ProtoError, Response, UdpFrame, MAGIC_REQUEST,
};
use mcstore::Value;
use simnet::trace::{Phase, Track};
use simnet::SimTime;
use socksim::{DgramSocket, Socket};
use ucr::{AmBytes, AmData, AmHandler, Endpoint, SendOptions};

use super::executor::OpId;
use super::{SrvInner, WorkItem};
use crate::am_wire::{McOp, ReqHeader, MSG_MC_RESP};
use crate::codec;
use crate::request::Reply;

/// Serves one dispatched work item on worker `widx`.
pub(super) async fn serve(srv: &Rc<SrvInner>, item: WorkItem, widx: u32) {
    match item {
        WorkItem::Ucr { ep, req, data } => serve_ucr(srv, ep, req, data, widx).await,
        WorkItem::UcrMgetPart {
            ep,
            merge,
            shard,
            idxs,
        } => serve_ucr_mget_part(srv, ep, merge, shard, idxs, widx).await,
        WorkItem::Sock { sock, cmd } => {
            if let Some(wire) = serve_ascii(srv, cmd, widx).await {
                let _ = sock.write_all(&wire).await;
            }
        }
        WorkItem::SockRefused { sock, reply } => {
            let _ = sock.write_all(&encode_response(&reply)).await;
        }
        WorkItem::SockBin { sock, frame } => serve_sock_bin(srv, sock, frame, widx).await,
        WorkItem::SockUdp {
            sock,
            src,
            request_id,
            cmd,
        } => {
            if let Some(wire) = serve_ascii(srv, cmd, widx).await {
                for datagram in udp_fragment(request_id, &wire) {
                    let _ = sock.send_to(src, &datagram).await;
                }
            }
        }
    }
}

impl SrvInner {
    /// A request has landed and is decoded: the request-wire stage ends at
    /// the dispatch hand-off.
    fn mark_dispatch(&self, id: OpId, bytes: u64) {
        self.exec
            .mark(id, Phase::Instant, "dispatch", Track::Main, bytes);
        match id {
            OpId::Wire(_) => self.exec.counters.ucr_requests.inc(),
            OpId::Local(_) => self.exec.counters.sock_requests.inc(),
        }
    }
}

// ---------------------------------------------------------------------
// UCR
// ---------------------------------------------------------------------

/// AM 1 handler: runs in the progress task of the endpoint's context and
/// hands the request to a worker — the connection's, unless the store is
/// sharded and the key's shard belongs to another.
pub(super) struct ReqDispatch {
    pub(super) srv: Weak<SrvInner>,
}

/// Scatter/gather state for a multi-shard `Mget` split at dispatch: the
/// parts run on their shards' workers, genuinely in parallel, and the
/// last to finish posts the one merged response.
pub(super) struct MgetMerge {
    req: ReqHeader,
    /// When the first part began: the request's service time runs from
    /// here to the end of the last part.
    started: Cell<Option<SimTime>>,
    /// Hits gathered so far and the number of parts still running.
    state: RefCell<(Vec<(usize, Value)>, usize)>,
}

impl AmHandler for ReqDispatch {
    fn on_complete(&self, ep: &Endpoint, hdr: &[u8], data: AmData) {
        let Some(srv) = self.srv.upgrade() else {
            return;
        };
        if !srv.running.get() {
            return;
        }
        let Some(req) = ReqHeader::decode(hdr) else {
            return;
        };
        let data = match data {
            AmData::Pool(bytes) => bytes,
            AmData::Placed(_) | AmData::Discarded => AmBytes::default(),
        };
        srv.mark_dispatch(OpId::Wire(req.req_id), data.len() as u64);
        // Over a sharded store, keyed requests go to the owning shard's
        // affine worker and multi-shard Mgets are split into per-shard parts.
        // Everything else keeps the upstream policy: every request of a
        // connection is served by the worker the connection was assigned
        // to (paper §V-A).
        if let Some(groups) = srv.exec.shard_groups(req.op, &req.keys) {
            let merge = Rc::new(MgetMerge {
                req,
                started: Cell::new(None),
                state: RefCell::new((Vec::new(), groups.len())),
            });
            for (shard, idxs) in groups {
                let _ = srv.workers[srv.worker_for_shard(shard)].send(WorkItem::UcrMgetPart {
                    ep: ep.clone(),
                    merge: merge.clone(),
                    shard,
                    idxs,
                });
            }
            return;
        }
        let widx = match req.keys.first().and_then(|k| srv.exec.affine_shard(k)) {
            Some(shard) => srv.worker_for_shard(shard),
            None => srv.worker_for_ep(ep),
        };
        let _ = srv.workers[widx].send(WorkItem::Ucr {
            ep: ep.clone(),
            req,
            data,
        });
    }
}

/// AM 2: the response, targeting the counter named in AM 1 (§V-B). Its
/// data is copied once, into the send: from where the reply holds it — a
/// `Get` hit, from the store.
fn post_reply<D: AsRef<[u8]>>(ep: &Endpoint, req: &ReqHeader, reply: &Reply<D>) {
    let (hdr, data) = codec::ucr::encode_reply(req.req_id, reply, &req.keys);
    ep.post_message(
        MSG_MC_RESP,
        hdr.encode(),
        data,
        SendOptions {
            target_ctr: req.ctr_id,
            ..Default::default()
        },
    );
}

/// Serves one UCR request. Its data stays where UCR landed it until the
/// service has copied it into the store; a rendezvous's bytes then go back
/// to the runtime's pool.
async fn serve_ucr(srv: &Rc<SrvInner>, ep: Endpoint, req: ReqHeader, data: AmBytes, widx: u32) {
    let request = codec::ucr::decode_request(&req, &data);
    let (id, track) = (OpId::Wire(req.req_id), Track::Worker(widx));
    // Posted at the service instant, the request's locks still held.
    let post = |reply: &Reply<&[u8]>| post_reply(&ep, &req, reply);
    srv.exec.serve(&request, id, track, post).await;
}

/// Serves one shard's slice of a split `Mget` (the
/// [`StoreModel::Sharded`](super::StoreModel) scatter/gather path). Each
/// part charges its own fixed cost and locks only its shard. The last
/// part to finish books the request, encodes the merged response in
/// original key order and posts the single `MSG_MC_RESP`.
async fn serve_ucr_mget_part(
    srv: &Rc<SrvInner>,
    ep: Endpoint,
    merge: Rc<MgetMerge>,
    shard: usize,
    idxs: Vec<usize>,
    widx: u32,
) {
    let (exec, req) = (&srv.exec, &merge.req);
    let (id, track) = (OpId::Wire(req.req_id), Track::Worker(widx));
    // One `worker_service` span per part under the shared request id, one
    // service-time sample per request: both run from the earliest begin
    // to the latest end.
    let began = exec.begin(id, track, idxs.len() as u64);
    let started = merge.started.get().unwrap_or(began);
    merge.started.set(Some(started));
    exec.charge_fixed().await;
    let mut hits = Vec::with_capacity(idxs.len());
    let _guards = exec
        .fetch_shard(shard, &req.keys, &idxs, &mut hits, id, track)
        .await;
    let merged: Option<Reply> = {
        let mut state = merge.state.borrow_mut();
        state.0.append(&mut hits);
        state.1 -= 1;
        (state.1 == 0).then(|| {
            let mut all = std::mem::take(&mut state.0);
            all.sort_unstable_by_key(|(i, _)| *i);
            Reply::Values(all)
        })
    };
    if merged.is_some() {
        exec.record(McOp::Mget, started);
    }
    exec.end(id, track, idxs.len() as u64);
    if let Some(reply) = &merged {
        post_reply(&ep, req, reply);
    }
}

// ---------------------------------------------------------------------
// Sockets: ASCII and binary over TCP, ASCII over UDP
// ---------------------------------------------------------------------

/// The next thing on a stream connection's receive buffer.
enum Framed {
    Item(WorkItem),
    Quit,
    Incomplete,
    Malformed,
}

/// Frames one request off the front of `buf` in the connection's
/// protocol.
fn next_request(binary: bool, buf: &mut Vec<u8>, sock: &Rc<Socket>) -> Framed {
    let sock = sock.clone();
    let (item, used) = if binary {
        match BinFrame::parse(buf) {
            Ok(Some((frame, used))) if frame.opcode == BinOpcode::Quit => (Framed::Quit, used),
            Ok(Some((frame, used))) => (Framed::Item(WorkItem::SockBin { sock, frame }), used),
            Ok(None) => return Framed::Incomplete,
            Err(_) => return Framed::Malformed,
        }
    } else {
        // memcached answers an unknown command and a non-numeric delta and
        // reads on; the answer queues behind the replies it must follow.
        match parse_command(buf) {
            Ok(Some((Command::Quit, used))) => (Framed::Quit, used),
            Ok(Some((cmd, used))) => (Framed::Item(WorkItem::Sock { sock, cmd }), used),
            Ok(None) => return Framed::Incomplete,
            Err(ProtoError::UnknownCommand { len }) => {
                let reply = Response::Error;
                (Framed::Item(WorkItem::SockRefused { sock, reply }), len)
            }
            Err(ProtoError::BadDelta { len }) => {
                let reply = Response::ClientError("invalid numeric delta argument".into());
                (Framed::Item(WorkItem::SockRefused { sock, reply }), len)
            }
            Err(_) => return Framed::Malformed,
        }
    };
    buf.drain(..used);
    item
}

/// Per-connection event task: reads, frames requests, and hands them to
/// the connection's worker (the libevent notification of the original
/// architecture). Socket connections keep their round-robin worker
/// binding under every store model.
pub(super) async fn conn_reader(srv: Weak<SrvInner>, sock: Rc<Socket>, widx: usize) {
    let mut buf: Vec<u8> = Vec::new();
    // Protocol sniffing: the binary request magic cannot start an ASCII
    // command, so the first byte decides the connection's protocol.
    if sock.read(&mut buf, 64 * 1024).await.is_err() {
        return;
    }
    let binary = buf[0] == MAGIC_REQUEST;
    loop {
        match next_request(binary, &mut buf, &sock) {
            Framed::Item(item) => {
                let Some(inner) = srv.upgrade() else { return };
                if !inner.running.get() {
                    sock.close();
                    return;
                }
                // Op 0 means "no wire id": the profiler attributes the
                // mark by the single open client op.
                inner.mark_dispatch(OpId::Local(0), 0);
                let _ = inner.workers[widx].send(item);
            }
            Framed::Incomplete => {
                if sock.read(&mut buf, 64 * 1024).await.is_err() {
                    return; // connection closed
                }
            }
            Framed::Quit => {
                sock.close();
                return;
            }
            Framed::Malformed => {
                // Any other protocol error: answer (in ASCII) and drop the
                // connection.
                if !binary {
                    let _ = sock.write_all(&encode_response(&Response::Error)).await;
                }
                sock.close();
                return;
            }
        }
    }
}

/// Serves one ASCII command (TCP or UDP): the reply's wire bytes, `None`
/// when it asked for no reply.
async fn serve_ascii(srv: &Rc<SrvInner>, cmd: Command, widx: u32) -> Option<Vec<u8>> {
    let (request, noreply) = codec::ascii::decode_request(&cmd)?;
    // One op id for the whole service: the `worker_service` span and the
    // lock spans taken under it share the id, so the folded profile nests
    // lock_wait/lock_hold inside the service frame.
    let id = OpId::Local(srv.next_sock_op());
    let encode = |reply: &Reply<&[u8]>| (!noreply).then(|| codec::ascii::encode_reply(&cmd, reply));
    let (wire, guards) = srv
        .exec
        .serve(&request, id, Track::Worker(widx), encode)
        .await;
    drop(guards);
    wire
}

async fn serve_sock_bin(srv: &Rc<SrvInner>, sock: Rc<Socket>, frame: BinFrame, widx: u32) {
    let id = OpId::Local(srv.next_sock_op());
    let wire = match codec::binary::decode_request(&frame) {
        Some(request) => {
            let encode = |reply: &Reply<&[u8]>| codec::binary::encode_reply(&frame, reply);
            let (wire, guards) = srv
                .exec
                .serve(&request, id, Track::Worker(widx), encode)
                .await;
            drop(guards);
            wire
        }
        None => BinFrame::response(&frame, BinStatus::InvalidArgs).encode(),
    };
    // Empty: a quiet miss (binary multiget) is answered by silence.
    if !wire.is_empty() {
        let _ = sock.write_all(&wire).await;
    }
}

/// UDP receive loop: one task per (stack, port). Requests must fit a
/// single datagram (as in real memcached); responses are fragmented with
/// the 8-byte UDP frame header. Connectionless, so requests round-robin
/// over workers individually.
pub(super) async fn udp_receiver(srv: Weak<SrvInner>, sock: Rc<DgramSocket>) {
    loop {
        let Ok((src, datagram)) = sock.recv_from().await else {
            return;
        };
        let Some(inner) = srv.upgrade() else { return };
        if !inner.running.get() {
            return;
        }
        let Ok((frame, payload)) = UdpFrame::decode(&datagram) else {
            continue;
        };
        if frame.total != 1 {
            continue; // multi-datagram requests are not supported
        }
        let Ok(Some((cmd, _))) = parse_command(payload) else {
            continue;
        };
        if cmd == Command::Quit {
            continue; // meaningless without a connection
        }
        inner.mark_dispatch(OpId::Local(0), 0);
        let widx = inner.next_worker();
        let _ = inner.workers[widx].send(WorkItem::SockUdp {
            sock: sock.clone(),
            src,
            request_id: frame.request_id,
            cmd,
        });
    }
}
