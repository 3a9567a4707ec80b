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
    encode_response, frame_into, parse_command_ref, udp_fragment, BinFrameRef, BinOpcode,
    BinStatus, CommandOf, ProtoError, Response, UdpFrame, MAGIC_REQUEST, UDP_DATAGRAM_BYTES,
    UDP_FRAME_BYTES,
};
use mcstore::Value;
use simnet::trace::{Phase, Track};
use simnet::SimTime;
use socksim::{DgramSocket, Socket, STREAM_BUF_KEEP};
use ucr::{AmBytes, AmData, AmHandler, Endpoint, SendOptions};

use super::executor::OpId;
use super::{SrvInner, WorkItem};
use crate::am_wire::{HeldReq, McOp, ReqHead, MSG_MC_RESP};
use crate::codec;
use crate::request::Reply;

/// Serves one dispatched work item on worker `widx`. A socket reply is
/// written into `reply`, the worker's own buffer, and copied out of it by
/// the write.
pub(super) async fn serve(srv: &Rc<SrvInner>, item: WorkItem, widx: u32, reply: &mut Vec<u8>) {
    reply.clear();
    match item {
        WorkItem::Ucr { ep, req, data } => {
            serve_ucr(srv, ep, &req, data, widx).await;
            srv.key_lists.give_back_bytes(req.into_list());
        }
        WorkItem::UcrMgetPart {
            ep,
            merge,
            shard,
            idxs,
        } => serve_ucr_mget_part(srv, ep, merge, shard, idxs, widx).await,
        WorkItem::Sock {
            sock,
            binary,
            frame,
        } => {
            let replied = if binary {
                serve_binary(srv, &frame, widx, reply).await
            } else {
                serve_ascii(srv, &frame, widx, reply).await
            };
            srv.frames.give_back_bytes(frame);
            if replied {
                let _ = sock.write_all(reply).await;
            }
        }
        WorkItem::SockRefused {
            sock,
            reply: refusal,
        } => {
            frame_into(reply, |w| w.response(&refusal));
            let _ = sock.write_all(reply).await;
        }
        WorkItem::SockUdp {
            sock,
            src,
            request_id,
            mut datagram,
        } => {
            let command = datagram.get(UDP_FRAME_BYTES..).unwrap_or_default();
            if serve_ascii(srv, command, widx, reply).await {
                // The reply's datagrams are written over the request's.
                datagram.clear();
                udp_fragment(request_id, reply, &mut datagram);
                for part in datagram.chunks(UDP_DATAGRAM_BYTES) {
                    let _ = sock.send_to(src, part).await;
                }
            }
            sock.give_back(datagram);
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

    /// An idle frame buffer, or a fresh one with room for
    /// [`STREAM_BUF_KEEP`] bytes.
    fn frame(&self) -> Vec<u8> {
        let idle = self.frames.take();
        idle.unwrap_or_else(|| Vec::with_capacity(STREAM_BUF_KEEP))
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
    req: HeldReq,
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
        let Some(req) = HeldReq::decode(hdr, &srv.key_lists) else {
            return;
        };
        let data = match data {
            AmData::Pool(bytes) => bytes,
            AmData::Discarded => AmBytes::default(),
        };
        srv.mark_dispatch(OpId::Wire(req.head.req_id), data.len() as u64);
        // Over a sharded store, keyed requests go to the owning shard's
        // affine worker and multi-shard Mgets are split into per-shard parts.
        // Everything else keeps the upstream policy: every request of a
        // connection is served by the worker the connection was assigned
        // to (paper §V-A).
        let (groups, affine) = {
            let keys = req.keys();
            let groups = srv.exec.shard_groups(req.head.op, &keys);
            (groups, keys.first().and_then(|k| srv.exec.affine_shard(k)))
        };
        if let Some(groups) = groups {
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
        let widx = match affine {
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

/// AM 2: the response to the request `req` over `keys`, targeting the
/// counter named in AM 1 (§V-B). Its data is copied once, into the send:
/// from where the reply holds it — a `Get` hit, from the store.
fn post_reply<D: AsRef<[u8]>>(ep: &Endpoint, req: &ReqHead, keys: &[&[u8]], reply: &Reply<D>) {
    let (hdr, data) = codec::ucr::encode_reply(req.req_id, reply, keys);
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

/// Serves one UCR request, its keys read where the header holds them. Its
/// data stays where UCR landed it until the service has copied it into the
/// store; a rendezvous's bytes then go back to the runtime's pool.
async fn serve_ucr(srv: &Rc<SrvInner>, ep: Endpoint, req: &HeldReq, data: AmBytes, widx: u32) {
    let keys = req.keys();
    let request = codec::ucr::decode_request(&req.head, &keys, &data);
    let (id, track) = (OpId::Wire(req.head.req_id), Track::Worker(widx));
    // Posted at the service instant, the request's locks still held.
    let post = |reply: &Reply<&[u8]>| post_reply(&ep, &req.head, &keys, reply);
    srv.exec.serve(&request, id, track, post).await;
}

/// Serves one shard's slice of a split `Mget` (the
/// [`StoreModel::Sharded`](super::StoreModel) scatter/gather path). Each
/// part charges its own fixed cost, locks only its shard and picks its
/// keys out of the request's key list in one walk. The last part to finish
/// books the request, encodes the merged response in original key order,
/// posts the single `MSG_MC_RESP` and gives the key list back.
async fn serve_ucr_mget_part(
    srv: &Rc<SrvInner>,
    ep: Endpoint,
    merge: Rc<MgetMerge>,
    shard: usize,
    idxs: Vec<usize>,
    widx: u32,
) {
    let (exec, req) = (&srv.exec, &merge.req);
    let (id, track) = (OpId::Wire(req.head.req_id), Track::Worker(widx));
    // One `worker_service` span per part under the shared request id, one
    // service-time sample per request: both run from the earliest begin
    // to the latest end.
    let began = exec.begin(id, track, idxs.len() as u64);
    let started = merge.started.get().unwrap_or(began);
    merge.started.set(Some(started));
    exec.charge_fixed().await;
    let mut hits = Vec::with_capacity(idxs.len());
    // `idxs` ascend, as the keys do in the list.
    let mut mine = idxs.iter().peekable();
    let keys = req.each_key().enumerate();
    let keys = keys.filter(|(i, _)| mine.next_if_eq(&i).is_some());
    let _guards = exec
        .fetch_shard(shard, keys, idxs.len(), &mut hits, id, track)
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
        post_reply(&ep, &req.head, &req.keys(), reply);
        // The other parts have finished and let go of the merge: this one
        // holds it alone.
        if let Ok(merge) = Rc::try_unwrap(merge) {
            srv.key_lists.give_back_bytes(merge.req.into_list());
        }
    }
}

// ---------------------------------------------------------------------
// Sockets: ASCII and binary over TCP, ASCII over UDP
// ---------------------------------------------------------------------

/// The next thing on a stream connection's receive buffer.
enum Framed {
    /// A request in the connection's protocol, whole (and, in ASCII,
    /// valid): the first `n` bytes.
    Command(usize),
    /// A request taken in its parsed form, and the bytes it took.
    Item(WorkItem, usize),
    Quit,
    Incomplete,
    Malformed,
}

/// Frames one request off the front of `buf` in the connection's
/// protocol.
fn next_request(binary: bool, buf: &[u8], sock: &Rc<Socket>) -> Framed {
    let sock = sock.clone();
    if binary {
        return match BinFrameRef::parse(buf) {
            Ok(Some((frame, _))) if frame.opcode == BinOpcode::Quit => Framed::Quit,
            Ok(Some((_, used))) => Framed::Command(used),
            Ok(None) => Framed::Incomplete,
            Err(_) => Framed::Malformed,
        };
    }
    // memcached answers an unknown command and a non-numeric delta and
    // reads on; the answer queues behind the replies it must follow.
    let refuse = |reply, len| Framed::Item(WorkItem::SockRefused { sock, reply }, len);
    match parse_command_ref(buf) {
        Ok(Some((CommandOf::Quit, _))) => Framed::Quit,
        Ok(Some((_, used))) => Framed::Command(used),
        Ok(None) => Framed::Incomplete,
        Err(ProtoError::UnknownCommand { len }) => refuse(Response::Error, len),
        Err(ProtoError::BadDelta { len }) => {
            let reply = Response::ClientError("invalid numeric delta argument".into());
            refuse(reply, len)
        }
        Err(_) => Framed::Malformed,
    }
}

/// Per-connection event task: reads, frames requests, and hands them to
/// the connection's worker (the libevent notification of the original
/// architecture). Socket connections keep their round-robin worker
/// binding under every store model. A request goes to the worker in the
/// buffer it was read into, lent by the server's frame pool; the bytes read
/// past it stay here, in another.
pub(super) async fn conn_reader(srv: Weak<SrvInner>, sock: Rc<Socket>, widx: usize) {
    let Some(mut buf) = srv.upgrade().map(|inner| inner.frame()) else {
        return;
    };
    // Protocol sniffing: the binary request magic cannot start an ASCII
    // command, so the first byte decides the connection's protocol.
    if sock.read(&mut buf, 64 * 1024).await.is_err() {
        return;
    }
    let binary = buf[0] == MAGIC_REQUEST;
    loop {
        let (item, used) = match next_request(binary, &buf, &sock) {
            Framed::Item(item, used) => (Some(item), used),
            Framed::Command(used) => (None, used),
            Framed::Incomplete => {
                if sock.read(&mut buf, 64 * 1024).await.is_err() {
                    return; // connection closed
                }
                continue;
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
        };
        let Some(inner) = srv.upgrade() else { return };
        if !inner.running.get() {
            sock.close();
            return;
        }
        let item = match item {
            Some(item) => {
                buf.drain(..used);
                item
            }
            None => {
                let mut rest = inner.frame();
                rest.extend_from_slice(&buf[used..]);
                buf.truncate(used);
                let frame = std::mem::replace(&mut buf, rest);
                WorkItem::Sock {
                    sock: sock.clone(),
                    binary,
                    frame,
                }
            }
        };
        // Op 0 means "no wire id": the profiler attributes the mark by the
        // single open client op.
        inner.mark_dispatch(OpId::Local(0), 0);
        let _ = inner.workers[widx].send(item);
    }
}

/// Serves the ASCII command `frame` holds (TCP or UDP), read in place,
/// and writes its reply onto `reply`: false when it asked for none.
async fn serve_ascii(srv: &Rc<SrvInner>, frame: &[u8], widx: u32, reply: &mut Vec<u8>) -> bool {
    // The reader let it through whole and valid.
    let Ok(Some((cmd, _))) = parse_command_ref(frame) else {
        return false;
    };
    let keys = codec::ascii::keys(&cmd);
    let Some((request, noreply)) = codec::ascii::decode_request(&cmd, &keys) else {
        return false;
    };
    // One op id for the whole service: the `worker_service` span and the
    // lock spans taken under it share the id, so the folded profile nests
    // lock_wait/lock_hold inside the service frame.
    let id = OpId::Local(srv.next_sock_op());
    let encode = |answer: &Reply<&[u8]>| {
        if !noreply {
            codec::ascii::encode_reply(&cmd, &keys, answer, reply);
        }
        !noreply
    };
    srv.exec
        .serve(&request, id, Track::Worker(widx), encode)
        .await
}

/// Serves the binary request `frame` holds, read in place, and writes its
/// reply onto `reply`: false when it is answered by silence (a quiet miss,
/// the binary multiget's).
async fn serve_binary(srv: &Rc<SrvInner>, frame: &[u8], widx: u32, reply: &mut Vec<u8>) -> bool {
    // The reader let it through whole.
    let Ok(Some((frame, _))) = BinFrameRef::parse(frame) else {
        return false;
    };
    let id = OpId::Local(srv.next_sock_op());
    match codec::binary::decode_request(&frame) {
        Some(request) => {
            let encode = |answer: &Reply<&[u8]>| codec::binary::encode_reply(&frame, answer, reply);
            srv.exec
                .serve(&request, id, Track::Worker(widx), encode)
                .await
        }
        None => BinFrameRef::response(&frame, BinStatus::InvalidArgs).write_to(reply),
    }
    !reply.is_empty()
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
        // The worker reads the command in place from the datagram. A
        // multi-datagram request is not supported, and `quit` is
        // meaningless without a connection.
        let request_id = match UdpFrame::decode(&datagram) {
            Ok((frame, payload)) if frame.total == 1 => match parse_command_ref(payload) {
                Ok(Some((CommandOf::Quit, _)) | None) | Err(_) => None,
                Ok(Some(_)) => Some(frame.request_id),
            },
            _ => None,
        };
        let Some(request_id) = request_id else {
            sock.give_back(datagram);
            continue;
        };
        inner.mark_dispatch(OpId::Local(0), 0);
        let widx = inner.next_worker();
        let _ = inner.workers[widx].send(WorkItem::SockUdp {
            sock: sock.clone(),
            src,
            request_id,
            datagram,
        });
    }
}
