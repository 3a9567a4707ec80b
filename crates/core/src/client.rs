//! The Memcached client library (libmemcached 0.45's role in the paper).
//!
//! A client owns a pool of servers and routes each key with a hash — the
//! scalable, no-central-directory architecture of §II-C. The same API runs
//! over two transport families:
//!
//! * **UCR**: requests are active messages carrying a typed header and the
//!   client's counter id; the client blocks (with timeout) on the counter
//!   the server's response targets — the paper's §V flows;
//! * **Sockets**: requests are ASCII or binary protocol frames over any
//!   byte-stream stack (or ASCII over UDP), exactly like the unmodified
//!   libmemcached baseline, with `TCP_NODELAY` set as the paper's
//!   benchmarks do.
//!
//! Whichever it is, an operation runs one way: `Conn::start` sends the
//! request and returns a `Ticket`, `Ticket::finish` awaits that ticket's
//! reply. A single call is the two back to back; a batch keeps a
//! window of tickets open per connection.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::rc::Rc;

use mcproto::{udp_fragment, BinFrame, ProtoError, UdpFrame, UDP_CHUNK_BYTES};
use mcstore::{NumericError, SetOutcome, Value};
use simnet::sync::timeout;
use simnet::trace::{Layer, Track};
use simnet::{NodeId, Sim, SimDuration, Stack, Tracer};
use socksim::{DgramSocket, SockError, Socket, SocketAddr};
use ucr::{
    AmData, Counter, Endpoint, FnHandler, MemoryDescriptor, SendOptions, UcrMemory, UcrRuntime,
};

use crate::am_wire::{
    mget_parts, DirReq, DirResp, McOp, RespHeader, BYPASS_VERSION_BYTES, MSG_MC_DIR_REQ,
    MSG_MC_DIR_RESP, MSG_MC_REQ, MSG_MC_RESP, REQ_HEADER_INLINE,
};
use crate::codec;
use crate::request::{Reply, Request};
use crate::server::unix_now;
use crate::world::World;

/// Which transport family the client uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Transport {
    /// RDMA-capable active messages over native InfiniBand (the paper's
    /// design).
    Ucr,
    /// The same UCR design over RoCE — verbs on converged Ethernet
    /// adapters (the paper's SVII future work). Requires the cluster to
    /// have RDMA-capable Ethernet NICs.
    UcrRoce,
    /// Byte-stream sockets over the given stack (the baseline), speaking
    /// the ASCII protocol.
    Sockets(Stack),
    /// Memcached's binary protocol over a byte stream on the given stack
    /// (libmemcached's `MEMCACHED_BEHAVIOR_BINARY_PROTOCOL`).
    Binary(Stack),
    /// Memcached's UDP protocol over the given stack — the SIII Facebook
    /// baseline: connectionless requests with the 8-byte frame header,
    /// no delivery guarantee (loss surfaces as a timeout).
    Udp(Stack),
}

impl Transport {
    /// Display label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            Transport::Ucr => Stack::Ucr.label(),
            Transport::UcrRoce => "UCR-RoCE",
            Transport::Sockets(s) => s.label(),
            Transport::Binary(_) => "Binary",
            Transport::Udp(Stack::TenGigEToe) => "UDP/10GigE",
            Transport::Udp(Stack::OneGigE) => "UDP/1GigE",
            Transport::Udp(Stack::Ipoib) => "UDP/IPoIB",
            Transport::Udp(_) => "UDP",
        }
    }

    /// The `Stack` this transport corresponds to.
    pub fn stack(self) -> Stack {
        match self {
            Transport::Ucr | Transport::UcrRoce => Stack::Ucr,
            Transport::Sockets(s) | Transport::Binary(s) | Transport::Udp(s) => s,
        }
    }
}

/// Key→server distribution strategy (libmemcached behaviors).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Distribution {
    /// `hash(key) % servers` (libmemcached default).
    Modula,
    /// Consistent hashing on a virtual-node ring (ketama).
    Ketama,
}

/// Key hash function (libmemcached's `MEMCACHED_BEHAVIOR_HASH`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum KeyHash {
    /// Jenkins one-at-a-time (libmemcached's default).
    #[default]
    OneAtATime,
    /// 32-bit FNV-1a.
    Fnv1a32,
    /// CRC-32 (as libmemcached computes it: CRC >> 16 & 0x7fff would be
    /// the textbook variant; the full 32-bit value distributes better and
    /// is what modern clients use).
    Crc32,
}

impl KeyHash {
    /// Hashes a key with the selected function.
    pub fn hash(self, key: &[u8]) -> u32 {
        match self {
            KeyHash::OneAtATime => one_at_a_time(key),
            KeyHash::Fnv1a32 => fnv1a_32(key),
            KeyHash::Crc32 => crc32(key),
        }
    }
}

/// 32-bit FNV-1a.
pub fn fnv1a_32(key: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in key {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// CRC-32 (IEEE 802.3 polynomial, bitwise — key hashing is not hot enough
/// to justify a table).
pub fn crc32(key: &[u8]) -> u32 {
    let mut crc: u32 = 0xffff_ffff;
    for &b in key {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

/// Client configuration.
#[derive(Clone)]
pub struct McClientConfig {
    /// Transport family.
    pub transport: Transport,
    /// Server pool (nodes running `McServer`).
    pub servers: Vec<NodeId>,
    /// Service port.
    pub port: u16,
    /// Per-operation timeout (the UCR wait-with-timeout of §IV-A).
    pub op_timeout: SimDuration,
    /// Key distribution strategy.
    pub distribution: Distribution,
    /// Key hash function (libmemcached's `MEMCACHED_BEHAVIOR_HASH`).
    pub key_hash: KeyHash,
    /// Maximum outstanding requests per connection for the batch APIs
    /// ([`get_many`](McClient::get_many) / [`set_many`](McClient::set_many)).
    /// Depth 1 reproduces the classic synchronous one-op-at-a-time client;
    /// deeper pipelines keep up to this many requests in flight, the
    /// per-connection analogue of the paper's add-more-clients scaling
    /// (Fig. 6). Single-op calls (`get`/`set`/…) are unaffected.
    pub pipeline_depth: usize,
    /// Serve [`get`](McClient::get) with a client-direct RDMA read of the
    /// server's slab memory when possible (UCR transports only): the
    /// client resolves the key to an RDMA window through the item
    /// directory, caches the descriptor, and reads value + seqlock
    /// version with a one-sided get — zero server CPU on the hot path.
    /// Version skew (a concurrent writer) retries with a fresh
    /// descriptor; persistent trouble falls back to the AM get.
    pub bypass_get: bool,
}

impl McClientConfig {
    /// A single-server config with defaults matching the paper's
    /// benchmarks.
    pub fn single(transport: Transport, server: NodeId) -> McClientConfig {
        McClientConfig {
            transport,
            servers: vec![server],
            port: 11211,
            op_timeout: SimDuration::from_millis(250),
            distribution: Distribution::Modula,
            key_hash: KeyHash::default(),
            pipeline_depth: 1,
            bypass_get: false,
        }
    }
}

/// Errors surfaced by client operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum McError {
    /// The operation timed out (server dead or overloaded).
    Timeout,
    /// Connection failed or dropped.
    Disconnected,
    /// Precondition failed (add/replace/append/prepend).
    NotStored,
    /// CAS mismatch.
    Exists,
    /// Key not found (delete/incr/cas/touch).
    NotFound,
    /// Item too large for the cache.
    TooLarge,
    /// Server out of memory.
    OutOfMemory,
    /// incr/decr on a non-numeric value.
    NotNumeric,
    /// The server replied something unexpected.
    Protocol,
    /// Config has no servers.
    NoServers,
}

impl std::fmt::Display for McError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            McError::Timeout => "timed out",
            McError::Disconnected => "disconnected",
            McError::NotStored => "not stored",
            McError::Exists => "cas mismatch",
            McError::NotFound => "not found",
            McError::TooLarge => "object too large",
            McError::OutOfMemory => "server out of memory",
            McError::NotNumeric => "non-numeric value",
            McError::Protocol => "protocol error",
            McError::NoServers => "no servers configured",
        };
        f.write_str(s)
    }
}

impl std::error::Error for McError {}

/// A reply that does not parse is the server's protocol error.
impl From<ProtoError> for McError {
    fn from(_: ProtoError) -> McError {
        McError::Protocol
    }
}

/// The libmemcached "one-at-a-time" (Jenkins) hash — the default key hash.
pub fn one_at_a_time(key: &[u8]) -> u32 {
    let mut h: u32 = 0;
    for &b in key {
        h = h.wrapping_add(b as u32);
        h = h.wrapping_add(h << 10);
        h ^= h >> 6;
    }
    h = h.wrapping_add(h << 3);
    h ^= h >> 11;
    h = h.wrapping_add(h << 15);
    h
}

/// Responses parked by the UCR handler until their request wakes up.
/// This is the per-connection in-flight table: entries are keyed by
/// request id, so responses arriving out of issue order are matched to
/// the right waiter regardless of pipeline depth.
type PendingResponses = Rc<RefCell<HashMap<u64, (RespHeader, Vec<u8>)>>>;

/// Request ids abandoned before their response arrived (dropped in-flight
/// handles, timed-out waits). The response handler drops a late response
/// whose id is flagged here instead of parking it forever.
type CancelledIds = Rc<RefCell<HashSet<u64>>>;

/// Directory answers parked by the bypass handler until their waiter
/// claims them (same request-id discipline as [`PendingResponses`]).
type PendingDirResponses = Rc<RefCell<HashMap<u64, DirResp>>>;

/// One cached item descriptor for the bypass-GET path: the RDMA window
/// plus everything needed to validate a one-sided read of it.
#[derive(Clone, Copy)]
struct CachedDescriptor {
    remote: MemoryDescriptor,
    vlen: u32,
    flags: u32,
    cas: u64,
    exp: u32,
    version: u64,
}

/// How many times a bypass get chases version skew (descriptor refetch +
/// re-read) before falling back to the AM path.
const BYPASS_RETRIES: u32 = 3;

/// Bound on the client-side descriptor cache for the bypass path
/// (entries; FIFO eviction).
const BYPASS_CACHE_CAP: usize = 1024;

/// How a single one-sided bypass read ended.
enum BypassRead {
    /// Value bytes landed and the trailing version word matched.
    Ok(Vec<u8>),
    /// The version word moved: a writer raced the read.
    Skew,
    /// The read faulted (deregistered rkey after a slab-page retirement,
    /// endpoint failure) or timed out.
    Failed,
}

/// One connection to a server. Whatever the wire, an operation on it is
/// [`start`](Conn::start), then [`finish`](Ticket::finish) on the ticket
/// that returned; everything that differs per wire lives in those two.
enum Conn {
    /// UCR active messages: replies name their request id and may land in
    /// any order.
    Ucr(Endpoint),
    /// A TCP byte stream, ASCII or binary. Replies come back in request
    /// order, so tickets finish in the order they started, and a ticket
    /// that fails or is abandoned evicts the connection: the next reply on
    /// the stream would be taken for somebody else's.
    Stream {
        sock: Socket,
        binary: bool,
        /// Bytes read and not yet framed (one read may deliver the tail of
        /// reply N glued to the head of reply N+1).
        rbuf: RefCell<Vec<u8>>,
    },
    /// ASCII over UDP datagrams framed with the low 16 bits of the ticket
    /// id. Loss surfaces as a timeout, so one operation at a time: a
    /// window of lossy datagrams needs per-op retry bookkeeping.
    Udp {
        sock: DgramSocket,
        server: SocketAddr,
    },
}

/// One operation started on a connection and not yet finished. Dropping it
/// unfinished (a batch aborting on an earlier op's error, a timed-out
/// wait, a caller discarding an issued get) abandons the operation the way
/// its wire needs and closes its `client_op` span.
struct Ticket {
    /// Request id: the span id on every wire, the AM request id on UCR,
    /// the datagram id (low 16 bits) on UDP.
    id: u64,
    op: McOp,
    cli: Rc<CliInner>,
    conn: Rc<Conn>,
    /// UCR: the counter the server's AM 2 targets.
    ctr: Option<Counter>,
    /// The request went out and its reply has not been claimed.
    owed: bool,
    /// What the span's end reports (UCR: the reply's payload bytes).
    reply_bytes: u64,
}

impl Drop for Ticket {
    fn drop(&mut self) {
        if self.owed {
            match &*self.conn {
                // Claim the parked response if it already landed, otherwise
                // flag the id so the handler drops it on arrival.
                Conn::Ucr(_) => {
                    if self.cli.pending.borrow_mut().remove(&self.id).is_none() {
                        self.cli.cancelled.borrow_mut().insert(self.id);
                    }
                }
                Conn::Stream { .. } => self.cli.evict(&self.conn),
                // A late datagram is dropped by its id.
                Conn::Udp { .. } => {}
            }
        }
        self.cli.tracer.end(
            Layer::Core,
            "client_op",
            self.cli.node,
            Track::Main,
            self.id,
            self.reply_bytes,
            self.cli.sim.now(),
        );
    }
}

impl Conn {
    /// How many tickets may be open at once when the caller asks for
    /// `depth`.
    fn window(&self, depth: usize) -> usize {
        match self {
            Conn::Udp { .. } => 1,
            Conn::Ucr(_) | Conn::Stream { .. } => depth.max(1),
        }
    }

    /// Starts `req`: encodes it, hands it to the wire, opens the op's
    /// `client_op` span and marks `client_sent`. Over UCR this resolves
    /// when UCR has accepted the staged AM 1 (posted it, or queued it
    /// behind a backed-up send queue) — everything up to that point is
    /// client-side serialization; time spent queued counts as request wire.
    async fn start(
        self: &Rc<Self>,
        cli: &Rc<CliInner>,
        req: &Request<'_, &[u8]>,
    ) -> Result<Ticket, McError> {
        let mut ticket = Ticket {
            id: cli.next_id(),
            op: req.op,
            cli: cli.clone(),
            conn: self.clone(),
            ctr: None,
            owed: false,
            reply_bytes: 0,
        };
        let id = ticket.id;
        cli.tracer.begin(
            Layer::Core,
            "client_op",
            cli.node,
            Track::Main,
            id,
            req.value.len() as u64,
            cli.sim.now(),
        );
        match &**self {
            Conn::Ucr(ep) => {
                let ctr = cli.ucr.as_ref().ok_or(McError::Disconnected)?.counter();
                let (hdr, data) = codec::ucr::encode_request(req, id, ctr.id());
                // Any single-key header fits the stack; a multiget's may spill.
                let mut inline = [0u8; REQ_HEADER_INLINE];
                let spilled;
                let wire: &[u8] = match inline.get_mut(..hdr.encoded_len()) {
                    Some(wire) => {
                        hdr.encode_into(wire);
                        wire
                    }
                    None => {
                        spilled = hdr.encode();
                        &spilled
                    }
                };
                ep.send_message(MSG_MC_REQ, wire, data, SendOptions::default())
                    .await
                    .map_err(|_| McError::Disconnected)?;
                ticket.ctr = Some(ctr);
            }
            Conn::Stream { sock, binary, .. } => {
                let wire = if *binary {
                    let frames = codec::binary::encode_request(req);
                    frames
                        .iter()
                        .map(BinFrame::encode)
                        .collect::<Vec<_>>()
                        .concat()
                } else {
                    codec::ascii::encode_request(req)
                };
                // A failed write may have sent part of the request.
                ticket.owed = true;
                sock.write_all(&wire)
                    .await
                    .map_err(|_| McError::Disconnected)?;
            }
            Conn::Udp { sock, server } => {
                let wire = codec::ascii::encode_request(req);
                if wire.len() > UDP_CHUNK_BYTES {
                    return Err(McError::TooLarge); // requests must fit one datagram
                }
                for d in udp_fragment(id as u16, &wire) {
                    sock.send_to(*server, &d)
                        .await
                        .map_err(|_| McError::Disconnected)?;
                }
            }
        }
        ticket.owed = true;
        // The request has left the client's hands: the issue stage of the
        // critical path ends here.
        cli.mark("client_sent", id);
        Ok(ticket)
    }

    fn close(&self) {
        match self {
            Conn::Ucr(ep) => ep.close(),
            Conn::Stream { sock, .. } => sock.close(),
            Conn::Udp { .. } => {} // the socket unbinds on drop
        }
    }
}

impl Ticket {
    /// Awaits this ticket's reply under the per-operation timeout, marks
    /// `client_reply` and decodes it as the reply to a request over
    /// `keys`. Over UCR, responses for *other* tickets may land first —
    /// the handler parks them in the table by request id, and it is the
    /// handler that marks `client_reply`, when the response lands.
    async fn finish(mut self, keys: &[&[u8]]) -> Result<Reply, McError> {
        let (cli, op) = (&self.cli, self.op);
        let reply = match &*self.conn {
            Conn::Ucr(_) => {
                let ctr = self.ctr.as_ref().ok_or(McError::Protocol)?;
                // Server presumed dead on a timeout: the corrective action
                // of §IV-A.
                ctr.wait_for(1, cli.cfg.op_timeout)
                    .await
                    .map_err(|_| McError::Timeout)?;
                self.owed = false;
                let parked = cli.pending.borrow_mut().remove(&self.id);
                let (hdr, payload) = parked.ok_or(McError::Protocol)?;
                self.reply_bytes = payload.len() as u64;
                return codec::ucr::decode_reply(op, keys, hdr, payload);
            }
            Conn::Stream { sock, binary, rbuf } => {
                cli.timed(async {
                    if !*binary {
                        let decode = |buf: &[u8]| codec::ascii::decode_reply(op, keys, buf);
                        return read_frame(sock, rbuf, decode).await;
                    }
                    let mut frames = Vec::new();
                    loop {
                        let frame = read_frame(sock, rbuf, BinFrame::parse).await?;
                        let last = codec::binary::ends_reply(op, &frame);
                        frames.push(frame);
                        if last {
                            return codec::binary::decode_reply(op, keys, frames);
                        }
                    }
                })
                .await?
            }
            // Response datagrams are reassembled by request id. Loss
            // (including receiver-buffer overflow at a hot server) surfaces
            // as a timeout — exactly the operational hazard Facebook's UDP
            // deployment managed (§III).
            Conn::Udp { sock, .. } => {
                let want = self.id as u16;
                cli.timed(async {
                    let mut frames: Vec<(UdpFrame, Vec<u8>)> = Vec::new();
                    loop {
                        let (_, datagram) =
                            sock.recv_from().await.map_err(|_| McError::Disconnected)?;
                        let Ok((frame, payload)) = UdpFrame::decode(&datagram) else {
                            continue;
                        };
                        if frame.request_id != want {
                            continue; // stale response from a timed-out request
                        }
                        frames.push((frame, payload.to_vec()));
                        if let Some(whole) = mcproto::udp_reassemble(want, &frames) {
                            let decoded = codec::ascii::decode_reply(op, keys, &whole)?;
                            return decoded.map(|(reply, _)| reply).ok_or(McError::Protocol);
                        }
                    }
                })
                .await?
            }
        };
        self.owed = false;
        // The response is fully parsed: the response-wire stage ends here
        // and the residue is the client completion stage.
        cli.mark("client_reply", self.id);
        Ok(reply)
    }
}

struct CliInner {
    sim: Sim,
    node: NodeId,
    cfg: McClientConfig,
    socks: socksim::SockFabric,
    ucr: Option<UcrRuntime>,
    /// By server index; ordered, so a drop closes them in index order.
    conns: RefCell<BTreeMap<usize, Rc<Conn>>>,
    pending: PendingResponses,
    cancelled: CancelledIds,
    next_req: Cell<u64>,
    ring: Vec<(u32, usize)>,
    /// Operations issued (`client.nodeN.ops_issued`).
    ops: Rc<simnet::metrics::Counter>,
    /// Cross-layer event tracer (cluster-wide; adds no virtual time).
    tracer: Rc<Tracer>,
    /// Live pipelined-window occupancy (`client.nodeN.inflight`); the
    /// gauge's high watermark records the deepest window reached.
    inflight_gauge: Rc<simnet::metrics::Gauge>,
    /// Completed operations (`client.nodeN.ops_completed`).
    ops_completed: Rc<simnet::metrics::Counter>,
    /// Directory answers awaiting their bypass-get waiter.
    dir_pending: PendingDirResponses,
    /// Cached item descriptors, keyed by (server index, key).
    bypass_cache: RefCell<HashMap<(usize, Vec<u8>), CachedDescriptor>>,
    /// Insertion order of `bypass_cache` keys (FIFO bound).
    bypass_order: RefCell<VecDeque<(usize, Vec<u8>)>>,
    /// Dedicated endpoints for one-sided reads, one per server. A failed
    /// one-sided op poisons its endpoint, so the bypass path dials its
    /// own connection and re-dials after a fault instead of poisoning
    /// the AM connection.
    bypass_eps: RefCell<HashMap<usize, Endpoint>>,
    /// Scratch region one-sided reads land in (grown on demand), while no
    /// read holds it.
    bypass_buf: RefCell<Option<UcrMemory>>,
}

impl CliInner {
    /// Accounts one completed operation (any transport).
    fn op_done(&self) {
        self.ops_completed.inc();
    }
}

/// A Memcached client bound to one node of the simulated cluster.
#[derive(Clone)]
pub struct McClient {
    inner: Rc<CliInner>,
}

impl McClient {
    /// Creates a client on `node`. For UCR transports this brings up a UCR
    /// runtime on the node and registers the response handler.
    pub fn new(world: &World, node: NodeId, cfg: McClientConfig) -> McClient {
        assert!(!cfg.servers.is_empty(), "client needs at least one server");
        let pending: PendingResponses = Rc::new(RefCell::new(HashMap::new()));
        let cancelled: CancelledIds = Rc::new(RefCell::new(HashSet::new()));
        let dir_pending: PendingDirResponses = Rc::new(RefCell::new(HashMap::new()));
        // Resolve the RDMA fabric first: asking for RoCE on a cluster
        // whose Ethernet adapters lack it leaves `ucr` unset, and every
        // operation then fails with `McError::Disconnected` — the same
        // graceful path a vanished server takes — instead of panicking.
        let fabric = match cfg.transport {
            Transport::Ucr => Some(&world.ib),
            Transport::UcrRoce => world.roce.as_ref(),
            Transport::Sockets(_) | Transport::Binary(_) | Transport::Udp(_) => None,
        };
        let tracer = world.cluster.tracer().clone();
        let metrics = world.cluster.metrics();
        let ucr = match (cfg.transport, fabric) {
            (Transport::Ucr | Transport::UcrRoce, Some(fabric)) => {
                let rt = UcrRuntime::new(fabric, node);
                let pending2 = pending.clone();
                let cancelled2 = cancelled.clone();
                let sim2 = world.sim().clone();
                let tracer2 = tracer.clone();
                rt.register_handler(
                    MSG_MC_RESP,
                    FnHandler(move |_ep: &Endpoint, hdr: &[u8], data: AmData| {
                        if let Some(resp) = RespHeader::decode(hdr) {
                            if cancelled2.borrow_mut().remove(&resp.req_id) {
                                // The op was abandoned (dropped handle or
                                // timed-out wait); drop the late response
                                // instead of parking it forever.
                                return;
                            }
                            // Response landed: the response-wire stage of
                            // the critical path ends here.
                            tracer2.instant(
                                Layer::Core,
                                "client_reply",
                                node,
                                Track::Main,
                                resp.req_id,
                                data.len() as u64,
                                sim2.now(),
                            );
                            let payload = data.into_vec().unwrap_or_default();
                            pending2.borrow_mut().insert(resp.req_id, (resp, payload));
                        }
                    }),
                );
                let dir2 = dir_pending.clone();
                let cancelled3 = cancelled.clone();
                rt.register_handler(
                    MSG_MC_DIR_RESP,
                    FnHandler(move |_ep: &Endpoint, hdr: &[u8], _data: AmData| {
                        if let Some(resp) = DirResp::decode(hdr) {
                            if cancelled3.borrow_mut().remove(&resp.req_id) {
                                return; // abandoned lookup: drop it
                            }
                            dir2.borrow_mut().insert(resp.req_id, resp);
                        }
                    }),
                );
                Some(rt)
            }
            _ => None,
        };
        // Ketama ring: 100 virtual points per server.
        let mut ring = Vec::new();
        if cfg.distribution == Distribution::Ketama {
            for (idx, server) in cfg.servers.iter().enumerate() {
                for vn in 0..100u32 {
                    let point = one_at_a_time(format!("{}-{}", server.0, vn).as_bytes());
                    ring.push((point, idx));
                }
            }
            ring.sort_unstable();
        }
        McClient {
            inner: Rc::new(CliInner {
                sim: world.sim().clone(),
                node,
                cfg,
                socks: world.socks.clone(),
                ucr,
                conns: RefCell::new(BTreeMap::new()),
                pending,
                cancelled,
                // Request ids are `(node << 32) | n`: concurrent clients'
                // ops never collide on the shared trace stream, which
                // critical-path correlation relies on (one client per
                // node, the topology every bench uses). The id is a
                // fixed-width wire field, so the prefix changes no message
                // size and no virtual-time outcome.
                next_req: Cell::new((u64::from(node.0) << 32) | 1),
                ring,
                ops: metrics.counter(&format!("client.node{}.ops_issued", node.0)),
                tracer,
                inflight_gauge: metrics.gauge(&format!("client.node{}.inflight", node.0)),
                ops_completed: metrics.counter(&format!("client.node{}.ops_completed", node.0)),
                dir_pending,
                bypass_cache: RefCell::new(HashMap::new()),
                bypass_order: RefCell::new(VecDeque::new()),
                bypass_eps: RefCell::new(HashMap::new()),
                bypass_buf: RefCell::new(None),
            }),
        }
    }

    /// The node this client runs on.
    pub fn node(&self) -> NodeId {
        self.inner.node
    }

    /// Which server index a key routes to (exposed for tests).
    pub fn route(&self, key: &[u8]) -> usize {
        self.inner.route(key)
    }

    /// Total operations issued.
    pub fn ops_issued(&self) -> u64 {
        self.inner.ops.get()
    }

    /// Number of responses currently parked in the in-flight table
    /// awaiting their waiter (diagnostics/tests). Abandoned ops are
    /// scrubbed, so this stays bounded by the pipeline depth.
    pub fn pending_responses(&self) -> usize {
        self.inner.pending.borrow().len()
    }

    /// The client's UCR runtime, when using the UCR transport (ablation
    /// hooks and statistics).
    pub fn ucr_runtime(&self) -> Option<UcrRuntime> {
        self.inner.ucr.clone()
    }

    /// Stores `value` under `key` unconditionally.
    pub async fn set(
        &self,
        key: &[u8],
        value: &[u8],
        flags: u32,
        exptime: u32,
    ) -> Result<(), McError> {
        self.store_op(McOp::Set, key, value, flags, exptime, 0)
            .await
    }

    /// Stores only if the key is absent.
    pub async fn add(
        &self,
        key: &[u8],
        value: &[u8],
        flags: u32,
        exptime: u32,
    ) -> Result<(), McError> {
        self.store_op(McOp::Add, key, value, flags, exptime, 0)
            .await
    }

    /// Stores only if the key exists.
    pub async fn replace(
        &self,
        key: &[u8],
        value: &[u8],
        flags: u32,
        exptime: u32,
    ) -> Result<(), McError> {
        self.store_op(McOp::Replace, key, value, flags, exptime, 0)
            .await
    }

    /// Appends to an existing value.
    pub async fn append(&self, key: &[u8], value: &[u8]) -> Result<(), McError> {
        self.store_op(McOp::Append, key, value, 0, 0, 0).await
    }

    /// Prepends to an existing value.
    pub async fn prepend(&self, key: &[u8], value: &[u8]) -> Result<(), McError> {
        self.store_op(McOp::Prepend, key, value, 0, 0, 0).await
    }

    /// Compare-and-store with a token from [`get`](McClient::get).
    pub async fn cas(
        &self,
        key: &[u8],
        value: &[u8],
        flags: u32,
        exptime: u32,
        cas: u64,
    ) -> Result<(), McError> {
        self.store_op(McOp::Cas, key, value, flags, exptime, cas)
            .await
    }

    /// Fetches a value (CAS token always populated).
    pub async fn get(&self, key: &[u8]) -> Result<Option<Value>, McError> {
        let inner = &self.inner;
        inner.ops.inc();
        let sidx = inner.route(key);
        if inner.cfg.bypass_get {
            if let Conn::Ucr(ep) = &*inner.conn(sidx).await? {
                if let Some(done) = inner.bypass_get(sidx, ep, key).await {
                    return done;
                }
                // Bypass gave up (descriptor trouble, retry budget): fall
                // through to the classic AM round trip.
            }
        }
        let keys = [key];
        fetched(
            inner
                .exchange(sidx, &Request::new(McOp::Get, &keys))
                .await?,
        )
    }

    /// Multi-key fetch. Keys may span servers; requests are grouped per
    /// server. Over UCR a group whose keys would overflow one request
    /// header ([`ucr::MAX_HEADER_BYTES`]) goes as several requests. Returns
    /// `(key, value)` pairs for hits, in key order within each server's
    /// group.
    pub async fn mget(&self, keys: &[&[u8]]) -> Result<Vec<(Vec<u8>, Value)>, McError> {
        let inner = &self.inner;
        inner.ops.inc();
        let mut out = Vec::new();
        for (sidx, idxs) in group_by_server(inner, keys.iter().copied()) {
            let group: Vec<&[u8]> = idxs.iter().map(|&i| keys[i]).collect();
            let max = match &*inner.conn(sidx).await? {
                Conn::Ucr(_) => ucr::MAX_HEADER_BYTES,
                Conn::Stream { .. } | Conn::Udp { .. } => usize::MAX,
            };
            for part in mget_parts(&group, max) {
                let req = Request::new(McOp::Mget, part);
                let Reply::Values(hits) = inner.exchange(sidx, &req).await? else {
                    return Err(McError::Protocol);
                };
                out.extend(hits.into_iter().map(|(i, v)| (part[i].to_vec(), v)));
            }
        }
        Ok(out)
    }

    /// Issues a get without waiting for the response (UCR transports
    /// only): the request is handed to UCR and the returned handle
    /// claims the response later. Responses are correlated by request id
    /// in the in-flight table, so several issued gets may complete in any
    /// order. Returns [`McError::Protocol`] on socket transports, which
    /// have no out-of-order wire correlation.
    pub async fn issue_get(&self, key: &[u8]) -> Result<InFlightGet, McError> {
        let keys = [key];
        self.inner
            .issue(&Request::new(McOp::Get, &keys), fetched)
            .await
    }

    /// Issues an unconditional store without waiting for the response
    /// (UCR transports only); see [`issue_get`](McClient::issue_get).
    pub async fn issue_set(
        &self,
        key: &[u8],
        value: &[u8],
        flags: u32,
        exptime: u32,
    ) -> Result<InFlightSet, McError> {
        let keys = [key];
        let req = Request::store(McOp::Set, &keys, value, flags, exptime, 0);
        self.inner.issue(&req, stored).await
    }

    /// Pipelined multi-get: fetches every key while keeping up to
    /// `pipeline_depth` requests outstanding per connection. The result
    /// is in key order (`None` = miss); keys spanning servers are grouped
    /// per server like [`mget`](McClient::mget). On UCR transports the
    /// responses may arrive out of issue order (request-id correlation);
    /// on stream sockets, ASCII or binary, up to `depth` requests are
    /// written ahead of the FIFO reads; UDP keeps one datagram exchange in
    /// flight whatever the depth.
    pub async fn get_many(&self, keys: &[&[u8]]) -> Result<Vec<Option<Value>>, McError> {
        let mut out: Vec<Option<Value>> = Vec::new();
        out.resize_with(keys.len(), || None);
        self.inner
            .batch(
                keys.len(),
                |i| Request::new(McOp::Get, std::slice::from_ref(&keys[i])),
                |i, reply| {
                    out[i] = fetched(reply)?;
                    Ok(())
                },
            )
            .await?;
        Ok(out)
    }

    /// Pipelined multi-set: stores every `(key, value)` pair while
    /// keeping up to `pipeline_depth` requests outstanding per
    /// connection (transport handling as in
    /// [`get_many`](McClient::get_many)). The outer error is a transport
    /// failure; the inner vector carries each item's own outcome in
    /// input order.
    #[allow(clippy::type_complexity)]
    pub async fn set_many(
        &self,
        items: &[(&[u8], &[u8])],
        flags: u32,
        exptime: u32,
    ) -> Result<Vec<Result<(), McError>>, McError> {
        let mut out: Vec<Result<(), McError>> = Vec::new();
        out.resize_with(items.len(), || Ok(()));
        self.inner
            .batch(
                items.len(),
                |i| {
                    let (key, value) = &items[i];
                    let key = std::slice::from_ref(key);
                    Request::store(McOp::Set, key, value, flags, exptime, 0)
                },
                |i, reply| {
                    out[i] = stored(reply);
                    Ok(())
                },
            )
            .await?;
        Ok(out)
    }

    /// Removes a key; `Ok(true)` if it existed.
    pub async fn delete(&self, key: &[u8]) -> Result<bool, McError> {
        let keys = [key];
        found(self.keyed(&Request::new(McOp::Delete, &keys)).await?)
    }

    /// Increments a decimal value; returns the new value.
    pub async fn incr(&self, key: &[u8], delta: u64) -> Result<u64, McError> {
        self.arith(McOp::Incr, key, delta).await
    }

    /// Decrements a decimal value (clamped at zero); returns the new value.
    pub async fn decr(&self, key: &[u8], delta: u64) -> Result<u64, McError> {
        self.arith(McOp::Decr, key, delta).await
    }

    /// Refreshes a key's expiration.
    pub async fn touch(&self, key: &[u8], exptime: u32) -> Result<bool, McError> {
        let keys = [key];
        let req = Request {
            exptime,
            ..Request::new(McOp::Touch, &keys)
        };
        found(self.keyed(&req).await?)
    }

    /// Flushes every server in the pool.
    pub async fn flush_all(&self) -> Result<(), McError> {
        for sidx in 0..self.inner.cfg.servers.len() {
            let req = Request::new(McOp::FlushAll, &[]);
            let Reply::Done = self.inner.exchange(sidx, &req).await? else {
                return Err(McError::Protocol);
            };
        }
        Ok(())
    }

    /// Server version string (first server).
    pub async fn version(&self) -> Result<String, McError> {
        let req = Request::new(McOp::Version, &[]);
        match self.inner.exchange(0, &req).await? {
            Reply::Version(v) => Ok(v),
            _ => Err(McError::Protocol),
        }
    }

    /// Statistics from the first server, as `(name, value)` pairs.
    pub async fn stats(&self) -> Result<Vec<(String, String)>, McError> {
        self.stats_report("").await
    }

    /// A statistics sub-report from the first server (`"slabs"`,
    /// `"items"`, …; empty = general stats; an unknown name is an empty
    /// report). Works on every transport.
    pub async fn stats_report(&self, which: &str) -> Result<Vec<(String, String)>, McError> {
        let name = [which.as_bytes()];
        let keys = if which.is_empty() { &[][..] } else { &name };
        match self
            .inner
            .exchange(0, &Request::new(McOp::Stats, keys))
            .await?
        {
            Reply::Stats(pairs) => Ok(pairs),
            _ => Err(McError::Protocol),
        }
    }

    /// One round trip of a single-key request to the key's server.
    async fn keyed(&self, req: &Request<'_, &[u8]>) -> Result<Reply, McError> {
        let inner = &self.inner;
        inner.ops.inc();
        inner.exchange(inner.route(req.key()), req).await
    }

    async fn store_op(
        &self,
        op: McOp,
        key: &[u8],
        value: &[u8],
        flags: u32,
        exptime: u32,
        cas: u64,
    ) -> Result<(), McError> {
        let keys = [key];
        let req = Request::store(op, &keys, value, flags, exptime, cas);
        stored(self.keyed(&req).await?)
    }

    async fn arith(&self, op: McOp, key: &[u8], delta: u64) -> Result<u64, McError> {
        let keys = [key];
        let req = Request {
            delta,
            ..Request::new(op, &keys)
        };
        match self.keyed(&req).await? {
            Reply::Number(Ok(n)) => Ok(n),
            Reply::Number(Err(NumericError::NotFound)) => Err(McError::NotFound),
            Reply::Number(Err(NumericError::NotNumeric)) => Err(McError::NotNumeric),
            _ => Err(McError::Protocol),
        }
    }
}

/// A fetch reply as the `Option<Value>` the API returns.
fn fetched(reply: Reply) -> Result<Option<Value>, McError> {
    match reply {
        Reply::Value(hit) => Ok(hit),
        _ => Err(McError::Protocol),
    }
}

/// A storage reply as the API's result: the one place a store outcome
/// becomes a client error.
fn stored(reply: Reply) -> Result<(), McError> {
    let Reply::Stored { outcome, .. } = reply else {
        return Err(McError::Protocol);
    };
    match outcome {
        SetOutcome::Stored => Ok(()),
        SetOutcome::NotStored => Err(McError::NotStored),
        SetOutcome::Exists => Err(McError::Exists),
        SetOutcome::NotFound => Err(McError::NotFound),
        SetOutcome::TooLarge => Err(McError::TooLarge),
        SetOutcome::OutOfMemory => Err(McError::OutOfMemory),
    }
}

/// A delete/touch reply as "did the key exist".
fn found(reply: Reply) -> Result<bool, McError> {
    match reply {
        Reply::Found(hit) => Ok(hit),
        _ => Err(McError::Protocol),
    }
}

/// Groups item indices by target server, preserving input order within
/// each group; groups come out in server-index order (deterministic).
fn group_by_server<'a>(
    inner: &CliInner,
    keys: impl Iterator<Item = &'a [u8]>,
) -> Vec<(usize, Vec<usize>)> {
    let mut by_server: HashMap<usize, Vec<usize>> = HashMap::new();
    for (i, k) in keys.enumerate() {
        by_server.entry(inner.route(k)).or_default().push(i);
    }
    let mut groups: Vec<_> = by_server.into_iter().collect();
    groups.sort_by_key(|(s, _)| *s);
    groups
}

/// A request issued but not yet completed — the handle half of the
/// issue/complete split (UCR transports). Dropping it abandons the op
/// and scrubs its response from the in-flight table (on arrival if need
/// be).
pub struct InFlight<T> {
    ticket: Ticket,
    finish: fn(Reply) -> Result<T, McError>,
}

/// A get issued but not yet completed; see [`McClient::issue_get`].
pub type InFlightGet = InFlight<Option<Value>>;

/// A store issued but not yet completed; see [`McClient::issue_set`].
pub type InFlightSet = InFlight<()>;

impl<T> InFlight<T> {
    /// True once the response has landed in the in-flight table, i.e.
    /// [`complete`](InFlight::complete) will not block.
    pub fn is_ready(&self) -> bool {
        let ticket = &self.ticket;
        ticket.cli.pending.borrow().contains_key(&ticket.id)
    }

    /// The request id this op travels under (diagnostics/tests).
    pub fn req_id(&self) -> u64 {
        self.ticket.id
    }

    /// Waits for the response and decodes it.
    pub async fn complete(self) -> Result<T, McError> {
        (self.finish)(self.ticket.finish(&[]).await?)
    }
}

impl CliInner {
    fn route(&self, key: &[u8]) -> usize {
        let n = self.cfg.servers.len();
        if n == 1 {
            return 0;
        }
        let h = self.cfg.key_hash.hash(key);
        match self.cfg.distribution {
            Distribution::Modula => (h as usize) % n,
            Distribution::Ketama => {
                let pos = self.ring.partition_point(|(p, _)| *p < h);
                let (_, idx) = self.ring[pos % self.ring.len()];
                idx
            }
        }
    }

    async fn conn(&self, sidx: usize) -> Result<Rc<Conn>, McError> {
        if let Some(c) = self.conns.borrow().get(&sidx) {
            return Ok(c.clone());
        }
        let server = *self.cfg.servers.get(sidx).ok_or(McError::NoServers)?;
        let conn = match self.cfg.transport {
            Transport::Ucr | Transport::UcrRoce => {
                let rt = self.ucr.as_ref().ok_or(McError::Disconnected)?;
                let ep = rt
                    .connect(server, self.cfg.port, self.cfg.op_timeout)
                    .await
                    .map_err(|e| match e {
                        ucr::UcrError::Timeout => McError::Timeout,
                        _ => McError::Disconnected,
                    })?;
                Conn::Ucr(ep)
            }
            Transport::Sockets(stack) | Transport::Binary(stack) => {
                let sock = self
                    .socks
                    .connect(
                        stack,
                        self.node,
                        SocketAddr {
                            node: server,
                            port: self.cfg.port,
                        },
                        self.cfg.op_timeout,
                    )
                    .await
                    .map_err(|e| match e {
                        SockError::ConnectionTimeout => McError::Timeout,
                        _ => McError::Disconnected,
                    })?;
                // The behavior the paper sets explicitly (§VI).
                sock.set_nodelay(true);
                Conn::Stream {
                    sock,
                    binary: matches!(self.cfg.transport, Transport::Binary(_)),
                    rbuf: RefCell::new(Vec::new()),
                }
            }
            Transport::Udp(stack) => {
                // Bind an ephemeral local datagram socket.
                let mut port = 50_000u16;
                let sock = loop {
                    match self.socks.udp_bind(stack, self.node, port) {
                        Ok(s) => break s,
                        Err(_) if port < 60_000 => port += 1,
                        Err(_) => return Err(McError::Disconnected),
                    }
                };
                Conn::Udp {
                    sock,
                    server: SocketAddr {
                        node: server,
                        port: self.cfg.port,
                    },
                }
            }
        };
        let conn = Rc::new(conn);
        self.conns.borrow_mut().insert(sidx, conn.clone());
        Ok(conn)
    }

    /// One request/response with server `sidx`: start, then finish,
    /// back-to-back — over UCR AM 1 out and a block on the counter until
    /// AM 2 lands (§V-B), over sockets the classic round trip.
    async fn exchange(
        self: &Rc<Self>,
        sidx: usize,
        req: &Request<'_, &[u8]>,
    ) -> Result<Reply, McError> {
        let conn = self.conn(sidx).await?;
        conn.start(self, req).await?.finish(req.keys).await
    }

    /// Issues a single-key request to its server without waiting (UCR
    /// transports only); `finish` turns its reply into the API's result.
    async fn issue<T>(
        self: &Rc<Self>,
        req: &Request<'_, &[u8]>,
        finish: fn(Reply) -> Result<T, McError>,
    ) -> Result<InFlight<T>, McError> {
        self.ops.inc();
        let conn = self.conn(self.route(req.key())).await?;
        let Conn::Ucr(_) = &*conn else {
            return Err(McError::Protocol);
        };
        let ticket = conn.start(self, req).await?;
        Ok(InFlight { ticket, finish })
    }

    /// Runs requests `make(0..n)` as a pipelined batch, up to
    /// `pipeline_depth` tickets open per connection, handing each reply to
    /// `sink` with its index. Requests are grouped per server by their
    /// key; within a group they finish in the order they started.
    async fn batch<'k>(
        self: &Rc<Self>,
        n: usize,
        make: impl Fn(usize) -> Request<'k, &'k [u8]>,
        mut sink: impl FnMut(usize, Reply) -> Result<(), McError>,
    ) -> Result<(), McError> {
        self.ops.add(n as u64);
        for (sidx, idxs) in group_by_server(self, (0..n).map(|i| make(i).key())) {
            let conn = self.conn(sidx).await?;
            let depth = conn.window(self.cfg.pipeline_depth);
            let mut window: VecDeque<(usize, Ticket)> = VecDeque::new();
            let mut issue = idxs.into_iter();
            loop {
                // Top the window up, then finish its oldest ticket.
                while window.len() < depth {
                    let Some(i) = issue.next() else { break };
                    window.push_back((i, conn.start(self, &make(i)).await?));
                    self.inflight_gauge.set(window.len() as f64);
                }
                let Some((j, ticket)) = window.pop_front() else {
                    break;
                };
                self.inflight_gauge.set(window.len() as f64);
                sink(j, ticket.finish(make(j).keys).await?)?;
                self.op_done();
            }
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // Bypass-GET path: client-direct RDMA read of server slab memory
    // -----------------------------------------------------------------

    /// Attempts a bypass get. `Some(result)` means the one-sided path
    /// settled the operation (hit or authoritative miss); `None` means
    /// the caller should fall back to the AM round trip.
    async fn bypass_get(
        &self,
        sidx: usize,
        am_ep: &Endpoint,
        key: &[u8],
    ) -> Option<Result<Option<Value>, McError>> {
        let rt = self.ucr.as_ref()?.clone();
        let span_id = self.next_id();
        self.tracer.begin(
            Layer::Core,
            "bypass_get",
            self.node,
            Track::Main,
            span_id,
            key.len() as u64,
            self.sim.now(),
        );
        let out = self.bypass_get_inner(&rt, sidx, am_ep, key).await;
        if out.is_none() {
            rt.stats().bypass_fallbacks.inc();
        }
        self.tracer.end(
            Layer::Core,
            "bypass_get",
            self.node,
            Track::Main,
            span_id,
            out.is_some() as u64,
            self.sim.now(),
        );
        out
    }

    async fn bypass_get_inner(
        &self,
        rt: &UcrRuntime,
        sidx: usize,
        am_ep: &Endpoint,
        key: &[u8],
    ) -> Option<Result<Option<Value>, McError>> {
        let ckey = (sidx, key.to_vec());
        for _attempt in 0..=BYPASS_RETRIES {
            // Resolve a descriptor: cached if present, else one
            // directory round trip (which also primes the cache).
            let cached = self.bypass_cache.borrow().get(&ckey).copied();
            let desc = match cached {
                Some(d) => d,
                None => match self.dir_lookup(rt, am_ep, key).await {
                    Ok(Some(d)) => {
                        self.cache_descriptor(ckey.clone(), d);
                        d
                    }
                    Ok(None) => return Some(Ok(None)), // authoritative miss
                    Err(_) => return None,             // directory unreachable
                },
            };
            if desc.exp != 0 && desc.exp <= unix_now(&self.sim) {
                // Expired under us (lazy expiration never bumps an item's
                // version word, so the clock is the only sign): drop the
                // descriptor and re-resolve — the directory answers miss
                // once the item is dead.
                self.uncache_descriptor(&ckey);
                continue;
            }
            match self.bypass_read(rt, sidx, &desc).await {
                BypassRead::Ok(data) => {
                    rt.stats().bypass_reads.inc();
                    return Some(Ok(Some(Value {
                        data,
                        flags: desc.flags,
                        cas: desc.cas,
                    })));
                }
                BypassRead::Skew => {
                    // A writer raced the read: refetch and retry.
                    rt.stats().bypass_retries.inc();
                    self.uncache_descriptor(&ckey);
                }
                BypassRead::Failed => {
                    // Stale rkey (the server retired the mirror page) or
                    // endpoint fault: only the AM path is trustworthy now.
                    self.uncache_descriptor(&ckey);
                    return None;
                }
            }
        }
        self.uncache_descriptor(&ckey);
        None
    }

    /// One item-directory round trip over the AM connection. The server
    /// answers inline from its progress engine — no worker is woken.
    /// `Ok(None)` is an authoritative miss.
    async fn dir_lookup(
        &self,
        rt: &UcrRuntime,
        ep: &Endpoint,
        key: &[u8],
    ) -> Result<Option<CachedDescriptor>, McError> {
        let req_id = self.next_id();
        let ctr = rt.counter();
        let req = DirReq {
            req_id,
            ctr_id: ctr.id(),
            key: key.to_vec(),
        };
        if ep
            .send_message(MSG_MC_DIR_REQ, &req.encode(), &[], SendOptions::default())
            .await
            .is_err()
        {
            return Err(McError::Disconnected);
        }
        if ctr.wait_for(1, self.cfg.op_timeout).await.is_err() {
            // Flag the id so a late answer is dropped, not parked forever.
            self.cancelled.borrow_mut().insert(req_id);
            return Err(McError::Timeout);
        }
        let Some(resp) = self.dir_pending.borrow_mut().remove(&req_id) else {
            return Err(McError::Protocol);
        };
        if !resp.found {
            return Ok(None);
        }
        Ok(Some(CachedDescriptor {
            remote: MemoryDescriptor {
                node: NodeId(resp.node),
                rkey: resp.rkey,
                offset: resp.offset,
                len: resp.len,
            },
            vlen: resp.vlen,
            flags: resp.flags,
            cas: resp.cas,
            exp: resp.exp,
            version: resp.version,
        }))
    }

    /// Posts one one-sided RDMA read of the descriptor's window and
    /// validates the trailing seqlock version word.
    async fn bypass_read(
        &self,
        rt: &UcrRuntime,
        sidx: usize,
        desc: &CachedDescriptor,
    ) -> BypassRead {
        let len = desc.remote.len as usize;
        if len < BYPASS_VERSION_BYTES || desc.vlen as usize > len - BYPASS_VERSION_BYTES {
            return BypassRead::Failed; // malformed window
        }
        let buf = self.take_bypass_buf(rt, len);
        let Some(ep) = self.bypass_ep(sidx).await else {
            self.return_bypass_buf(buf);
            return BypassRead::Failed;
        };
        let ctr = rt.counter();
        if ep.get(&buf, 0, desc.remote, Some(ctr.clone())).is_err() {
            self.drop_bypass_ep(sidx);
            self.return_bypass_buf(buf);
            return BypassRead::Failed;
        }
        // A faulted read (deregistered rkey after a mirror-page
        // retirement) never bumps the counter — it poisons the endpoint
        // at completion time. Wait one transfer-scaled slice first so the
        // fault is caught when it lands instead of after the full
        // operation timeout. A read given up on keeps its region: its
        // bytes may land yet.
        let slice = SimDuration::from_micros(200 + len as u64 / 100).min(self.cfg.op_timeout);
        if ctr.wait_for(1, slice).await.is_err() {
            if ep.is_failed() {
                self.drop_bypass_ep(sidx);
                return BypassRead::Failed;
            }
            let rest = self.cfg.op_timeout.saturating_sub(slice);
            if ctr.wait_for(1, rest).await.is_err() {
                self.drop_bypass_ep(sidx);
                return BypassRead::Failed;
            }
        }
        let bytes = buf.read(0, len);
        self.return_bypass_buf(buf);
        let mut word = [0u8; BYPASS_VERSION_BYTES];
        word.copy_from_slice(&bytes[len - BYPASS_VERSION_BYTES..]);
        if u64::from_le_bytes(word) != desc.version {
            return BypassRead::Skew;
        }
        BypassRead::Ok(bytes[..desc.vlen as usize].to_vec())
    }

    /// A landing region of at least `len` bytes, taken out of its slot: a
    /// landing window belongs to one read until it completes, because the
    /// target HCA copies into it when it serves the read. A read that finds
    /// the slot empty (a concurrent read holds the region) or too small
    /// registers its own, sized by power-of-two doubling.
    fn take_bypass_buf(&self, rt: &UcrRuntime, len: usize) -> UcrMemory {
        match self.bypass_buf.take() {
            Some(m) if m.len() >= len => m,
            _ => rt.register_memory(len.next_power_of_two().max(4096)),
        }
    }

    /// Puts a region no read targets any more back in the slot, unless a
    /// concurrent read already put back one at least as large.
    fn return_bypass_buf(&self, m: UcrMemory) {
        let mut slot = self.bypass_buf.borrow_mut();
        if slot.as_ref().is_none_or(|held| held.len() < m.len()) {
            *slot = Some(m);
        }
    }

    /// The dedicated one-sided endpoint for server `sidx`, dialed on
    /// first use and re-dialed after a fault dropped it. Kept separate
    /// from the AM connection because a failed one-sided op poisons its
    /// endpoint.
    async fn bypass_ep(&self, sidx: usize) -> Option<Endpoint> {
        if let Some(ep) = self.bypass_eps.borrow().get(&sidx) {
            if !ep.is_failed() {
                return Some(ep.clone());
            }
        }
        let server = *self.cfg.servers.get(sidx)?;
        let rt = self.ucr.as_ref()?;
        let ep = rt
            .connect(server, self.cfg.port, self.cfg.op_timeout)
            .await
            .ok()?;
        self.bypass_eps.borrow_mut().insert(sidx, ep.clone());
        Some(ep)
    }

    /// Forgets (and closes) the one-sided endpoint for `sidx`.
    fn drop_bypass_ep(&self, sidx: usize) {
        if let Some(ep) = self.bypass_eps.borrow_mut().remove(&sidx) {
            ep.close();
        }
    }

    /// Caches a descriptor under the FIFO bound.
    fn cache_descriptor(&self, key: (usize, Vec<u8>), d: CachedDescriptor) {
        let mut cache = self.bypass_cache.borrow_mut();
        let mut order = self.bypass_order.borrow_mut();
        if cache.insert(key.clone(), d).is_none() {
            order.push_back(key);
            while cache.len() > BYPASS_CACHE_CAP {
                let Some(old) = order.pop_front() else { break };
                cache.remove(&old);
            }
        }
    }

    /// Drops a cached descriptor (miss, version skew, read fault), and
    /// its place in the FIFO: the queue holds no more than the cache.
    fn uncache_descriptor(&self, key: &(usize, Vec<u8>)) {
        if self.bypass_cache.borrow_mut().remove(key).is_some() {
            let mut order = self.bypass_order.borrow_mut();
            if let Some(at) = order.iter().position(|k| k == key) {
                order.remove(at);
            }
        }
    }

    /// The next request id.
    fn next_id(&self) -> u64 {
        let id = self.next_req.get();
        self.next_req.set(id + 1);
        id
    }

    /// Marks an instant of operation `id` on the critical-path stream.
    fn mark(&self, name: &'static str, id: u64) {
        let now = self.sim.now();
        self.tracer
            .instant(Layer::Core, name, self.node, Track::Main, id, 0, now);
    }

    /// Awaits `fut` under the per-operation timeout.
    async fn timed<T>(
        &self,
        fut: impl std::future::Future<Output = Result<T, McError>>,
    ) -> Result<T, McError> {
        match timeout(&self.sim, self.cfg.op_timeout, std::pin::pin!(fut)).await {
            Ok(r) => r,
            Err(_) => Err(McError::Timeout),
        }
    }

    /// Closes a connection and forgets it, forcing the next operation
    /// through a reconnect.
    fn evict(&self, conn: &Rc<Conn>) {
        conn.close();
        self.conns.borrow_mut().retain(|_, c| !Rc::ptr_eq(c, conn));
    }
}

/// Reads from `sock` onto `rbuf` until `parse` frames one message off its
/// front. The buffer is held for the whole frame, reads included: a second
/// reader of the stream would take this one's reply, and is refused
/// instead. This is the only place that borrows `rbuf`.
#[allow(clippy::await_holding_refcell_ref)]
async fn read_frame<T, E>(
    sock: &Socket,
    rbuf: &RefCell<Vec<u8>>,
    parse: impl Fn(&[u8]) -> Result<Option<(T, usize)>, E>,
) -> Result<T, McError> {
    let mut buf = rbuf.try_borrow_mut().map_err(|_| McError::Protocol)?;
    loop {
        match parse(&buf) {
            Ok(Some((msg, used))) => {
                buf.drain(..used);
                return Ok(msg);
            }
            Ok(None) => {
                sock.read(&mut buf, 64 * 1024)
                    .await
                    .map_err(|_| McError::Disconnected)?;
            }
            Err(_) => return Err(McError::Protocol),
        }
    }
}

impl Drop for CliInner {
    fn drop(&mut self) {
        for conn in std::mem::take(self.conns.get_mut()).into_values() {
            conn.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Scenario, World};

    /// The bypass descriptor cache and its FIFO queue stay within
    /// `BYPASS_CACHE_CAP`: a key cached and uncached over and over leaves
    /// the queue within the cap, and one key past the cap evicts the oldest.
    #[test]
    fn the_bypass_queue_never_outgrows_its_cache() {
        let s = Scenario::start(World::cluster_b(1, 2), Transport::Ucr);
        let cli = &s.clients[0].inner;
        let key = |i: usize| (0, format!("key-{i}").into_bytes());
        let d = CachedDescriptor {
            remote: MemoryDescriptor {
                node: NodeId(0),
                rkey: 1,
                offset: 0,
                len: 64,
            },
            vlen: 8,
            flags: 0,
            cas: 0,
            exp: 0,
            version: 2,
        };
        for _ in 0..10_000 {
            cli.cache_descriptor(key(0), d);
            cli.uncache_descriptor(&key(0));
        }
        assert!(cli.bypass_order.borrow().len() <= BYPASS_CACHE_CAP);

        for i in 0..=BYPASS_CACHE_CAP {
            cli.cache_descriptor(key(i), d);
        }
        let cache = cli.bypass_cache.borrow();
        assert_eq!(cache.len(), BYPASS_CACHE_CAP);
        assert!(!cache.contains_key(&key(0)), "the oldest key went");
        assert!(cache.contains_key(&key(1)) && cache.contains_key(&key(BYPASS_CACHE_CAP)));
        assert_eq!(cli.bypass_order.borrow().len(), BYPASS_CACHE_CAP);
    }
}
