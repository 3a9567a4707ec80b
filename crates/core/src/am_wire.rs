//! Active-message application headers for Memcached-over-UCR (paper §V).
//!
//! Where the sockets baseline re-frames every request through the ASCII
//! byte stream, the UCR design sends a typed header (this module) as the
//! active-message header and the value as the active-message data. The
//! client's counter id travels in the request header (AM 1); the server
//! names that counter as the *target counter* of its response (AM 2), so
//! the client's blocking wait is exactly the paper's Figure in §V-B/§V-C.

/// Active-message id for client→server requests.
pub const MSG_MC_REQ: u16 = 0x10;
/// Active-message id for server→client responses.
pub const MSG_MC_RESP: u16 = 0x11;
/// Active-message id for client→server item-directory lookups (bypass
/// get): "where does this key live in slab memory right now?".
pub const MSG_MC_DIR_REQ: u16 = 0x12;
/// Active-message id for server→client item-directory answers.
pub const MSG_MC_DIR_RESP: u16 = 0x13;

/// Width of the seqlock version word a bypass descriptor's window ends
/// with: the server mirrors each slab chunk with the item's version in
/// the chunk's last 8 bytes, so one RDMA read returns value bytes *and*
/// the version to validate them against.
pub const BYPASS_VERSION_BYTES: usize = 8;

/// Memcached operation codes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum McOp {
    /// Fetch one key.
    Get = 1,
    /// Fetch many keys in one request.
    Mget = 2,
    /// Unconditional store.
    Set = 3,
    /// Store if absent.
    Add = 4,
    /// Store if present.
    Replace = 5,
    /// Append to existing value.
    Append = 6,
    /// Prepend to existing value.
    Prepend = 7,
    /// Compare-and-store.
    Cas = 8,
    /// Remove a key.
    Delete = 9,
    /// Increment a decimal value.
    Incr = 10,
    /// Decrement a decimal value.
    Decr = 11,
    /// Refresh expiration.
    Touch = 12,
    /// Invalidate everything.
    FlushAll = 13,
    /// Server version string.
    Version = 14,
    /// Statistics snapshot.
    Stats = 15,
}

impl McOp {
    /// Every verb, in wire-code order (`ALL[op.index()] == op`).
    pub(crate) const ALL: [McOp; 15] = [
        McOp::Get,
        McOp::Mget,
        McOp::Set,
        McOp::Add,
        McOp::Replace,
        McOp::Append,
        McOp::Prepend,
        McOp::Cas,
        McOp::Delete,
        McOp::Incr,
        McOp::Decr,
        McOp::Touch,
        McOp::FlushAll,
        McOp::Version,
        McOp::Stats,
    ];

    /// Position in [`McOp::ALL`].
    pub(crate) fn index(self) -> usize {
        self as usize - 1
    }

    /// Stable lowercase name, used for per-operation statistics keys
    /// (`op.get.service_us` …) and trace labels.
    pub fn label(self) -> &'static str {
        match self {
            McOp::Get => "get",
            McOp::Mget => "mget",
            McOp::Set => "set",
            McOp::Add => "add",
            McOp::Replace => "replace",
            McOp::Append => "append",
            McOp::Prepend => "prepend",
            McOp::Cas => "cas",
            McOp::Delete => "delete",
            McOp::Incr => "incr",
            McOp::Decr => "decr",
            McOp::Touch => "touch",
            McOp::FlushAll => "flush_all",
            McOp::Version => "version",
            McOp::Stats => "stats",
        }
    }

    /// True for the six verbs that write a value: `Set`, `Add`, `Replace`,
    /// `Append`, `Prepend`, `Cas`.
    pub(crate) fn is_store(self) -> bool {
        use McOp::*;
        matches!(self, Set | Add | Replace | Append | Prepend | Cas)
    }

    fn from_u8(v: u8) -> Option<McOp> {
        McOp::ALL.get(usize::from(v).checked_sub(1)?).copied()
    }
}

/// Response status codes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum RespStatus {
    /// get hit / operation succeeded with data.
    Hit = 1,
    /// get miss.
    Miss = 2,
    /// Stored.
    Stored = 3,
    /// Not stored (add/replace/append/prepend precondition failed).
    NotStored = 4,
    /// CAS mismatch.
    Exists = 5,
    /// Key not found (delete/incr/cas).
    NotFound = 6,
    /// Numeric result attached (incr/decr).
    Number = 7,
    /// Item exceeded the largest slab chunk.
    TooLarge = 8,
    /// Allocation failed.
    OutOfMemory = 9,
    /// Value is not numeric.
    NotNumeric = 10,
    /// Generic OK (flush_all, touch).
    Ok = 11,
}

impl RespStatus {
    fn from_u8(v: u8) -> Option<RespStatus> {
        Some(match v {
            1 => RespStatus::Hit,
            2 => RespStatus::Miss,
            3 => RespStatus::Stored,
            4 => RespStatus::NotStored,
            5 => RespStatus::Exists,
            6 => RespStatus::NotFound,
            7 => RespStatus::Number,
            8 => RespStatus::TooLarge,
            9 => RespStatus::OutOfMemory,
            10 => RespStatus::NotNumeric,
            11 => RespStatus::Ok,
            _ => return None,
        })
    }
}

/// Bytes of a request header ahead of its key list.
const REQ_FIXED_BYTES: usize = 44;

/// Longest single-key request header: what a client encodes on its stack.
pub(crate) const REQ_HEADER_INLINE: usize = REQ_FIXED_BYTES + 2 + mcstore::MAX_KEY_LEN;

/// The keys of a request: one for most ops, many for mget. A single key is
/// held in line, so decoding such a header allocates the key and nothing
/// else. Reads as a slice of keys.
#[derive(Clone, Debug)]
pub enum Keys {
    /// One key (empty for keyless ops).
    One([Vec<u8>; 1]),
    /// Any other number of keys.
    Many(Vec<Vec<u8>>),
}

impl Keys {
    /// Key slots reserved, filled or not.
    pub fn capacity(&self) -> usize {
        match self {
            Keys::One(_) => 1,
            Keys::Many(keys) => keys.capacity(),
        }
    }
}

impl std::ops::Deref for Keys {
    type Target = [Vec<u8>];
    fn deref(&self) -> &[Vec<u8>] {
        match self {
            Keys::One(key) => key,
            Keys::Many(keys) => keys,
        }
    }
}

impl From<Vec<Vec<u8>>> for Keys {
    fn from(keys: Vec<Vec<u8>>) -> Keys {
        Keys::Many(keys)
    }
}

impl PartialEq for Keys {
    fn eq(&self, other: &Keys) -> bool {
        **self == **other
    }
}

impl Eq for Keys {}

/// A request header (AM 1). Keys ride in the header; the value (for
/// storage ops) is the active-message data, so a large `set` goes through
/// UCR's RDMA-read rendezvous without touching the header path.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ReqHeader {
    /// Operation.
    pub op: McOp,
    /// Client-chosen request id, echoed in the response.
    pub req_id: u64,
    /// Client counter the server must target in its response.
    pub ctr_id: u64,
    /// Opaque item flags (storage ops).
    pub flags: u32,
    /// Expiration (storage ops, touch).
    pub exptime: u32,
    /// CAS token (cas op).
    pub cas: u64,
    /// Delta (incr/decr).
    pub delta: u64,
    /// Keys (one for most ops; many for mget).
    pub keys: Keys,
}

/// A request header over keys its sender still holds: what a client
/// encodes, owning nothing. Its bytes are what [`ReqHeader::decode`] reads.
pub(crate) struct ReqHeaderRef<'a, K> {
    pub op: McOp,
    pub req_id: u64,
    pub ctr_id: u64,
    pub flags: u32,
    pub exptime: u32,
    pub cas: u64,
    pub delta: u64,
    pub keys: &'a [K],
}

impl<K: AsRef<[u8]>> ReqHeaderRef<'_, K> {
    /// Length of the encoded header.
    pub fn encoded_len(&self) -> usize {
        let keys = self.keys.iter().map(|k| 2 + k.as_ref().len());
        REQ_FIXED_BYTES + keys.sum::<usize>()
    }

    /// Serializes to the AM header layout, into a buffer of exactly
    /// [`encoded_len`](Self::encoded_len) bytes.
    pub fn encode_into(&self, out: &mut [u8]) {
        out[0] = self.op as u8;
        out[1] = 0;
        out[2..4].copy_from_slice(&(self.keys.len() as u16).to_le_bytes());
        out[4..12].copy_from_slice(&self.req_id.to_le_bytes());
        out[12..20].copy_from_slice(&self.ctr_id.to_le_bytes());
        out[20..24].copy_from_slice(&self.flags.to_le_bytes());
        out[24..28].copy_from_slice(&self.exptime.to_le_bytes());
        out[28..36].copy_from_slice(&self.cas.to_le_bytes());
        out[36..44].copy_from_slice(&self.delta.to_le_bytes());
        let mut pos = REQ_FIXED_BYTES;
        for k in self.keys {
            let k = k.as_ref();
            out[pos..pos + 2].copy_from_slice(&(k.len() as u16).to_le_bytes());
            out[pos + 2..pos + 2 + k.len()].copy_from_slice(k);
            pos += 2 + k.len();
        }
    }

    /// Serializes to the AM header layout.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![0; self.encoded_len()];
        self.encode_into(&mut out);
        out
    }
}

impl ReqHeader {
    /// A header with the common fields zeroed.
    pub fn new(op: McOp, req_id: u64, ctr_id: u64, key: Vec<u8>) -> ReqHeader {
        ReqHeader {
            op,
            req_id,
            ctr_id,
            flags: 0,
            exptime: 0,
            cas: 0,
            delta: 0,
            keys: Keys::One([key]),
        }
    }

    /// Serializes to the AM header layout.
    pub fn encode(&self) -> Vec<u8> {
        let ReqHeader {
            op,
            req_id,
            ctr_id,
            flags,
            exptime,
            cas,
            delta,
            ref keys,
        } = *self;
        ReqHeaderRef {
            op,
            req_id,
            ctr_id,
            flags,
            exptime,
            cas,
            delta,
            keys,
        }
        .encode()
    }

    /// Deserializes; `None` on malformed input.
    pub fn decode(b: &[u8]) -> Option<ReqHeader> {
        if b.len() < REQ_FIXED_BYTES {
            return None;
        }
        let op = McOp::from_u8(b[0])?;
        let nkeys = u16::from_le_bytes(b[2..4].try_into().ok()?) as usize;
        let req_id = u64::from_le_bytes(b[4..12].try_into().ok()?);
        let ctr_id = u64::from_le_bytes(b[12..20].try_into().ok()?);
        let flags = u32::from_le_bytes(b[20..24].try_into().ok()?);
        let exptime = u32::from_le_bytes(b[24..28].try_into().ok()?);
        let cas = u64::from_le_bytes(b[28..36].try_into().ok()?);
        let delta = u64::from_le_bytes(b[36..44].try_into().ok()?);
        // The count is the peer's word: every key is found before any is
        // copied, so a header that is not whole allocates nothing.
        let mut rest = &b[REQ_FIXED_BYTES..];
        for _ in 0..nkeys {
            next_key(&mut rest)?;
        }
        let mut rest = &b[REQ_FIXED_BYTES..];
        let mut next = || next_key(&mut rest).map(<[u8]>::to_vec);
        let keys = if nkeys == 1 {
            Keys::One([next()?])
        } else {
            let mut keys = Vec::with_capacity(nkeys);
            for _ in 0..nkeys {
                keys.push(next()?);
            }
            Keys::Many(keys)
        };
        Some(ReqHeader {
            op,
            req_id,
            ctr_id,
            flags,
            exptime,
            cas,
            delta,
            keys,
        })
    }
}

/// Splits the next `[klen u16][key]` off the front of `b` without copying;
/// `None` if it is not all there.
fn next_key<'a>(b: &mut &'a [u8]) -> Option<&'a [u8]> {
    let klen = u16::from_le_bytes(b.get(..2)?.try_into().ok()?) as usize;
    let key = b.get(2..2 + klen)?;
    *b = &b[2 + klen..];
    Some(key)
}

/// A response header (AM 2). The value rides as active-message data; the
/// client learns its size from the AM framing before allocating — the
/// paper's get flow (§V-C).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RespHeader {
    /// Echo of the request id.
    pub req_id: u64,
    /// Outcome.
    pub status: RespStatus,
    /// Item flags (get).
    pub flags: u32,
    /// CAS token (gets-style fetch).
    pub cas: u64,
    /// Numeric result (incr/decr).
    pub number: u64,
    /// Number of entries in a multi-get payload.
    pub nvalues: u16,
}

/// Bytes of a response header.
pub const RESP_HEADER_BYTES: usize = 32;

impl RespHeader {
    /// Serializes to the AM header layout.
    pub fn encode(&self) -> [u8; RESP_HEADER_BYTES] {
        let mut out = [0; RESP_HEADER_BYTES];
        out[0] = self.status as u8;
        out[2..4].copy_from_slice(&self.nvalues.to_le_bytes());
        out[4..12].copy_from_slice(&self.req_id.to_le_bytes());
        out[12..16].copy_from_slice(&self.flags.to_le_bytes());
        out[16..24].copy_from_slice(&self.cas.to_le_bytes());
        out[24..32].copy_from_slice(&self.number.to_le_bytes());
        out
    }

    /// Deserializes; `None` on malformed input.
    pub fn decode(b: &[u8]) -> Option<RespHeader> {
        if b.len() < RESP_HEADER_BYTES {
            return None;
        }
        Some(RespHeader {
            status: RespStatus::from_u8(b[0])?,
            nvalues: u16::from_le_bytes(b[2..4].try_into().ok()?),
            req_id: u64::from_le_bytes(b[4..12].try_into().ok()?),
            flags: u32::from_le_bytes(b[12..16].try_into().ok()?),
            cas: u64::from_le_bytes(b[16..24].try_into().ok()?),
            number: u64::from_le_bytes(b[24..32].try_into().ok()?),
        })
    }
}

/// An item-directory request (bypass get): resolve `key` to a location
/// descriptor. Served inline by the server's AM handler — no worker
/// dispatch — so descriptor fetches never wake the server's CPU path.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DirReq {
    /// Client-chosen request id, echoed in the response.
    pub req_id: u64,
    /// Client counter the server must target in its response.
    pub ctr_id: u64,
    /// The key to resolve.
    pub key: Vec<u8>,
}

impl DirReq {
    /// Serializes to the AM header layout.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(18 + self.key.len());
        out.extend_from_slice(&self.req_id.to_le_bytes());
        out.extend_from_slice(&self.ctr_id.to_le_bytes());
        out.extend_from_slice(&(self.key.len() as u16).to_le_bytes());
        out.extend_from_slice(&self.key);
        out
    }

    /// Deserializes; `None` on malformed input.
    pub fn decode(b: &[u8]) -> Option<DirReq> {
        if b.len() < 18 {
            return None;
        }
        let req_id = u64::from_le_bytes(b[..8].try_into().ok()?);
        let ctr_id = u64::from_le_bytes(b[8..16].try_into().ok()?);
        let klen = u16::from_le_bytes(b[16..18].try_into().ok()?) as usize;
        if b.len() < 18 + klen {
            return None;
        }
        Some(DirReq {
            req_id,
            ctr_id,
            key: b[18..18 + klen].to_vec(),
        })
    }
}

/// An item-directory answer: the RFP-style location descriptor. `found`
/// false means the key is absent (or dead) — the client should fall back
/// to the AM get path. The advertised window covers
/// `[chunk_base + klen, chunk_base + chunk_size)` of the server's mirror
/// page: the value is its first `vlen` bytes and the chunk's seqlock
/// version word is its trailing 8 bytes, so one RDMA read fetches both.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DirResp {
    /// Echo of the request id.
    pub req_id: u64,
    /// Whether the key resolved to a live item.
    pub found: bool,
    /// Server node owning the mirror page.
    pub node: u32,
    /// rkey of the registered mirror page.
    pub rkey: u32,
    /// Window start within the mirror region.
    pub offset: u64,
    /// Window length (value + slack + trailing version word).
    pub len: u64,
    /// Value length: the window's first `vlen` bytes.
    pub vlen: u32,
    /// Item flags.
    pub flags: u32,
    /// CAS token at lookup time.
    pub cas: u64,
    /// Absolute expiry (unix seconds); 0 = never. The client re-checks
    /// this locally before every bypass read.
    pub exp: u32,
    /// Chunk seqlock version the read must match.
    pub version: u64,
}

impl DirResp {
    /// A "not found" answer for `req_id`.
    pub fn miss(req_id: u64) -> DirResp {
        DirResp {
            req_id,
            found: false,
            node: 0,
            rkey: 0,
            offset: 0,
            len: 0,
            vlen: 0,
            flags: 0,
            cas: 0,
            exp: 0,
            version: 0,
        }
    }

    /// Serializes to the AM header layout.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(61);
        out.push(self.found as u8);
        out.extend_from_slice(&self.req_id.to_le_bytes());
        out.extend_from_slice(&self.node.to_le_bytes());
        out.extend_from_slice(&self.rkey.to_le_bytes());
        out.extend_from_slice(&self.offset.to_le_bytes());
        out.extend_from_slice(&self.len.to_le_bytes());
        out.extend_from_slice(&self.vlen.to_le_bytes());
        out.extend_from_slice(&self.flags.to_le_bytes());
        out.extend_from_slice(&self.cas.to_le_bytes());
        out.extend_from_slice(&self.exp.to_le_bytes());
        out.extend_from_slice(&self.version.to_le_bytes());
        out
    }

    /// Deserializes; `None` on malformed input.
    pub fn decode(b: &[u8]) -> Option<DirResp> {
        if b.len() < 61 {
            return None;
        }
        Some(DirResp {
            found: b[0] != 0,
            req_id: u64::from_le_bytes(b[1..9].try_into().ok()?),
            node: u32::from_le_bytes(b[9..13].try_into().ok()?),
            rkey: u32::from_le_bytes(b[13..17].try_into().ok()?),
            offset: u64::from_le_bytes(b[17..25].try_into().ok()?),
            len: u64::from_le_bytes(b[25..33].try_into().ok()?),
            vlen: u32::from_le_bytes(b[33..37].try_into().ok()?),
            flags: u32::from_le_bytes(b[37..41].try_into().ok()?),
            cas: u64::from_le_bytes(b[41..49].try_into().ok()?),
            exp: u32::from_le_bytes(b[49..53].try_into().ok()?),
            version: u64::from_le_bytes(b[53..61].try_into().ok()?),
        })
    }
}

/// One entry in a multi-get payload: `[klen u16][key][flags u32][cas u64]
/// [vlen u32][value]`.
pub fn encode_mget_entry(out: &mut Vec<u8>, key: &[u8], flags: u32, cas: u64, value: &[u8]) {
    out.extend_from_slice(&(key.len() as u16).to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(&flags.to_le_bytes());
    out.extend_from_slice(&cas.to_le_bytes());
    out.extend_from_slice(&(value.len() as u32).to_le_bytes());
    out.extend_from_slice(value);
}

/// Splits a multi-get's keys, in order, into runs whose request headers
/// are at most `max` bytes each. A lone key is a run even if it does not
/// fit (no memcached key comes near a network buffer).
pub(crate) fn mget_parts<'a>(
    keys: &'a [&'a [u8]],
    max: usize,
) -> impl Iterator<Item = &'a [&'a [u8]]> {
    let mut rest = keys;
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let mut len = REQ_FIXED_BYTES;
        let fit = rest.iter().take_while(|k| {
            len += 2 + k.len();
            len <= max
        });
        let (part, tail) = rest.split_at(fit.count().max(1));
        rest = tail;
        Some(part)
    })
}

/// Encoded size of one multi-get entry.
pub(crate) fn mget_entry_len(klen: usize, vlen: usize) -> usize {
    2 + klen + 16 + vlen
}

/// Splits the next multi-get entry off the front of `b` without copying:
/// `(key, flags, cas, value)`; `None` on malformed input.
pub(crate) fn next_mget_entry<'a>(b: &mut &'a [u8]) -> Option<(&'a [u8], u32, u64, &'a [u8])> {
    let klen = u16::from_le_bytes(b.get(..2)?.try_into().ok()?) as usize;
    let rest = &b[2..];
    if rest.len() < klen + 16 {
        return None;
    }
    let (key, rest) = rest.split_at(klen);
    let flags = u32::from_le_bytes(rest[..4].try_into().ok()?);
    let cas = u64::from_le_bytes(rest[4..12].try_into().ok()?);
    let vlen = u32::from_le_bytes(rest[12..16].try_into().ok()?) as usize;
    let rest = &rest[16..];
    if rest.len() < vlen {
        return None;
    }
    let (value, rest) = rest.split_at(vlen);
    *b = rest;
    Some((key, flags, cas, value))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn req_header_round_trip() {
        let h = ReqHeader {
            op: McOp::Cas,
            req_id: 99,
            ctr_id: 7,
            flags: 0xdead,
            exptime: 3600,
            cas: u64::MAX,
            delta: 5,
            keys: vec![b"alpha".to_vec(), b"beta".to_vec()].into(),
        };
        assert_eq!(ReqHeader::decode(&h.encode()), Some(h));
    }

    #[test]
    fn resp_header_round_trip() {
        let h = RespHeader {
            req_id: 1,
            status: RespStatus::Number,
            flags: 2,
            cas: 3,
            number: 4,
            nvalues: 5,
        };
        assert_eq!(RespHeader::decode(&h.encode()), Some(h));
    }

    #[test]
    fn malformed_headers_rejected() {
        assert_eq!(ReqHeader::decode(&[0u8; 10]), None);
        let mut bad = ReqHeader::new(McOp::Get, 1, 2, b"k".to_vec()).encode();
        bad[0] = 200;
        assert_eq!(ReqHeader::decode(&bad), None);
        // Truncated key list.
        let good = ReqHeader::new(McOp::Get, 1, 2, b"long-key-name".to_vec()).encode();
        assert_eq!(ReqHeader::decode(&good[..good.len() - 3]), None);
    }

    #[test]
    fn dir_req_round_trip() {
        let r = DirReq {
            req_id: 42,
            ctr_id: 7,
            key: b"bypass-me".to_vec(),
        };
        assert_eq!(DirReq::decode(&r.encode()), Some(r.clone()));
        assert_eq!(DirReq::decode(&r.encode()[..10]), None);
    }

    #[test]
    fn dir_resp_round_trip() {
        let r = DirResp {
            req_id: 9,
            found: true,
            node: 3,
            rkey: 0xfeed_beef,
            offset: 1 << 30,
            len: 4096,
            vlen: 4000,
            flags: 0xa5,
            cas: u64::MAX - 1,
            exp: 1_300_003_600,
            version: 17,
        };
        assert_eq!(DirResp::decode(&r.encode()), Some(r));
        assert_eq!(DirResp::decode(&r.encode()[..40]), None);
        let m = DirResp::miss(5);
        assert!(!m.found);
        assert_eq!(DirResp::decode(&m.encode()), Some(m));
    }

    #[test]
    fn mget_entries_round_trip() {
        let mut buf = Vec::new();
        encode_mget_entry(&mut buf, b"k1", 1, 10, b"v1");
        encode_mget_entry(&mut buf, b"k2", 2, 20, &vec![9u8; 5000]);
        let mut rest = buf.as_slice();
        assert_eq!(
            next_mget_entry(&mut rest),
            Some((&b"k1"[..], 1, 10, &b"v1"[..]))
        );
        assert_eq!(next_mget_entry(&mut rest).unwrap().3.len(), 5000);
        assert!(rest.is_empty());
        assert_eq!(next_mget_entry(&mut &buf[..10]), None);
    }
}
