//! The memcached binary protocol (protocol version as of memcached 1.4).
//!
//! Every frame is a 24-byte header followed by `extras | key | value`.
//! libmemcached 0.45 speaks this when `MEMCACHED_BEHAVIOR_BINARY_PROTOCOL`
//! is set; servers of the era sniffed the first byte of a connection
//! (0x80 = binary request magic) to pick the protocol. The quiet opcodes
//! (GetQ/GetKQ) suppress miss responses, which is how binary multiget
//! pipelines: a train of GetKQ frames closed by a Noop.

use crate::ProtoError;

/// Request magic byte.
pub const MAGIC_REQUEST: u8 = 0x80;
/// Response magic byte.
pub const MAGIC_RESPONSE: u8 = 0x81;

/// Fixed header length.
pub const BIN_HEADER_BYTES: usize = 24;

/// Binary-protocol opcodes (subset shipped by memcached 1.4).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum BinOpcode {
    /// Fetch a value.
    Get = 0x00,
    /// Store unconditionally.
    Set = 0x01,
    /// Store if absent.
    Add = 0x02,
    /// Store if present.
    Replace = 0x03,
    /// Remove a key.
    Delete = 0x04,
    /// Arithmetic increment (with optional initial value).
    Increment = 0x05,
    /// Arithmetic decrement.
    Decrement = 0x06,
    /// Close the connection.
    Quit = 0x07,
    /// Invalidate the cache.
    Flush = 0x08,
    /// Quiet get: misses produce no response.
    GetQ = 0x09,
    /// No-op: flushes a quiet pipeline.
    Noop = 0x0a,
    /// Server version.
    Version = 0x0b,
    /// Get returning the key in the response.
    GetK = 0x0c,
    /// Quiet GetK (binary multiget building block).
    GetKQ = 0x0d,
    /// Append to a value.
    Append = 0x0e,
    /// Prepend to a value.
    Prepend = 0x0f,
    /// One statistic (empty key = all, terminated by empty STAT).
    Stat = 0x10,
    /// Update expiration only.
    Touch = 0x1c,
}

impl BinOpcode {
    /// Decodes an opcode byte.
    pub fn from_u8(v: u8) -> Option<BinOpcode> {
        Some(match v {
            0x00 => BinOpcode::Get,
            0x01 => BinOpcode::Set,
            0x02 => BinOpcode::Add,
            0x03 => BinOpcode::Replace,
            0x04 => BinOpcode::Delete,
            0x05 => BinOpcode::Increment,
            0x06 => BinOpcode::Decrement,
            0x07 => BinOpcode::Quit,
            0x08 => BinOpcode::Flush,
            0x09 => BinOpcode::GetQ,
            0x0a => BinOpcode::Noop,
            0x0b => BinOpcode::Version,
            0x0c => BinOpcode::GetK,
            0x0d => BinOpcode::GetKQ,
            0x0e => BinOpcode::Append,
            0x0f => BinOpcode::Prepend,
            0x10 => BinOpcode::Stat,
            0x1c => BinOpcode::Touch,
            _ => return None,
        })
    }

    /// True for quiet opcodes (no response on miss/success-without-data).
    pub fn is_quiet(self) -> bool {
        matches!(self, BinOpcode::GetQ | BinOpcode::GetKQ)
    }
}

/// Binary response status codes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u16)]
pub enum BinStatus {
    /// Success.
    Ok = 0x0000,
    /// Key not found.
    KeyNotFound = 0x0001,
    /// Key exists (add / CAS mismatch).
    KeyExists = 0x0002,
    /// Value too large.
    TooLarge = 0x0003,
    /// Invalid arguments.
    InvalidArgs = 0x0004,
    /// Item not stored (replace/append/prepend miss).
    NotStored = 0x0005,
    /// incr/decr on a non-numeric value.
    NonNumeric = 0x0006,
    /// Unknown opcode.
    UnknownCommand = 0x0081,
    /// Out of memory.
    OutOfMemory = 0x0082,
}

impl BinStatus {
    /// Decodes a status word.
    pub fn from_u16(v: u16) -> Option<BinStatus> {
        Some(match v {
            0x0000 => BinStatus::Ok,
            0x0001 => BinStatus::KeyNotFound,
            0x0002 => BinStatus::KeyExists,
            0x0003 => BinStatus::TooLarge,
            0x0004 => BinStatus::InvalidArgs,
            0x0005 => BinStatus::NotStored,
            0x0006 => BinStatus::NonNumeric,
            0x0081 => BinStatus::UnknownCommand,
            0x0082 => BinStatus::OutOfMemory,
            _ => return None,
        })
    }
}

/// A binary-protocol frame (request or response share the layout; the
/// `vbucket_or_status` word is a vbucket id in requests and a status in
/// responses).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BinFrame {
    /// `MAGIC_REQUEST` or `MAGIC_RESPONSE`.
    pub magic: u8,
    /// Operation.
    pub opcode: BinOpcode,
    /// vbucket (requests) / status (responses).
    pub vbucket_or_status: u16,
    /// Client-chosen token echoed verbatim in the response.
    pub opaque: u32,
    /// CAS token.
    pub cas: u64,
    /// Extras block (flags/exptime/delta, opcode-specific).
    pub extras: Vec<u8>,
    /// Key bytes.
    pub key: Vec<u8>,
    /// Value bytes.
    pub value: Vec<u8>,
}

impl BinFrame {
    /// A request frame with empty body parts.
    pub fn request(opcode: BinOpcode, opaque: u32) -> BinFrame {
        BinFrame {
            magic: MAGIC_REQUEST,
            opcode,
            vbucket_or_status: 0,
            opaque,
            cas: 0,
            extras: Vec::new(),
            key: Vec::new(),
            value: Vec::new(),
        }
    }

    /// A response frame answering `req` with `status`.
    pub fn response(req: &BinFrame, status: BinStatus) -> BinFrame {
        BinFrame {
            magic: MAGIC_RESPONSE,
            opcode: req.opcode,
            vbucket_or_status: status as u16,
            opaque: req.opaque,
            cas: 0,
            extras: Vec::new(),
            key: Vec::new(),
            value: Vec::new(),
        }
    }

    /// The response status, if this is a response frame with a known code.
    pub fn status(&self) -> Option<BinStatus> {
        (self.magic == MAGIC_RESPONSE)
            .then(|| BinStatus::from_u16(self.vbucket_or_status))
            .flatten()
    }

    /// This frame with its body parts borrowed.
    pub fn borrowed(&self) -> BinFrameRef<'_> {
        BinFrameRef {
            magic: self.magic,
            opcode: self.opcode,
            vbucket_or_status: self.vbucket_or_status,
            opaque: self.opaque,
            cas: self.cas,
            extras: &self.extras,
            key: &self.key,
            value: &self.value,
        }
    }

    /// Serializes to the wire layout (network byte order, as specified).
    pub fn encode(&self) -> Vec<u8> {
        let frame = self.borrowed();
        let mut out = Vec::with_capacity(frame.wire_len());
        frame.write_to(&mut out);
        out
    }

    /// Incremental parse: `Ok(None)` until a whole frame is buffered; on
    /// success returns the frame and bytes consumed.
    pub fn parse(buf: &[u8]) -> Result<Option<(BinFrame, usize)>, ProtoError> {
        if buf.len() < BIN_HEADER_BYTES {
            return Ok(None);
        }
        let magic = buf[0];
        if magic != MAGIC_REQUEST && magic != MAGIC_RESPONSE {
            return Err(ProtoError::Malformed("bad binary magic"));
        }
        let opcode =
            BinOpcode::from_u8(buf[1]).ok_or(ProtoError::Malformed("unknown binary opcode"))?;
        let key_len = u16::from_be_bytes([buf[2], buf[3]]) as usize;
        let extras_len = buf[4] as usize;
        if buf[5] != 0 {
            return Err(ProtoError::Malformed("nonzero data type"));
        }
        let vbucket_or_status = u16::from_be_bytes([buf[6], buf[7]]);
        let total_body = u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]) as usize;
        if extras_len + key_len > total_body {
            return Err(ProtoError::Malformed("body lengths inconsistent"));
        }
        let frame_len = BIN_HEADER_BYTES + total_body;
        if buf.len() < frame_len {
            return Ok(None);
        }
        let opaque = u32::from_be_bytes([buf[12], buf[13], buf[14], buf[15]]);
        let cas = u64::from_be_bytes([
            buf[16], buf[17], buf[18], buf[19], buf[20], buf[21], buf[22], buf[23],
        ]);
        let body = &buf[BIN_HEADER_BYTES..frame_len];
        Ok(Some((
            BinFrame {
                magic,
                opcode,
                vbucket_or_status,
                opaque,
                cas,
                extras: body[..extras_len].to_vec(),
                key: body[extras_len..extras_len + key_len].to_vec(),
                value: body[extras_len + key_len..].to_vec(),
            },
            frame_len,
        )))
    }
}

/// A [`BinFrame`] whose body parts are borrowed: what a server writes a
/// response from — a hit straight out of the store — without owning a byte
/// of it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BinFrameRef<'a> {
    /// `MAGIC_REQUEST` or `MAGIC_RESPONSE`.
    pub magic: u8,
    /// Operation.
    pub opcode: BinOpcode,
    /// vbucket (requests) / status (responses).
    pub vbucket_or_status: u16,
    /// Client-chosen token echoed verbatim in the response.
    pub opaque: u32,
    /// CAS token.
    pub cas: u64,
    /// Extras block.
    pub extras: &'a [u8],
    /// Key bytes.
    pub key: &'a [u8],
    /// Value bytes.
    pub value: &'a [u8],
}

impl<'a> BinFrameRef<'a> {
    /// A response frame answering `req` with `status`, its body empty.
    pub fn response(req: &BinFrame, status: BinStatus) -> BinFrameRef<'a> {
        BinFrameRef {
            magic: MAGIC_RESPONSE,
            opcode: req.opcode,
            vbucket_or_status: status as u16,
            opaque: req.opaque,
            cas: 0,
            extras: &[],
            key: &[],
            value: &[],
        }
    }

    /// Bytes the frame takes on the wire: header and body.
    pub fn wire_len(&self) -> usize {
        BIN_HEADER_BYTES + self.extras.len() + self.key.len() + self.value.len()
    }

    /// Appends the frame to `out` in the wire layout (network byte order,
    /// as specified).
    pub fn write_to(&self, out: &mut Vec<u8>) {
        let total_body = self.wire_len() - BIN_HEADER_BYTES;
        out.push(self.magic);
        out.push(self.opcode as u8);
        out.extend_from_slice(&(self.key.len() as u16).to_be_bytes());
        out.push(self.extras.len() as u8);
        out.push(0); // data type: raw bytes
        out.extend_from_slice(&self.vbucket_or_status.to_be_bytes());
        out.extend_from_slice(&(total_body as u32).to_be_bytes());
        out.extend_from_slice(&self.opaque.to_be_bytes());
        out.extend_from_slice(&self.cas.to_be_bytes());
        out.extend_from_slice(self.extras);
        out.extend_from_slice(self.key);
        out.extend_from_slice(self.value);
    }
}

/// Builds the extras block for storage requests (`flags`, `exptime`).
pub fn store_extras(flags: u32, exptime: u32) -> Vec<u8> {
    let mut e = Vec::with_capacity(8);
    e.extend_from_slice(&flags.to_be_bytes());
    e.extend_from_slice(&exptime.to_be_bytes());
    e
}

/// Parses storage extras; `None` if malformed.
pub fn parse_store_extras(extras: &[u8]) -> Option<(u32, u32)> {
    if extras.len() != 8 {
        return None;
    }
    Some((
        u32::from_be_bytes(extras[..4].try_into().ok()?),
        u32::from_be_bytes(extras[4..8].try_into().ok()?),
    ))
}

/// Builds the extras block for incr/decr (`delta`, `initial`, `exptime`);
/// `exptime == 0xffff_ffff` means "do not create on miss".
pub fn arith_extras(delta: u64, initial: u64, exptime: u32) -> Vec<u8> {
    let mut e = Vec::with_capacity(20);
    e.extend_from_slice(&delta.to_be_bytes());
    e.extend_from_slice(&initial.to_be_bytes());
    e.extend_from_slice(&exptime.to_be_bytes());
    e
}

/// Parses incr/decr extras.
pub fn parse_arith_extras(extras: &[u8]) -> Option<(u64, u64, u32)> {
    if extras.len() != 20 {
        return None;
    }
    Some((
        u64::from_be_bytes(extras[..8].try_into().ok()?),
        u64::from_be_bytes(extras[8..16].try_into().ok()?),
        u32::from_be_bytes(extras[16..20].try_into().ok()?),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let mut f = BinFrame::request(BinOpcode::Set, 0xdead_beef);
        f.cas = 42;
        f.extras = store_extras(7, 3600);
        f.key = b"the-key".to_vec();
        f.value = vec![0u8, 1, 2, 255];
        let wire = f.encode();
        let (parsed, used) = BinFrame::parse(&wire).unwrap().unwrap();
        assert_eq!(used, wire.len());
        assert_eq!(parsed, f);
    }

    #[test]
    fn incremental_parse() {
        let mut f = BinFrame::request(BinOpcode::Get, 1);
        f.key = b"k".to_vec();
        let wire = f.encode();
        for n in 0..wire.len() {
            assert_eq!(BinFrame::parse(&wire[..n]).unwrap(), None);
        }
        assert!(BinFrame::parse(&wire).unwrap().is_some());
    }

    #[test]
    fn bad_magic_and_opcode_rejected() {
        let mut f = BinFrame::request(BinOpcode::Get, 1).encode();
        f[0] = 0x55;
        assert!(BinFrame::parse(&f).is_err());
        let mut f = BinFrame::request(BinOpcode::Get, 1).encode();
        f[1] = 0xee;
        assert!(BinFrame::parse(&f).is_err());
    }

    #[test]
    fn inconsistent_lengths_rejected() {
        let mut f = BinFrame::request(BinOpcode::Get, 1);
        f.key = b"key".to_vec();
        let mut wire = f.encode();
        // Claim a key longer than the body.
        wire[2] = 0xff;
        wire[3] = 0xff;
        assert!(BinFrame::parse(&wire).is_err());
    }

    #[test]
    fn extras_round_trips() {
        assert_eq!(parse_store_extras(&store_extras(1, 2)), Some((1, 2)));
        assert_eq!(
            parse_arith_extras(&arith_extras(10, 20, 30)),
            Some((10, 20, 30))
        );
        assert_eq!(parse_store_extras(&[0; 7]), None);
        assert_eq!(parse_arith_extras(&[0; 19]), None);
    }

    #[test]
    fn status_round_trips() {
        for s in [
            BinStatus::Ok,
            BinStatus::KeyNotFound,
            BinStatus::KeyExists,
            BinStatus::TooLarge,
            BinStatus::NotStored,
            BinStatus::NonNumeric,
            BinStatus::OutOfMemory,
        ] {
            assert_eq!(BinStatus::from_u16(s as u16), Some(s));
        }
        assert_eq!(BinStatus::from_u16(0x7777), None);
    }

    #[test]
    fn quiet_opcodes() {
        assert!(BinOpcode::GetQ.is_quiet());
        assert!(BinOpcode::GetKQ.is_quiet());
        assert!(!BinOpcode::Get.is_quiet());
        assert!(!BinOpcode::Noop.is_quiet());
    }

    #[test]
    fn response_echoes_opaque_and_status() {
        let mut req = BinFrame::request(BinOpcode::Delete, 321);
        req.key = b"x".to_vec();
        let resp = BinFrame::response(&req, BinStatus::KeyNotFound);
        assert_eq!(resp.opaque, 321);
        assert_eq!(resp.status(), Some(BinStatus::KeyNotFound));
        assert_eq!(resp.opcode, BinOpcode::Delete);
        // Requests have no status.
        assert_eq!(req.status(), None);
    }

    /// A frame written from borrowed parts is the frame `encode` writes,
    /// appended where the buffer ends, and takes exactly `wire_len` bytes.
    #[test]
    fn a_borrowed_frame_writes_what_encode_writes() {
        let mut req = BinFrame::request(BinOpcode::GetK, 9);
        req.key = b"key".to_vec();
        let mut owned = BinFrame::response(&req, BinStatus::Ok);
        (owned.extras, owned.key, owned.value, owned.cas) =
            (vec![0, 0, 0, 7], req.key.clone(), b"value".to_vec(), 41);
        let lent = BinFrameRef {
            extras: &[0, 0, 0, 7],
            key: &req.key,
            value: b"value",
            cas: 41,
            ..BinFrameRef::response(&req, BinStatus::Ok)
        };
        assert_eq!(lent, owned.borrowed());
        let mut out = b"prefix".to_vec();
        lent.write_to(&mut out);
        assert_eq!(out[..6], *b"prefix");
        assert_eq!(out[6..], owned.encode()[..]);
        assert_eq!(out.len() - 6, lent.wire_len());
        let empty = BinFrame::response(&req, BinStatus::KeyNotFound);
        assert_eq!(
            BinFrameRef::response(&req, BinStatus::KeyNotFound),
            empty.borrowed()
        );
    }
}
