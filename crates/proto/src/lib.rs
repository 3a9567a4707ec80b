//! # mcproto — the memcached ASCII protocol
//!
//! Streaming parser and serializer for the classic text protocol spoken
//! between libmemcached 0.45 and memcached 1.4.x — the wire format the
//! paper's *unmodified* baseline uses over every sockets transport. The
//! UCR design replaces this byte-stream framing with typed active-message
//! headers; the contrast between the two is the paper's thesis.
//!
//! Both directions are covered: commands ([`Command`], parsed by servers,
//! encoded by clients) and responses ([`Response`], encoded by servers,
//! parsed by clients). Parsing is incremental: feed a growing buffer,
//! get back `Ok(None)` until a complete frame (including any data block)
//! is present.

#![warn(missing_docs)]

mod binary;
mod command;
mod response;
mod udp;

pub use binary::{
    arith_extras, parse_arith_extras, parse_store_extras, store_extras, BinFrame, BinOpcode,
    BinStatus, BIN_HEADER_BYTES, MAGIC_REQUEST, MAGIC_RESPONSE,
};
pub use command::{encode_command, parse_command, Command, StoreVerb};
pub use response::{encode_response, parse_response, GetValue, Response};
pub use udp::{udp_fragment, udp_reassemble, UdpFrame, UDP_CHUNK_BYTES, UDP_FRAME_BYTES};

/// Protocol-level errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtoError {
    /// Input is not a recognized command/response.
    Malformed(&'static str),
    /// A numeric field failed to parse.
    BadNumber,
    /// Line exceeded the protocol's bounds (keys > 250 bytes etc.).
    TooLong,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Malformed(what) => write!(f, "malformed protocol input: {what}"),
            ProtoError::BadNumber => write!(f, "bad number"),
            ProtoError::TooLong => write!(f, "line too long"),
        }
    }
}

impl std::error::Error for ProtoError {}

pub(crate) const CRLF: &[u8] = b"\r\n";

/// Maximum command-line length accepted (memcached uses 1024 + key).
pub(crate) const MAX_LINE: usize = 2048;

/// Finds the first CRLF; returns the line (exclusive) and bytes consumed
/// (inclusive of CRLF).
pub(crate) fn take_line(buf: &[u8]) -> Result<Option<(&[u8], usize)>, ProtoError> {
    match buf.windows(2).position(|w| w == CRLF) {
        Some(pos) => Ok(Some((&buf[..pos], pos + 2))),
        None if buf.len() > MAX_LINE => Err(ProtoError::TooLong),
        None => Ok(None),
    }
}

/// The `bytes`-long data block at `start` and the offset just past its
/// closing CRLF; `Ok(None)` until all of it is buffered. `bytes` is the
/// peer's word: it is added to an offset only with the overflow checked.
pub(crate) fn take_block(
    buf: &[u8],
    start: usize,
    bytes: usize,
) -> Result<Option<(&[u8], usize)>, ProtoError> {
    let end = start.checked_add(bytes).ok_or(ProtoError::BadNumber)?;
    let next = end.checked_add(CRLF.len()).ok_or(ProtoError::BadNumber)?;
    if buf.len() < next {
        return Ok(None);
    }
    if &buf[end..next] != CRLF {
        return Err(ProtoError::Malformed("data block not CRLF-terminated"));
    }
    Ok(Some((&buf[start..end], next)))
}
