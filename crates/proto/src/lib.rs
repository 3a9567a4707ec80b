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
//!
//! The owned `Command`/`Response` are the typed forms. Underneath them is
//! one tokenizer ([`tokens`]), one response-line reader
//! ([`ResponseLines`]) and one set of line writers ([`Wire`]); a codec
//! that has its own typed form uses those directly, borrowing what it
//! reads and writing each frame into one exactly sized buffer.

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::iter_over_hash_type
    )
)]

mod binary;
mod command;
mod response;
mod udp;

pub use binary::{
    arith_extras, parse_arith_extras, parse_store_extras, store_extras, BinFrame, BinFrameRef,
    BinOpcode, BinStatus, BIN_HEADER_BYTES, MAGIC_REQUEST, MAGIC_RESPONSE,
};
pub use command::{encode_command, parse_command, Command, StoreVerb};
pub use response::{
    encode_response, parse_response, GetValue, Response, ResponseLine, ResponseLines,
};
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
    /// A whole command line naming no command. memcached answers `ERROR`
    /// and reads on past the line's `len` bytes.
    UnknownCommand {
        /// Bytes of the line, CRLF included.
        len: usize,
    },
    /// An `incr`/`decr` whose delta is not a number. memcached answers
    /// `CLIENT_ERROR invalid numeric delta argument` and reads on past the
    /// line's `len` bytes.
    BadDelta {
        /// Bytes of the line, CRLF included.
        len: usize,
    },
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Malformed(what) => write!(f, "malformed protocol input: {what}"),
            ProtoError::BadNumber => write!(f, "bad number"),
            ProtoError::TooLong => write!(f, "line too long"),
            ProtoError::UnknownCommand { .. } => write!(f, "unknown command"),
            ProtoError::BadDelta { .. } => write!(f, "invalid numeric delta argument"),
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

/// A decimal field.
pub(crate) fn num<T: std::str::FromStr>(tok: &[u8]) -> Result<T, ProtoError> {
    std::str::from_utf8(tok)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or(ProtoError::BadNumber)
}

/// The space-separated tokens of a protocol line, split in place.
pub fn tokens(line: &[u8]) -> Tokens<'_> {
    Tokens(line)
}

/// Iterator of [`tokens`]: a run of spaces separates like one space, and
/// leading or trailing spaces make no empty token.
#[derive(Clone, Debug)]
pub struct Tokens<'a>(&'a [u8]);

impl<'a> Tokens<'a> {
    /// The next `N` tokens, or `None` when fewer are left.
    pub(crate) fn fields<const N: usize>(&mut self) -> Option<[&'a [u8]; N]> {
        let mut out = [&[][..]; N];
        for slot in &mut out {
            *slot = self.next()?;
        }
        Some(out)
    }

    /// Whether the next token is `noreply`.
    pub(crate) fn noreply(&mut self) -> bool {
        self.next() == Some(&b"noreply"[..])
    }
}

impl<'a> Iterator for Tokens<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let start = self.0.iter().position(|&b| b != b' ')?;
        let rest = &self.0[start..];
        let len = rest.iter().position(|&b| b == b' ').unwrap_or(rest.len());
        let (token, tail) = rest.split_at(len);
        self.0 = tail;
        Some(token)
    }
}

/// Where the line writers put a frame. [`exact`] runs a frame's writers
/// twice: once to count its bytes, once into a buffer of exactly that
/// size.
pub struct Wire {
    bytes: Vec<u8>,
    /// The counting pass: `size` grows, `bytes` stays empty.
    sizing: bool,
    size: usize,
}

/// The frame `write` produces, in one allocation of exactly its size.
pub fn exact(write: impl Fn(&mut Wire)) -> Vec<u8> {
    let mut wire = Wire {
        bytes: Vec::new(),
        sizing: true,
        size: 0,
    };
    write(&mut wire);
    wire.bytes.reserve_exact(wire.size);
    wire.sizing = false;
    write(&mut wire);
    debug_assert_eq!(wire.bytes.len(), wire.size, "the two passes disagree");
    wire.bytes
}

impl Wire {
    fn put(&mut self, bytes: &[u8]) {
        if self.sizing {
            self.size += bytes.len();
        } else {
            self.bytes.extend_from_slice(bytes);
        }
    }

    /// `n` in decimal.
    fn put_num(&mut self, mut n: u64) {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.put(&digits[at..]);
    }

    fn arg(&mut self, bytes: &[u8]) {
        self.put(b" ");
        self.put(bytes);
    }

    fn arg_num(&mut self, n: u64) {
        self.put(b" ");
        self.put_num(n);
    }

    fn end_line(&mut self, noreply: bool) {
        if noreply {
            self.put(b" noreply");
        }
        self.put(CRLF);
    }

    /// `<verb> <key> <flags> <exptime> <bytes>[ <cas>][ noreply]\r\n`
    /// and the data block: a storage command, `cas` with its token.
    #[allow(clippy::too_many_arguments)]
    pub fn storage(
        &mut self,
        verb: &[u8],
        key: &[u8],
        flags: u32,
        exptime: u32,
        cas: Option<u64>,
        data: &[u8],
        noreply: bool,
    ) {
        self.put(verb);
        self.arg(key);
        self.arg_num(flags.into());
        self.arg_num(exptime.into());
        self.arg_num(data.len() as u64);
        if let Some(cas) = cas {
            self.arg_num(cas);
        }
        self.end_line(noreply);
        self.put(data);
        self.put(CRLF);
    }

    /// `<verb> <key>*\r\n`: `get` or `gets`.
    pub fn retrieval<K: AsRef<[u8]>>(&mut self, verb: &[u8], keys: &[K]) {
        self.put(verb);
        for key in keys {
            self.arg(key.as_ref());
        }
        self.put(CRLF);
    }

    /// `<verb>[ <key>][ <n>][ noreply]\r\n`: every command but the
    /// storage and retrieval ones.
    pub fn command(&mut self, verb: &[u8], key: Option<&[u8]>, n: Option<u64>, noreply: bool) {
        self.put(verb);
        if let Some(key) = key {
            self.arg(key);
        }
        if let Some(n) = n {
            self.arg_num(n);
        }
        self.end_line(noreply);
    }

    /// `VALUE <key> <flags> <bytes>[ <cas>]\r\n` and the data block: one
    /// hit of a `get` (no CAS token) or `gets`.
    pub fn value(&mut self, key: &[u8], flags: u32, cas: Option<u64>, data: &[u8]) {
        self.put(b"VALUE");
        self.arg(key);
        self.arg_num(flags.into());
        self.arg_num(data.len() as u64);
        if let Some(cas) = cas {
            self.arg_num(cas);
        }
        self.put(CRLF);
        self.put(data);
        self.put(CRLF);
    }

    /// `STAT <name> <value>\r\n`.
    pub fn stat(&mut self, name: &str, value: &str) {
        self.put(b"STAT");
        self.arg(name.as_bytes());
        self.arg(value.as_bytes());
        self.put(CRLF);
    }

    /// `<n>\r\n`: the answer to `incr`/`decr`.
    pub fn number(&mut self, n: u64) {
        self.put_num(n);
        self.put(CRLF);
    }

    /// `<word>[ <text>]\r\n`: a status (`STORED`, the `END` closing a
    /// `VALUE` or `STAT` block) or a line carrying text (`VERSION <v>`,
    /// `CLIENT_ERROR <message>`).
    pub fn status(&mut self, word: &[u8], text: Option<&[u8]>) {
        self.put(word);
        if let Some(text) = text {
            self.arg(text);
        }
        self.put(CRLF);
    }
}
