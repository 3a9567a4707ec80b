//! The canonical request and reply every wire format decodes to and
//! encodes from.
//!
//! The four wire front-ends (UCR active messages, ASCII over TCP, binary
//! over TCP, ASCII over UDP) differ only in framing. Each decodes its wire
//! object into one [`Request`], the server's executor answers with one
//! [`Reply`], and the front-end encodes that back; the client runs the
//! same pair in the other direction. The per-wire translations live in
//! [`crate::codec`].
//!
//! A `Request` borrows its keys and value from whatever owns them — the
//! decoded wire object on the server (`K = Vec<u8>`), the caller's
//! arguments on the client (`K = &[u8]`) — so building one allocates
//! nothing.

use mcstore::{NumericError, SetOutcome, Value};

use crate::am_wire::{mget_entry_len, McOp};

/// One memcached operation, independent of the wire it arrived on.
pub(crate) struct Request<'a, K = Vec<u8>> {
    /// Operation.
    pub op: McOp,
    /// Keys: one for keyed ops, many for `Mget`, none or one (the
    /// sub-report name) for `Stats`, none for `FlushAll`/`Version`.
    pub keys: &'a [K],
    /// Value (storage ops).
    pub value: &'a [u8],
    /// Opaque item flags (storage ops).
    pub flags: u32,
    /// Expiration (storage ops, touch, create-on-incr) or the delay in
    /// seconds (`FlushAll`).
    pub exptime: u32,
    /// CAS token (`Cas`).
    pub cas: u64,
    /// Delta (incr/decr).
    pub delta: u64,
    /// Binary-protocol incr/decr on a missing key creates it holding this
    /// value (expiring per `exptime`) instead of failing.
    pub initial: Option<u64>,
}

impl<'a, K: AsRef<[u8]>> Request<'a, K> {
    /// A request with every optional field zeroed.
    pub fn new(op: McOp, keys: &'a [K]) -> Self {
        Request {
            op,
            keys,
            value: &[],
            flags: 0,
            exptime: 0,
            cas: 0,
            delta: 0,
            initial: None,
        }
    }

    /// A storage request (`Set`/`Add`/`Replace`/`Append`/`Prepend`/`Cas`).
    pub fn store(
        op: McOp,
        key: &'a [K],
        value: &'a [u8],
        flags: u32,
        exptime: u32,
        cas: u64,
    ) -> Self {
        Request {
            value,
            flags,
            exptime,
            cas,
            ..Request::new(op, key)
        }
    }

    /// Sets the delta (incr/decr).
    pub fn with_delta(self, delta: u64) -> Self {
        Request { delta, ..self }
    }

    /// Sets the expiration (touch) or delay (`FlushAll`).
    pub fn with_exptime(self, exptime: u32) -> Self {
        Request { exptime, ..self }
    }

    /// The first key, or the empty key for keyless ops.
    pub fn key(&self) -> &'a [u8] {
        self.keys.first().map(AsRef::as_ref).unwrap_or_default()
    }
}

/// The outcome of one [`Request`].
///
/// `D` holds a `Get` hit's bytes: on the server they are lent by the store
/// (`D = &[u8]`) and written once, into the reply's wire buffer, before the
/// loan ends; the client owns what it decoded (`D = Vec<u8>`). Multiget
/// hits are always owned: a split multiget's parts are fetched on several
/// workers and merged across awaits, which no loan may span.
#[derive(Debug, PartialEq)]
pub(crate) enum Reply<D = Vec<u8>> {
    /// `Get`: the hit, or a miss.
    Value(Option<Value<D>>),
    /// `Mget`: hits as `(index into the request's keys, value)`, in
    /// request order.
    Values(Vec<(usize, Value)>),
    /// Storage ops: the store's verdict and, when stored, the item's new
    /// CAS token.
    Stored {
        /// What the store did.
        outcome: SetOutcome,
        /// CAS token of the stored item; 0 unless `outcome` is `Stored`.
        cas: u64,
    },
    /// `Delete`/`Touch`: whether the key was live.
    Found(bool),
    /// `Incr`/`Decr`: the new value.
    Number(Result<u64, NumericError>),
    /// `FlushAll`.
    Done,
    /// `Version`.
    Version(String),
    /// `Stats`: `(name, value)` pairs; empty for an unknown sub-report.
    Stats(Vec<(String, String)>),
}

impl<D: AsRef<[u8]>> Reply<D> {
    /// Payload bytes of this reply in active-message framing: the figure
    /// the service span reports, on every wire.
    pub fn payload_len<K: AsRef<[u8]>>(&self, keys: &[K]) -> usize {
        match self {
            Reply::Value(Some(v)) => v.data.as_ref().len(),
            Reply::Values(hits) => hits
                .iter()
                .map(|(i, v)| mget_entry_len(keys[*i].as_ref().len(), v.data.len()))
                .sum(),
            Reply::Version(s) => s.len(),
            Reply::Stats(pairs) => pairs.iter().map(|(k, v)| k.len() + v.len() + 2).sum(),
            _ => 0,
        }
    }
}
