//! The per-wire codecs: each wire format's translation to and from the
//! canonical [`Request`]/[`Reply`] pair, in both directions.
//!
//! A server front-end calls `decode_request` → executor → `encode_reply`;
//! the client calls `encode_request` → round trip → `decode_reply`. The
//! wire objects stay pure framing: on UCR the client writes a
//! `ReqHeaderRef` and reads a `RespHeader`, and the server reads a
//! `ReqHead` whose keys it holds as a `HeldReq`; on ASCII the server reads
//! a `CommandRef` in place and the client reads `ResponseLines`; binary is
//! a `BinFrame` in and `BinFrameRef`s out. What only a wire cares about —
//! `noreply`, `gets` vs `get`, quiet opcodes, key echo — is read off the
//! wire object here and never reaches the executor.

use std::borrow::Cow;

use mcstore::NumericError::{NotFound, NotNumeric};
use mcstore::{SetOutcome, Value};

use crate::am_wire::McOp;
use crate::client::McError;
use crate::request::{Reply, Request};

/// Maps reply entries that echo their key (in request order, misses
/// skipped) back to indices into the request's keys.
struct KeyCursor<'a, 'k> {
    keys: &'a [&'k [u8]],
    next: usize,
}

impl KeyCursor<'_, '_> {
    fn index_of(&mut self, key: &[u8]) -> Result<usize, McError> {
        let rest = self.keys.get(self.next..).unwrap_or_default();
        let at = rest.iter().position(|k| *k == key);
        self.next += at.ok_or(McError::Protocol)? + 1;
        Ok(self.next - 1)
    }
}

/// A client's reply framed off the front of a stream's buffer, its values
/// `D`, and the bytes it took; `None` until all of it is buffered.
type Framed<D> = Option<(Reply<D, D>, usize)>;

/// Looks `from` up in a two-column table.
fn lookup<A: PartialEq + Copy, B: Copy>(table: &[(A, B)], from: A) -> Option<B> {
    table.iter().find(|(a, _)| *a == from).map(|(_, b)| *b)
}

/// Looks `from` up in a two-column table, right to left.
fn lookup_rev<A: Copy, B: PartialEq + Copy>(table: &[(A, B)], from: B) -> Option<A> {
    table.iter().find(|(_, b)| *b == from).map(|(a, _)| *a)
}

/// Typed active messages (paper §V): the header carries the op and keys,
/// the AM data carries the value.
pub(crate) mod ucr {
    use super::*;
    use crate::am_wire::{
        encode_mget_entry, mget_entry_len, next_mget_entry, ReqHead, ReqHeaderRef, RespHeader,
        RespStatus,
    };

    const STORE_STATUS: [(SetOutcome, RespStatus); 6] = [
        (SetOutcome::Stored, RespStatus::Stored),
        (SetOutcome::NotStored, RespStatus::NotStored),
        (SetOutcome::Exists, RespStatus::Exists),
        (SetOutcome::NotFound, RespStatus::NotFound),
        (SetOutcome::TooLarge, RespStatus::TooLarge),
        (SetOutcome::OutOfMemory, RespStatus::OutOfMemory),
    ];

    /// Client: the AM 1 header, over the request's own keys, and data for
    /// `req`, the request's own value. The header always carries at least
    /// one key slot (empty for keyless ops).
    pub fn encode_request<'a>(
        req: &Request<'a, &'a [u8]>,
        req_id: u64,
        ctr_id: u64,
    ) -> (ReqHeaderRef<'a, &'a [u8]>, &'a [u8]) {
        const KEYLESS: &[&[u8]] = &[&[]];
        let hdr = ReqHeaderRef {
            op: req.op,
            req_id,
            ctr_id,
            flags: req.flags,
            exptime: req.exptime,
            cas: req.cas,
            delta: req.delta,
            keys: if req.keys.is_empty() {
                KEYLESS
            } else {
                req.keys
            },
        };
        (hdr, req.value)
    }

    /// Server: the request AM 1 carried, over its `keys` (read from the
    /// header in place) and the value from the AM data.
    pub fn decode_request<'a, K: AsRef<[u8]>>(
        hdr: &ReqHead,
        keys: &'a [K],
        data: &'a [u8],
    ) -> Request<'a, K> {
        Request::store(hdr.op, keys, data, hdr.flags, hdr.exptime, hdr.cas).with_delta(hdr.delta)
    }

    /// Server: the AM 2 header and data answering request `req_id`. A
    /// single hit's data is its bytes where the reply holds them (lent by
    /// the store), for the send to copy once into its network buffer.
    pub fn encode_reply<'r, D: AsRef<[u8]>, K: AsRef<[u8]>>(
        req_id: u64,
        reply: &'r Reply<D>,
        keys: &[K],
    ) -> (RespHeader, Cow<'r, [u8]>) {
        let mut hdr = RespHeader {
            req_id,
            status: RespStatus::Ok,
            flags: 0,
            cas: 0,
            number: 0,
            nvalues: 0,
        };
        let mut payload = Cow::Borrowed(&[][..]);
        match reply {
            Reply::Value(Some(v)) => {
                (hdr.status, hdr.flags, hdr.cas) = (RespStatus::Hit, v.flags, v.cas);
                payload = Cow::Borrowed(v.data.as_ref());
            }
            Reply::Value(None) => hdr.status = RespStatus::Miss,
            Reply::Values(hits) => {
                (hdr.status, hdr.nvalues) = (RespStatus::Hit, hits.len() as u16);
                let mut entries = Vec::with_capacity(reply.payload_len(keys));
                for (i, v) in hits {
                    encode_mget_entry(&mut entries, keys[*i].as_ref(), v.flags, v.cas, &v.data);
                }
                payload = Cow::Owned(entries);
            }
            Reply::Stored { outcome, cas } => {
                hdr.status = lookup(&STORE_STATUS, *outcome).unwrap_or(RespStatus::NotStored);
                hdr.cas = *cas;
            }
            Reply::Found(true) | Reply::Done => {}
            Reply::Found(false) | Reply::Number(Err(NotFound)) => hdr.status = RespStatus::NotFound,
            Reply::Number(Err(NotNumeric)) => hdr.status = RespStatus::NotNumeric,
            Reply::Number(Ok(n)) => (hdr.status, hdr.number) = (RespStatus::Number, *n),
            Reply::Version(s) => payload = Cow::Borrowed(s.as_bytes()),
            Reply::Stats(pairs) => {
                let text: String = pairs.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
                payload = Cow::Owned(text.into_bytes());
            }
        }
        (hdr, payload)
    }

    /// Client: the reply AM 2 carried for an `op` request over `keys`. A
    /// single hit's value is the AM data as it landed; a multiget's values
    /// are copied out of it by `lend`.
    pub fn decode_reply<D: AsRef<[u8]>>(
        op: McOp,
        keys: &[&[u8]],
        hdr: RespHeader,
        payload: D,
        lend: impl Fn(&[u8]) -> D,
    ) -> Result<Reply<D, D>, McError> {
        let (flags, cas) = (hdr.flags, hdr.cas);
        Ok(match (op, hdr.status) {
            (McOp::Get, RespStatus::Hit) => {
                let data = payload;
                Reply::Value(Some(Value { data, flags, cas }))
            }
            (McOp::Get, RespStatus::Miss) => Reply::Value(None),
            (McOp::Mget, _) => {
                let mut cursor = KeyCursor { keys, next: 0 };
                let mut rest = payload.as_ref();
                // The count is the peer's word: reserve what the payload
                // can hold of it.
                let fit = rest.len() / mget_entry_len(0, 0);
                let mut hits = Vec::with_capacity(fit.min(hdr.nvalues.into()));
                for _ in 0..hdr.nvalues {
                    let (key, flags, cas, value) =
                        next_mget_entry(&mut rest).ok_or(McError::Protocol)?;
                    let data = lend(value);
                    hits.push((cursor.index_of(key)?, Value { data, flags, cas }));
                }
                Reply::Values(hits)
            }
            (op, status) if op.is_store() => {
                let outcome = lookup_rev(&STORE_STATUS, status).ok_or(McError::Protocol)?;
                Reply::Stored { outcome, cas }
            }
            (McOp::Delete | McOp::Touch, RespStatus::Ok) => Reply::Found(true),
            (McOp::Delete | McOp::Touch, RespStatus::NotFound) => Reply::Found(false),
            (McOp::Incr | McOp::Decr, RespStatus::Number) => Reply::Number(Ok(hdr.number)),
            (McOp::Incr | McOp::Decr, RespStatus::NotFound) => Reply::Number(Err(NotFound)),
            (McOp::Incr | McOp::Decr, RespStatus::NotNumeric) => Reply::Number(Err(NotNumeric)),
            (McOp::FlushAll, RespStatus::Ok) => Reply::Done,
            (McOp::Version, _) => {
                Reply::Version(String::from_utf8_lossy(payload.as_ref()).into_owned())
            }
            (McOp::Stats, _) => {
                let text = String::from_utf8_lossy(payload.as_ref());
                let pairs = text.lines().map(|l| l.split_once(' ').unwrap_or((l, "")));
                Reply::Stats(pairs.map(|(k, v)| (k.into(), v.into())).collect())
            }
            _ => return Err(McError::Protocol),
        })
    }
}

/// The memcached text protocol, over TCP streams and UDP datagrams. Both
/// ends write a frame straight from `Request`/`Reply` onto a buffer they
/// keep, the server reads a request in place from the frame it arrived in,
/// and the client reads its reply in place: a hit's value is the one thing
/// either end copies out.
pub(crate) mod ascii {
    use super::*;
    use crate::am_wire::Keys;
    use mcproto::{
        frame_into, CommandOf, CommandRef, Response, ResponseLine as Line, ResponseLines,
        StoreVerb, Wire,
    };

    const VERBS: [(StoreVerb, McOp); 5] = [
        (StoreVerb::Set, McOp::Set),
        (StoreVerb::Add, McOp::Add),
        (StoreVerb::Replace, McOp::Replace),
        (StoreVerb::Append, McOp::Append),
        (StoreVerb::Prepend, McOp::Prepend),
    ];

    /// Client: writes the command line (and data block) for `req` onto
    /// `out`. Fetches always ask for CAS tokens (`gets`).
    pub fn encode_request<K: AsRef<[u8]>>(req: &Request<'_, K>, out: &mut Vec<u8>) {
        let &Request {
            flags,
            exptime,
            cas,
            delta,
            value,
            ..
        } = req;
        let key = Some(req.key());
        frame_into(out, |w| match req.op {
            McOp::Get | McOp::Mget => w.retrieval(b"gets", req.keys),
            McOp::Cas => w.storage(b"cas", req.key(), flags, exptime, Some(cas), value, false),
            McOp::Delete => w.command(b"delete", key, None, false),
            McOp::Incr => w.command(b"incr", key, Some(delta), false),
            McOp::Decr => w.command(b"decr", key, Some(delta), false),
            McOp::Touch => w.command(b"touch", key, Some(exptime.into()), false),
            McOp::FlushAll => {
                let delay = (exptime > 0).then_some(exptime.into());
                w.command(b"flush_all", None, delay, false)
            }
            McOp::Version => w.command(b"version", None, None, false),
            McOp::Stats => w.command(b"stats", req.keys.first().map(K::as_ref), None, false),
            op => {
                let verb = lookup_rev(&VERBS, op).unwrap_or(StoreVerb::Set);
                w.storage(verb.name(), req.key(), flags, exptime, None, value, false)
            }
        })
    }

    /// Server: the keys `cmd` names, read in place — a `get`'s keys, the
    /// key of a keyed command, a `stats` sub-report's name, none for the
    /// rest. One key allocates nothing.
    pub fn keys<'a>(cmd: &CommandRef<'a>) -> Keys<&'a [u8]> {
        use CommandOf::*;
        match cmd {
            Get { keys } | Gets { keys } => {
                let mut first_two = keys.clone();
                match (first_two.next(), first_two.next()) {
                    (Some(key), None) => Keys::One([key]),
                    _ => Keys::Many(keys.clone().collect()),
                }
            }
            Store { key, .. }
            | Cas { key, .. }
            | Delete { key, .. }
            | Incr { key, .. }
            | Decr { key, .. }
            | Touch { key, .. }
            | Stats { arg: Some(key) } => Keys::One([*key]),
            FlushAll { .. } | Stats { arg: None } | Version | Quit => Keys::Many(Vec::new()),
        }
    }

    /// Server: the request `cmd` asks for, over its [`keys`], plus its
    /// `noreply` flag; keys and data stay where the frame holds them.
    /// `None` for `quit`, which the connection reader consumes.
    pub fn decode_request<'k, 'a>(
        cmd: &CommandRef<'a>,
        keys: &'k [&'a [u8]],
    ) -> Option<(Request<'k, &'a [u8]>, bool)> {
        use CommandOf::*;
        let noreply = match cmd {
            Store { noreply, .. }
            | Cas { noreply, .. }
            | Delete { noreply, .. }
            | Incr { noreply, .. }
            | Decr { noreply, .. }
            | Touch { noreply, .. }
            | FlushAll { noreply, .. } => *noreply,
            Get { .. } | Gets { .. } | Stats { .. } | Version | Quit => false,
        };
        let req = match *cmd {
            Store {
                verb,
                flags,
                exptime,
                data,
                ..
            } => {
                let op = lookup(&VERBS, verb).unwrap_or(McOp::Set);
                Request::store(op, keys, data, flags, exptime, 0)
            }
            Cas {
                flags,
                exptime,
                cas,
                data,
                ..
            } => Request::store(McOp::Cas, keys, data, flags, exptime, cas),
            Get { .. } | Gets { .. } if keys.len() == 1 => Request::new(McOp::Get, keys),
            Get { .. } | Gets { .. } => Request::new(McOp::Mget, keys),
            Delete { .. } => Request::new(McOp::Delete, keys),
            Incr { delta, .. } => Request::new(McOp::Incr, keys).with_delta(delta),
            Decr { delta, .. } => Request::new(McOp::Decr, keys).with_delta(delta),
            Touch { exptime, .. } => Request::new(McOp::Touch, keys).with_exptime(exptime),
            FlushAll { delay, .. } => Request::new(McOp::FlushAll, keys).with_exptime(delay),
            Stats { .. } => Request::new(McOp::Stats, keys),
            Version => Request::new(McOp::Version, keys),
            Quit => return None,
        };
        Some((req, noreply))
    }

    /// Server: writes the response to `cmd`, over its `keys`, onto `out`.
    /// Hits are written into their `VALUE` stanzas behind the keys they
    /// index — a lent hit straight from the store; `get` omits the CAS
    /// token, `gets` carries it.
    pub fn encode_reply<D: AsRef<[u8]>>(
        cmd: &CommandRef<'_>,
        keys: &[&[u8]],
        reply: &Reply<D>,
        out: &mut Vec<u8>,
    ) {
        let with_cas = matches!(cmd, CommandOf::Gets { .. });
        let resp = match reply {
            Reply::Value(hit) => {
                let hits = hit.iter().map(|v| (0, v));
                return frame_into(out, |w| stanzas(w, keys, with_cas, hits.clone()));
            }
            Reply::Values(hits) => {
                let hits = hits.iter().map(|(i, v)| (*i, v));
                return frame_into(out, |w| stanzas(w, keys, with_cas, hits.clone()));
            }
            Reply::Stored { outcome, .. } => match outcome {
                SetOutcome::Stored => Response::Stored,
                SetOutcome::NotStored => Response::NotStored,
                SetOutcome::Exists => Response::Exists,
                SetOutcome::NotFound => Response::NotFound,
                SetOutcome::TooLarge => Response::ServerError("object too large for cache".into()),
                SetOutcome::OutOfMemory => {
                    Response::ServerError("out of memory storing object".into())
                }
            },
            Reply::Found(true) if matches!(cmd, CommandOf::Touch { .. }) => Response::Touched,
            Reply::Found(true) => Response::Deleted,
            Reply::Found(false) | Reply::Number(Err(NotFound)) => Response::NotFound,
            Reply::Number(Ok(n)) => Response::Number(*n),
            Reply::Number(Err(NotNumeric)) => {
                Response::ClientError("cannot increment or decrement non-numeric value".into())
            }
            Reply::Done => Response::Ok,
            Reply::Version(s) => Response::Version(s.clone()),
            Reply::Stats(pairs) => Response::Stats(pairs.clone()),
        };
        frame_into(out, |w| w.response(&resp));
    }

    /// The `VALUE` stanzas of `hits`, each behind the key it indexes, and
    /// the closing `END`.
    fn stanzas<'v, D: AsRef<[u8]> + 'v>(
        w: &mut Wire<'_>,
        keys: &[&[u8]],
        with_cas: bool,
        hits: impl Iterator<Item = (usize, &'v Value<D>)>,
    ) {
        for (i, v) in hits {
            w.value(keys[i], v.flags, with_cas.then_some(v.cas), v.data.as_ref());
        }
        w.status(b"END", None);
    }

    /// Client: the reply at the front of `buf` to an `op` request over
    /// `keys`, and the bytes it takes; `Ok(None)` until all of it is
    /// buffered. Read in place: only a hit's value is copied out, by
    /// `lend`.
    pub fn decode_reply<D>(
        op: McOp,
        keys: &[&[u8]],
        buf: &[u8],
        lend: impl Fn(&[u8]) -> D,
    ) -> Result<Framed<D>, McError> {
        let value = |flags, data: &[u8], cas: Option<u64>| Value {
            data: lend(data),
            flags,
            cas: cas.unwrap_or(0),
        };
        let mut lines = ResponseLines::new(buf);
        let Some(first) = lines.next_line()? else {
            return Ok(None);
        };
        let reply = match (op, first) {
            (McOp::Get, first) => {
                let mut hit = None;
                let closed = lines.block(first, |line| match line {
                    // `VALUE <key>` echoes the key: a hit for another is not ours.
                    Line::Value {
                        key,
                        flags,
                        data,
                        cas,
                    } if hit.is_none() && keys.first() == Some(&key) => {
                        hit = Some((flags, data, cas));
                        Ok(())
                    }
                    _ => Err(McError::Protocol),
                })?;
                if !closed {
                    return Ok(None);
                }
                Reply::Value(hit.map(|(flags, data, cas)| value(flags, data, cas)))
            }
            (McOp::Mget, first) => {
                let mut cursor = KeyCursor { keys, next: 0 };
                let mut hits = Vec::new();
                let closed = lines.block(first, |line| match line {
                    Line::Value {
                        key,
                        flags,
                        data,
                        cas,
                    } => {
                        hits.push((cursor.index_of(key)?, value(flags, data, cas)));
                        Ok(())
                    }
                    _ => Err(McError::Protocol),
                })?;
                if !closed {
                    return Ok(None);
                }
                Reply::Values(hits)
            }
            // A bare END (empty report) closes an empty block.
            (McOp::Stats, first) => {
                let mut pairs = Vec::new();
                let closed = lines.block(first, |line| match line {
                    Line::Stat(name, value) => {
                        pairs.push((name.to_string(), value.to_string()));
                        Ok(())
                    }
                    _ => Err(McError::Protocol),
                })?;
                if !closed {
                    return Ok(None);
                }
                Reply::Stats(pairs)
            }
            (op, line) if op.is_store() => {
                let outcome = match line {
                    Line::Stored => SetOutcome::Stored,
                    Line::NotStored => SetOutcome::NotStored,
                    Line::Exists => SetOutcome::Exists,
                    Line::NotFound => SetOutcome::NotFound,
                    Line::ServerError(m) if m.windows(9).any(|w| w == b"too large") => {
                        SetOutcome::TooLarge
                    }
                    Line::ServerError(_) => SetOutcome::OutOfMemory,
                    _ => return Err(McError::Protocol),
                };
                Reply::Stored { outcome, cas: 0 }
            }
            (McOp::Delete, Line::Deleted) | (McOp::Touch, Line::Touched) => Reply::Found(true),
            (McOp::Delete | McOp::Touch, Line::NotFound) => Reply::Found(false),
            (McOp::Incr | McOp::Decr, Line::Number(n)) => Reply::Number(Ok(n)),
            (McOp::Incr | McOp::Decr, Line::NotFound) => Reply::Number(Err(NotFound)),
            (McOp::Incr | McOp::Decr, Line::ClientError(_)) => Reply::Number(Err(NotNumeric)),
            (McOp::FlushAll, Line::Ok) => Reply::Done,
            (McOp::Version, Line::Version(v)) => {
                Reply::Version(String::from_utf8_lossy(v).into_owned())
            }
            _ => return Err(McError::Protocol),
        };
        Ok(Some((reply, lines.used())))
    }
}

/// The memcached binary protocol over TCP streams.
pub(crate) mod binary {
    use super::*;
    use mcproto::{
        arith_extras, parse_arith_extras, parse_store_extras, store_extras, BinFrameRef, BinOpcode,
        BinStatus,
    };

    const STORE_STATUS: [(SetOutcome, BinStatus); 6] = [
        (SetOutcome::Stored, BinStatus::Ok),
        (SetOutcome::NotStored, BinStatus::NotStored),
        (SetOutcome::Exists, BinStatus::KeyExists),
        (SetOutcome::NotFound, BinStatus::KeyNotFound),
        (SetOutcome::TooLarge, BinStatus::TooLarge),
        (SetOutcome::OutOfMemory, BinStatus::OutOfMemory),
    ];

    /// Ops with an opcode of their own. `Cas` has none (it is a `Set`
    /// frame with a non-zero CAS field); a fetch has four.
    const OPCODES: [(McOp, BinOpcode); 12] = [
        (McOp::Set, BinOpcode::Set),
        (McOp::Add, BinOpcode::Add),
        (McOp::Replace, BinOpcode::Replace),
        (McOp::Append, BinOpcode::Append),
        (McOp::Prepend, BinOpcode::Prepend),
        (McOp::Delete, BinOpcode::Delete),
        (McOp::Incr, BinOpcode::Increment),
        (McOp::Decr, BinOpcode::Decrement),
        (McOp::Touch, BinOpcode::Touch),
        (McOp::FlushAll, BinOpcode::Flush),
        (McOp::Version, BinOpcode::Version),
        (McOp::Stats, BinOpcode::Stat),
    ];

    /// Client: writes the frames for `req` onto `out`. A multi-key fetch
    /// becomes quiet GetKQ frames closed by a Noop (the protocol's signature
    /// optimization); everything else is one frame.
    pub fn encode_request<K: AsRef<[u8]>>(req: &Request<'_, K>, out: &mut Vec<u8>) {
        let mut opaque = 1u32;
        let mut frame = |opcode: BinOpcode, key| {
            opaque += 1;
            BinFrameRef {
                key,
                ..BinFrameRef::request(opcode, opaque)
            }
        };
        let opcode = match req.op {
            McOp::Get | McOp::Mget if req.keys.len() == 1 => BinOpcode::GetK,
            McOp::Get | McOp::Mget => {
                for key in req.keys {
                    frame(BinOpcode::GetKQ, key.as_ref()).write_to(out);
                }
                return frame(BinOpcode::Noop, &[]).write_to(out);
            }
            McOp::Cas => BinOpcode::Set,
            op => lookup(&OPCODES, op).unwrap_or(BinOpcode::Noop),
        };
        let mut f = frame(opcode, req.key());
        let (store, arith, word);
        f.extras = match req.op {
            McOp::Set | McOp::Add | McOp::Replace | McOp::Cas => {
                f.cas = req.cas;
                store = store_extras(req.flags, req.exptime);
                &store
            }
            McOp::Incr | McOp::Decr => {
                // All-ones expiry means "fail on a missing key".
                let exptime = req.initial.map_or(u32::MAX, |_| req.exptime);
                arith = arith_extras(req.delta, req.initial.unwrap_or(0), exptime);
                &arith
            }
            McOp::Touch => {
                word = req.exptime.to_be_bytes();
                &word
            }
            McOp::FlushAll if req.exptime > 0 => {
                word = req.exptime.to_be_bytes();
                &word
            }
            _ => &[],
        };
        f.value = req.value;
        f.write_to(out);
    }

    /// Server: the request `frame` asks for, borrowing key and value from
    /// it; `None` when the extras are malformed (answered `InvalidArgs`).
    /// `Noop` occupies a worker like any keyless op, so it is served as
    /// `Version` and its payload dropped at encode.
    pub fn decode_request<'a>(frame: &'a BinFrameRef<'a>) -> Option<Request<'a, &'a [u8]>> {
        let key = std::slice::from_ref(&frame.key);
        let op = lookup_rev(&OPCODES, frame.opcode).unwrap_or(McOp::Version);
        let be_u32 = |b: &[u8]| b.try_into().map(u32::from_be_bytes);
        Some(match frame.opcode {
            BinOpcode::Get | BinOpcode::GetK | BinOpcode::GetQ | BinOpcode::GetKQ => {
                Request::new(McOp::Get, key)
            }
            BinOpcode::Set | BinOpcode::Add | BinOpcode::Replace => {
                let (flags, exptime) = parse_store_extras(frame.extras)?;
                let op = if frame.cas != 0 { McOp::Cas } else { op };
                Request::store(op, key, frame.value, flags, exptime, frame.cas)
            }
            BinOpcode::Append | BinOpcode::Prepend => Request::store(op, key, frame.value, 0, 0, 0),
            BinOpcode::Increment | BinOpcode::Decrement => {
                let (delta, initial, exptime) = parse_arith_extras(frame.extras)?;
                // Spec: create with the initial value unless the expiry is
                // all-ones.
                let initial = (exptime != u32::MAX).then_some(initial);
                let req = Request::new(op, key).with_delta(delta);
                Request { initial, ..req }.with_exptime(exptime)
            }
            BinOpcode::Touch => Request::new(op, key).with_exptime(be_u32(frame.extras).ok()?),
            // Extras carry the optional delay; anything but exactly 4
            // bytes means "now".
            BinOpcode::Flush => {
                Request::new(op, &[]).with_exptime(be_u32(frame.extras).unwrap_or(0))
            }
            BinOpcode::Stat | BinOpcode::Delete => Request::new(op, key),
            BinOpcode::Version | BinOpcode::Noop | BinOpcode::Quit => Request::new(op, &[]),
        })
    }

    /// Server: writes the response to `req` onto `out`, every frame of it
    /// straight from the reply. Nothing for a quiet miss; GetK/GetKQ echo
    /// the key; a statistics report is one frame per pair closed by an
    /// empty frame.
    pub fn encode_reply<D: AsRef<[u8]>>(
        req: &BinFrameRef<'_>,
        reply: &Reply<D>,
        out: &mut Vec<u8>,
    ) {
        let mut len = 0;
        response_frames(req, reply, |f| len += f.wire_len());
        out.reserve(len);
        response_frames(req, reply, |f| f.write_to(out));
    }

    /// Hands the frames answering `req`, in order, to `emit`.
    fn response_frames<D: AsRef<[u8]>>(
        req: &BinFrameRef<'_>,
        reply: &Reply<D>,
        mut emit: impl FnMut(BinFrameRef<'_>),
    ) {
        let (flags, number);
        let mut resp = BinFrameRef::response(req, BinStatus::Ok);
        let mut status = BinStatus::Ok;
        match reply {
            Reply::Value(Some(v)) => {
                flags = v.flags.to_be_bytes();
                (resp.extras, resp.cas, resp.value) = (&flags, v.cas, v.data.as_ref());
                if matches!(req.opcode, BinOpcode::GetK | BinOpcode::GetKQ) {
                    resp.key = req.key;
                }
            }
            Reply::Value(None) if req.opcode.is_quiet() => return,
            Reply::Value(None) | Reply::Found(false) | Reply::Number(Err(NotFound)) => {
                status = BinStatus::KeyNotFound
            }
            Reply::Stored { outcome, cas } => {
                status = lookup(&STORE_STATUS, *outcome).unwrap_or(BinStatus::NotStored);
                resp.cas = *cas;
            }
            Reply::Number(Ok(n)) => {
                number = n.to_be_bytes();
                resp.value = &number;
            }
            Reply::Number(Err(NotNumeric)) => status = BinStatus::NonNumeric,
            Reply::Version(s) if req.opcode == BinOpcode::Version => resp.value = s.as_bytes(),
            Reply::Stats(pairs) => {
                for (name, value) in pairs {
                    let (key, value) = (name.as_bytes(), value.as_bytes());
                    emit(BinFrameRef { key, value, ..resp });
                }
            }
            // No binary request is multi-key (multiget is a GetKQ train).
            Reply::Found(true) | Reply::Done | Reply::Version(_) | Reply::Values(_) => {}
        }
        resp.vbucket_or_status = status as u16;
        emit(resp);
    }

    /// Client: whether `frame` closes the reply to an `op` request. A
    /// statistics report ends with an empty frame, a multiget (a GetKQ
    /// train closed by Noop, or one GetK) with the first frame that is not
    /// a quiet hit; every other reply is one frame.
    fn ends_reply(op: McOp, frame: &BinFrameRef<'_>) -> bool {
        match op {
            McOp::Stats => frame.key.is_empty() && frame.value.is_empty(),
            McOp::Mget => frame.opcode != BinOpcode::GetKQ,
            _ => true,
        }
    }

    /// The frames back to back in `wire`, read in place, up to the first
    /// that is not whole and well formed.
    fn frames(mut wire: &[u8]) -> impl Iterator<Item = BinFrameRef<'_>> {
        std::iter::from_fn(move || {
            let (frame, used) = BinFrameRef::parse(wire).ok()??;
            wire = &wire[used..];
            Some(frame)
        })
    }

    /// Client: the reply to an `op` request over `keys` framed off the
    /// front of `buf`, and the bytes it took; `Ok(None)` until all of its
    /// frames are buffered. The frames are read in place: a hit's value is
    /// the one thing copied out, by `lend`.
    pub fn decode_reply<D>(
        op: McOp,
        keys: &[&[u8]],
        buf: &[u8],
        lend: impl Fn(&[u8]) -> D,
    ) -> Result<Framed<D>, McError> {
        let mut used = 0;
        let last = loop {
            let Some((frame, len)) =
                BinFrameRef::parse(&buf[used..]).map_err(|_| McError::Protocol)?
            else {
                return Ok(None);
            };
            used += len;
            if ends_reply(op, &frame) {
                break frame;
            }
        };
        let value = |f: &BinFrameRef<'_>| Value {
            flags: f.extras.try_into().map_or(0, u32::from_be_bytes),
            cas: f.cas,
            data: lend(f.value),
        };
        let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
        let whole = frames(&buf[..used]);
        if op == McOp::Mget {
            let mut cursor = KeyCursor { keys, next: 0 };
            let mut hits = Vec::new();
            for f in whole {
                match f.opcode {
                    BinOpcode::GetK | BinOpcode::GetKQ if f.status() == Some(BinStatus::Ok) => {
                        hits.push((cursor.index_of(f.key)?, value(&f)))
                    }
                    BinOpcode::GetK | BinOpcode::GetKQ | BinOpcode::Noop => {}
                    _ => return Err(McError::Protocol),
                }
            }
            return Ok(Some((Reply::Values(hits), used)));
        }
        if op == McOp::Stats {
            let named = whole.take_while(|f| !f.key.is_empty());
            let pairs = named.map(|f| (text(f.key), text(f.value))).collect();
            return Ok(Some((Reply::Stats(pairs), used)));
        }
        let reply = match (op, last.status().ok_or(McError::Protocol)?) {
            // GetK echoes the key: a hit for another one is not ours.
            (McOp::Get, BinStatus::Ok) if keys.first() != Some(&last.key) => {
                return Err(McError::Protocol)
            }
            (McOp::Get, BinStatus::Ok) => Reply::Value(Some(value(&last))),
            (McOp::Get, BinStatus::KeyNotFound) => Reply::Value(None),
            (op, status) if op.is_store() => {
                let outcome = lookup_rev(&STORE_STATUS, status).ok_or(McError::Protocol)?;
                Reply::Stored {
                    outcome,
                    cas: last.cas,
                }
            }
            (McOp::Delete | McOp::Touch, BinStatus::Ok) => Reply::Found(true),
            (McOp::Delete | McOp::Touch, BinStatus::KeyNotFound) => Reply::Found(false),
            (McOp::Incr | McOp::Decr, BinStatus::Ok) => {
                let n = last.value.try_into().map(u64::from_be_bytes);
                Reply::Number(Ok(n.map_err(|_| McError::Protocol)?))
            }
            (McOp::Incr | McOp::Decr, BinStatus::KeyNotFound) => Reply::Number(Err(NotFound)),
            (McOp::Incr | McOp::Decr, BinStatus::NonNumeric) => Reply::Number(Err(NotNumeric)),
            (McOp::FlushAll, BinStatus::Ok) => Reply::Done,
            (McOp::Version, BinStatus::Ok) => Reply::Version(text(last.value)),
            _ => return Err(McError::Protocol),
        };
        Ok(Some((reply, used)))
    }
}

#[cfg(test)]
mod tests;
