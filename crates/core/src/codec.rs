//! The per-wire codecs: each wire format's translation to and from the
//! canonical [`Request`]/[`Reply`] pair, in both directions.
//!
//! A server front-end calls `decode_request` → executor → `encode_reply`;
//! the client calls `encode_request` → round trip → `decode_reply`. The
//! wire types themselves (`ReqHeader`/`RespHeader`, `Command`/`Response`,
//! `BinFrame`) stay pure framing. What only a wire cares about —
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
        encode_mget_entry, mget_entry_len, next_mget_entry, ReqHeader, ReqHeaderRef, RespHeader,
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

    /// Server: the request AM 1 carried, borrowing keys from the header
    /// and the value from the AM data.
    pub fn decode_request<'a>(hdr: &'a ReqHeader, data: &'a [u8]) -> Request<'a> {
        Request::store(hdr.op, &hdr.keys, data, hdr.flags, hdr.exptime, hdr.cas)
            .with_delta(hdr.delta)
    }

    /// Server: the AM 2 header and data answering request `req_id`. A
    /// single hit's data is its bytes where the reply holds them (lent by
    /// the store), for the send to copy once into its network buffer.
    pub fn encode_reply<'r, D: AsRef<[u8]>>(
        req_id: u64,
        reply: &'r Reply<D>,
        keys: &[Vec<u8>],
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
                    encode_mget_entry(&mut entries, &keys[*i], v.flags, v.cas, &v.data);
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

    /// Client: the reply AM 2 carried for an `op` request over `keys`.
    pub fn decode_reply(
        op: McOp,
        keys: &[&[u8]],
        hdr: RespHeader,
        payload: Vec<u8>,
    ) -> Result<Reply, McError> {
        let (flags, cas) = (hdr.flags, hdr.cas);
        Ok(match (op, hdr.status) {
            (McOp::Get, RespStatus::Hit) => {
                let data = payload;
                Reply::Value(Some(Value { data, flags, cas }))
            }
            (McOp::Get, RespStatus::Miss) => Reply::Value(None),
            (McOp::Mget, _) => {
                let mut cursor = KeyCursor { keys, next: 0 };
                let mut rest = payload.as_slice();
                // The count is the peer's word: reserve what the payload
                // can hold of it.
                let fit = payload.len() / mget_entry_len(0, 0);
                let mut hits = Vec::with_capacity(fit.min(hdr.nvalues.into()));
                for _ in 0..hdr.nvalues {
                    let (key, flags, cas, value) =
                        next_mget_entry(&mut rest).ok_or(McError::Protocol)?;
                    let data = value.to_vec();
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
            (McOp::Version, _) => Reply::Version(String::from_utf8_lossy(&payload).into_owned()),
            (McOp::Stats, _) => {
                let text = String::from_utf8_lossy(&payload);
                let pairs = text.lines().map(|l| l.split_once(' ').unwrap_or((l, "")));
                Reply::Stats(pairs.map(|(k, v)| (k.into(), v.into())).collect())
            }
            _ => return Err(McError::Protocol),
        })
    }
}

/// The memcached text protocol, over TCP streams and UDP datagrams. Both
/// ends write a frame straight from `Request`/`Reply` into one buffer of
/// exactly its size, and the client reads its reply in place: a hit's
/// value is the one thing it copies out.
pub(crate) mod ascii {
    use super::*;
    use mcproto::{exact, Command, Response, ResponseLine as Line, ResponseLines, StoreVerb};

    const VERBS: [(StoreVerb, McOp); 5] = [
        (StoreVerb::Set, McOp::Set),
        (StoreVerb::Add, McOp::Add),
        (StoreVerb::Replace, McOp::Replace),
        (StoreVerb::Append, McOp::Append),
        (StoreVerb::Prepend, McOp::Prepend),
    ];

    /// Client: the command line (and data block) for `req`. Fetches always
    /// ask for CAS tokens (`gets`).
    pub fn encode_request<K: AsRef<[u8]>>(req: &Request<'_, K>) -> Vec<u8> {
        let &Request {
            flags,
            exptime,
            cas,
            delta,
            value,
            ..
        } = req;
        let key = Some(req.key());
        exact(|w| match req.op {
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

    /// Server: the request `cmd` asks for plus its `noreply` flag,
    /// borrowing keys and data from the command. `None` for `quit`, which
    /// the connection reader consumes.
    pub fn decode_request(cmd: &Command) -> Option<(Request<'_>, bool)> {
        use std::slice::from_ref;
        use Command::*;
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
        let req = match cmd {
            Store {
                verb,
                key,
                flags,
                exptime,
                data,
                ..
            } => {
                let op = lookup(&VERBS, *verb).unwrap_or(McOp::Set);
                Request::store(op, from_ref(key), data, *flags, *exptime, 0)
            }
            Cas {
                key,
                flags,
                exptime,
                cas,
                data,
                ..
            } => Request::store(McOp::Cas, from_ref(key), data, *flags, *exptime, *cas),
            Get { keys } | Gets { keys } if keys.len() == 1 => Request::new(McOp::Get, keys),
            Get { keys } | Gets { keys } => Request::new(McOp::Mget, keys),
            Delete { key, .. } => Request::new(McOp::Delete, from_ref(key)),
            Incr { key, delta, .. } => Request::new(McOp::Incr, from_ref(key)).with_delta(*delta),
            Decr { key, delta, .. } => Request::new(McOp::Decr, from_ref(key)).with_delta(*delta),
            Touch { key, exptime, .. } => {
                Request::new(McOp::Touch, from_ref(key)).with_exptime(*exptime)
            }
            FlushAll { delay, .. } => Request::new(McOp::FlushAll, &[]).with_exptime(*delay),
            Stats { arg } => Request::new(McOp::Stats, arg.as_slice()),
            Version => Request::new(McOp::Version, &[]),
            Quit => return None,
        };
        Some((req, noreply))
    }

    /// Server: the response to `cmd`. Hits are written into their `VALUE`
    /// stanzas behind the keys `cmd` names — a lent hit straight from the
    /// store; `get` omits the CAS token, `gets` carries it.
    pub fn encode_reply<D: AsRef<[u8]>>(cmd: &Command, reply: &Reply<D>) -> Vec<u8> {
        let (keys, with_cas) = match cmd {
            Command::Get { keys } => (keys.as_slice(), false),
            Command::Gets { keys } => (keys.as_slice(), true),
            _ => (&[][..], false),
        };
        let resp = match reply {
            Reply::Value(hit) => return stanzas(keys, with_cas, hit.iter().map(|v| (0, v))),
            Reply::Values(hits) => {
                return stanzas(keys, with_cas, hits.iter().map(|(i, v)| (*i, v)))
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
            Reply::Found(true) if matches!(cmd, Command::Touch { .. }) => Response::Touched,
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
        mcproto::encode_response(&resp)
    }

    /// The `VALUE` stanzas of `hits`, each behind the key it indexes, and
    /// the closing `END`.
    fn stanzas<'v, D: AsRef<[u8]> + 'v>(
        keys: &[Vec<u8>],
        with_cas: bool,
        hits: impl Iterator<Item = (usize, &'v Value<D>)> + Clone,
    ) -> Vec<u8> {
        exact(|w| {
            for (i, v) in hits.clone() {
                w.value(
                    &keys[i],
                    v.flags,
                    with_cas.then_some(v.cas),
                    v.data.as_ref(),
                );
            }
            w.status(b"END", None);
        })
    }

    /// Client: the reply at the front of `buf` to an `op` request over
    /// `keys`, and the bytes it takes; `Ok(None)` until all of it is
    /// buffered. Read in place: only a hit's value is copied out.
    pub fn decode_reply(
        op: McOp,
        keys: &[&[u8]],
        buf: &[u8],
    ) -> Result<Option<(Reply, usize)>, McError> {
        let value = |flags, data: &[u8], cas: Option<u64>| Value {
            data: data.to_vec(),
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
        arith_extras, parse_arith_extras, parse_store_extras, store_extras, BinFrame, BinFrameRef,
        BinOpcode, BinStatus,
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

    /// Client: the frames for `req`. A multi-key fetch becomes quiet GetKQ
    /// frames closed by a Noop (the protocol's signature optimization);
    /// everything else is one frame.
    pub fn encode_request<K: AsRef<[u8]>>(req: &Request<'_, K>) -> Vec<BinFrame> {
        let mut opaque = 1u32;
        let mut frame = |opcode: BinOpcode, key: &[u8]| {
            opaque += 1;
            let mut f = BinFrame::request(opcode, opaque);
            f.key = key.to_vec();
            f
        };
        let mut f = match req.op {
            McOp::Get | McOp::Mget if req.keys.len() == 1 => frame(BinOpcode::GetK, req.key()),
            McOp::Get | McOp::Mget => {
                let gets = req.keys.iter().map(|k| frame(BinOpcode::GetKQ, k.as_ref()));
                let mut out: Vec<BinFrame> = gets.collect();
                out.push(frame(BinOpcode::Noop, &[]));
                return out;
            }
            McOp::Cas => frame(BinOpcode::Set, req.key()),
            op => frame(lookup(&OPCODES, op).unwrap_or(BinOpcode::Noop), req.key()),
        };
        match req.op {
            McOp::Set | McOp::Add | McOp::Replace | McOp::Cas => {
                f.extras = store_extras(req.flags, req.exptime);
                f.cas = req.cas;
            }
            McOp::Incr | McOp::Decr => {
                // All-ones expiry means "fail on a missing key".
                let exptime = req.initial.map_or(u32::MAX, |_| req.exptime);
                f.extras = arith_extras(req.delta, req.initial.unwrap_or(0), exptime);
            }
            McOp::Touch => f.extras = req.exptime.to_be_bytes().to_vec(),
            McOp::FlushAll if req.exptime > 0 => f.extras = req.exptime.to_be_bytes().to_vec(),
            _ => {}
        }
        f.value = req.value.to_vec();
        vec![f]
    }

    /// Server: the request `frame` asks for, borrowing key and value from
    /// it; `None` when the extras are malformed (answered `InvalidArgs`).
    /// `Noop` occupies a worker like any keyless op, so it is served as
    /// `Version` and its payload dropped at encode.
    pub fn decode_request(frame: &BinFrame) -> Option<Request<'_>> {
        let key = std::slice::from_ref(&frame.key);
        let op = lookup_rev(&OPCODES, frame.opcode).unwrap_or(McOp::Version);
        let be_u32 = |b: &[u8]| b.try_into().map(u32::from_be_bytes);
        Some(match frame.opcode {
            BinOpcode::Get | BinOpcode::GetK | BinOpcode::GetQ | BinOpcode::GetKQ => {
                Request::new(McOp::Get, key)
            }
            BinOpcode::Set | BinOpcode::Add | BinOpcode::Replace => {
                let (flags, exptime) = parse_store_extras(&frame.extras)?;
                let op = if frame.cas != 0 { McOp::Cas } else { op };
                Request::store(op, key, &frame.value, flags, exptime, frame.cas)
            }
            BinOpcode::Append | BinOpcode::Prepend => {
                Request::store(op, key, &frame.value, 0, 0, 0)
            }
            BinOpcode::Increment | BinOpcode::Decrement => {
                let (delta, initial, exptime) = parse_arith_extras(&frame.extras)?;
                // Spec: create with the initial value unless the expiry is
                // all-ones.
                let initial = (exptime != u32::MAX).then_some(initial);
                let req = Request::new(op, key).with_delta(delta);
                Request { initial, ..req }.with_exptime(exptime)
            }
            BinOpcode::Touch => Request::new(op, key).with_exptime(be_u32(&frame.extras).ok()?),
            // Extras carry the optional delay; anything but exactly 4
            // bytes means "now".
            BinOpcode::Flush => {
                Request::new(op, &[]).with_exptime(be_u32(&frame.extras).unwrap_or(0))
            }
            BinOpcode::Stat | BinOpcode::Delete => Request::new(op, key),
            BinOpcode::Version | BinOpcode::Noop | BinOpcode::Quit => Request::new(op, &[]),
        })
    }

    /// Server: the response to `req`, every frame of it written straight
    /// from the reply into one buffer of exactly its size. Empty for a
    /// quiet miss; GetK/GetKQ echo the key; a statistics report is one
    /// frame per pair closed by an empty frame.
    pub fn encode_reply<D: AsRef<[u8]>>(req: &BinFrame, reply: &Reply<D>) -> Vec<u8> {
        let mut len = 0;
        response_frames(req, reply, |f| len += f.wire_len());
        let mut wire = Vec::with_capacity(len);
        response_frames(req, reply, |f| f.write_to(&mut wire));
        wire
    }

    /// Hands the frames answering `req`, in order, to `emit`.
    fn response_frames<D: AsRef<[u8]>>(
        req: &BinFrame,
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
                    resp.key = &req.key;
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
    pub fn ends_reply(op: McOp, frame: &BinFrame) -> bool {
        match op {
            McOp::Stats => frame.key.is_empty() && frame.value.is_empty(),
            McOp::Mget => frame.opcode != BinOpcode::GetKQ,
            _ => true,
        }
    }

    /// Client: the reply `frames` carry for an `op` request over `keys`.
    pub fn decode_reply(
        op: McOp,
        keys: &[&[u8]],
        mut frames: Vec<BinFrame>,
    ) -> Result<Reply, McError> {
        let value = |f: BinFrame| Value {
            flags: f.extras.as_slice().try_into().map_or(0, u32::from_be_bytes),
            cas: f.cas,
            data: f.value,
        };
        let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
        if op == McOp::Mget {
            let mut cursor = KeyCursor { keys, next: 0 };
            let mut hits = Vec::new();
            for f in frames {
                match f.opcode {
                    BinOpcode::GetK | BinOpcode::GetKQ if f.status() == Some(BinStatus::Ok) => {
                        hits.push((cursor.index_of(&f.key)?, value(f)))
                    }
                    BinOpcode::GetK | BinOpcode::GetKQ | BinOpcode::Noop => {}
                    _ => return Err(McError::Protocol),
                }
            }
            return Ok(Reply::Values(hits));
        }
        if op == McOp::Stats {
            let named = frames.iter().take_while(|f| !f.key.is_empty());
            return Ok(Reply::Stats(
                named.map(|f| (text(&f.key), text(&f.value))).collect(),
            ));
        }
        let f = frames.pop().ok_or(McError::Protocol)?;
        Ok(match (op, f.status().ok_or(McError::Protocol)?) {
            // GetK echoes the key: a hit for another one is not ours.
            (McOp::Get, BinStatus::Ok) if keys.first() != Some(&f.key.as_slice()) => {
                return Err(McError::Protocol)
            }
            (McOp::Get, BinStatus::Ok) => Reply::Value(Some(value(f))),
            (McOp::Get, BinStatus::KeyNotFound) => Reply::Value(None),
            (op, status) if op.is_store() => {
                let outcome = lookup_rev(&STORE_STATUS, status).ok_or(McError::Protocol)?;
                Reply::Stored {
                    outcome,
                    cas: f.cas,
                }
            }
            (McOp::Delete | McOp::Touch, BinStatus::Ok) => Reply::Found(true),
            (McOp::Delete | McOp::Touch, BinStatus::KeyNotFound) => Reply::Found(false),
            (McOp::Incr | McOp::Decr, BinStatus::Ok) => {
                let n = f.value.as_slice().try_into().map(u64::from_be_bytes);
                Reply::Number(Ok(n.map_err(|_| McError::Protocol)?))
            }
            (McOp::Incr | McOp::Decr, BinStatus::KeyNotFound) => Reply::Number(Err(NotFound)),
            (McOp::Incr | McOp::Decr, BinStatus::NonNumeric) => Reply::Number(Err(NotNumeric)),
            (McOp::FlushAll, BinStatus::Ok) => Reply::Done,
            (McOp::Version, BinStatus::Ok) => Reply::Version(text(&f.value)),
            _ => return Err(McError::Protocol),
        })
    }
}

#[cfg(test)]
mod tests;
