//! The per-wire codecs: each wire format's translation to and from the
//! canonical [`Request`]/[`Reply`] pair, in both directions.
//!
//! A server front-end calls `decode_request` → executor → `encode_reply`;
//! the client calls `encode_request` → round trip → `decode_reply`. The
//! wire types themselves (`ReqHeader`/`RespHeader`, `Command`/`Response`,
//! `BinFrame`) stay pure framing. What only a wire cares about —
//! `noreply`, `gets` vs `get`, quiet opcodes, key echo — is read off the
//! wire object here and never reaches the executor.

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

fn owned_keys<K: AsRef<[u8]>>(keys: &[K]) -> Vec<Vec<u8>> {
    keys.iter().map(|k| k.as_ref().to_vec()).collect()
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
    /// `req`. The header always carries at least one key slot (empty for
    /// keyless ops).
    pub fn encode_request<'a>(
        req: &Request<'a, &'a [u8]>,
        req_id: u64,
        ctr_id: u64,
    ) -> (ReqHeaderRef<'a, &'a [u8]>, Vec<u8>) {
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
        (hdr, req.value.to_vec())
    }

    /// Server: the request AM 1 carried, borrowing keys from the header
    /// and the value from the AM data.
    pub fn decode_request<'a>(hdr: &'a ReqHeader, data: &'a [u8]) -> Request<'a> {
        Request::store(hdr.op, &hdr.keys, data, hdr.flags, hdr.exptime, hdr.cas)
            .with_delta(hdr.delta)
    }

    /// Server: the AM 2 header and data answering request `req_id`. A
    /// single hit's bytes move into the payload uncopied.
    pub fn encode_reply(req_id: u64, reply: Reply, keys: &[Vec<u8>]) -> (RespHeader, Vec<u8>) {
        let mut hdr = RespHeader {
            req_id,
            status: RespStatus::Ok,
            flags: 0,
            cas: 0,
            number: 0,
            nvalues: 0,
        };
        let mut payload = Vec::new();
        match reply {
            Reply::Value(Some(v)) => {
                (hdr.status, hdr.flags, hdr.cas) = (RespStatus::Hit, v.flags, v.cas);
                payload = v.data;
            }
            Reply::Value(None) => hdr.status = RespStatus::Miss,
            Reply::Values(ref hits) => {
                (hdr.status, hdr.nvalues) = (RespStatus::Hit, hits.len() as u16);
                payload.reserve_exact(reply.payload_len(keys));
                for (i, v) in hits {
                    encode_mget_entry(&mut payload, &keys[*i], v.flags, v.cas, &v.data);
                }
            }
            Reply::Stored { outcome, cas } => {
                hdr.status = lookup(&STORE_STATUS, outcome).unwrap_or(RespStatus::NotStored);
                hdr.cas = cas;
            }
            Reply::Found(true) | Reply::Done => {}
            Reply::Found(false) | Reply::Number(Err(NotFound)) => hdr.status = RespStatus::NotFound,
            Reply::Number(Err(NotNumeric)) => hdr.status = RespStatus::NotNumeric,
            Reply::Number(Ok(n)) => (hdr.status, hdr.number) = (RespStatus::Number, n),
            Reply::Version(s) => payload = s.into_bytes(),
            Reply::Stats(pairs) => {
                let text: String = pairs.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
                payload = text.into_bytes();
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

/// The memcached text protocol, over TCP streams and UDP datagrams.
pub(crate) mod ascii {
    use super::*;
    use mcproto::{Command, GetValue, Response, StoreVerb};

    const VERBS: [(StoreVerb, McOp); 5] = [
        (StoreVerb::Set, McOp::Set),
        (StoreVerb::Add, McOp::Add),
        (StoreVerb::Replace, McOp::Replace),
        (StoreVerb::Append, McOp::Append),
        (StoreVerb::Prepend, McOp::Prepend),
    ];

    /// Client: the command line (and data block) for `req`. Fetches always
    /// ask for CAS tokens (`gets`).
    pub fn encode_request<K: AsRef<[u8]>>(req: &Request<'_, K>) -> Command {
        let &Request {
            flags,
            exptime,
            cas,
            delta,
            ..
        } = req;
        let (key, data) = (|| req.key().to_vec(), || req.value.to_vec());
        let noreply = false;
        match req.op {
            McOp::Get | McOp::Mget => Command::Gets {
                keys: owned_keys(req.keys),
            },
            McOp::Cas => Command::Cas {
                key: key(),
                flags,
                exptime,
                cas,
                data: data(),
                noreply,
            },
            McOp::Delete => Command::Delete {
                key: key(),
                noreply,
            },
            McOp::Incr => Command::Incr {
                key: key(),
                delta,
                noreply,
            },
            McOp::Decr => Command::Decr {
                key: key(),
                delta,
                noreply,
            },
            McOp::Touch => Command::Touch {
                key: key(),
                exptime,
                noreply,
            },
            McOp::FlushAll => Command::FlushAll {
                delay: exptime,
                noreply,
            },
            McOp::Version => Command::Version,
            McOp::Stats => Command::Stats {
                arg: req.keys.first().map(|k| k.as_ref().to_vec()),
            },
            op => {
                let verb = lookup_rev(&VERBS, op).unwrap_or(StoreVerb::Set);
                Command::Store {
                    verb,
                    key: key(),
                    flags,
                    exptime,
                    data: data(),
                    noreply,
                }
            }
        }
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

    /// Server: the response to `cmd` (consumed: hit keys move into their
    /// `VALUE` stanzas). `get` omits the CAS token, `gets` carries it.
    pub fn encode_reply(cmd: Command, reply: Reply) -> Response {
        let touched = matches!(cmd, Command::Touch { .. });
        let (mut keys, with_cas) = match cmd {
            Command::Get { keys } => (keys, false),
            Command::Gets { keys } => (keys, true),
            _ => (Vec::new(), false),
        };
        let mut stanza = |(i, v): (usize, Value)| GetValue {
            key: std::mem::take(&mut keys[i]),
            flags: v.flags,
            cas: with_cas.then_some(v.cas),
            data: v.data,
        };
        match reply {
            Reply::Value(hit) => {
                Response::Values(hit.map(|v| stanza((0, v))).into_iter().collect())
            }
            Reply::Values(hits) => Response::Values(hits.into_iter().map(stanza).collect()),
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
            Reply::Found(true) if touched => Response::Touched,
            Reply::Found(true) => Response::Deleted,
            Reply::Found(false) | Reply::Number(Err(NotFound)) => Response::NotFound,
            Reply::Number(Ok(n)) => Response::Number(n),
            Reply::Number(Err(NotNumeric)) => {
                Response::ClientError("cannot increment or decrement non-numeric value".into())
            }
            Reply::Done => Response::Ok,
            Reply::Version(s) => Response::Version(s),
            Reply::Stats(pairs) => Response::Stats(pairs),
        }
    }

    /// Client: the reply `resp` carries for an `op` request over `keys`.
    pub fn decode_reply(op: McOp, keys: &[&[u8]], resp: Response) -> Result<Reply, McError> {
        let value = |v: GetValue| Value {
            data: v.data,
            flags: v.flags,
            cas: v.cas.unwrap_or(0),
        };
        Ok(match (op, resp) {
            (McOp::Get, Response::Values(mut vs)) => match vs.pop() {
                // `VALUE <key>` echoes the key: a hit for another is not ours.
                Some(v) if keys.first() != Some(&v.key.as_slice()) => {
                    return Err(McError::Protocol)
                }
                hit => Reply::Value(hit.map(value)),
            },
            (McOp::Mget, Response::Values(vs)) => {
                let mut cursor = KeyCursor { keys, next: 0 };
                let hits = vs
                    .into_iter()
                    .map(|v| Ok((cursor.index_of(&v.key)?, value(v))));
                Reply::Values(hits.collect::<Result<_, McError>>()?)
            }
            (op, resp) if op.is_store() => {
                let outcome = match resp {
                    Response::Stored => SetOutcome::Stored,
                    Response::NotStored => SetOutcome::NotStored,
                    Response::Exists => SetOutcome::Exists,
                    Response::NotFound => SetOutcome::NotFound,
                    Response::ServerError(m) if m.contains("too large") => SetOutcome::TooLarge,
                    Response::ServerError(_) => SetOutcome::OutOfMemory,
                    _ => return Err(McError::Protocol),
                };
                Reply::Stored { outcome, cas: 0 }
            }
            (McOp::Delete, Response::Deleted) | (McOp::Touch, Response::Touched) => {
                Reply::Found(true)
            }
            (McOp::Delete | McOp::Touch, Response::NotFound) => Reply::Found(false),
            (McOp::Incr | McOp::Decr, Response::Number(n)) => Reply::Number(Ok(n)),
            (McOp::Incr | McOp::Decr, Response::NotFound) => Reply::Number(Err(NotFound)),
            (McOp::Incr | McOp::Decr, Response::ClientError(_)) => Reply::Number(Err(NotNumeric)),
            (McOp::FlushAll, Response::Ok) => Reply::Done,
            (McOp::Version, Response::Version(v)) => Reply::Version(v),
            (McOp::Stats, Response::Stats(pairs)) => Reply::Stats(pairs),
            // A bare END (empty report) parses as an empty value list; the
            // two are indistinguishable on the wire.
            (McOp::Stats, Response::Values(vs)) if vs.is_empty() => Reply::Stats(Vec::new()),
            _ => return Err(McError::Protocol),
        })
    }
}

/// The memcached binary protocol over TCP streams.
pub(crate) mod binary {
    use super::*;
    use mcproto::{
        arith_extras, parse_arith_extras, parse_store_extras, store_extras, BinFrame, BinOpcode,
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

    /// Server: the frames answering `req` (consumed: GetK/GetKQ echo its
    /// key). Empty for a quiet miss; a statistics report is one frame per
    /// pair closed by an empty frame.
    pub fn encode_reply(req: BinFrame, reply: Reply) -> Vec<BinFrame> {
        let mut resp = BinFrame::response(&req, BinStatus::Ok);
        let mut status = BinStatus::Ok;
        let mut frames = Vec::new();
        match reply {
            Reply::Value(Some(v)) => {
                resp.extras = v.flags.to_be_bytes().to_vec();
                resp.cas = v.cas;
                resp.value = v.data;
                if matches!(req.opcode, BinOpcode::GetK | BinOpcode::GetKQ) {
                    resp.key = req.key;
                }
            }
            Reply::Value(None) if req.opcode.is_quiet() => return frames,
            Reply::Value(None) | Reply::Found(false) | Reply::Number(Err(NotFound)) => {
                status = BinStatus::KeyNotFound
            }
            Reply::Stored { outcome, cas } => {
                status = lookup(&STORE_STATUS, outcome).unwrap_or(BinStatus::NotStored);
                resp.cas = cas;
            }
            Reply::Number(Ok(n)) => resp.value = n.to_be_bytes().to_vec(),
            Reply::Number(Err(NotNumeric)) => status = BinStatus::NonNumeric,
            Reply::Version(s) if req.opcode == BinOpcode::Version => resp.value = s.into_bytes(),
            Reply::Stats(pairs) => frames.extend(pairs.into_iter().map(|(name, value)| {
                let mut f = BinFrame::response(&req, BinStatus::Ok);
                (f.key, f.value) = (name.into_bytes(), value.into_bytes());
                f
            })),
            // No binary request is multi-key (multiget is a GetKQ train).
            Reply::Found(true) | Reply::Done | Reply::Version(_) | Reply::Values(_) => {}
        }
        resp.vbucket_or_status = status as u16;
        frames.push(resp);
        frames
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
