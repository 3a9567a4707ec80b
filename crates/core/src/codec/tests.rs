//! Each wire's codec is its own inverse: what the client encodes the
//! server decodes to the same request, and what the server encodes the
//! client decodes to the same reply.

use std::borrow::Cow;

use mcproto::{
    encode_command, encode_response, parse_command, parse_response, BinFrame, BinOpcode, Command,
    GetValue, Response, StoreVerb,
};
use mcstore::{NumericError, SetOutcome, Value};

use super::{ascii, binary, ucr};
use crate::am_wire::{McOp, ReqHeader, RespHeader};
use crate::request::{Reply, Request};

const KEYS: [&[u8]; 3] = [b"alpha", b"beta", b"gamma"];

/// One request of every op, as a client builds them.
fn requests() -> Vec<Request<'static, &'static [u8]>> {
    use McOp::*;
    let one = &KEYS[..1];
    let mut all = vec![
        Request::new(Get, one),
        Request::new(Mget, &KEYS),
        Request::store(Cas, one, b"value", 7, 60, 99),
        Request::new(Delete, one),
        Request::new(Incr, one).with_delta(5),
        Request::new(Decr, one).with_delta(6),
        Request::new(Touch, one).with_exptime(30),
        Request::new(FlushAll, &[]),
        Request::new(FlushAll, &[]).with_exptime(4),
        Request::new(Version, &[]),
        Request::new(Stats, &[]),
        Request::new(Stats, &KEYS[1..2]),
    ];
    for op in [Set, Add, Replace] {
        all.push(Request::store(op, one, b"value", 7, 60, 0));
    }
    for op in [Append, Prepend] {
        all.push(Request::store(op, one, b"value", 0, 0, 0));
    }
    all
}

/// A request in comparable form: `(op, keys, value, flags, exptime, cas,
/// delta, initial)`.
type Fields = (McOp, Vec<Vec<u8>>, Vec<u8>, u32, u32, u64, u64, Option<u64>);

fn fields<K: AsRef<[u8]>>(req: &Request<'_, K>) -> Fields {
    let mut keys: Vec<Vec<u8>> = req.keys.iter().map(|k| k.as_ref().to_vec()).collect();
    if keys == [Vec::new()] {
        // UCR headers and binary frames always have a key slot: a keyless
        // op travels with it empty.
        keys.clear();
    }
    let value = req.value.to_vec();
    (
        req.op,
        keys,
        value,
        req.flags,
        req.exptime,
        req.cas,
        req.delta,
        req.initial,
    )
}

#[test]
fn requests_survive_every_wire() {
    for req in requests() {
        let want = fields(&req);

        let (hdr, data) = ucr::encode_request(&req, 1, 2);
        let hdr = ReqHeader::decode(&hdr.encode()).expect("header decodes");
        let got = ucr::decode_request(&hdr, data);
        assert_eq!(fields(&got), want, "ucr {:?}", req.op);

        let wire = ascii::encode_request(&req);
        let (cmd, used) = parse_command(&wire).unwrap().expect("complete command");
        assert_eq!(used, wire.len());
        let (got, noreply) = ascii::decode_request(&cmd).expect("not quit");
        assert!(!noreply);
        assert_eq!(fields(&got), want, "ascii {:?}", req.op);

        let frames = binary::encode_request(&req);
        if req.op == McOp::Mget {
            // A GetKQ per key, closed by a Noop.
            assert_eq!(frames.len(), req.keys.len() + 1);
            continue;
        }
        let (frame, _) = BinFrame::parse(&frames[0].encode()).unwrap().unwrap();
        let got = binary::decode_request(&frame).expect("well-formed extras");
        let mut want = want;
        if matches!(req.op, McOp::Incr | McOp::Decr) {
            // "No initial value" travels as the all-ones expiry.
            want.4 = u32::MAX;
        }
        assert_eq!(fields(&got), want, "binary {:?}", req.op);
    }
}

fn value(data: &[u8], flags: u32, cas: u64) -> Value {
    Value {
        data: data.to_vec(),
        flags,
        cas,
    }
}

/// One reply of every shape, with the op that asked for it.
fn replies() -> Vec<(McOp, Reply)> {
    use McOp::*;
    let mut all = vec![
        (Get, Reply::Value(Some(value(b"payload", 3, 41)))),
        (Get, Reply::Value(None)),
        (
            Mget,
            Reply::Values(vec![(0, value(b"a", 1, 5)), (2, value(b"ccc", 0, 6))]),
        ),
        (Mget, Reply::Values(Vec::new())),
        (Delete, Reply::Found(true)),
        (Delete, Reply::Found(false)),
        (Touch, Reply::Found(true)),
        (Touch, Reply::Found(false)),
        (Incr, Reply::Number(Ok(u64::MAX))),
        (Decr, Reply::Number(Err(NumericError::NotFound))),
        (Incr, Reply::Number(Err(NumericError::NotNumeric))),
        (FlushAll, Reply::Done),
        (Version, Reply::Version("1.4.5-test".to_string())),
        (Stats, Reply::Stats(Vec::new())),
        (
            Stats,
            Reply::Stats(vec![
                ("pid".to_string(), "7".to_string()),
                ("#".to_string(), "HELP a line with spaces".to_string()),
            ]),
        ),
    ];
    for outcome in [
        SetOutcome::Stored,
        SetOutcome::NotStored,
        SetOutcome::Exists,
        SetOutcome::NotFound,
        SetOutcome::TooLarge,
        SetOutcome::OutOfMemory,
    ] {
        let cas = if outcome == SetOutcome::Stored { 17 } else { 0 };
        all.push((Cas, Reply::Stored { outcome, cas }));
    }
    all
}

fn copy(reply: &Reply) -> Reply {
    match reply {
        Reply::Value(hit) => Reply::Value(hit.clone()),
        Reply::Values(hits) => Reply::Values(hits.clone()),
        Reply::Stored { outcome, cas } => Reply::Stored {
            outcome: *outcome,
            cas: *cas,
        },
        Reply::Found(hit) => Reply::Found(*hit),
        Reply::Number(n) => Reply::Number(*n),
        Reply::Done => Reply::Done,
        Reply::Version(v) => Reply::Version(v.clone()),
        Reply::Stats(pairs) => Reply::Stats(pairs.clone()),
    }
}

#[test]
fn replies_survive_every_wire() {
    let server_keys: Vec<Vec<u8>> = KEYS.iter().map(|k| k.to_vec()).collect();
    for (op, reply) in replies() {
        let nkeys = if op == McOp::Mget { 3 } else { 1 };
        let keys = &KEYS[..nkeys];
        let req = Request::new(op, keys);

        let (hdr, payload) = ucr::encode_reply(9, &reply, &server_keys);
        assert_eq!(payload.len(), reply.payload_len(keys), "{op:?} {reply:?}");
        let hdr = RespHeader::decode(&hdr.encode()).expect("header decodes");
        let got = ucr::decode_reply(op, keys, hdr, payload.into_owned()).unwrap();
        assert_eq!(got, reply, "ucr {op:?}");

        // ASCII carries no CAS token on a store.
        let want = match copy(&reply) {
            Reply::Stored { outcome, .. } => Reply::Stored { outcome, cas: 0 },
            other => other,
        };
        let wire = ascii::encode_reply(&server_command(&req).expect("parses"), &reply);
        let (got, used) = ascii::decode_reply(op, keys, &wire)
            .unwrap()
            .expect("complete reply");
        assert_eq!(used, wire.len());
        assert_eq!(got, want, "ascii {op:?}");
        for short in 0..wire.len() {
            let partial = ascii::decode_reply(op, keys, &wire[..short]);
            assert_eq!(partial, Ok(None), "ascii {op:?} cut at {short}");
        }

        if op == McOp::Mget {
            continue; // a binary multiget is a train of single-key gets
        }
        let frame = binary::encode_request(&req).remove(0);
        let wire = binary::encode_reply(&frame, &reply);
        let got = binary::decode_reply(op, keys, frames_of(&wire)).unwrap();
        assert_eq!(got, reply, "binary {op:?}");
    }
}

/// The frames back to back in `wire`, parsed; every byte belongs to one.
fn frames_of(wire: &[u8]) -> Vec<BinFrame> {
    let mut rest = wire;
    let mut frames = Vec::new();
    while let Ok(Some((frame, used))) = BinFrame::parse(rest) {
        frames.push(frame);
        rest = &rest[used..];
    }
    assert!(rest.is_empty(), "bytes outside any frame: {rest:?}");
    frames
}

/// A `Get` hit the store lends is written as the same hit owned would be,
/// on every wire.
#[test]
fn a_lent_hit_is_written_as_an_owned_one() {
    let server_keys: Vec<Vec<u8>> = KEYS.iter().map(|k| k.to_vec()).collect();
    let owned = Reply::Value(Some(value(b"payload", 3, 41)));
    let lent = Reply::Value(Some(Value {
        data: &b"payload"[..],
        flags: 3,
        cas: 41,
    }));
    let (owned_hdr, owned_data) = ucr::encode_reply(9, &owned, &server_keys);
    let (lent_hdr, lent_data) = ucr::encode_reply(9, &lent, &server_keys);
    assert_eq!(lent_hdr.encode(), owned_hdr.encode());
    assert_eq!(lent_data, owned_data);
    assert!(
        matches!(lent_data, Cow::Borrowed(_)),
        "the hit is not copied"
    );
    let cmd = server_command(&Request::new(McOp::Get, &KEYS[..1])).expect("parses");
    assert_eq!(
        ascii::encode_reply(&cmd, &lent),
        ascii::encode_reply(&cmd, &owned)
    );
    let frame = binary::encode_request(&Request::new(McOp::Get, &KEYS[..1])).remove(0);
    assert_eq!(
        binary::encode_reply(&frame, &lent),
        binary::encode_reply(&frame, &owned)
    );
}

/// The frames the binary encoder once built for a reply to `req`, each
/// encoded on its own: its bytes, concatenated, must not move.
fn typed_frames(req: &BinFrame, reply: Reply) -> Vec<BinFrame> {
    use mcproto::BinStatus;
    let mut resp = BinFrame::response(req, BinStatus::Ok);
    let mut status = BinStatus::Ok;
    let mut frames = Vec::new();
    match reply {
        Reply::Value(Some(v)) => {
            resp.extras = v.flags.to_be_bytes().to_vec();
            resp.cas = v.cas;
            resp.value = v.data;
            if matches!(req.opcode, BinOpcode::GetK | BinOpcode::GetKQ) {
                resp.key = req.key.clone();
            }
        }
        Reply::Value(None) if req.opcode.is_quiet() => return frames,
        Reply::Value(None) | Reply::Found(false) | Reply::Number(Err(NumericError::NotFound)) => {
            status = BinStatus::KeyNotFound
        }
        Reply::Stored { outcome, cas } => {
            status = match outcome {
                SetOutcome::Stored => BinStatus::Ok,
                SetOutcome::NotStored => BinStatus::NotStored,
                SetOutcome::Exists => BinStatus::KeyExists,
                SetOutcome::NotFound => BinStatus::KeyNotFound,
                SetOutcome::TooLarge => BinStatus::TooLarge,
                SetOutcome::OutOfMemory => BinStatus::OutOfMemory,
            };
            resp.cas = cas;
        }
        Reply::Number(Ok(n)) => resp.value = n.to_be_bytes().to_vec(),
        Reply::Number(Err(NumericError::NotNumeric)) => status = BinStatus::NonNumeric,
        Reply::Version(s) if req.opcode == BinOpcode::Version => resp.value = s.into_bytes(),
        Reply::Stats(pairs) => frames.extend(pairs.into_iter().map(|(name, value)| {
            let mut f = BinFrame::response(req, BinStatus::Ok);
            (f.key, f.value) = (name.into_bytes(), value.into_bytes());
            f
        })),
        Reply::Found(true) | Reply::Done | Reply::Version(_) | Reply::Values(_) => {}
    }
    resp.vbucket_or_status = status as u16;
    frames.push(resp);
    frames
}

/// Every binary reply is written frame by frame into one buffer, and its
/// bytes are those of the frames the encoder once built: every reply shape
/// against the frame the client sends for its op, plus the four fetch
/// opcodes (a quiet miss is silence, GetK and GetKQ echo the key) and a
/// Noop answered as a `Version` (no payload).
#[test]
fn binary_replies_are_the_bytes_of_their_typed_frames() {
    let mut shapes = 0;
    for (op, reply) in replies() {
        let frame = binary::encode_request(&Request::new(op, &KEYS[..1])).remove(0);
        let mut frames = vec![frame.clone()];
        let fetches = [
            BinOpcode::Get,
            BinOpcode::GetK,
            BinOpcode::GetQ,
            BinOpcode::GetKQ,
        ];
        match op {
            McOp::Get => frames.extend(fetches.map(|opcode| BinFrame {
                opcode,
                ..frame.clone()
            })),
            McOp::Version => frames.push(BinFrame::request(BinOpcode::Noop, 5)),
            _ => {}
        }
        for req in frames {
            let want: Vec<u8> = typed_frames(&req, copy(&reply))
                .iter()
                .flat_map(BinFrame::encode)
                .collect();
            let wire = binary::encode_reply(&req, &reply);
            assert_eq!(wire, want, "{:?} {reply:?}", req.opcode);
            assert_eq!(wire.capacity(), wire.len(), "{:?} {reply:?}", req.opcode);
            shapes += 1;
        }
    }
    assert_eq!(shapes, replies().len() + 2 * 4 + 1);
    // The shapes named above, as the client reads them.
    let get = |opcode, reply: &Reply| {
        let mut req = BinFrame::request(opcode, 3);
        req.key = KEYS[0].to_vec();
        frames_of(&binary::encode_reply(&req, reply))
    };
    assert!(get(BinOpcode::GetKQ, &Reply::Value(None)).is_empty());
    assert!(get(BinOpcode::GetQ, &Reply::Value(None)).is_empty());
    let hit = Reply::Value(Some(value(b"v", 1, 2)));
    assert_eq!(get(BinOpcode::GetK, &hit)[0].key, KEYS[0]);
    assert_eq!(get(BinOpcode::GetKQ, &hit)[0].key, KEYS[0]);
    assert!(get(BinOpcode::Get, &hit)[0].key.is_empty());
    let stats = Reply::Stats(vec![
        ("pid".into(), "7".into()),
        ("uptime".into(), "9".into()),
    ]);
    let train = get(BinOpcode::Stat, &stats);
    assert_eq!(train.len(), 3);
    assert_eq!(
        (&train[1].key[..], &train[1].value[..]),
        (&b"uptime"[..], &b"9"[..])
    );
    assert!(
        train[2].key.is_empty() && train[2].value.is_empty(),
        "closed by an empty frame"
    );
}

/// The command a server parses off what the client wrote for `req`.
fn server_command(req: &Request<'_, &[u8]>) -> Option<Command> {
    let wire = ascii::encode_request(req);
    parse_command(&wire).ok().flatten().map(|(cmd, _)| cmd)
}

/// The ASCII client once built a `Command` from a request and encoded
/// that; it writes straight from the request now, and the bytes must not
/// move.
fn typed_command(req: &Request<'_, &[u8]>) -> Command {
    let (key, data) = (req.key().to_vec(), req.value.to_vec());
    let (flags, exptime, noreply) = (req.flags, req.exptime, false);
    match req.op {
        McOp::Get | McOp::Mget => Command::Gets {
            keys: req.keys.iter().map(|k| k.to_vec()).collect(),
        },
        McOp::Cas => Command::Cas {
            key,
            flags,
            exptime,
            cas: req.cas,
            data,
            noreply,
        },
        McOp::Delete => Command::Delete { key, noreply },
        McOp::Incr => Command::Incr {
            key,
            delta: req.delta,
            noreply,
        },
        McOp::Decr => Command::Decr {
            key,
            delta: req.delta,
            noreply,
        },
        McOp::Touch => Command::Touch {
            key,
            exptime,
            noreply,
        },
        McOp::FlushAll => Command::FlushAll {
            delay: exptime,
            noreply,
        },
        McOp::Version => Command::Version,
        McOp::Stats => Command::Stats {
            arg: req.keys.first().map(|k| k.to_vec()),
        },
        op => Command::Store {
            verb: match op {
                McOp::Add => StoreVerb::Add,
                McOp::Replace => StoreVerb::Replace,
                McOp::Append => StoreVerb::Append,
                McOp::Prepend => StoreVerb::Prepend,
                _ => StoreVerb::Set,
            },
            key,
            flags,
            exptime,
            data,
            noreply,
        },
    }
}

/// Likewise the server's `Response` for a reply to `cmd`.
fn typed_response(cmd: &Command, reply: Reply) -> Response {
    let (keys, with_cas) = match cmd {
        Command::Get { keys } => (keys.as_slice(), false),
        Command::Gets { keys } => (keys.as_slice(), true),
        _ => (&[][..], false),
    };
    let stanza = |(i, v): (usize, Value)| GetValue {
        key: keys[i].clone(),
        flags: v.flags,
        cas: with_cas.then_some(v.cas),
        data: v.data,
    };
    let text = |s: &str| s.to_string();
    match reply {
        Reply::Value(hit) => Response::Values(hit.map(|v| stanza((0, v))).into_iter().collect()),
        Reply::Values(hits) => Response::Values(hits.into_iter().map(stanza).collect()),
        Reply::Stored { outcome, .. } => match outcome {
            SetOutcome::Stored => Response::Stored,
            SetOutcome::NotStored => Response::NotStored,
            SetOutcome::Exists => Response::Exists,
            SetOutcome::NotFound => Response::NotFound,
            SetOutcome::TooLarge => Response::ServerError(text("object too large for cache")),
            SetOutcome::OutOfMemory => Response::ServerError(text("out of memory storing object")),
        },
        Reply::Found(true) if matches!(cmd, Command::Touch { .. }) => Response::Touched,
        Reply::Found(true) => Response::Deleted,
        Reply::Found(false) | Reply::Number(Err(NumericError::NotFound)) => Response::NotFound,
        Reply::Number(Ok(n)) => Response::Number(n),
        Reply::Number(Err(NumericError::NotNumeric)) => {
            Response::ClientError(text("cannot increment or decrement non-numeric value"))
        }
        Reply::Done => Response::Ok,
        Reply::Version(s) => Response::Version(s),
        Reply::Stats(pairs) => Response::Stats(pairs),
    }
}

#[test]
fn ascii_requests_are_the_bytes_of_their_typed_commands() {
    let mut all = requests();
    // Fetches with one key and with several, whichever op asks.
    all.push(Request::new(McOp::Get, &KEYS));
    all.push(Request::new(McOp::Mget, &KEYS[..1]));
    assert!(McOp::ALL.iter().all(|op| all.iter().any(|r| r.op == *op)));
    for req in &all {
        let want = encode_command(&typed_command(req));
        assert_eq!(
            ascii::encode_request(req),
            want,
            "{:?} {:?}",
            req.op,
            req.keys
        );
    }
}

#[test]
fn ascii_replies_are_the_bytes_of_their_typed_responses() {
    for (op, reply) in replies() {
        let keys = &KEYS[..if op == McOp::Mget { 3 } else { 1 }];
        // The client asks with `gets`; a `get` leaves the CAS token out.
        let mut cmds = vec![server_command(&Request::new(op, keys)).expect("parses")];
        if matches!(op, McOp::Get | McOp::Mget) {
            let keys = keys.iter().map(|k| k.to_vec()).collect();
            cmds.push(Command::Get { keys });
        }
        for cmd in cmds {
            let want = encode_response(&typed_response(&cmd, copy(&reply)));
            let got = ascii::encode_reply(&cmd, &reply);
            assert_eq!(got, want, "{op:?} {reply:?} {cmd:?}");
        }
    }
}

/// What a peer can send instead of a message: arbitrary bytes, and every
/// valid message of every wire with bytes overwritten, cut short or
/// followed by junk. Every decoder of the wire layer, and the codecs
/// behind it, must return — refusing or accepting — without panicking,
/// without claiming more than it was given, and without reserving more
/// entries than the bytes it was given could hold.
mod hostile_bytes {
    use proptest::prelude::*;

    use super::*;
    use crate::am_wire::{next_mget_entry, DirReq, DirResp};

    /// One valid message of every kind on every wire, as bytes.
    fn valid_wires() -> Vec<Vec<u8>> {
        let server_keys: Vec<Vec<u8>> = KEYS.iter().map(|k| k.to_vec()).collect();
        let mut all = vec![
            DirReq {
                req_id: 3,
                ctr_id: 4,
                key: b"alpha".to_vec(),
            }
            .encode(),
            DirResp::miss(5).encode(),
        ];
        for req in requests() {
            let (hdr, data) = ucr::encode_request(&req, 1, 2);
            all.extend([hdr.encode(), data.to_vec()]);
            all.push(ascii::encode_request(&req));
            all.extend(binary::encode_request(&req).iter().map(BinFrame::encode));
        }
        for (op, reply) in replies() {
            let (hdr, payload) = ucr::encode_reply(9, &reply, &server_keys);
            all.extend([hdr.encode().to_vec(), payload.into_owned()]);
            let req = Request::new(op, &KEYS[..]);
            if let Some(cmd) = server_command(&req) {
                all.push(ascii::encode_reply(&cmd, &reply));
            }
            let frame = binary::encode_request(&Request::new(op, &KEYS[..1])).remove(0);
            let wire = binary::encode_reply(&frame, &reply);
            all.extend(frames_of(&wire).iter().map(BinFrame::encode));
        }
        all
    }

    fn mangled() -> impl Strategy<Value = Vec<u8>> {
        let edits = proptest::collection::vec((any::<usize>(), any::<u8>()), 0..4);
        let junk = proptest::collection::vec(any::<u8>(), 0..8);
        (any::<usize>(), edits, any::<usize>(), junk).prop_map(|(pick, edits, cut, junk)| {
            let wires = valid_wires();
            let mut wire = wires[pick % wires.len()].clone();
            for (at, byte) in edits {
                if let Some(last) = wire.len().checked_sub(1) {
                    wire[at % (last + 1)] = byte;
                }
            }
            if cut % 3 == 0 {
                wire.truncate(cut / 3 % (wire.len() + 1));
            }
            wire.extend(junk);
            wire
        })
    }

    /// Feeds `wire` to every decoder and its decoded objects on through
    /// the codecs, as a request and as the reply to every verb.
    fn survive(wire: &[u8]) -> Result<(), String> {
        let keys = &KEYS[..];
        if let Some(hdr) = ReqHeader::decode(wire) {
            let held = hdr.keys.iter().map(Vec::len).sum::<usize>();
            prop_assert!(hdr.keys.capacity() + held <= wire.len());
            ucr::decode_request(&hdr, wire);
        }
        // A reply header is 32 bytes; what follows is its payload.
        let (head, payload) = wire.split_at(wire.len().min(32));
        if let Some(hdr) = RespHeader::decode(head) {
            for op in McOp::ALL {
                if let Ok(Reply::Values(hits)) = ucr::decode_reply(op, keys, hdr, payload.to_vec())
                {
                    prop_assert!(hits.capacity() <= payload.len());
                }
            }
        }
        if let Some(req) = DirReq::decode(wire) {
            prop_assert!(req.key.len() <= wire.len());
        }
        DirResp::decode(wire);
        let mut rest = wire;
        while let Some((key, _, _, value)) = next_mget_entry(&mut rest) {
            prop_assert!(key.len() + value.len() + rest.len() < wire.len());
        }
        if let Ok(Some((cmd, used))) = parse_command(wire) {
            prop_assert!(used <= wire.len());
            ascii::decode_request(&cmd);
        }
        if let Ok(Some((_, used))) = parse_response(wire) {
            prop_assert!(used <= wire.len());
        }
        for op in McOp::ALL {
            if let Ok(Some((_, used))) = ascii::decode_reply(op, keys, wire) {
                prop_assert!(used <= wire.len());
            }
        }
        if let Ok(Some((frame, used))) = BinFrame::parse(wire) {
            prop_assert!(used <= wire.len());
            binary::decode_request(&frame);
            for op in McOp::ALL {
                let _ = binary::decode_reply(op, keys, vec![frame.clone(), frame.clone()]);
            }
        }
        Ok(())
    }

    /// A hit that echoes another key is not the answer to this `Get`: a
    /// well-formed reply, off by one on its stream.
    #[test]
    fn a_get_reply_naming_another_key_is_refused() {
        let (asked, other) = (&KEYS[1..2], &KEYS[..1]);
        let hit = Reply::Value(Some(value(b"v", 1, 2)));
        let refused = crate::client::McError::Protocol;

        let wire = ascii::encode_reply(
            &server_command(&Request::new(McOp::Get, asked)).expect("parses"),
            &hit,
        );
        let ours = ascii::decode_reply(McOp::Get, asked, &wire);
        assert_eq!(ours, Ok(Some((copy(&hit), wire.len()))));
        assert_eq!(
            ascii::decode_reply(McOp::Get, other, &wire),
            Err(refused.clone())
        );

        let frame = binary::encode_request(&Request::new(McOp::Get, asked)).remove(0);
        let frames = frames_of(&binary::encode_reply(&frame, &hit));
        let ours = binary::decode_reply(McOp::Get, asked, frames.clone());
        assert_eq!(ours, Ok(hit));
        assert_eq!(binary::decode_reply(McOp::Get, other, frames), Err(refused));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn decoders_survive_arbitrary_bytes(wire in proptest::collection::vec(any::<u8>(), 0..200)) {
            survive(&wire)?;
        }

        #[test]
        fn decoders_survive_mangled_messages(wire in mangled()) {
            survive(&wire)?;
        }

        /// The count field holding whatever the peer likes: a request
        /// header decodes with exactly that many keys or not at all.
        #[test]
        fn a_claimed_count_is_met_or_refused(claimed in any::<u16>(), pick in any::<usize>()) {
            let wires = valid_wires();
            let mut wire = wires[pick % wires.len()].clone();
            if wire.len() >= 4 {
                wire[2..4].copy_from_slice(&claimed.to_le_bytes());
            }
            survive(&wire)?;
            prop_assert!(ReqHeader::decode(&wire).is_none_or(|h| h.keys.len() == claimed.into()));
        }
    }
}
