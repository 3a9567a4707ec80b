//! Each wire's codec is its own inverse: what the client encodes the
//! server decodes to the same request, and what the server encodes the
//! client decodes to the same reply.

use mcproto::{encode_command, encode_response, parse_command, parse_response, BinFrame};
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
        let got = ucr::decode_request(&hdr, &data);
        assert_eq!(fields(&got), want, "ucr {:?}", req.op);

        let wire = encode_command(&ascii::encode_request(&req));
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

        let (hdr, payload) = ucr::encode_reply(9, copy(&reply), &server_keys);
        assert_eq!(payload.len(), reply.payload_len(keys), "{op:?} {reply:?}");
        let hdr = RespHeader::decode(&hdr.encode()).expect("header decodes");
        let got = ucr::decode_reply(op, keys, hdr, payload).unwrap();
        assert_eq!(got, reply, "ucr {op:?}");

        // ASCII carries no CAS token on a store.
        let want = match copy(&reply) {
            Reply::Stored { outcome, .. } => Reply::Stored { outcome, cas: 0 },
            other => other,
        };
        let cmd = ascii::encode_request(&req);
        let wire = encode_response(&ascii::encode_reply(cmd, copy(&reply)));
        let (resp, used) = parse_response(&wire).unwrap().expect("complete response");
        assert_eq!(used, wire.len());
        let got = ascii::decode_reply(op, keys, resp).unwrap();
        assert_eq!(got, want, "ascii {op:?}");

        if op == McOp::Mget {
            continue; // a binary multiget is a train of single-key gets
        }
        let frame = binary::encode_request(&req).remove(0);
        let frames = binary::encode_reply(frame, copy(&reply));
        let wire: Vec<u8> = frames.iter().flat_map(BinFrame::encode).collect();
        let mut rest = wire.as_slice();
        let mut parsed = Vec::new();
        while let Some((frame, used)) = BinFrame::parse(rest).unwrap() {
            parsed.push(frame);
            rest = &rest[used..];
        }
        let got = binary::decode_reply(op, keys, parsed).unwrap();
        assert_eq!(got, reply, "binary {op:?}");
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
            all.extend([hdr.encode(), data]);
            all.push(encode_command(&ascii::encode_request(&req)));
            all.extend(binary::encode_request(&req).iter().map(BinFrame::encode));
        }
        for (op, reply) in replies() {
            let (hdr, payload) = ucr::encode_reply(9, copy(&reply), &server_keys);
            all.extend([hdr.encode().to_vec(), payload]);
            let req = Request::new(op, &KEYS[..]);
            let cmd = ascii::encode_request(&req);
            all.push(encode_response(&ascii::encode_reply(cmd, copy(&reply))));
            let frame = binary::encode_request(&Request::new(op, &KEYS[..1])).remove(0);
            let frames = binary::encode_reply(frame, reply);
            all.extend(frames.iter().map(BinFrame::encode));
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
        if let Ok(Some((resp, used))) = parse_response(wire) {
            prop_assert!(used <= wire.len());
            for op in McOp::ALL {
                let _ = ascii::decode_reply(op, keys, resp.clone());
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
        let refused = Err(crate::client::McError::Protocol);

        let cmd = ascii::encode_request(&Request::new(McOp::Get, asked));
        let resp = ascii::encode_reply(cmd, copy(&hit));
        let ours = ascii::decode_reply(McOp::Get, asked, resp.clone());
        assert_eq!(ours, Ok(copy(&hit)));
        assert_eq!(ascii::decode_reply(McOp::Get, other, resp), refused);

        let frame = binary::encode_request(&Request::new(McOp::Get, asked)).remove(0);
        let frames = binary::encode_reply(frame, copy(&hit));
        let ours = binary::decode_reply(McOp::Get, asked, frames.clone());
        assert_eq!(ours, Ok(hit));
        assert_eq!(binary::decode_reply(McOp::Get, other, frames), refused);
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
