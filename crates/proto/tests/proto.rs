//! Protocol tests: framing in both directions, incremental parsing, and
//! encode∘parse round-trip properties.

use mcproto::{
    encode_command, encode_response, parse_command, parse_response, tokens, udp_fragment, BinFrame,
    BinOpcode, Command, GetValue, ProtoError, Response, StoreVerb, UdpFrame, UDP_FRAME_BYTES,
};

#[test]
fn parse_set_with_data_block() {
    let wire = b"set foo 7 60 5\r\nhello\r\n";
    let (cmd, used) = parse_command(wire).unwrap().unwrap();
    assert_eq!(used, wire.len());
    assert_eq!(
        cmd,
        Command::Store {
            verb: StoreVerb::Set,
            key: b"foo".to_vec(),
            flags: 7,
            exptime: 60,
            data: b"hello".to_vec(),
            noreply: false,
        }
    );
}

#[test]
fn incremental_parse_waits_for_data() {
    let wire = b"set foo 0 0 5\r\nhello\r\n";
    // Feed byte by byte: must return None until complete, then succeed.
    for n in 0..wire.len() {
        assert_eq!(parse_command(&wire[..n]).unwrap(), None, "prefix {n}");
    }
    assert!(parse_command(wire).unwrap().is_some());
}

#[test]
fn parse_consumes_exactly_one_command() {
    let wire = b"get a\r\nget b\r\n";
    let (cmd, used) = parse_command(wire).unwrap().unwrap();
    assert_eq!(
        cmd,
        Command::Get {
            keys: vec![b"a".to_vec()]
        }
    );
    let (cmd2, _) = parse_command(&wire[used..]).unwrap().unwrap();
    assert_eq!(
        cmd2,
        Command::Get {
            keys: vec![b"b".to_vec()]
        }
    );
}

#[test]
fn multiget_keys() {
    let (cmd, _) = parse_command(b"gets k1 k2 k3\r\n").unwrap().unwrap();
    assert_eq!(
        cmd,
        Command::Gets {
            keys: vec![b"k1".to_vec(), b"k2".to_vec(), b"k3".to_vec()]
        }
    );
}

#[test]
fn noreply_flag() {
    let (cmd, _) = parse_command(b"delete k noreply\r\n").unwrap().unwrap();
    assert_eq!(
        cmd,
        Command::Delete {
            key: b"k".to_vec(),
            noreply: true
        }
    );
}

#[test]
fn binary_safe_values() {
    // Data blocks may contain CRLF; only the length field delimits them.
    let mut wire = b"set bin 0 0 6\r\n".to_vec();
    wire.extend_from_slice(b"a\r\nb\0c");
    wire.extend_from_slice(b"\r\n");
    let (cmd, used) = parse_command(&wire).unwrap().unwrap();
    assert_eq!(used, wire.len());
    match cmd {
        Command::Store { data, .. } => assert_eq!(data, b"a\r\nb\0c"),
        other => panic!("wrong command {other:?}"),
    }
}

#[test]
fn malformed_commands_error() {
    // The two a server answers and reads past: they say how far.
    assert_eq!(
        parse_command(b"bogus\r\n"),
        Err(ProtoError::UnknownCommand { len: 7 })
    );
    assert_eq!(
        parse_command(b"incr k x1\r\nget k\r\n"),
        Err(ProtoError::BadDelta { len: 11 })
    );
    assert!(matches!(
        parse_command(b"set k x 0 5\r\nhello\r\n"),
        Err(ProtoError::BadNumber)
    ));
    assert!(matches!(
        parse_command(b"set k 0 0 3\r\nhelloXX"),
        Err(ProtoError::Malformed(_))
    ));
    // Key with control characters.
    assert!(parse_command(b"get a\x01b\r\n").is_err());
    // Key too long.
    let mut long = b"get ".to_vec();
    long.extend(vec![b'k'; 251]);
    long.extend_from_slice(b"\r\n");
    assert!(matches!(parse_command(&long), Err(ProtoError::TooLong)));
}

#[test]
fn response_values_round_trip() {
    let resp = Response::Values(vec![
        GetValue {
            key: b"a".to_vec(),
            flags: 1,
            data: b"xyz".to_vec(),
            cas: None,
        },
        GetValue {
            key: b"b".to_vec(),
            flags: 0,
            data: b"\r\nEND\r\n".to_vec(), // adversarial payload
            cas: Some(42),
        },
    ]);
    let wire = encode_response(&resp);
    let (parsed, used) = parse_response(&wire).unwrap().unwrap();
    assert_eq!(used, wire.len());
    assert_eq!(parsed, resp);
}

#[test]
fn empty_get_is_bare_end() {
    let wire = encode_response(&Response::Values(Vec::new()));
    assert_eq!(wire, b"END\r\n");
    let (parsed, _) = parse_response(&wire).unwrap().unwrap();
    assert_eq!(parsed, Response::Values(Vec::new()));
}

#[test]
fn stats_with_arg_parses() {
    let (cmd, _) = parse_command(b"stats slabs\r\n").unwrap().unwrap();
    assert_eq!(
        cmd,
        Command::Stats {
            arg: Some(b"slabs".to_vec())
        }
    );
    let (cmd, _) = parse_command(b"stats\r\n").unwrap().unwrap();
    assert_eq!(cmd, Command::Stats { arg: None });
}

#[test]
fn stats_round_trip() {
    let resp = Response::Stats(vec![
        ("get_hits".into(), "10".into()),
        ("version".into(), "1.4.5-rmc".into()),
    ]);
    let wire = encode_response(&resp);
    let (parsed, _) = parse_response(&wire).unwrap().unwrap();
    assert_eq!(parsed, resp);
}

#[test]
fn numeric_reply() {
    let (r, _) = parse_response(b"42\r\n").unwrap().unwrap();
    assert_eq!(r, Response::Number(42));
}

#[test]
fn incremental_response_parse() {
    let wire = encode_response(&Response::Values(vec![GetValue {
        key: b"k".to_vec(),
        flags: 0,
        data: vec![9u8; 100],
        cas: None,
    }]));
    for n in [0, 5, 20, wire.len() - 1] {
        assert_eq!(parse_response(&wire[..n]).unwrap(), None);
    }
    assert!(parse_response(&wire).unwrap().is_some());
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(0x21u8..0x7f, 1..40)
    }

    fn data_strategy() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(any::<u8>(), 0..200)
    }

    fn command_strategy() -> impl Strategy<Value = Command> {
        let verb = prop_oneof![
            Just(StoreVerb::Set),
            Just(StoreVerb::Add),
            Just(StoreVerb::Replace),
            Just(StoreVerb::Append),
            Just(StoreVerb::Prepend),
        ];
        prop_oneof![
            (
                verb,
                key_strategy(),
                any::<u32>(),
                any::<u32>(),
                data_strategy(),
                any::<bool>()
            )
                .prop_map(|(verb, key, flags, exptime, data, noreply)| {
                    Command::Store {
                        verb,
                        key,
                        flags,
                        exptime,
                        data,
                        noreply,
                    }
                }),
            (
                key_strategy(),
                any::<u32>(),
                any::<u32>(),
                any::<u64>(),
                data_strategy(),
                any::<bool>()
            )
                .prop_map(|(key, flags, exptime, cas, data, noreply)| Command::Cas {
                    key,
                    flags,
                    exptime,
                    cas,
                    data,
                    noreply
                }),
            proptest::collection::vec(key_strategy(), 1..5).prop_map(|keys| Command::Get { keys }),
            proptest::collection::vec(key_strategy(), 1..5).prop_map(|keys| Command::Gets { keys }),
            (key_strategy(), any::<bool>())
                .prop_map(|(key, noreply)| Command::Delete { key, noreply }),
            (key_strategy(), any::<u64>(), any::<bool>()).prop_map(|(key, delta, noreply)| {
                Command::Incr {
                    key,
                    delta,
                    noreply,
                }
            }),
            (key_strategy(), any::<u64>(), any::<bool>()).prop_map(|(key, delta, noreply)| {
                Command::Decr {
                    key,
                    delta,
                    noreply,
                }
            }),
            (key_strategy(), any::<u32>(), any::<bool>()).prop_map(|(key, exptime, noreply)| {
                Command::Touch {
                    key,
                    exptime,
                    noreply,
                }
            }),
            (any::<u32>(), any::<bool>())
                .prop_map(|(delay, noreply)| Command::FlushAll { delay, noreply }),
            proptest::option::of(proptest::collection::vec(0x21u8..0x7f, 1..10))
                .prop_map(|arg| Command::Stats { arg }),
            Just(Command::Version),
            Just(Command::Quit),
        ]
    }

    fn response_strategy() -> impl Strategy<Value = Response> {
        let value = (
            key_strategy(),
            any::<u32>(),
            data_strategy(),
            proptest::option::of(any::<u64>()),
        )
            .prop_map(|(key, flags, data, cas)| GetValue {
                key,
                flags,
                data,
                cas,
            });
        prop_oneof![
            Just(Response::Stored),
            Just(Response::NotStored),
            Just(Response::Exists),
            Just(Response::NotFound),
            Just(Response::Deleted),
            Just(Response::Touched),
            Just(Response::Ok),
            Just(Response::Error),
            proptest::collection::vec(value, 0..4).prop_map(Response::Values),
            any::<u64>().prop_map(Response::Number),
        ]
    }

    /// Words with runs of spaces between them, and before and after.
    fn spaced_line() -> impl Strategy<Value = Vec<u8>> {
        let word = proptest::collection::vec(0x21u8..0x7f, 1..6);
        let words = proptest::collection::vec((word, 0usize..4), 0..6);
        (0usize..4, words).prop_map(|(lead, words)| {
            let mut line = vec![b' '; lead];
            for (word, spaces) in words {
                line.extend(word);
                line.extend(std::iter::repeat_n(b' ', spaces));
            }
            line
        })
    }

    proptest! {
        /// The in-place tokenizer splits a line as splitting at every
        /// space and dropping the empty pieces does.
        #[test]
        fn tokens_split_like_split_and_filter(line in spaced_line()) {
            let want: Vec<&[u8]> = line.split(|&b| b == b' ').filter(|t| !t.is_empty()).collect();
            prop_assert_eq!(tokens(&line).collect::<Vec<_>>(), want);
        }

        /// Client-encoded commands parse back identically on the server.
        #[test]
        fn command_encode_parse_round_trip(cmd in command_strategy()) {
            let wire = encode_command(&cmd);
            let (parsed, used) = parse_command(&wire).unwrap().expect("complete");
            prop_assert_eq!(used, wire.len());
            prop_assert_eq!(parsed, cmd);
        }

        /// Server-encoded responses parse back identically on the client.
        #[test]
        fn response_encode_parse_round_trip(resp in response_strategy()) {
            let wire = encode_response(&resp);
            let (parsed, used) = parse_response(&wire).unwrap().expect("complete");
            prop_assert_eq!(used, wire.len());
            prop_assert_eq!(parsed, resp);
        }

        /// Truncating a valid frame anywhere yields `None` or a hard error,
        /// never a wrong successful parse.
        #[test]
        fn truncation_is_detected(cmd in command_strategy(), cut in 0usize..64) {
            let wire = encode_command(&cmd);
            if cut < wire.len() {
                if let Ok(Some((parsed, used))) = parse_command(&wire[..wire.len()-1-cut.min(wire.len()-1)]) {
                    // A shorter prefix may legally contain a complete
                    // different... no: prefixes of a single command must
                    // not parse as that command with full length.
                    prop_assert!(used < wire.len());
                    let _ = parsed;
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // Hostile bytes: what a peer can send instead of a message
    // -----------------------------------------------------------------

    /// `wire` with a few bytes overwritten, sometimes cut short, sometimes
    /// followed by junk: still shaped like a message, no longer a valid one.
    fn mangled(wire: impl Strategy<Value = Vec<u8>>) -> impl Strategy<Value = Vec<u8>> {
        let edits = proptest::collection::vec((any::<usize>(), any::<u8>()), 0..4);
        let junk = proptest::collection::vec(any::<u8>(), 0..8);
        (wire, edits, any::<usize>(), junk).prop_map(|(mut wire, edits, cut, junk)| {
            for (at, byte) in edits {
                if let Some(slot) = wire.len().checked_sub(1).map(|last| at % (last + 1)) {
                    wire[slot] = byte;
                }
            }
            if cut % 3 == 0 {
                wire.truncate(cut / 3 % (wire.len() + 1));
            }
            wire.extend(junk);
            wire
        })
    }

    /// A length field at its extremes, where offset arithmetic overflows.
    fn hostile_length() -> impl Strategy<Value = u64> {
        prop_oneof![
            Just(u64::MAX),
            Just(u64::MAX - 1),
            Just(u64::MAX - 16),
            Just(u64::from(u32::MAX)),
            any::<u64>(),
            0u64..64,
        ]
    }

    fn bin_frame_strategy() -> impl Strategy<Value = Vec<u8>> {
        let parts = (
            0u8..0x20,
            any::<u32>(),
            any::<u64>(),
            key_strategy(),
            data_strategy(),
            0usize..21,
        );
        parts.prop_map(|(opcode, opaque, cas, key, value, extras)| {
            let opcode = BinOpcode::from_u8(opcode).unwrap_or(BinOpcode::Noop);
            let mut f = BinFrame::request(opcode, opaque);
            (f.cas, f.key, f.extras) = (cas, key, value[..extras.min(value.len())].to_vec());
            f.value = value;
            f.encode()
        })
    }

    /// What a parser may do with hostile bytes: ask for more, refuse, or
    /// accept a message that was part of them — consuming no more than it
    /// was given and owning (`owned`: bytes held plus entries reserved) no
    /// more than it consumed.
    fn check<T>(
        wire: &[u8],
        parsed: Result<Option<(T, usize)>, ProtoError>,
        owned: impl Fn(&T) -> usize,
    ) -> Result<(), String> {
        if let Ok(Some((msg, used))) = parsed {
            prop_assert!(used <= wire.len(), "consumed {used} of {}", wire.len());
            prop_assert!(owned(&msg) <= used, "owns {} of {used}", owned(&msg));
        }
        Ok(())
    }

    fn command_owns(cmd: &Command) -> usize {
        use Command::*;
        match cmd {
            Store { key, data, .. } | Cas { key, data, .. } => key.len() + data.len(),
            Get { keys } | Gets { keys } => {
                keys.capacity() + keys.iter().map(Vec::len).sum::<usize>()
            }
            Delete { key, .. } | Incr { key, .. } | Decr { key, .. } | Touch { key, .. } => {
                key.len()
            }
            Stats { arg } => arg.as_ref().map_or(0, Vec::len),
            FlushAll { .. } | Version | Quit => 0,
        }
    }

    fn response_owns(resp: &Response) -> usize {
        match resp {
            Response::Values(vs) => {
                vs.capacity() + vs.iter().map(|v| v.key.len() + v.data.len()).sum::<usize>()
            }
            Response::Stats(pairs) => {
                pairs.capacity() + pairs.iter().map(|(k, v)| k.len() + v.len()).sum::<usize>()
            }
            Response::Version(s) | Response::ClientError(s) | Response::ServerError(s) => s.len(),
            _ => 0,
        }
    }

    fn check_all(wire: &[u8]) -> Result<(), String> {
        check(wire, parse_command(wire), command_owns)?;
        check(wire, parse_response(wire), response_owns)?;
        check(wire, BinFrame::parse(wire), |f| {
            f.extras.len() + f.key.len() + f.value.len()
        })?;
        if let Ok((frame, payload)) = UdpFrame::decode(wire) {
            prop_assert!(payload.len() + UDP_FRAME_BYTES == wire.len());
            prop_assert!(frame.seq < frame.total);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every parser survives arbitrary bytes.
        #[test]
        fn parsers_survive_arbitrary_bytes(wire in proptest::collection::vec(any::<u8>(), 0..300)) {
            check_all(&wire)?;
        }

        /// Every parser survives every valid message, mangled.
        #[test]
        fn parsers_survive_mangled_messages(
            cmd in mangled(command_strategy().prop_map(|c| encode_command(&c))),
            resp in mangled(response_strategy().prop_map(|r| encode_response(&r))),
            bin in mangled(bin_frame_strategy()),
            udp in mangled((any::<u16>(), data_strategy()).prop_map(|(id, d)| udp_fragment(id, &d).remove(0))),
        ) {
            for wire in [cmd, resp, bin, udp] {
                check_all(&wire)?;
            }
        }

        /// A data-block length the peer made up: the text parsers add it
        /// to an offset before they have the bytes.
        #[test]
        fn text_parsers_survive_hostile_lengths(n in hostile_length(), cas in any::<u64>()) {
            for line in [
                format!("set k 0 0 {n}\r\nvalue\r\n"),
                format!("cas k 0 0 {n} {cas}\r\nvalue\r\n"),
                format!("VALUE k 0 {n}\r\nvalue\r\nEND\r\n"),
                format!("VALUE k 0 {n} {cas}\r\nvalue\r\nEND\r\n"),
            ] {
                check_all(line.as_bytes())?;
            }
        }

        /// A binary header whose three length fields the peer made up.
        #[test]
        fn binary_parser_survives_hostile_lengths(
            key_len in any::<u16>(),
            extras_len in any::<u8>(),
            body in hostile_length(),
            tail in data_strategy(),
        ) {
            let mut wire = BinFrame::request(BinOpcode::Set, 7).encode();
            wire[2..4].copy_from_slice(&key_len.to_be_bytes());
            wire[4] = extras_len;
            wire[8..12].copy_from_slice(&(body as u32).to_be_bytes());
            wire.extend(tail);
            check_all(&wire)?;
        }
    }
}
