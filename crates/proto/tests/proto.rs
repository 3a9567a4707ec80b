//! Protocol tests: framing in both directions, incremental parsing, and
//! encode∘parse round-trip properties.

use mcproto::{
    encode_command, encode_response, parse_command, parse_response, tokens, udp_fragment, BinFrame,
    BinOpcode, Command, GetValue, ProtoError, Response, StoreVerb, UdpFrame, UDP_DATAGRAM_BYTES,
    UDP_FRAME_BYTES,
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
    use simnet::{check_cases, SimRng};

    fn printable(r: &mut SimRng) -> u8 {
        r.gen_range_u64(0x21, 0x7f) as u8
    }

    fn byte(r: &mut SimRng) -> u8 {
        r.next_u64() as u8
    }

    fn flag(r: &mut SimRng) -> bool {
        r.next_u64() & 1 == 1
    }

    fn key(r: &mut SimRng) -> Vec<u8> {
        r.vec_of(1..40, printable)
    }

    fn data(r: &mut SimRng) -> Vec<u8> {
        r.vec_of(0..200, byte)
    }

    fn command(r: &mut SimRng) -> Command {
        match r.gen_range_u64(0, 12) {
            0 => Command::Store {
                verb: [
                    StoreVerb::Set,
                    StoreVerb::Add,
                    StoreVerb::Replace,
                    StoreVerb::Append,
                    StoreVerb::Prepend,
                ][r.gen_range_u64(0, 5) as usize],
                key: key(r),
                flags: r.next_u64() as u32,
                exptime: r.next_u64() as u32,
                data: data(r),
                noreply: flag(r),
            },
            1 => Command::Cas {
                key: key(r),
                flags: r.next_u64() as u32,
                exptime: r.next_u64() as u32,
                cas: r.next_u64(),
                data: data(r),
                noreply: flag(r),
            },
            2 => Command::Get {
                keys: r.vec_of(1..5, key),
            },
            3 => Command::Gets {
                keys: r.vec_of(1..5, key),
            },
            4 => Command::Delete {
                key: key(r),
                noreply: flag(r),
            },
            5 => Command::Incr {
                key: key(r),
                delta: r.next_u64(),
                noreply: flag(r),
            },
            6 => Command::Decr {
                key: key(r),
                delta: r.next_u64(),
                noreply: flag(r),
            },
            7 => Command::Touch {
                key: key(r),
                exptime: r.next_u64() as u32,
                noreply: flag(r),
            },
            8 => Command::FlushAll {
                delay: r.next_u64() as u32,
                noreply: flag(r),
            },
            9 => Command::Stats {
                arg: flag(r).then(|| r.vec_of(1..10, printable)),
            },
            10 => Command::Version,
            _ => Command::Quit,
        }
    }

    fn response(r: &mut SimRng) -> Response {
        match r.gen_range_u64(0, 10) {
            0 => Response::Stored,
            1 => Response::NotStored,
            2 => Response::Exists,
            3 => Response::NotFound,
            4 => Response::Deleted,
            5 => Response::Touched,
            6 => Response::Ok,
            7 => Response::Error,
            8 => Response::Values(r.vec_of(0..4, |r| GetValue {
                key: key(r),
                flags: r.next_u64() as u32,
                data: data(r),
                cas: flag(r).then(|| r.next_u64()),
            })),
            _ => Response::Number(r.next_u64()),
        }
    }

    /// Words with runs of spaces between them, and before and after.
    fn spaced_line(r: &mut SimRng) -> Vec<u8> {
        let lead = r.gen_range_u64(0, 4) as usize;
        let words = r.vec_of(0..6, |r| (r.vec_of(1..6, printable), r.gen_range_u64(0, 4)));
        let mut line = vec![b' '; lead];
        for (word, spaces) in words {
            line.extend(word);
            line.extend(std::iter::repeat_n(b' ', spaces as usize));
        }
        line
    }

    /// The in-place tokenizer splits a line as splitting at every
    /// space and dropping the empty pieces does.
    #[test]
    fn tokens_split_like_split_and_filter() {
        check_cases(
            "tokens_split_like_split_and_filter",
            64,
            spaced_line,
            |line| {
                let want: Vec<&[u8]> = line
                    .split(|&b| b == b' ')
                    .filter(|t| !t.is_empty())
                    .collect();
                assert_eq!(tokens(line).collect::<Vec<_>>(), want);
            },
        );
    }

    /// Client-encoded commands parse back identically on the server.
    #[test]
    fn command_encode_parse_round_trip() {
        check_cases("command_encode_parse_round_trip", 64, command, |cmd| {
            let wire = encode_command(cmd);
            let (parsed, used) = parse_command(&wire).unwrap().expect("complete");
            assert_eq!(used, wire.len());
            assert_eq!(&parsed, cmd);
        });
    }

    /// Server-encoded responses parse back identically on the client.
    #[test]
    fn response_encode_parse_round_trip() {
        check_cases("response_encode_parse_round_trip", 64, response, |resp| {
            let wire = encode_response(resp);
            let (parsed, used) = parse_response(&wire).unwrap().expect("complete");
            assert_eq!(used, wire.len());
            assert_eq!(&parsed, resp);
        });
    }

    /// Truncating a valid frame anywhere yields `None` or a hard error,
    /// never a wrong successful parse.
    #[test]
    fn truncation_is_detected() {
        let draw = |r: &mut SimRng| (command(r), r.gen_range_u64(0, 64) as usize);
        check_cases("truncation_is_detected", 64, draw, |(cmd, cut)| {
            let wire = encode_command(cmd);
            if *cut < wire.len() {
                if let Ok(Some((_, used))) = parse_command(&wire[..wire.len() - 1 - cut]) {
                    // A prefix of a single command must not parse as that
                    // command with full length.
                    assert!(used < wire.len());
                }
            }
        });
    }

    // -----------------------------------------------------------------
    // Hostile bytes: what a peer can send instead of a message
    // -----------------------------------------------------------------

    /// A length field at its extremes, where offset arithmetic overflows.
    fn hostile_length(r: &mut SimRng) -> u64 {
        match r.gen_range_u64(0, 6) {
            0 => u64::MAX,
            1 => u64::MAX - 1,
            2 => u64::MAX - 16,
            3 => u64::from(u32::MAX),
            4 => r.next_u64(),
            _ => r.gen_range_u64(0, 64),
        }
    }

    fn bin_frame(r: &mut SimRng) -> Vec<u8> {
        let opcode = BinOpcode::from_u8(r.gen_range_u64(0, 0x20) as u8).unwrap_or(BinOpcode::Noop);
        let mut f = BinFrame::request(opcode, r.next_u64() as u32);
        (f.cas, f.key, f.value) = (r.next_u64(), key(r), data(r));
        let extras = r.gen_range_u64(0, 21) as usize;
        f.extras = f.value[..extras.min(f.value.len())].to_vec();
        f.encode()
    }

    /// What a parser may do with hostile bytes: ask for more, refuse, or
    /// accept a message that was part of them — consuming no more than it
    /// was given and owning (`owned`: bytes held plus entries reserved) no
    /// more than it consumed.
    fn check<T>(
        wire: &[u8],
        parsed: Result<Option<(T, usize)>, ProtoError>,
        owned: impl Fn(&T) -> usize,
    ) {
        if let Ok(Some((msg, used))) = parsed {
            assert!(used <= wire.len(), "consumed {used} of {}", wire.len());
            assert!(owned(&msg) <= used, "owns {} of {used}", owned(&msg));
        }
    }

    fn command_owns(cmd: &Command) -> usize {
        use mcproto::CommandOf::*;
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

    fn check_all(wire: &[u8]) {
        check(wire, parse_command(wire), command_owns);
        check(wire, parse_response(wire), response_owns);
        check(wire, BinFrame::parse(wire), |f| {
            f.extras.len() + f.key.len() + f.value.len()
        });
        if let Ok((frame, payload)) = UdpFrame::decode(wire) {
            assert!(payload.len() + UDP_FRAME_BYTES == wire.len());
            assert!(frame.seq < frame.total);
        }
    }

    /// Every parser survives arbitrary bytes.
    #[test]
    fn parsers_survive_arbitrary_bytes() {
        let draw = |r: &mut SimRng| r.vec_of(0..300, byte);
        check_cases("parsers_survive_arbitrary_bytes", 256, draw, |w| {
            check_all(w)
        });
    }

    /// Every parser survives every valid message, mangled.
    #[test]
    fn parsers_survive_mangled_messages() {
        let draw = |r: &mut SimRng| {
            let cmd = encode_command(&command(r));
            let cmd = r.mangle(cmd);
            let resp = encode_response(&response(r));
            let resp = r.mangle(resp);
            let bin = bin_frame(r);
            let bin = r.mangle(bin);
            let mut udp = Vec::new();
            udp_fragment(r.next_u64() as u16, &data(r), &mut udp);
            udp.truncate(UDP_DATAGRAM_BYTES);
            (cmd, resp, bin, r.mangle(udp))
        };
        check_cases(
            "parsers_survive_mangled_messages",
            256,
            draw,
            |(cmd, resp, bin, udp)| {
                for wire in [cmd, resp, bin, udp] {
                    check_all(wire);
                }
            },
        );
    }

    /// A data-block length the peer made up: the text parsers add it
    /// to an offset before they have the bytes.
    #[test]
    fn text_parsers_survive_hostile_lengths() {
        let draw = |r: &mut SimRng| (hostile_length(r), r.next_u64());
        check_cases(
            "text_parsers_survive_hostile_lengths",
            256,
            draw,
            |(n, cas)| {
                for line in [
                    format!("set k 0 0 {n}\r\nvalue\r\n"),
                    format!("cas k 0 0 {n} {cas}\r\nvalue\r\n"),
                    format!("VALUE k 0 {n}\r\nvalue\r\nEND\r\n"),
                    format!("VALUE k 0 {n} {cas}\r\nvalue\r\nEND\r\n"),
                ] {
                    check_all(line.as_bytes());
                }
            },
        );
    }

    /// A binary header whose three length fields the peer made up.
    #[test]
    fn binary_parser_survives_hostile_lengths() {
        let draw = |r: &mut SimRng| {
            let (key_len, extras_len) = (r.next_u64() as u16, r.next_u64() as u8);
            (key_len, extras_len, hostile_length(r), data(r))
        };
        check_cases(
            "binary_parser_survives_hostile_lengths",
            256,
            draw,
            |(key_len, extras_len, body, tail)| {
                let mut wire = BinFrame::request(BinOpcode::Set, 7).encode();
                wire[2..4].copy_from_slice(&key_len.to_be_bytes());
                wire[4] = *extras_len;
                wire[8..12].copy_from_slice(&(*body as u32).to_be_bytes());
                wire.extend(tail);
                check_all(&wire);
            },
        );
    }
}
