//! Request-side framing: parse (server) and encode (client).

use crate::{take_block, take_line, ProtoError, CRLF};

/// The five storage verbs sharing the `<verb> <key> <flags> <exptime>
/// <bytes> [noreply]\r\n<data>\r\n` shape, plus `cas` with its token.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StoreVerb {
    /// Unconditional store.
    Set,
    /// Store if absent.
    Add,
    /// Store if present.
    Replace,
    /// Concatenate after the existing value.
    Append,
    /// Concatenate before the existing value.
    Prepend,
}

impl StoreVerb {
    fn name(self) -> &'static str {
        match self {
            StoreVerb::Set => "set",
            StoreVerb::Add => "add",
            StoreVerb::Replace => "replace",
            StoreVerb::Append => "append",
            StoreVerb::Prepend => "prepend",
        }
    }
}

/// A parsed client command.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Command {
    /// `set`/`add`/`replace`/`append`/`prepend`.
    Store {
        /// Which verb.
        verb: StoreVerb,
        /// Item key.
        key: Vec<u8>,
        /// Opaque client flags.
        flags: u32,
        /// Expiration (0 / relative / absolute, per memcached rules).
        exptime: u32,
        /// The data block.
        data: Vec<u8>,
        /// Suppress the reply.
        noreply: bool,
    },
    /// `cas <key> <flags> <exptime> <bytes> <cas> [noreply]`.
    Cas {
        /// Item key.
        key: Vec<u8>,
        /// Opaque client flags.
        flags: u32,
        /// Expiration.
        exptime: u32,
        /// Expected CAS token.
        cas: u64,
        /// The data block.
        data: Vec<u8>,
        /// Suppress the reply.
        noreply: bool,
    },
    /// `get <key>*` — multi-key fetch.
    Get {
        /// Keys to fetch.
        keys: Vec<Vec<u8>>,
    },
    /// `gets <key>*` — fetch with CAS tokens.
    Gets {
        /// Keys to fetch.
        keys: Vec<Vec<u8>>,
    },
    /// `delete <key> [noreply]`.
    Delete {
        /// Key to remove.
        key: Vec<u8>,
        /// Suppress the reply.
        noreply: bool,
    },
    /// `incr <key> <delta> [noreply]`.
    Incr {
        /// Key holding a decimal value.
        key: Vec<u8>,
        /// Amount to add.
        delta: u64,
        /// Suppress the reply.
        noreply: bool,
    },
    /// `decr <key> <delta> [noreply]`.
    Decr {
        /// Key holding a decimal value.
        key: Vec<u8>,
        /// Amount to subtract (clamped at zero).
        delta: u64,
        /// Suppress the reply.
        noreply: bool,
    },
    /// `touch <key> <exptime> [noreply]`.
    Touch {
        /// Key to refresh.
        key: Vec<u8>,
        /// New expiration.
        exptime: u32,
        /// Suppress the reply.
        noreply: bool,
    },
    /// `flush_all [delay] [noreply]`.
    FlushAll {
        /// Optional delay in seconds before the flush takes effect.
        delay: u32,
        /// Suppress the reply.
        noreply: bool,
    },
    /// `stats [slabs|items|...]`.
    Stats {
        /// Optional sub-report (memcached's `stats slabs`, `stats items`).
        arg: Option<Vec<u8>>,
    },
    /// `version`.
    Version,
    /// `quit`.
    Quit,
}

fn split_tokens(line: &[u8]) -> Vec<&[u8]> {
    line.split(|&b| b == b' ')
        .filter(|t| !t.is_empty())
        .collect()
}

fn num<T: std::str::FromStr>(tok: &[u8]) -> Result<T, ProtoError> {
    std::str::from_utf8(tok)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or(ProtoError::BadNumber)
}

fn check_key(key: &[u8]) -> Result<(), ProtoError> {
    if key.is_empty() || key.len() > 250 {
        return Err(ProtoError::TooLong);
    }
    if key.iter().any(|&b| b <= b' ' || b == 0x7f) {
        return Err(ProtoError::Malformed("control characters in key"));
    }
    Ok(())
}

/// Incremental parse: `Ok(None)` means more bytes are needed; on success
/// returns the command and the number of bytes consumed.
pub fn parse_command(buf: &[u8]) -> Result<Option<(Command, usize)>, ProtoError> {
    let Some((line, line_len)) = take_line(buf)? else {
        return Ok(None);
    };
    let toks = split_tokens(line);
    if toks.is_empty() {
        return Err(ProtoError::Malformed("empty command line"));
    }
    let verb = toks[0];
    let store_verb = match verb {
        b"set" => Some(StoreVerb::Set),
        b"add" => Some(StoreVerb::Add),
        b"replace" => Some(StoreVerb::Replace),
        b"append" => Some(StoreVerb::Append),
        b"prepend" => Some(StoreVerb::Prepend),
        _ => None,
    };

    if let Some(sv) = store_verb {
        if toks.len() < 5 {
            return Err(ProtoError::Malformed("storage command needs 5 fields"));
        }
        let key = toks[1].to_vec();
        check_key(&key)?;
        let flags: u32 = num(toks[2])?;
        let exptime: u32 = num(toks[3])?;
        let bytes: usize = num(toks[4])?;
        let noreply = toks.get(5) == Some(&&b"noreply"[..]);
        let Some((data, total)) = take_block(buf, line_len, bytes)? else {
            return Ok(None); // waiting for the data block
        };
        return Ok(Some((
            Command::Store {
                verb: sv,
                key,
                flags,
                exptime,
                data: data.to_vec(),
                noreply,
            },
            total,
        )));
    }

    match verb {
        b"cas" => {
            if toks.len() < 6 {
                return Err(ProtoError::Malformed("cas needs 6 fields"));
            }
            let key = toks[1].to_vec();
            check_key(&key)?;
            let flags: u32 = num(toks[2])?;
            let exptime: u32 = num(toks[3])?;
            let bytes: usize = num(toks[4])?;
            let cas: u64 = num(toks[5])?;
            let noreply = toks.get(6) == Some(&&b"noreply"[..]);
            let Some((data, total)) = take_block(buf, line_len, bytes)? else {
                return Ok(None);
            };
            Ok(Some((
                Command::Cas {
                    key,
                    flags,
                    exptime,
                    cas,
                    data: data.to_vec(),
                    noreply,
                },
                total,
            )))
        }
        b"get" | b"gets" => {
            if toks.len() < 2 {
                return Err(ProtoError::Malformed("get needs at least one key"));
            }
            let keys: Vec<Vec<u8>> = toks[1..].iter().map(|t| t.to_vec()).collect();
            for k in &keys {
                check_key(k)?;
            }
            let cmd = if verb == b"get" {
                Command::Get { keys }
            } else {
                Command::Gets { keys }
            };
            Ok(Some((cmd, line_len)))
        }
        b"delete" => {
            if toks.len() < 2 {
                return Err(ProtoError::Malformed("delete needs a key"));
            }
            let key = toks[1].to_vec();
            check_key(&key)?;
            let noreply = toks.get(2) == Some(&&b"noreply"[..]);
            Ok(Some((Command::Delete { key, noreply }, line_len)))
        }
        b"incr" | b"decr" => {
            if toks.len() < 3 {
                return Err(ProtoError::Malformed("incr/decr needs key and delta"));
            }
            let key = toks[1].to_vec();
            check_key(&key)?;
            let delta: u64 = num(toks[2])?;
            let noreply = toks.get(3) == Some(&&b"noreply"[..]);
            let cmd = if verb == b"incr" {
                Command::Incr {
                    key,
                    delta,
                    noreply,
                }
            } else {
                Command::Decr {
                    key,
                    delta,
                    noreply,
                }
            };
            Ok(Some((cmd, line_len)))
        }
        b"touch" => {
            if toks.len() < 3 {
                return Err(ProtoError::Malformed("touch needs key and exptime"));
            }
            let key = toks[1].to_vec();
            check_key(&key)?;
            let exptime: u32 = num(toks[2])?;
            let noreply = toks.get(3) == Some(&&b"noreply"[..]);
            Ok(Some((
                Command::Touch {
                    key,
                    exptime,
                    noreply,
                },
                line_len,
            )))
        }
        b"flush_all" => {
            let mut delay = 0u32;
            let mut noreply = false;
            for t in &toks[1..] {
                if *t == b"noreply" {
                    noreply = true;
                } else {
                    delay = num(t)?;
                }
            }
            Ok(Some((Command::FlushAll { delay, noreply }, line_len)))
        }
        b"stats" => {
            let arg = toks.get(1).map(|t| t.to_vec());
            Ok(Some((Command::Stats { arg }, line_len)))
        }
        b"version" => Ok(Some((Command::Version, line_len))),
        b"quit" => Ok(Some((Command::Quit, line_len))),
        _ => Err(ProtoError::Malformed("unknown command")),
    }
}

/// Encodes a command to the wire (client side).
pub fn encode_command(cmd: &Command) -> Vec<u8> {
    let mut out = Vec::new();
    match cmd {
        Command::Store {
            verb,
            key,
            flags,
            exptime,
            data,
            noreply,
        } => {
            out.extend_from_slice(verb.name().as_bytes());
            out.push(b' ');
            out.extend_from_slice(key);
            out.extend_from_slice(
                format!(
                    " {} {} {}{}",
                    flags,
                    exptime,
                    data.len(),
                    reply_suffix(*noreply)
                )
                .as_bytes(),
            );
            out.extend_from_slice(CRLF);
            out.extend_from_slice(data);
            out.extend_from_slice(CRLF);
        }
        Command::Cas {
            key,
            flags,
            exptime,
            cas,
            data,
            noreply,
        } => {
            out.extend_from_slice(b"cas ");
            out.extend_from_slice(key);
            out.extend_from_slice(
                format!(
                    " {} {} {} {}{}",
                    flags,
                    exptime,
                    data.len(),
                    cas,
                    reply_suffix(*noreply)
                )
                .as_bytes(),
            );
            out.extend_from_slice(CRLF);
            out.extend_from_slice(data);
            out.extend_from_slice(CRLF);
        }
        Command::Get { keys } | Command::Gets { keys } => {
            out.extend_from_slice(if matches!(cmd, Command::Get { .. }) {
                b"get"
            } else {
                b"gets" as &[u8]
            });
            for k in keys {
                out.push(b' ');
                out.extend_from_slice(k);
            }
            out.extend_from_slice(CRLF);
        }
        Command::Delete { key, noreply } => {
            out.extend_from_slice(b"delete ");
            out.extend_from_slice(key);
            out.extend_from_slice(reply_suffix(*noreply).as_bytes());
            out.extend_from_slice(CRLF);
        }
        Command::Incr {
            key,
            delta,
            noreply,
        }
        | Command::Decr {
            key,
            delta,
            noreply,
        } => {
            out.extend_from_slice(if matches!(cmd, Command::Incr { .. }) {
                b"incr "
            } else {
                b"decr " as &[u8]
            });
            out.extend_from_slice(key);
            out.extend_from_slice(format!(" {}{}", delta, reply_suffix(*noreply)).as_bytes());
            out.extend_from_slice(CRLF);
        }
        Command::Touch {
            key,
            exptime,
            noreply,
        } => {
            out.extend_from_slice(b"touch ");
            out.extend_from_slice(key);
            out.extend_from_slice(format!(" {}{}", exptime, reply_suffix(*noreply)).as_bytes());
            out.extend_from_slice(CRLF);
        }
        Command::FlushAll { delay, noreply } => {
            out.extend_from_slice(b"flush_all");
            if *delay > 0 {
                out.extend_from_slice(format!(" {delay}").as_bytes());
            }
            out.extend_from_slice(reply_suffix(*noreply).as_bytes());
            out.extend_from_slice(CRLF);
        }
        Command::Stats { arg } => {
            out.extend_from_slice(b"stats");
            if let Some(a) = arg {
                out.push(b' ');
                out.extend_from_slice(a);
            }
            out.extend_from_slice(CRLF);
        }
        Command::Version => out.extend_from_slice(b"version\r\n"),
        Command::Quit => out.extend_from_slice(b"quit\r\n"),
    }
    out
}

fn reply_suffix(noreply: bool) -> &'static str {
    if noreply {
        " noreply"
    } else {
        ""
    }
}
