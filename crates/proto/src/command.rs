//! Request-side framing: parse (server) and encode (client).

use crate::{exact, num, take_block, take_line, tokens, ProtoError, Tokens};

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
    const ALL: [StoreVerb; 5] = [
        StoreVerb::Set,
        StoreVerb::Add,
        StoreVerb::Replace,
        StoreVerb::Append,
        StoreVerb::Prepend,
    ];

    /// The verb as the wire spells it.
    pub fn name(self) -> &'static [u8] {
        match self {
            StoreVerb::Set => b"set",
            StoreVerb::Add => b"add",
            StoreVerb::Replace => b"replace",
            StoreVerb::Append => b"append",
            StoreVerb::Prepend => b"prepend",
        }
    }
}

/// A client command, generic over how it holds its bytes: a [`Command`]
/// owns its keys and data, a [`CommandRef`] reads them in place from the
/// buffer it was parsed from. `B` is a key or a data block, `L` the keys
/// of a `get`/`gets`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CommandOf<B, L> {
    /// `set`/`add`/`replace`/`append`/`prepend`.
    Store {
        /// Which verb.
        verb: StoreVerb,
        /// Item key.
        key: B,
        /// Opaque client flags.
        flags: u32,
        /// Expiration (0 / relative / absolute, per memcached rules).
        exptime: u32,
        /// The data block.
        data: B,
        /// Suppress the reply.
        noreply: bool,
    },
    /// `cas <key> <flags> <exptime> <bytes> <cas> [noreply]`.
    Cas {
        /// Item key.
        key: B,
        /// Opaque client flags.
        flags: u32,
        /// Expiration.
        exptime: u32,
        /// Expected CAS token.
        cas: u64,
        /// The data block.
        data: B,
        /// Suppress the reply.
        noreply: bool,
    },
    /// `get <key>*` — multi-key fetch.
    Get {
        /// Keys to fetch.
        keys: L,
    },
    /// `gets <key>*` — fetch with CAS tokens.
    Gets {
        /// Keys to fetch.
        keys: L,
    },
    /// `delete <key> [noreply]`.
    Delete {
        /// Key to remove.
        key: B,
        /// Suppress the reply.
        noreply: bool,
    },
    /// `incr <key> <delta> [noreply]`.
    Incr {
        /// Key holding a decimal value.
        key: B,
        /// Amount to add.
        delta: u64,
        /// Suppress the reply.
        noreply: bool,
    },
    /// `decr <key> <delta> [noreply]`.
    Decr {
        /// Key holding a decimal value.
        key: B,
        /// Amount to subtract (clamped at zero).
        delta: u64,
        /// Suppress the reply.
        noreply: bool,
    },
    /// `touch <key> <exptime> [noreply]`.
    Touch {
        /// Key to refresh.
        key: B,
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
        arg: Option<B>,
    },
    /// `version`.
    Version,
    /// `quit`.
    Quit,
}

/// A parsed client command that owns its bytes.
pub type Command = CommandOf<Vec<u8>, Vec<Vec<u8>>>;

/// A client command read in place: keys and data block borrow the buffer
/// it was parsed from, and a `get`'s keys are its line's key tokens, each
/// already checked. Reading one allocates nothing.
pub type CommandRef<'a> = CommandOf<&'a [u8], Tokens<'a>>;

impl CommandRef<'_> {
    /// The command with its bytes copied out: each key and the data block
    /// once, a `get`'s keys into a vector of exactly their number.
    pub fn into_owned(self) -> Command {
        use CommandOf::*;
        let own = <[u8]>::to_vec;
        match self {
            Store {
                verb,
                key,
                flags,
                exptime,
                data,
                noreply,
            } => Store {
                verb,
                key: own(key),
                flags,
                exptime,
                data: own(data),
                noreply,
            },
            Cas {
                key,
                flags,
                exptime,
                cas,
                data,
                noreply,
            } => Cas {
                key: own(key),
                flags,
                exptime,
                cas,
                data: own(data),
                noreply,
            },
            Get { keys } => Get {
                keys: owned_keys(keys),
            },
            Gets { keys } => Gets {
                keys: owned_keys(keys),
            },
            Delete { key, noreply } => Delete {
                key: own(key),
                noreply,
            },
            Incr {
                key,
                delta,
                noreply,
            } => Incr {
                key: own(key),
                delta,
                noreply,
            },
            Decr {
                key,
                delta,
                noreply,
            } => Decr {
                key: own(key),
                delta,
                noreply,
            },
            Touch {
                key,
                exptime,
                noreply,
            } => Touch {
                key: own(key),
                exptime,
                noreply,
            },
            FlushAll { delay, noreply } => FlushAll { delay, noreply },
            Stats { arg } => Stats { arg: arg.map(own) },
            Version => Version,
            Quit => Quit,
        }
    }
}

/// `keys` copied out, into a vector of exactly their number.
fn owned_keys(keys: Tokens<'_>) -> Vec<Vec<u8>> {
    let mut owned = Vec::with_capacity(keys.clone().count());
    owned.extend(keys.map(<[u8]>::to_vec));
    owned
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
/// returns the command and the number of bytes consumed. The command is
/// [`parse_command_ref`]'s, its bytes copied out once it is whole and
/// valid, so `Ok(None)` and `Err` allocate nothing.
pub fn parse_command(buf: &[u8]) -> Result<Option<(Command, usize)>, ProtoError> {
    Ok(parse_command_ref(buf)?.map(|(cmd, used)| (cmd.into_owned(), used)))
}

/// [`parse_command`] without the copy: the command at the front of `buf`,
/// read in place, and the bytes it takes. The line is split in place, so
/// nothing here allocates.
pub fn parse_command_ref(buf: &[u8]) -> Result<Option<(CommandRef<'_>, usize)>, ProtoError> {
    let Some((line, line_len)) = take_line(buf)? else {
        return Ok(None);
    };
    let mut toks = tokens(line);
    let verb = toks
        .next()
        .ok_or(ProtoError::Malformed("empty command line"))?;

    if let Some(verb) = StoreVerb::ALL.into_iter().find(|v| v.name() == verb) {
        let [key, flags, exptime, bytes] = toks
            .fields()
            .ok_or(ProtoError::Malformed("storage command needs 5 fields"))?;
        check_key(key)?;
        let (flags, exptime, bytes) = (num(flags)?, num(exptime)?, num(bytes)?);
        let noreply = toks.noreply();
        let Some((data, total)) = take_block(buf, line_len, bytes)? else {
            return Ok(None); // waiting for the data block
        };
        return Ok(Some((
            CommandOf::Store {
                verb,
                key,
                flags,
                exptime,
                data,
                noreply,
            },
            total,
        )));
    }

    let cmd = match verb {
        b"cas" => {
            let [key, flags, exptime, bytes, cas] = toks
                .fields()
                .ok_or(ProtoError::Malformed("cas needs 6 fields"))?;
            check_key(key)?;
            let (flags, exptime, bytes) = (num(flags)?, num(exptime)?, num(bytes)?);
            let cas = num(cas)?;
            let noreply = toks.noreply();
            let Some((data, total)) = take_block(buf, line_len, bytes)? else {
                return Ok(None);
            };
            return Ok(Some((
                CommandOf::Cas {
                    key,
                    flags,
                    exptime,
                    cas,
                    data,
                    noreply,
                },
                total,
            )));
        }
        b"get" | b"gets" => {
            for key in toks.clone() {
                check_key(key)?;
            }
            if toks.clone().next().is_none() {
                return Err(ProtoError::Malformed("get needs at least one key"));
            }
            if verb == b"get" {
                CommandOf::Get { keys: toks }
            } else {
                CommandOf::Gets { keys: toks }
            }
        }
        b"delete" => {
            let [key] = toks
                .fields()
                .ok_or(ProtoError::Malformed("delete needs a key"))?;
            check_key(key)?;
            let noreply = toks.noreply();
            CommandOf::Delete { key, noreply }
        }
        b"incr" | b"decr" => {
            let [key, delta] = toks
                .fields()
                .ok_or(ProtoError::Malformed("incr/decr needs key and delta"))?;
            check_key(key)?;
            let delta = num(delta).map_err(|_| ProtoError::BadDelta { len: line_len })?;
            let noreply = toks.noreply();
            if verb == b"incr" {
                CommandOf::Incr {
                    key,
                    delta,
                    noreply,
                }
            } else {
                CommandOf::Decr {
                    key,
                    delta,
                    noreply,
                }
            }
        }
        b"touch" => {
            let [key, exptime] = toks
                .fields()
                .ok_or(ProtoError::Malformed("touch needs key and exptime"))?;
            check_key(key)?;
            let exptime = num(exptime)?;
            let noreply = toks.noreply();
            CommandOf::Touch {
                key,
                exptime,
                noreply,
            }
        }
        b"flush_all" => {
            let mut delay = 0u32;
            let mut noreply = false;
            for t in toks {
                if t == b"noreply" {
                    noreply = true;
                } else {
                    delay = num(t)?;
                }
            }
            CommandOf::FlushAll { delay, noreply }
        }
        b"stats" => CommandOf::Stats { arg: toks.next() },
        b"version" => CommandOf::Version,
        b"quit" => CommandOf::Quit,
        _ => return Err(ProtoError::UnknownCommand { len: line_len }),
    };
    Ok(Some((cmd, line_len)))
}

/// Encodes a command to the wire (client side), in one buffer of exactly
/// its size.
pub fn encode_command(cmd: &Command) -> Vec<u8> {
    exact(|w| match cmd {
        Command::Store {
            verb,
            key,
            flags,
            exptime,
            data,
            noreply,
        } => w.storage(verb.name(), key, *flags, *exptime, None, data, *noreply),
        Command::Cas {
            key,
            flags,
            exptime,
            cas,
            data,
            noreply,
        } => w.storage(b"cas", key, *flags, *exptime, Some(*cas), data, *noreply),
        Command::Get { keys } => w.retrieval(b"get", keys),
        Command::Gets { keys } => w.retrieval(b"gets", keys),
        Command::Delete { key, noreply } => w.command(b"delete", Some(key), None, *noreply),
        Command::Incr {
            key,
            delta,
            noreply,
        } => w.command(b"incr", Some(key), Some(*delta), *noreply),
        Command::Decr {
            key,
            delta,
            noreply,
        } => w.command(b"decr", Some(key), Some(*delta), *noreply),
        Command::Touch {
            key,
            exptime,
            noreply,
        } => w.command(b"touch", Some(key), Some((*exptime).into()), *noreply),
        Command::FlushAll { delay, noreply } => {
            let delay = (*delay > 0).then_some((*delay).into());
            w.command(b"flush_all", None, delay, *noreply)
        }
        Command::Stats { arg } => w.command(b"stats", arg.as_deref(), None, false),
        Command::Version => w.command(b"version", None, None, false),
        Command::Quit => w.command(b"quit", None, None, false),
    })
}
