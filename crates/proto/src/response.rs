//! Response-side framing: encode (server) and parse (client).

use crate::{exact, num, take_block, take_line, tokens, ProtoError, Wire};

/// One `VALUE` stanza of a get/gets response.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GetValue {
    /// Item key.
    pub key: Vec<u8>,
    /// Opaque client flags.
    pub flags: u32,
    /// The value bytes.
    pub data: Vec<u8>,
    /// CAS token (present only for `gets`).
    pub cas: Option<u64>,
}

/// A server response.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Response {
    /// `STORED`.
    Stored,
    /// `NOT_STORED`.
    NotStored,
    /// `EXISTS` (CAS mismatch).
    Exists,
    /// `NOT_FOUND`.
    NotFound,
    /// `DELETED`.
    Deleted,
    /// `TOUCHED`.
    Touched,
    /// `VALUE ... END` block (possibly empty → bare `END`).
    Values(Vec<GetValue>),
    /// Numeric reply from incr/decr.
    Number(u64),
    /// `STAT name value` block terminated by `END`.
    Stats(Vec<(String, String)>),
    /// `OK`.
    Ok,
    /// `VERSION <s>`.
    Version(String),
    /// `ERROR` (unknown command).
    Error,
    /// `CLIENT_ERROR <msg>`.
    ClientError(String),
    /// `SERVER_ERROR <msg>`.
    ServerError(String),
}

/// Encodes a response to the wire (server side), in one buffer of exactly
/// its size.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    exact(|w| w.response(resp))
}

impl Wire<'_> {
    /// The lines of `resp`.
    pub fn response(&mut self, resp: &Response) {
        match resp {
            Response::Stored => self.status(b"STORED", None),
            Response::NotStored => self.status(b"NOT_STORED", None),
            Response::Exists => self.status(b"EXISTS", None),
            Response::NotFound => self.status(b"NOT_FOUND", None),
            Response::Deleted => self.status(b"DELETED", None),
            Response::Touched => self.status(b"TOUCHED", None),
            Response::Values(values) => {
                for v in values {
                    self.value(&v.key, v.flags, v.cas, &v.data);
                }
                self.status(b"END", None);
            }
            Response::Number(n) => self.number(*n),
            Response::Stats(stats) => {
                for (name, value) in stats {
                    self.stat(name, value);
                }
                self.status(b"END", None);
            }
            Response::Ok => self.status(b"OK", None),
            Response::Version(v) => self.status(b"VERSION", Some(v.as_bytes())),
            Response::Error => self.status(b"ERROR", None),
            Response::ClientError(m) => self.status(b"CLIENT_ERROR", Some(m.as_bytes())),
            Response::ServerError(m) => self.status(b"SERVER_ERROR", Some(m.as_bytes())),
        }
    }
}

/// One line of a server response, borrowed from the receive buffer; a
/// `VALUE` line comes with its data block.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ResponseLine<'a> {
    /// `STORED`.
    Stored,
    /// `NOT_STORED`.
    NotStored,
    /// `EXISTS`.
    Exists,
    /// `NOT_FOUND`.
    NotFound,
    /// `DELETED`.
    Deleted,
    /// `TOUCHED`.
    Touched,
    /// `OK`.
    Ok,
    /// `ERROR`.
    Error,
    /// `END`: closes a `VALUE` or `STAT` block, or is all of an empty one.
    End,
    /// `VALUE <key> <flags> <bytes>[ <cas>]` and its data block.
    Value {
        /// Item key.
        key: &'a [u8],
        /// Opaque client flags.
        flags: u32,
        /// The value bytes.
        data: &'a [u8],
        /// CAS token (present only for `gets`).
        cas: Option<u64>,
    },
    /// `STAT <name> <value>`; the value runs to the end of the line.
    Stat(&'a str, &'a str),
    /// A bare number, from incr/decr.
    Number(u64),
    /// `VERSION <text>`.
    Version(&'a [u8]),
    /// `CLIENT_ERROR <text>`.
    ClientError(&'a [u8]),
    /// `SERVER_ERROR <text>`.
    ServerError(&'a [u8]),
}

/// A cursor over the response lines at the front of a receive buffer.
/// Each line is split in place and read once; nothing is copied.
pub struct ResponseLines<'a> {
    buf: &'a [u8],
    used: usize,
}

impl<'a> ResponseLines<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ResponseLines { buf, used: 0 }
    }

    /// Bytes taken by the lines read so far.
    pub fn used(&self) -> usize {
        self.used
    }

    /// The next line; `Ok(None)` until all of it (and a `VALUE`'s data
    /// block) is buffered.
    pub fn next_line(&mut self) -> Result<Option<ResponseLine<'a>>, ProtoError> {
        let buf = &self.buf[self.used..];
        let Some((text, mut len)) = take_line(buf)? else {
            return Ok(None);
        };
        let mut toks = tokens(text);
        let word = toks
            .next()
            .ok_or(ProtoError::Malformed("empty response line"))?;
        let after = |prefix: usize| &text[prefix.min(text.len())..];
        let line = match word {
            b"STORED" => ResponseLine::Stored,
            b"NOT_STORED" => ResponseLine::NotStored,
            b"EXISTS" => ResponseLine::Exists,
            b"NOT_FOUND" => ResponseLine::NotFound,
            b"DELETED" => ResponseLine::Deleted,
            b"TOUCHED" => ResponseLine::Touched,
            b"OK" => ResponseLine::Ok,
            b"ERROR" => ResponseLine::Error,
            b"END" => ResponseLine::End,
            b"VERSION" => ResponseLine::Version(after(8)),
            b"CLIENT_ERROR" => ResponseLine::ClientError(after(13)),
            b"SERVER_ERROR" => ResponseLine::ServerError(after(13)),
            b"VALUE" => {
                let [key, flags, bytes] = toks
                    .fields()
                    .ok_or(ProtoError::Malformed("expected VALUE or END"))?;
                let (flags, bytes) = (num(flags)?, num(bytes)?);
                let cas = toks.next().map(num).transpose()?;
                let Some((data, next)) = take_block(buf, len, bytes)? else {
                    return Ok(None);
                };
                len = next;
                ResponseLine::Value {
                    key,
                    flags,
                    data,
                    cas,
                }
            }
            b"STAT" => {
                let text =
                    std::str::from_utf8(text).map_err(|_| ProtoError::Malformed("stat utf8"))?;
                let mut parts = text.splitn(3, ' ');
                if parts.next() != Some("STAT") {
                    return Err(ProtoError::Malformed("expected STAT or END"));
                }
                let (name, value) = (parts.next(), parts.next());
                ResponseLine::Stat(name.unwrap_or_default(), value.unwrap_or_default())
            }
            n if toks.next().is_none() && n.iter().all(u8::is_ascii_digit) => {
                ResponseLine::Number(num(n)?)
            }
            _ => return Err(ProtoError::Malformed("unknown response")),
        };
        self.used += len;
        Ok(Some(line))
    }

    /// Hands `first` and every line after it to `each`, up to the `END`
    /// that closes the block (read, not handed on). `Ok(false)` until that
    /// `END` is buffered.
    pub fn block<E: From<ProtoError>>(
        &mut self,
        first: ResponseLine<'a>,
        mut each: impl FnMut(ResponseLine<'a>) -> Result<(), E>,
    ) -> Result<bool, E> {
        let mut line = first;
        while line != ResponseLine::End {
            each(line)?;
            let Some(next) = self.next_line()? else {
                return Ok(false);
            };
            line = next;
        }
        Ok(true)
    }
}

/// Frames the response at the front of `buf`: its first line and length,
/// handing each line of a `VALUE` or `STAT` block to `each` on the way.
/// `Ok(None)` until all of it is buffered.
fn frame<'a>(
    buf: &'a [u8],
    mut each: impl FnMut(ResponseLine<'a>),
) -> Result<Option<(ResponseLine<'a>, usize)>, ProtoError> {
    let mut lines = ResponseLines::new(buf);
    let Some(first) = lines.next_line()? else {
        return Ok(None);
    };
    let closed = match first {
        ResponseLine::Value { .. } => lines.block(first, |line| match line {
            ResponseLine::Value { .. } => {
                each(line);
                Ok(())
            }
            _ => Err(ProtoError::Malformed("expected VALUE or END")),
        })?,
        ResponseLine::Stat(..) => lines.block(first, |line| match line {
            ResponseLine::Stat(..) => {
                each(line);
                Ok(())
            }
            _ => Err(ProtoError::Malformed("expected STAT or END")),
        })?,
        _ => true,
    };
    Ok(closed.then(|| (first, lines.used())))
}

/// Incremental response parse (client side). `Ok(None)` = need more bytes;
/// on success returns the response and bytes consumed. The response is
/// framed in place before anything is copied out of it, so `Ok(None)` and
/// `Err` allocate nothing.
pub fn parse_response(buf: &[u8]) -> Result<Option<(Response, usize)>, ProtoError> {
    let Some((_, len)) = frame(buf, |_| {})? else {
        return Ok(None);
    };
    let (mut values, mut stats) = (Vec::new(), Vec::new());
    let framed = frame(&buf[..len], |line| match line {
        ResponseLine::Value {
            key,
            flags,
            data,
            cas,
        } => values.push(GetValue {
            key: key.to_vec(),
            flags,
            data: data.to_vec(),
            cas,
        }),
        ResponseLine::Stat(name, value) => stats.push((name.to_string(), value.to_string())),
        _ => {}
    })?;
    let Some((first, used)) = framed else {
        return Ok(None);
    };
    let text = |t: &[u8]| String::from_utf8_lossy(t).into_owned();
    let resp = match first {
        ResponseLine::Stored => Response::Stored,
        ResponseLine::NotStored => Response::NotStored,
        ResponseLine::Exists => Response::Exists,
        ResponseLine::NotFound => Response::NotFound,
        ResponseLine::Deleted => Response::Deleted,
        ResponseLine::Touched => Response::Touched,
        ResponseLine::Ok => Response::Ok,
        ResponseLine::Error => Response::Error,
        ResponseLine::End | ResponseLine::Value { .. } => Response::Values(values),
        ResponseLine::Stat(..) => Response::Stats(stats),
        ResponseLine::Number(n) => Response::Number(n),
        ResponseLine::Version(v) => Response::Version(text(v)),
        ResponseLine::ClientError(m) => Response::ClientError(text(m)),
        ResponseLine::ServerError(m) => Response::ServerError(text(m)),
    };
    Ok(Some((resp, used)))
}
