//! Response-side framing: encode (server) and parse (client).

use crate::{take_block, take_line, ProtoError, CRLF};

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

/// Encodes a response to the wire (server side).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    match resp {
        Response::Stored => out.extend_from_slice(b"STORED\r\n"),
        Response::NotStored => out.extend_from_slice(b"NOT_STORED\r\n"),
        Response::Exists => out.extend_from_slice(b"EXISTS\r\n"),
        Response::NotFound => out.extend_from_slice(b"NOT_FOUND\r\n"),
        Response::Deleted => out.extend_from_slice(b"DELETED\r\n"),
        Response::Touched => out.extend_from_slice(b"TOUCHED\r\n"),
        Response::Values(values) => {
            for v in values {
                out.extend_from_slice(b"VALUE ");
                out.extend_from_slice(&v.key);
                match v.cas {
                    Some(cas) => out.extend_from_slice(
                        format!(" {} {} {}", v.flags, v.data.len(), cas).as_bytes(),
                    ),
                    None => {
                        out.extend_from_slice(format!(" {} {}", v.flags, v.data.len()).as_bytes())
                    }
                }
                out.extend_from_slice(CRLF);
                out.extend_from_slice(&v.data);
                out.extend_from_slice(CRLF);
            }
            out.extend_from_slice(b"END\r\n");
        }
        Response::Number(n) => out.extend_from_slice(format!("{n}\r\n").as_bytes()),
        Response::Stats(stats) => {
            for (k, v) in stats {
                out.extend_from_slice(format!("STAT {k} {v}\r\n").as_bytes());
            }
            out.extend_from_slice(b"END\r\n");
        }
        Response::Ok => out.extend_from_slice(b"OK\r\n"),
        Response::Version(v) => out.extend_from_slice(format!("VERSION {v}\r\n").as_bytes()),
        Response::Error => out.extend_from_slice(b"ERROR\r\n"),
        Response::ClientError(m) => {
            out.extend_from_slice(format!("CLIENT_ERROR {m}\r\n").as_bytes())
        }
        Response::ServerError(m) => {
            out.extend_from_slice(format!("SERVER_ERROR {m}\r\n").as_bytes())
        }
    }
    out
}

/// Incremental response parse (client side). `Ok(None)` = need more bytes;
/// on success returns the response and bytes consumed.
pub fn parse_response(buf: &[u8]) -> Result<Option<(Response, usize)>, ProtoError> {
    let Some((line, line_len)) = take_line(buf)? else {
        return Ok(None);
    };
    let toks: Vec<&[u8]> = line
        .split(|&b| b == b' ')
        .filter(|t| !t.is_empty())
        .collect();
    if toks.is_empty() {
        return Err(ProtoError::Malformed("empty response line"));
    }
    match toks[0] {
        b"STORED" => Ok(Some((Response::Stored, line_len))),
        b"NOT_STORED" => Ok(Some((Response::NotStored, line_len))),
        b"EXISTS" => Ok(Some((Response::Exists, line_len))),
        b"NOT_FOUND" => Ok(Some((Response::NotFound, line_len))),
        b"DELETED" => Ok(Some((Response::Deleted, line_len))),
        b"TOUCHED" => Ok(Some((Response::Touched, line_len))),
        b"OK" => Ok(Some((Response::Ok, line_len))),
        b"ERROR" => Ok(Some((Response::Error, line_len))),
        b"END" => Ok(Some((Response::Values(Vec::new()), line_len))),
        b"VERSION" => {
            let v = String::from_utf8_lossy(&line[8.min(line.len())..]).into_owned();
            Ok(Some((Response::Version(v), line_len)))
        }
        b"CLIENT_ERROR" => {
            let m = String::from_utf8_lossy(&line[13.min(line.len())..]).into_owned();
            Ok(Some((Response::ClientError(m), line_len)))
        }
        b"SERVER_ERROR" => {
            let m = String::from_utf8_lossy(&line[13.min(line.len())..]).into_owned();
            Ok(Some((Response::ServerError(m), line_len)))
        }
        b"VALUE" => parse_values(buf),
        b"STAT" => parse_stats(buf),
        tok => {
            // Bare number from incr/decr.
            if tok.iter().all(|b| b.is_ascii_digit()) && toks.len() == 1 {
                let n: u64 = std::str::from_utf8(tok)
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .ok_or(ProtoError::BadNumber)?;
                Ok(Some((Response::Number(n), line_len)))
            } else {
                Err(ProtoError::Malformed("unknown response"))
            }
        }
    }
}

fn parse_values(buf: &[u8]) -> Result<Option<(Response, usize)>, ProtoError> {
    let mut pos = 0usize;
    let mut values = Vec::new();
    loop {
        let Some((line, line_len)) = take_line(&buf[pos..])? else {
            return Ok(None);
        };
        if line == b"END" {
            return Ok(Some((Response::Values(values), pos + line_len)));
        }
        let toks: Vec<&[u8]> = line
            .split(|&b| b == b' ')
            .filter(|t| !t.is_empty())
            .collect();
        if toks.len() < 4 || toks[0] != b"VALUE" {
            return Err(ProtoError::Malformed("expected VALUE or END"));
        }
        let key = toks[1].to_vec();
        let flags: u32 = parse_num(toks[2])?;
        let bytes: usize = parse_num(toks[3])?;
        let cas = match toks.get(4) {
            Some(t) => Some(parse_num::<u64>(t)?),
            None => None,
        };
        let Some((data, next)) = take_block(buf, pos + line_len, bytes)? else {
            return Ok(None);
        };
        values.push(GetValue {
            key,
            flags,
            data: data.to_vec(),
            cas,
        });
        pos = next;
    }
}

fn parse_stats(buf: &[u8]) -> Result<Option<(Response, usize)>, ProtoError> {
    let mut pos = 0usize;
    let mut stats = Vec::new();
    loop {
        let Some((line, line_len)) = take_line(&buf[pos..])? else {
            return Ok(None);
        };
        pos += line_len;
        if line == b"END" {
            return Ok(Some((Response::Stats(stats), pos)));
        }
        let text = std::str::from_utf8(line).map_err(|_| ProtoError::Malformed("stat utf8"))?;
        let mut parts = text.splitn(3, ' ');
        let (stat, name, value) = (parts.next(), parts.next(), parts.next());
        if stat != Some("STAT") {
            return Err(ProtoError::Malformed("expected STAT or END"));
        }
        stats.push((
            name.unwrap_or_default().to_string(),
            value.unwrap_or_default().to_string(),
        ));
    }
}

fn parse_num<T: std::str::FromStr>(tok: &[u8]) -> Result<T, ProtoError> {
    std::str::from_utf8(tok)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or(ProtoError::BadNumber)
}
