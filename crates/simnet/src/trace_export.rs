//! Perfetto/Chrome-trace export of [`trace`](crate::trace) event streams.
//!
//! [`chrome_trace_json`] serializes a recorded event slice into the Chrome
//! trace-event JSON format, so any simulated run opens directly in
//! `chrome://tracing` or [ui.perfetto.dev](https://ui.perfetto.dev):
//!
//! * each simulated **node becomes a process** (`pid` = node id + 1, named
//!   `nodeN`; fabric-global events land in process 0, `fabric`);
//! * each [`Track`](crate::trace::Track) becomes a **thread** within the
//!   node's process: `main` (tid 0), `workerN` (tid 1+N), `epN`
//!   (tid 100+N), `qpN` (tid 10000+N);
//! * span events ([`Phase::Begin`]/[`Phase::End`]) are emitted as async
//!   pairs (`ph:"b"/"e"`) keyed by the correlation id, with the layer as
//!   the category, so one operation's verbs/UCR/core spans line up;
//! * instants are `ph:"i"` thread-scoped markers.
//!
//! Timestamps are virtual microseconds with nanosecond precision. The
//! serializer is hand-rolled (the workspace has no serde); [`parse_json`]
//! is the matching minimal reader tests and `ext_trace_timeline` use to
//! prove the export is well-formed.

use std::fmt::Write as _;

use crate::trace::{Event, Phase, Track};

/// Thread id a [`Track`] maps to inside its node's process.
pub fn track_tid(track: Track) -> u64 {
    match track {
        Track::Main => 0,
        Track::Worker(w) => 1 + w as u64,
        Track::Endpoint(e) => 100 + e,
        Track::Qp(q) => 10_000 + q as u64,
    }
}

fn track_name(track: Track) -> String {
    match track {
        Track::Main => "main".to_string(),
        Track::Worker(w) => format!("worker{w}"),
        Track::Endpoint(e) => format!("ep{e}"),
        Track::Qp(q) => format!("qp{q}"),
    }
}

/// Renders folded collapsed-stack lines (as produced by
/// [`Profiler::folded_lines`](crate::profiler::Profiler::folded_lines))
/// in the standard flamegraph input format: one `path count` line per
/// stack, the path `;`-separated, the count in exclusive virtual
/// nanoseconds. Deterministic: callers pass pre-sorted lines and the
/// renderer preserves their order.
pub fn folded_text(lines: &[(String, u64)]) -> String {
    let mut out = String::new();
    for (path, ns) in lines {
        let _ = writeln!(out, "{path} {ns}");
    }
    out
}

/// Parses collapsed-stack text back into `(path, count)` lines — the
/// inverse of [`folded_text`], used by tests to prove the artifact
/// round-trips. The count is everything after the *last* space
/// (frame names never contain spaces here, but the split direction
/// matches the flamegraph convention).
pub fn parse_folded(text: &str) -> Result<Vec<(String, u64)>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let (path, count) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no count separator: {line:?}", i + 1))?;
        if path.is_empty() {
            return Err(format!("line {}: empty stack path", i + 1));
        }
        let n: u64 = count
            .parse()
            .map_err(|e| format!("line {}: bad count {count:?}: {e}", i + 1))?;
        out.push((path.to_string(), n));
    }
    Ok(out)
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Serializes `events` into a Chrome trace-event JSON document.
pub fn chrome_trace_json(events: &[Event]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
    };

    // Metadata: name each process (node) and thread (track) once.
    let mut named: Vec<(u64, Option<u64>)> = Vec::new();
    for ev in events {
        let pid = ev.node.map(|n| n.0 as u64 + 1).unwrap_or(0);
        if !named.contains(&(pid, None)) {
            named.push((pid, None));
            let pname = match ev.node {
                Some(n) => format!("{n}"),
                None => "fabric".to_string(),
            };
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"args\":{{\"name\":\"{}\"}}}}",
                esc(&pname)
            );
        }
        let tid = track_tid(ev.track);
        if !named.contains(&(pid, Some(tid))) {
            named.push((pid, Some(tid)));
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
                esc(&track_name(ev.track))
            );
        }
    }

    for ev in events {
        let pid = ev.node.map(|n| n.0 as u64 + 1).unwrap_or(0);
        let tid = track_tid(ev.track);
        let ts_ns = ev.at.as_nanos();
        let ts = format!("{}.{:03}", ts_ns / 1000, ts_ns % 1000);
        sep(&mut out);
        match ev.phase {
            Phase::Begin | Phase::End => {
                let ph = if ev.phase == Phase::Begin { "b" } else { "e" };
                let _ = write!(
                    out,
                    "{{\"ph\":\"{ph}\",\"cat\":\"{}\",\"id\":\"0x{:x}\",\"name\":\"{}\",\
                     \"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\
                     \"args\":{{\"op\":{},\"bytes\":{}}}}}",
                    ev.layer.label(),
                    ev.op,
                    esc(ev.name),
                    ev.op,
                    ev.bytes
                );
            }
            Phase::Instant => {
                let _ = write!(
                    out,
                    "{{\"ph\":\"i\",\"s\":\"t\",\"cat\":\"{}\",\"id\":\"0x{:x}\",\"name\":\"{}\",\
                     \"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\
                     \"args\":{{\"op\":{},\"bytes\":{}}}}}",
                    ev.layer.label(),
                    ev.op,
                    esc(ev.name),
                    ev.op,
                    ev.bytes
                );
            }
        }
    }
    out.push_str("]}");
    out
}

/// A parsed JSON value — the minimal reader counterpart of the exporter.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parses a JSON document. Strict enough to validate the exporter's
/// output; errors carry the byte offset of the failure.
pub fn parse_json(src: &str) -> Result<Json, String> {
    let bytes = src.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", c as char))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            c => {
                // Copy the full UTF-8 sequence starting here.
                let s = std::str::from_utf8(&b[*pos..])
                    .map_err(|_| format!("invalid utf-8 at byte {pos}"))?;
                let ch = s.chars().next().ok_or("unterminated string")?;
                let _ = c;
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
    Err("unterminated string".to_string())
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        fields.push((key, parse_value(b, pos)?));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Layer, Phase, Track};
    use crate::{NodeId, SimTime};

    fn ev(name: &'static str, phase: Phase, node: u32, track: Track, op: u64, ns: u64) -> Event {
        Event {
            layer: Layer::Verbs,
            name,
            phase,
            node: Some(NodeId(node)),
            track,
            op,
            bytes: 64,
            at: SimTime::from_nanos(ns),
        }
    }

    #[test]
    fn export_round_trips_through_parser() {
        let events = [
            ev("rdma_read", Phase::Begin, 0, Track::Qp(3), 7, 1500),
            ev("rdma_read", Phase::End, 0, Track::Qp(3), 7, 9500),
            ev("post_recv", Phase::Instant, 1, Track::Main, 0, 100),
        ];
        let json = chrome_trace_json(&events);
        let doc = parse_json(&json).expect("exporter output must parse");
        let items = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        // 2 process_name + 2 thread_name metadata records + 3 events.
        assert_eq!(items.len(), 7);
        let spans: Vec<_> = items
            .iter()
            .filter(|e| matches!(e.get("ph").and_then(Json::as_str), Some("b") | Some("e")))
            .collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("cat").and_then(Json::as_str), Some("verbs"));
        assert_eq!(spans[0].get("id").and_then(Json::as_str), Some("0x7"));
        // ts is microseconds with ns precision: 1500 ns -> 1.5 us.
        assert_eq!(spans[0].get("ts").and_then(Json::as_f64), Some(1.5));
        let instants: Vec<_> = items
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("i"))
            .collect();
        assert_eq!(instants.len(), 1);
        assert_eq!(
            instants[0].get("name").and_then(Json::as_str),
            Some("post_recv")
        );
    }

    #[test]
    fn tracks_map_to_stable_tids() {
        assert_eq!(track_tid(Track::Main), 0);
        assert_eq!(track_tid(Track::Worker(2)), 3);
        assert_eq!(track_tid(Track::Endpoint(5)), 105);
        assert_eq!(track_tid(Track::Qp(9)), 10_009);
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let doc = parse_json(r#"{"a":[1,2.5,-3e2],"b":"x\"\nA","c":{"d":null,"e":true}}"#).unwrap();
        assert_eq!(doc.get("a").and_then(Json::as_arr).unwrap().len(), 3);
        assert_eq!(doc.get("b").and_then(Json::as_str), Some("x\"\nA"));
        assert_eq!(doc.get("c").and_then(|c| c.get("d")), Some(&Json::Null));
        assert!(parse_json("{\"a\":1,}").is_err());
        assert!(parse_json("[1 2]").is_err());
        assert!(parse_json("{}extra").is_err());
    }
}
