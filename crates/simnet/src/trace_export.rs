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
                esc(&ev.track.to_string())
            );
        }
    }

    for ev in events {
        let pid = ev.node.map(|n| n.0 as u64 + 1).unwrap_or(0);
        let tid = track_tid(ev.track);
        let ts_ns = ev.at.as_nanos();
        let ts = format!("{}.{:03}", ts_ns / 1000, ts_ns % 1000);
        // An instant is thread-scoped (`"s":"t"`).
        let ph = match ev.phase {
            Phase::Begin => "\"b\"",
            Phase::End => "\"e\"",
            Phase::Instant => "\"i\",\"s\":\"t\"",
        };
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":{ph},\"cat\":\"{}\",\"id\":\"0x{:x}\",\"name\":\"{}\",\
             \"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\
             \"args\":{{\"op\":{},\"bytes\":{}}}}}",
            ev.layer.label(),
            ev.op,
            esc(ev.name),
            ev.op,
            ev.bytes
        );
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

/// Deepest nesting of arrays and objects [`parse_json`] reads: far past
/// the exporter's four levels, and shallow enough that no input can run
/// the recursive reader out of stack.
const MAX_DEPTH: usize = 128;

/// Parses a JSON document. Strict enough to validate the exporter's
/// output; errors carry the byte offset of the failure. Any input is
/// refused or accepted, never a panic, in time linear in its length.
pub fn parse_json(src: &str) -> Result<Json, String> {
    let bytes = src.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos, 0)?;
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

/// The value at `pos`, nested `depth` arrays and objects deep.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nested deeper than {MAX_DEPTH} at byte {pos}"))
        }
        Some(b'{') => parse_obj(b, pos, depth + 1),
        Some(b'[') => parse_arr(b, pos, depth + 1),
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
            lead => {
                // Copy the full UTF-8 sequence starting here; its lead
                // byte gives its length.
                let len = match lead {
                    0xf0.. => 4,
                    0xe0.. => 3,
                    0xc0.. => 2,
                    _ => 1,
                };
                let ch = b
                    .get(*pos..*pos + len)
                    .and_then(|s| std::str::from_utf8(s).ok())
                    .and_then(|s| s.chars().next())
                    .ok_or_else(|| format!("invalid utf-8 at byte {pos}"))?;
                out.push(ch);
                *pos += len;
            }
        }
    }
    Err("unterminated string".to_string())
}

fn parse_arr(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
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

fn parse_obj(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
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
        fields.push((key, parse_value(b, pos, depth)?));
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

    /// What a reader can be handed instead of an export: arbitrary bytes,
    /// and every export mangled. Both readers refuse or accept, and never
    /// panic; what the profiler and the exporter render reads back as it
    /// was written.
    mod hostile_bytes {
        use proptest::prelude::*;

        use super::*;
        use crate::metrics::Metrics;
        use crate::profiler::Profiler;
        use crate::trace::EventSink;

        /// Event names: real ones, and ones the JSON writer must escape
        /// (names are literals in the code: none holds a line break).
        const NAMES: [&str; 6] = [
            "client_op",
            "worker_service",
            "rdma_read",
            "with space",
            "quote\"back\\slash",
            "tab\tcr\rctl\u{1}é",
        ];
        const LAYERS: [Layer; 4] = [Layer::Wire, Layer::Verbs, Layer::Ucr, Layer::Core];

        /// A stream of spans and instants on a few lanes, in time order.
        fn events() -> impl Strategy<Value = Vec<Event>> {
            let one = (
                0..NAMES.len(),
                0u8..3,
                0u8..5,
                0u8..4,
                any::<u64>(),
                0u64..1 << 52,
            );
            proptest::collection::vec((one, 0u64..5_000), 0..40).prop_map(|evs| {
                let mut at = 0;
                evs.into_iter()
                    .map(|((name, phase, node, track, op, bytes), dt)| {
                        at += dt;
                        Event {
                            layer: LAYERS[op as usize % LAYERS.len()],
                            name: NAMES[name],
                            phase: [Phase::Begin, Phase::End, Phase::Instant][phase as usize],
                            node: (node < 4).then_some(NodeId(node.into())),
                            track: [
                                Track::Main,
                                Track::Worker(1),
                                Track::Endpoint(7),
                                Track::Qp(3),
                            ][track as usize],
                            // Few ops, so spans meet their ends.
                            op: op % 3,
                            bytes,
                            at: SimTime::from_nanos(at),
                        }
                    })
                    .collect()
            })
        }

        /// An export or a folded profile of `events`, with bytes
        /// overwritten, cut short or followed by junk.
        fn mangled() -> impl Strategy<Value = Vec<u8>> {
            let edits = proptest::collection::vec((any::<usize>(), any::<u8>()), 0..4);
            let junk = proptest::collection::vec(any::<u8>(), 0..8);
            (events(), any::<bool>(), edits, any::<usize>(), junk).prop_map(
                |(events, json, edits, cut, junk)| {
                    let mut text = if json {
                        chrome_trace_json(&events)
                    } else {
                        folded_text(&folded(&events))
                    }
                    .into_bytes();
                    for (at, byte) in edits {
                        if !text.is_empty() {
                            let at = at % text.len();
                            text[at] = byte;
                        }
                    }
                    if cut % 3 == 0 {
                        text.truncate(cut / 3 % (text.len() + 1));
                    }
                    text.extend(junk);
                    text
                },
            )
        }

        /// What a profiler fed `events` folds them into.
        fn folded(events: &[Event]) -> Vec<(String, u64)> {
            let profiler = Profiler::new(&Metrics::new());
            for ev in events {
                profiler.on_event(ev);
            }
            profiler.folded_lines()
        }

        fn survive(bytes: &[u8]) {
            let text = String::from_utf8_lossy(bytes);
            let _ = parse_folded(&text);
            let _ = parse_json(&text);
        }

        /// Nesting past the cap is refused, not followed off the stack.
        #[test]
        fn deep_nesting_is_refused() {
            for open in ["[", "{\"a\":"] {
                let deep = open.repeat(200_000);
                assert!(parse_json(&deep).unwrap_err().starts_with("nested deeper"));
            }
            let shallow = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
            assert!(parse_json(&shallow).is_ok());
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn readers_survive_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
                survive(&bytes);
            }

            #[test]
            fn readers_survive_mangled_exports(bytes in mangled()) {
                survive(&bytes);
            }

            #[test]
            fn a_folded_profile_reads_back_as_written(events in events()) {
                let lines = folded(&events);
                prop_assert_eq!(parse_folded(&folded_text(&lines)), Ok(lines));
            }

            #[test]
            fn an_export_reads_back_as_written(events in events()) {
                let doc = parse_json(&chrome_trace_json(&events))?;
                let items = doc.get("traceEvents").and_then(Json::as_arr).ok_or("no events")?;
                fn str_of<'a>(item: &'a Json, key: &str) -> Option<&'a str> {
                    item.get(key).and_then(Json::as_str)
                }
                let recorded: Vec<&Json> = items
                    .iter()
                    .filter(|item| str_of(item, "ph") != Some("M"))
                    .collect();
                prop_assert_eq!(recorded.len(), events.len());
                for (item, ev) in recorded.iter().zip(&events) {
                    let ph = match ev.phase {
                        Phase::Begin => "b",
                        Phase::End => "e",
                        Phase::Instant => "i",
                    };
                    let id = format!("0x{:x}", ev.op);
                    prop_assert_eq!(str_of(item, "ph"), Some(ph));
                    prop_assert_eq!(str_of(item, "name"), Some(ev.name));
                    prop_assert_eq!(str_of(item, "cat"), Some(ev.layer.label()));
                    prop_assert_eq!(str_of(item, "id"), Some(id.as_str()));
                    let num = |key: &str| item.get(key).and_then(Json::as_f64);
                    let pid = ev.node.map_or(0, |n| n.0 as u64 + 1);
                    prop_assert_eq!(num("pid"), Some(pid as f64));
                    prop_assert_eq!(num("tid"), Some(track_tid(ev.track) as f64));
                    let ns = ev.at.as_nanos();
                    let ts: f64 = format!("{}.{:03}", ns / 1000, ns % 1000).parse().unwrap();
                    prop_assert_eq!(num("ts"), Some(ts));
                    let args = item.get("args").ok_or("no args")?;
                    prop_assert_eq!(args.get("bytes").and_then(Json::as_f64), Some(ev.bytes as f64));
                }
            }
        }
    }
}
