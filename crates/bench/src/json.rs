//! The workspace's one JSON value, with its one writer and its one reader
//! (the workspace carries no serde).
//!
//! Every bench bin prints its table to stdout (`results/<bin>.txt`) and,
//! through [`write()`], a JSON twin, `results/<bin>.json`:
//! `{"bench": <bin>, "records": [...]}`, one flat record a line, built with
//! [`Json::obj`] and [`Json::str`]/[`Json::num`]/[`Json::int`]. [`render`]
//! lays any value out that way and [`parse`] reads any JSON text back, so
//! `render(&parse(twin)?)` is the twin byte for byte. [`parse`] also proves
//! simnet's Perfetto export well-formed; [`parse_folded`] reads its
//! collapsed-stack text back.

use std::path::PathBuf;

use simnet::trace_export::json_escape;

/// A JSON value: `null`, `true`/`false`, a number, a string, an array, or
/// an object with its fields in document order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, to which [`Json::str`], [`Json::num`] and
    /// [`Json::int`] append fields.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// This object with a string field appended.
    pub fn str(self, key: &str, value: impl Into<String>) -> Json {
        self.field(key, Json::Str(value.into()))
    }

    /// This object with a number field appended; a non-finite one renders
    /// as `null`.
    pub fn num(self, key: &str, value: f64) -> Json {
        self.field(key, Json::Num(value))
    }

    /// This object with an integer field appended (exact below 2⁵³).
    pub fn int(self, key: &str, value: u64) -> Json {
        self.field(key, Json::Num(value as f64))
    }

    fn field(mut self, key: &str, value: Json) -> Json {
        let Json::Obj(fields) = &mut self else {
            panic!("field {key:?} appended to a non-object");
        };
        fields.push((key.to_string(), value));
        self
    }

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

/// `doc` as a document ending in a newline. An array or object holding an
/// array or object puts each member on a line of its own, indented two
/// spaces a level; any other goes on one line, members separated by `", "`.
/// A finite number is written `{n}` (the shortest text that reads back as
/// the same `f64`), a non-finite one `null`.
pub fn render(doc: &Json) -> String {
    let mut out = String::new();
    render_value(doc, 0, &mut out);
    out.push('\n');
    out
}

fn render_value(v: &Json, level: usize, out: &mut String) {
    let members: Vec<(Option<&String>, &Json)> = match v {
        Json::Null => return out.push_str("null"),
        Json::Bool(b) => return out.push_str(&b.to_string()),
        Json::Num(n) if n.is_finite() => return out.push_str(&n.to_string()),
        Json::Num(_) => return out.push_str("null"),
        Json::Str(s) => return out.push_str(&format!("\"{}\"", json_escape(s))),
        Json::Arr(items) => items.iter().map(|v| (None, v)).collect(),
        Json::Obj(fields) => fields.iter().map(|(k, v)| (Some(k), v)).collect(),
    };
    // Around containers, each member goes on a line of its own.
    let nested = members
        .iter()
        .any(|(_, m)| matches!(m, Json::Arr(_) | Json::Obj(_)));
    let indent = |level| match nested {
        true => format!("\n{}", "  ".repeat(level)),
        false => String::new(),
    };
    let arr = matches!(v, Json::Arr(_));
    out.push(if arr { '[' } else { '{' });
    for (i, (key, member)) in members.into_iter().enumerate() {
        if i > 0 {
            out.push_str(if nested { "," } else { ", " });
        }
        out.push_str(&indent(level + 1));
        if let Some(key) = key {
            out.push_str(&format!("\"{}\": ", json_escape(key)));
        }
        render_value(member, level + 1, out);
    }
    out.push_str(&indent(level));
    out.push(if arr { ']' } else { '}' });
}

/// Writes `results/<bench>.json`, the object `{"bench", "records"}`; see
/// [`write_file`].
pub fn write(bench: &str, records: &[Json]) {
    let doc = Json::obj()
        .str("bench", bench)
        .field("records", Json::Arr(records.to_vec()));
    write_file(&format!("{bench}.json"), &render(&doc));
}

/// Writes `results/<name>` (relative to the working directory, creating
/// `results/` if needed) and reports where it landed on stderr, keeping
/// stdout clean for the human-readable tables. IO failures are reported,
/// not fatal — a read-only checkout still runs the bench.
pub fn write_file(name: &str, contents: &str) {
    let path = PathBuf::from("results").join(name);
    let res = std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, contents));
    match res {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Deepest nesting of arrays and objects [`parse`] reads: far past the
/// exporters' four levels, and shallow enough that no input can run the
/// recursive reader out of stack.
const MAX_DEPTH: usize = 128;

/// Parses a JSON document (RFC 8259); errors carry the byte offset of the
/// failure. Any input is refused or accepted, never a panic, in time
/// linear in its length.
pub fn parse(src: &str) -> Result<Json, String> {
    let (b, mut pos) = (src.as_bytes(), 0);
    let v = parse_value(b, &mut pos, 0)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while eat(b, pos, b" \t\n\r") {}
}

/// Steps over the byte at `pos` if it is one of `set`.
fn eat(b: &[u8], pos: &mut usize, set: &[u8]) -> bool {
    let hit = b.get(*pos).is_some_and(|c| set.contains(c));
    *pos += usize::from(hit);
    hit
}

/// Steps over the run of digits at `pos`; false if there is none.
fn digits(b: &[u8], pos: &mut usize) -> bool {
    let from = *pos;
    while eat(b, pos, b"0123456789") {}
    *pos > from
}

/// The value at `pos`, nested `depth` arrays and objects deep.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nested deeper than {MAX_DEPTH} at byte {pos}"))
        }
        Some(&open @ (b'{' | b'[')) => parse_members(b, pos, depth + 1, open == b'{'),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    let found = b[*pos..].starts_with(lit.as_bytes());
    *pos += if found { lit.len() } else { 0 };
    found
        .then_some(v)
        .ok_or_else(|| format!("bad literal at byte {pos}"))
}

/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?` (RFC 8259 §6).
fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    eat(b, pos, b"-");
    let int = eat(b, pos, b"0") || digits(b, pos);
    let frac = !eat(b, pos, b".") || digits(b, pos);
    let exp = !eat(b, pos, b"eE") || {
        eat(b, pos, b"+-");
        digits(b, pos)
    };
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .filter(|_| int && frac && exp)
        .and_then(|s| s.parse().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if !eat(b, pos, b"\"") {
        return Err(format!("expected a string at byte {pos}"));
    }
    // The source is UTF-8 and no byte of a multi-byte sequence is below
    // 0x80, so copying every other byte as it is keeps `out` UTF-8.
    let mut out = Vec::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        let ch = match c {
            b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
            0..0x20 => return Err(format!("unescaped control byte at byte {}", *pos - 1)),
            b'\\' => parse_escape(b, pos)?,
            _ => {
                out.push(c);
                continue;
            }
        };
        out.extend_from_slice(ch.encode_utf8(&mut [0; 4]).as_bytes());
    }
    Err("unterminated string".to_string())
}

/// The character of the escape at `pos`, just past its backslash. A `\u`
/// takes exactly four hex digits; a high surrogate joins the low one
/// escaped after it, and a lone surrogate is refused.
fn parse_escape(b: &[u8], pos: &mut usize) -> Result<char, String> {
    let at = *pos;
    *pos += 1;
    Ok(match b.get(at) {
        Some(b'"') => '"',
        Some(b'\\') => '\\',
        Some(b'/') => '/',
        Some(b'n') => '\n',
        Some(b'r') => '\r',
        Some(b't') => '\t',
        Some(b'b') => '\u{8}',
        Some(b'f') => '\u{c}',
        Some(b'u') => {
            let mut unit = hex4(b, pos)?;
            if (0xd800..0xdc00).contains(&unit) && b.get(*pos..*pos + 2) == Some(b"\\u") {
                *pos += 2;
                let low = hex4(b, pos)?;
                // Anything but a low surrogate leaves `unit` lone.
                if (0xdc00..0xe000).contains(&low) {
                    unit = 0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00);
                }
            }
            char::from_u32(unit).ok_or_else(|| format!("lone surrogate at byte {at}"))?
        }
        _ => return Err(format!("bad escape at byte {at}")),
    })
}

/// The UTF-16 code unit the four hex digits at `pos` spell.
fn hex4(b: &[u8], pos: &mut usize) -> Result<u32, String> {
    let unit = b.get(*pos..*pos + 4).and_then(|h| {
        h.iter()
            .try_fold(0, |n, &d| Some(n << 4 | char::from(d).to_digit(16)?))
    });
    *pos += 4;
    unit.ok_or_else(|| format!("bad \\u escape at byte {}", *pos - 4))
}

/// The array, or if `obj` the object, whose opening bracket is at `pos`.
fn parse_members(b: &[u8], pos: &mut usize, depth: usize, obj: bool) -> Result<Json, String> {
    let close = if obj { b"}" } else { b"]" };
    let (mut items, mut fields) = (Vec::new(), Vec::new());
    *pos += 1;
    skip_ws(b, pos);
    let mut more = !eat(b, pos, close);
    while more {
        if obj {
            skip_ws(b, pos);
            let key = parse_string(b, pos)?;
            skip_ws(b, pos);
            if !eat(b, pos, b":") {
                return Err(format!("expected ':' at byte {pos}"));
            }
            fields.push((key, parse_value(b, pos, depth)?));
        } else {
            items.push(parse_value(b, pos, depth)?);
        }
        skip_ws(b, pos);
        more = !eat(b, pos, close);
        if more && !eat(b, pos, b",") {
            let close = char::from(close[0]);
            return Err(format!("expected ',' or '{close}' at byte {pos}"));
        }
    }
    Ok(if obj {
        Json::Obj(fields)
    } else {
        Json::Arr(items)
    })
}

/// Parses collapsed-stack text (`simnet::trace_export::folded_text`) back
/// into `(path, count)` lines, skipping empty ones. The count is everything
/// after the *last* space (frame names never contain spaces here, but the
/// split direction matches the flamegraph convention).
pub fn parse_folded(text: &str) -> Result<Vec<(String, u64)>, String> {
    let line = |(i, line): (usize, &str)| {
        let (path, count) = line
            .rsplit_once(' ')
            .filter(|(path, _)| !path.is_empty())
            .ok_or_else(|| format!("line {}: not a stack path and a count: {line:?}", i + 1))?;
        let n = count
            .parse()
            .map_err(|e| format!("line {}: bad count {count:?}: {e}", i + 1))?;
        Ok((path.to_string(), n))
    };
    let lines = text.lines().enumerate();
    lines.filter(|(_, l)| !l.is_empty()).map(line).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::trace_export::{chrome_trace_json, folded_text, track_tid};
    use simnet::{Event, Layer, NodeId, Phase, SimTime, Track};

    #[test]
    fn renders_parseable_json() {
        let twin = |bad: Json| {
            let get = Json::obj().str("op", "get").int("size", 4096);
            let records = vec![get.num("mean_us", 11.875), Json::obj().field("bad", bad)];
            Json::obj()
                .str("bench", "fig3")
                .field("records", Json::Arr(records))
        };
        let text = render(&twin(Json::Num(f64::NAN)));
        assert_eq!(
            text,
            "{\n  \"bench\": \"fig3\",\n  \"records\": [\n    \
             {\"op\": \"get\", \"size\": 4096, \"mean_us\": 11.875},\n    \
             {\"bad\": null}\n  ]\n}\n"
        );
        // Non-finite numbers degrade to null, keeping the file parseable.
        assert_eq!(parse(&text), Ok(twin(Json::Null)));
    }

    #[test]
    fn escapes_strings() {
        let doc = Json::obj().str("name", "a\"b\\c\nd\u{1}");
        let text = render(&doc);
        assert_eq!(text, "{\"name\": \"a\\\"b\\\\c\\nd\\u0001\"}\n");
        assert_eq!(parse(&text), Ok(doc));
    }

    /// Reads the export of `events` back and checks each recorded event
    /// against its source; returns the entries, metadata included.
    fn reads_back(events: &[Event]) -> usize {
        let doc = parse(&chrome_trace_json(events)).expect("an export parses");
        let items = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("events");
        fn str_of<'a>(item: &'a Json, key: &str) -> Option<&'a str> {
            item.get(key).and_then(Json::as_str)
        }
        let recorded: Vec<&Json> = items
            .iter()
            .filter(|item| str_of(item, "ph") != Some("M"))
            .collect();
        assert_eq!(recorded.len(), events.len());
        for (item, ev) in recorded.iter().zip(events) {
            let ph = match ev.phase {
                Phase::Begin => "b",
                Phase::End => "e",
                Phase::Instant => "i",
            };
            let id = format!("0x{:x}", ev.op);
            assert_eq!(str_of(item, "ph"), Some(ph));
            assert_eq!(str_of(item, "name"), Some(ev.name));
            assert_eq!(str_of(item, "cat"), Some(ev.layer.label()));
            assert_eq!(str_of(item, "id"), Some(id.as_str()));
            let num = |key: &str| item.get(key).and_then(Json::as_f64);
            let pid = ev.node.map_or(0, |n| n.0 as u64 + 1);
            assert_eq!(num("pid"), Some(pid as f64));
            assert_eq!(num("tid"), Some(track_tid(ev.track) as f64));
            let ns = ev.at.as_nanos();
            let ts: f64 = format!("{}.{:03}", ns / 1000, ns % 1000).parse().unwrap();
            assert_eq!(num("ts"), Some(ts));
            let args = item.get("args").expect("args");
            assert_eq!(
                args.get("bytes").and_then(Json::as_f64),
                Some(ev.bytes as f64)
            );
        }
        items.len()
    }

    #[test]
    fn export_round_trips_through_parser() {
        let ev = |name, phase, node, track, op, ns| Event {
            layer: Layer::Verbs,
            name,
            phase,
            node: Some(NodeId(node)),
            track,
            op,
            bytes: 64,
            at: SimTime::from_nanos(ns),
        };
        let events = [
            ev("rdma_read", Phase::Begin, 0, Track::Qp(3), 7, 1500),
            ev("rdma_read", Phase::End, 0, Track::Qp(3), 7, 9500),
            ev("post_recv", Phase::Instant, 1, Track::Main, 0, 100),
        ];
        // 2 process_name + 2 thread_name metadata records + 3 events.
        assert_eq!(reads_back(&events), 7);
        // ts is microseconds with ns precision: 1500 ns -> 1.5 us.
        assert!(chrome_trace_json(&events).contains("\"ts\":1.500,"));
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let doc = parse(r#"{"a":[1,2.5,-3e2],"b":"x\"\nA","c":{"d":null,"e":true}}"#).unwrap();
        assert_eq!(doc.get("a").and_then(Json::as_arr).unwrap().len(), 3);
        assert_eq!(doc.get("b").and_then(Json::as_str), Some("x\"\nA"));
        assert_eq!(doc.get("c").and_then(|c| c.get("d")), Some(&Json::Null));
        assert!(parse("{\"a\":1,}").is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("{}extra").is_err());
        for n in ["-0", "0.5e-3", "1E+2", "-12.25E-1"] {
            assert!(parse(n).is_ok(), "{n}");
        }
    }

    /// Texts RFC 8259 refuses, one row for each way the reader took them.
    #[test]
    fn the_reader_refuses_what_json_refuses() {
        let accepted: Vec<&str> = [
            "+1",
            ".5",
            "1.",
            "01",
            "-01",
            "\"\u{1}\"",         // a raw control byte in a string
            "\"a\nb\"",          // a raw line break in a string
            r#""\u+041""#,       // a sign among the four hex digits
            r#""\ud83d""#,       // a lone high surrogate
            r#""\ude00""#,       // a lone low surrogate
            r#""\ud83d\u0041""#, // a high surrogate before no low one
        ]
        .into_iter()
        .filter(|text| parse(text).is_ok())
        .collect();
        assert!(accepted.is_empty(), "accepted: {accepted:?}");
    }

    #[test]
    fn a_surrogate_pair_is_one_character() {
        assert_eq!(
            parse(r#""\ud83d\ude00""#),
            Ok(Json::Str("\u{1f600}".to_string()))
        );
    }

    /// What a reader can be handed instead of an export: arbitrary bytes,
    /// and every export mangled. Both readers refuse or accept, and never
    /// panic; what the profiler and the exporter render reads back as it
    /// was written.
    mod hostile_bytes {
        use super::*;
        use simnet::{check_cases, EventSink, Metrics, Profiler, SimRng};

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
        fn events(r: &mut SimRng) -> Vec<Event> {
            let mut at = 0;
            r.vec_of(0..40, |r| {
                let name = r.gen_range_u64(0, NAMES.len() as u64) as usize;
                let phase = r.gen_range_u64(0, 3) as usize;
                let node = r.gen_range_u64(0, 5) as u32;
                let track = r.gen_range_u64(0, 4) as usize;
                let op = r.next_u64();
                let bytes = r.gen_range_u64(0, 1 << 52);
                at += r.gen_range_u64(0, 5_000);
                Event {
                    layer: LAYERS[op as usize % LAYERS.len()],
                    name: NAMES[name],
                    phase: [Phase::Begin, Phase::End, Phase::Instant][phase],
                    node: (node < 4).then_some(NodeId(node)),
                    track: [
                        Track::Main,
                        Track::Worker(1),
                        Track::Endpoint(7),
                        Track::Qp(3),
                    ][track],
                    // Few ops, so spans meet their ends.
                    op: op % 3,
                    bytes,
                    at: SimTime::from_nanos(at),
                }
            })
        }

        /// An export or a folded profile of `events`, mangled.
        fn mangled(r: &mut SimRng) -> Vec<u8> {
            let events = events(r);
            let text = if r.next_u64() & 1 == 1 {
                chrome_trace_json(&events)
            } else {
                folded_text(&folded(&events))
            };
            r.mangle(text.into_bytes())
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
            let _ = parse(&text);
        }

        /// Nesting past the cap is refused, not followed off the stack.
        #[test]
        fn deep_nesting_is_refused() {
            for open in ["[", "{\"a\":"] {
                let deep = open.repeat(200_000);
                assert!(parse(&deep).unwrap_err().starts_with("nested deeper"));
            }
            let shallow = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
            assert!(parse(&shallow).is_ok());
        }

        fn arbitrary_bytes(r: &mut SimRng) -> Vec<u8> {
            r.vec_of(0..300, |r| r.next_u64() as u8)
        }

        #[test]
        fn readers_survive_arbitrary_bytes() {
            check_cases(
                "readers_survive_arbitrary_bytes",
                256,
                arbitrary_bytes,
                |b| survive(b),
            );
        }

        #[test]
        fn readers_survive_mangled_exports() {
            check_cases("readers_survive_mangled_exports", 256, mangled, |b| {
                survive(b)
            });
        }

        #[test]
        fn a_folded_profile_reads_back_as_written() {
            check_cases(
                "a_folded_profile_reads_back_as_written",
                256,
                events,
                |events| {
                    let lines = folded(events);
                    assert_eq!(parse_folded(&folded_text(&lines)), Ok(lines));
                },
            );
        }

        #[test]
        fn an_export_reads_back_as_written() {
            check_cases("an_export_reads_back_as_written", 256, events, |events| {
                reads_back(events);
            });
        }
    }
}
