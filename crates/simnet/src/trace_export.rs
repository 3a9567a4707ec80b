//! Perfetto/Chrome-trace export of [`trace`](crate::trace) event streams.
//!
//! [`chrome_trace_json`] serializes a recorded event slice into the Chrome
//! trace-event JSON format, so any simulated run opens directly in
//! `chrome://tracing` or [ui.perfetto.dev](https://ui.perfetto.dev):
//!
//! * each simulated **node becomes a process** (`pid` = node id + 1, named
//!   `nodeN`; fabric-global events land in process 0, `fabric`);
//! * each [`Track`] becomes a **thread** within the
//!   node's process: `main` (tid 0), `workerN` (tid 1+N), `epN`
//!   (tid 100+N), `qpN` (tid 10000+N);
//! * span events ([`Phase::Begin`]/[`Phase::End`]) are emitted as async
//!   pairs (`ph:"b"/"e"`) keyed by the correlation id, with the layer as
//!   the category, so one operation's verbs/UCR/core spans line up;
//! * instants are `ph:"i"` thread-scoped markers.
//!
//! Timestamps are virtual microseconds with nanosecond precision. The
//! serializer is hand-rolled (the workspace has no serde).
//! [`folded_text`] writes a profiler's collapsed stacks, and [`json_escape`]
//! is the string escape every JSON writer of the workspace shares. This
//! module only writes: the reader of both formats lives with the harness
//! that consumes them (`rmc_bench::json`).

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

/// `s` as the inside of a JSON string literal: quote, backslash and every
/// control character escaped, everything else as it is.
pub fn json_escape(s: &str) -> String {
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
    let pid_of = |ev: &Event| ev.node.map_or(0, |n| n.0 as u64 + 1);
    let mut entries = Vec::new();

    // Metadata: name each process (node) and thread (track) once.
    let mut named: Vec<(u64, Option<u64>)> = Vec::new();
    for ev in events {
        let (pid, tid) = (pid_of(ev), track_tid(ev.track));
        if !named.contains(&(pid, None)) {
            named.push((pid, None));
            let pname = ev.node.map_or("fabric".to_string(), |n| n.to_string());
            entries.push(format!(
                "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"args\":{{\"name\":\"{}\"}}}}",
                json_escape(&pname)
            ));
        }
        if !named.contains(&(pid, Some(tid))) {
            named.push((pid, Some(tid)));
            entries.push(format!(
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
                json_escape(&ev.track.to_string())
            ));
        }
    }

    for ev in events {
        let (pid, tid) = (pid_of(ev), track_tid(ev.track));
        let ts_ns = ev.at.as_nanos();
        let ts = format!("{}.{:03}", ts_ns / 1000, ts_ns % 1000);
        // An instant is thread-scoped (`"s":"t"`).
        let ph = match ev.phase {
            Phase::Begin => "\"b\"",
            Phase::End => "\"e\"",
            Phase::Instant => "\"i\",\"s\":\"t\"",
        };
        entries.push(format!(
            "{{\"ph\":{ph},\"cat\":\"{}\",\"id\":\"0x{:x}\",\"name\":\"{}\",\
             \"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\
             \"args\":{{\"op\":{},\"bytes\":{}}}}}",
            ev.layer.label(),
            ev.op,
            json_escape(ev.name),
            ev.op,
            ev.bytes
        ));
    }
    let entries = entries.join(",");
    format!("{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[{entries}]}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_map_to_stable_tids() {
        assert_eq!(track_tid(Track::Main), 0);
        assert_eq!(track_tid(Track::Worker(2)), 3);
        assert_eq!(track_tid(Track::Endpoint(5)), 105);
        assert_eq!(track_tid(Track::Qp(9)), 10_009);
    }
}
