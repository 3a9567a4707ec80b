//! R3 — trace-span hygiene: every emitted span can open and close, and
//! carries a key that correlates the two.
//!
//! A literal-name `begin(Layer::…)` must have a matching `end` either in
//! the same file or in a file whose functions share an (undirected)
//! call-graph component with the emitting function — the shape of a
//! window opened in the request path and closed in the completion
//! handler. A name with no counterpart anywhere, or whose only
//! counterparts live in unconnected code, is a renamed or dead span and
//! will record as an unmatched interval. A dynamic name cannot be
//! matched across files by value, so the emitting file must balance it.

use std::collections::BTreeMap;

use super::Findings;
use crate::lexer::TokKind;
use crate::workspace::{SourceFile, Workspace};

/// A tracer-span emission site (`.begin(Layer::…)` / `.end(Layer::…)`).
struct SpanSite {
    /// Token index of the method-name token.
    tok: usize,
    line: u32,
    is_begin: bool,
    /// Literal span name; `None` when the name argument is dynamic.
    name: Option<String>,
    /// True when the span-key argument is the literal `0`.
    zero_key: bool,
}

/// Finds every tracer-span emission in a file. Recognition is by shape:
/// a `begin`/`end` method call whose first argument is a
/// `Layer::…` placement (the tracer's emission helpers are the only
/// `begin`/`end` methods that start with `Layer`).
fn span_sites(f: &SourceFile) -> Vec<SpanSite> {
    let mut out = Vec::new();
    for i in 0..f.toks.len() {
        let Some(method) = f.any_ident(i + 1).filter(|_| f.punct(i, '.')) else {
            continue;
        };
        if method != "begin" && method != "end" {
            continue;
        }
        if !(f.punct(i + 2, '(') && f.ident(i + 3, "Layer") && f.punct(i + 4, ':')) {
            continue;
        }
        // args: layer, name, node, track, op, bytes, at
        let args = f.split_args(i + 2);
        let single = |k: usize, kind: TokKind| {
            let &(a, b) = args.get(k)?;
            (b == a + 1 && f.toks[a].kind == kind).then(|| f.toks[a].text.as_str())
        };
        out.push(SpanSite {
            tok: i + 1,
            line: f.line(i + 1),
            is_begin: method == "begin",
            name: single(1, TokKind::Str).map(str::to_string),
            zero_key: single(4, TokKind::Num) == Some("0"),
        });
    }
    out
}

/// One literal-name emission, for pairing by name.
struct Named {
    file: usize,
    line: u32,
    /// Component of the enclosing fn; `None` (outside any indexed fn) is
    /// treated as connected-to-everything.
    comp: Option<usize>,
    is_begin: bool,
}

pub(super) fn run(ws: &Workspace, out: &mut Findings) {
    let mut by_name: BTreeMap<String, Vec<Named>> = BTreeMap::new();
    for (fi, f) in out.files(ws) {
        let mut dynamic: [Vec<u32>; 2] = Default::default();
        for s in span_sites(f) {
            if f.in_test(s.tok) {
                continue;
            }
            let side = if s.is_begin { "begin" } else { "end" };
            if s.zero_key {
                out.report(
                    ws,
                    fi,
                    s.line,
                    format!(
                        "span {side} {} uses the literal span key 0: begin/end cannot \
                         be correlated without a real wr_id/req_id",
                        s.name.as_deref().unwrap_or("<dynamic>")
                    ),
                );
            }
            match s.name {
                None => dynamic[usize::from(s.is_begin)].push(s.line),
                Some(name) => by_name.entry(name).or_default().push(Named {
                    file: fi,
                    line: s.line,
                    comp: ws.graph.fn_at(fi, s.tok).map(|id| ws.component[id]),
                    is_begin: s.is_begin,
                }),
            }
        }
        let [ends, begins] = dynamic;
        let (orphans, message) = if ends.is_empty() {
            (
                begins,
                "dynamic-name span begin has no end emission in this file: \
                 the span never closes on any timeline",
            )
        } else if begins.is_empty() {
            (
                ends,
                "dynamic-name span end has no begin emission in this file: \
                 the span can never open",
            )
        } else {
            continue;
        };
        for line in orphans {
            out.report(ws, fi, line, message.to_string());
        }
    }
    for (name, sites) in &by_name {
        for s in sites {
            let (side, other_side) = if s.is_begin {
                ("begin", "end")
            } else {
                ("end", "begin")
            };
            let mut others = sites.iter().filter(|o| o.is_begin != s.is_begin).peekable();
            let message = if others.peek().is_none() {
                format!(
                    "span {side} {name:?} has no {other_side} anywhere \
                     in the workspace: the interval never closes"
                )
            } else if others.any(|o| {
                o.file == s.file || s.comp.is_none() || o.comp.is_none() || o.comp == s.comp
            }) {
                continue;
            } else {
                format!(
                    "span {side} {name:?}: every matching {other_side} \
                     lives in a file with no call-graph connection to this \
                     one — likely a renamed or dead span"
                )
            };
            out.report(ws, s.file, s.line, message);
        }
    }
}
