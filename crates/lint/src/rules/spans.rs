//! R3 — trace-span hygiene: every emitted span can open and close, and
//! carries a key that correlates the two.
//!
//! A `begin(Layer::…)` must have an `end` of the same name in the same
//! file, and an `end` a `begin`. A dynamic name cannot be matched by
//! value, so any dynamic counterpart in the file pairs with it.

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

pub(super) fn run(ws: &Workspace, out: &mut Findings) {
    for (fi, f) in out.files(ws) {
        let mut sites = span_sites(f);
        sites.retain(|s| !f.in_test(s.tok));
        for s in &sites {
            let (side, other_side, fate) = if s.is_begin {
                ("begin", "end", "never closes")
            } else {
                ("end", "begin", "never opens")
            };
            let name = s
                .name
                .as_ref()
                .map_or("<dynamic>".to_string(), |n| format!("{n:?}"));
            if s.zero_key {
                out.report(
                    ws,
                    fi,
                    s.line,
                    format!(
                        "span {side} {name} uses the literal span key 0: begin/end cannot \
                         be correlated without a real wr_id/req_id"
                    ),
                );
            }
            if !sites
                .iter()
                .any(|o| o.is_begin != s.is_begin && o.name == s.name)
            {
                out.report(
                    ws,
                    fi,
                    s.line,
                    format!(
                        "span {side} {name} has no {other_side} in this file: the \
                         interval {fate} (a span opens and closes in the file that \
                         names it)"
                    ),
                );
            }
        }
    }
}
