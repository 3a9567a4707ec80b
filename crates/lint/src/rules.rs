//! The rule engine: five project invariants checked lexically.
//!
//! | rule | invariant |
//! |------|-----------|
//! | R1   | virtual-time purity: no wall clock / OS randomness in the simulated layers |
//! | R2   | metric-name discipline: registry names parse against the dotted grammar `prometheus_text()` maps to `rmc_*` families, and reads reference registered names |
//! | R3   | trace-span balance: tracer `begin`/`end` names pair up per file; span keys are never the literal `0` |
//! | R4   | panic-path audit: no `unwrap()`/`expect()`/`panic!` in non-test code of the protocol crates |
//! | R5   | counter monotonicity: UCR counter cells are only written inside `counter.rs` |
//!
//! Rules see a token stream (comments and test regions already
//! classified by [`crate::lexer`]); violations are reported as
//! `file:line` plus a message. `// lint:allow(<rule>) reason` on the
//! offending line (or alone on the line above) waives a hit.

use std::collections::BTreeSet;

use crate::lexer::{Lexed, TokKind, Token};

/// One rule hit.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// Rule id (`"R1"`..`"R5"`).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

/// A metric registration site found by R2 (the manifest rows).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricSite {
    /// Dotted name with `format!` placeholders normalized to `*` (a `*`
    /// matches any run of `[a-z0-9_.]`, so one placeholder may stand for
    /// several segments).
    pub pattern: String,
    /// `counter` / `gauge` / `histogram`.
    pub kind: &'static str,
    /// Owning layer: the first literal segment when it is a known layer
    /// prefix, `dynamic` when the pattern starts with a placeholder,
    /// `other` otherwise.
    pub layer: String,
    /// File the registration lives in.
    pub file: String,
    /// Registration line.
    pub line: u32,
}

/// A literal-name metric *read* (`counter_value("…")`) found by R2,
/// checked against the registered patterns after all files are scanned.
#[derive(Clone, Debug)]
pub struct MetricRead {
    /// The read name, placeholders normalized to `x`.
    pub name: String,
    /// `counter` / `gauge` — the instrument kind the read expects.
    pub kind: &'static str,
    /// File / line of the read.
    pub file: String,
    /// Read line.
    pub line: u32,
}

/// Per-file scan result.
#[derive(Debug, Default)]
pub struct FileScan {
    /// Rule hits (waivers not yet applied).
    pub violations: Vec<Violation>,
    /// Metric registrations (for the manifest and the read check).
    pub sites: Vec<MetricSite>,
    /// Metric reads (validated globally).
    pub reads: Vec<MetricRead>,
}

pub(crate) const R1_SCOPE: [&str; 10] = [
    "crates/simnet/",
    "crates/verbs/",
    "crates/ucr/",
    "crates/sockets/",
    "crates/core/",
    "crates/store/",
    "crates/proto/",
    "crates/bench/",
    "src/",
    "examples/",
];

const R4_SCOPE: [&str; 5] = [
    "crates/ucr/src/",
    "crates/verbs/src/",
    "crates/core/src/",
    "crates/sockets/src/",
    "crates/proto/src/",
];

/// Layer prefixes `prometheus_text()` turns into a `layer` label — kept
/// in sync with `simnet::timeseries::LAYER_PREFIXES`.
const KNOWN_LAYERS: [&str; 10] = [
    "wire", "verbs", "ucr", "core", "mc", "client", "bench", "latency", "trace", "profile",
];

/// Final segments reserved for series the sampler / reporter derives
/// (`<name>.rate`, watermarks, histogram summaries): a registered name
/// ending in one would collide with the derived series.
const RESERVED_SUFFIXES: [&str; 10] = [
    "rate", "high", "low", "count", "sum", "mean_us", "p50_us", "p95_us", "p99_us", "max_us",
];

/// True when `path` lives in a test tree (integration tests are test
/// code wholesale; every rule is a non-test rule).
pub fn is_test_path(path: &str) -> bool {
    path.starts_with("tests/") || path.contains("/tests/")
}

struct View<'a> {
    path: &'a str,
    toks: &'a [Token],
    test_regions: Vec<(usize, usize)>,
}

impl<'a> View<'a> {
    fn in_test(&self, idx: usize) -> bool {
        self.test_regions.iter().any(|&(a, b)| idx >= a && idx <= b)
    }

    fn ident(&self, i: usize, s: &str) -> bool {
        self.toks
            .get(i)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text == s)
    }

    fn any_ident(&self, i: usize) -> Option<&'a str> {
        self.toks
            .get(i)
            .and_then(|t| (t.kind == TokKind::Ident).then_some(t.text.as_str()))
    }

    fn punct(&self, i: usize, c: char) -> bool {
        self.toks
            .get(i)
            .is_some_and(|t| t.kind == TokKind::Punct && t.text.len() == 1 && t.text.starts_with(c))
    }

    fn line(&self, i: usize) -> u32 {
        self.toks.get(i).map(|t| t.line).unwrap_or(0)
    }
}

/// Scans one lexed file with every rule whose scope covers `path`.
/// `lexed` must come from [`crate::lexer::lex`] on that file's text.
pub fn scan_file(path: &str, lexed: &Lexed) -> FileScan {
    let mut out = FileScan::default();
    if is_test_path(path) {
        return out;
    }
    let view = View {
        path,
        toks: &lexed.tokens,
        test_regions: crate::lexer::test_regions(&lexed.tokens),
    };
    if R1_SCOPE.iter().any(|p| path.starts_with(p)) {
        rule_r1(&view, &mut out);
    }
    rule_r2(&view, &mut out);
    rule_r3(&view, &mut out);
    if R4_SCOPE.iter().any(|p| path.starts_with(p)) {
        rule_r4(&view, &mut out);
    }
    if path.starts_with("crates/ucr/src/") && !path.ends_with("/counter.rs") {
        rule_r5(&view, &mut out);
    }
    out
}

// ---------------------------------------------------------------------
// R1 — virtual-time purity
// ---------------------------------------------------------------------

enum Pat {
    I(&'static str),
    ColonColon,
}

fn match_pat_toks(toks: &[Token], start: usize, pat: &[Pat]) -> Option<usize> {
    let ident = |i: usize, s: &str| {
        toks.get(i)
            .is_some_and(|t: &Token| t.kind == TokKind::Ident && t.text == s)
    };
    let punct = |i: usize, c: char| {
        toks.get(i)
            .is_some_and(|t: &Token| t.kind == TokKind::Punct && t.text.starts_with(c))
    };
    let mut i = start;
    for p in pat {
        match p {
            Pat::I(s) => {
                if !ident(i, s) {
                    return None;
                }
                i += 1;
            }
            Pat::ColonColon => {
                if !(punct(i, ':') && punct(i + 1, ':')) {
                    return None;
                }
                i += 2;
            }
        }
    }
    Some(i)
}

/// One wall-clock / OS-entropy construct found in a token range.
pub(crate) struct ImpurityHit {
    /// Token index of the match start.
    pub tok: usize,
    /// 1-based source line.
    pub line: u32,
    /// What was called (`std::time::Instant`, `thread_rng`, …).
    pub what: &'static str,
    /// True for the single-identifier randomness constructs (their
    /// message differs from the path-pattern one).
    pub is_entropy_single: bool,
}

/// Scans `toks[from..to)` for the R1 impurity constructs — shared by the
/// file-local R1 rule and the interprocedural R1v2 taint analysis.
pub(crate) fn impurity_scan(toks: &[Token], from: usize, to: usize) -> Vec<ImpurityHit> {
    use Pat::{ColonColon as CC, I};
    let paths: [(&[Pat], &'static str); 7] = [
        (&[I("time"), CC, I("Instant")], "std::time::Instant"),
        (&[I("time"), CC, I("SystemTime")], "std::time::SystemTime"),
        (&[I("Instant"), CC, I("now")], "Instant::now"),
        (&[I("SystemTime"), CC, I("now")], "SystemTime::now"),
        (&[I("thread"), CC, I("sleep")], "std::thread::sleep"),
        (&[I("process"), CC, I("id")], "std::process::id"),
        (&[I("rand"), CC, I("random")], "rand::random (OS-seeded)"),
    ];
    let singles: [&'static str; 4] = ["thread_rng", "from_entropy", "OsRng", "getrandom"];
    let mut out = Vec::new();
    let mut i = from;
    let to = to.min(toks.len());
    while i < to {
        let mut advanced = false;
        for (pat, what) in &paths {
            if let Some(end) = match_pat_toks(toks, i, pat) {
                out.push(ImpurityHit {
                    tok: i,
                    line: toks[i].line,
                    what,
                    is_entropy_single: false,
                });
                i = end;
                advanced = true;
                break;
            }
        }
        if advanced {
            continue;
        }
        if let Some(t) = toks.get(i) {
            if t.kind == TokKind::Ident {
                if let Some(what) = singles.iter().find(|s| **s == t.text) {
                    out.push(ImpurityHit {
                        tok: i,
                        line: t.line,
                        what,
                        is_entropy_single: true,
                    });
                }
            }
        }
        i += 1;
    }
    out
}

/// The R1 violation message for an impurity hit.
pub(crate) fn impurity_message(hit: &ImpurityHit) -> String {
    if hit.is_entropy_single {
        format!(
            "{} in a simulated layer: all randomness must flow from the \
             cluster seed (simnet::rng)",
            hit.what
        )
    } else {
        format!(
            "{} in a simulated layer: virtual-time code must not read \
             the wall clock, host scheduler, or OS entropy",
            hit.what
        )
    }
}

fn rule_r1(v: &View, out: &mut FileScan) {
    for hit in impurity_scan(v.toks, 0, v.toks.len()) {
        if v.in_test(hit.tok) {
            continue;
        }
        out.violations.push(Violation {
            rule: "R1",
            file: v.path.to_string(),
            line: hit.line,
            message: impurity_message(&hit),
        });
    }
}

// ---------------------------------------------------------------------
// R2 — metric-name discipline
// ---------------------------------------------------------------------

/// Splits `format!`-style text into literal chunks and placeholders,
/// producing the text with each placeholder replaced by `sub`.
/// `{{`/`}}` escapes become literal braces (which then fail the
/// grammar — intentionally: a brace has no place in a metric name).
fn substitute_placeholders(s: &str, sub: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '{' {
            if chars.peek() == Some(&'{') {
                chars.next();
                out.push('{');
                continue;
            }
            for inner in chars.by_ref() {
                if inner == '}' {
                    break;
                }
            }
            out.push_str(sub);
        } else if c == '}' {
            if chars.peek() == Some(&'}') {
                chars.next();
            }
            out.push('}');
        } else {
            out.push(c);
        }
    }
    out
}

/// Checks a (placeholder-substituted) name against the dotted grammar:
/// non-empty `[a-z0-9_]` segments joined by single dots, starting with
/// a letter. Returns a description of the first problem.
fn name_grammar_error(name: &str) -> Option<String> {
    if name.is_empty() {
        return Some("empty name".to_string());
    }
    if !name.starts_with(|c: char| c.is_ascii_lowercase()) {
        return Some("must start with a lowercase letter".to_string());
    }
    for seg in name.split('.') {
        if seg.is_empty() {
            return Some("empty segment (leading/trailing/double dot)".to_string());
        }
        if let Some(bad) = seg
            .chars()
            .find(|c| !(c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '_'))
        {
            return Some(format!("illegal character {bad:?} in segment {seg:?}"));
        }
    }
    None
}

/// The first string-ish argument of a call: either a plain string
/// literal or `[&]format!("…", …)`. Returns (raw format text, had
/// placeholders allowed).
fn first_string_arg<'a>(v: &View<'a>, mut j: usize) -> Option<(&'a str, bool)> {
    while v.punct(j, '&') {
        j += 1;
    }
    if let Some(t) = v.toks.get(j) {
        if t.kind == TokKind::Str {
            return Some((t.text.as_str(), false));
        }
    }
    if v.ident(j, "format") && v.punct(j + 1, '!') && v.punct(j + 2, '(') {
        if let Some(t) = v.toks.get(j + 3) {
            if t.kind == TokKind::Str {
                return Some((t.text.as_str(), true));
            }
        }
    }
    None
}

fn rule_r2(v: &View, out: &mut FileScan) {
    for i in 0..v.toks.len() {
        if v.in_test(i) {
            continue;
        }
        let Some(name) = v.any_ident(i) else { continue };
        let (kind, is_read) = match name {
            "counter" => ("counter", false),
            "gauge" => ("gauge", false),
            "histogram" => ("histogram", false),
            "counter_value" => ("counter", true),
            "gauge_value" => ("gauge", true),
            _ => continue,
        };
        if !v.punct(i + 1, '(') {
            continue;
        }
        // Only method calls on a registry (`metrics.gauge(…)`) register:
        // this skips `fn counter(…)` definitions and local helper
        // closures whose inner registration is matched at its own site.
        if i == 0 || !v.punct(i - 1, '.') {
            continue;
        }
        let Some((text, is_format)) = first_string_arg(v, i + 2) else {
            continue; // dynamic name: not statically checkable
        };
        let line = v.line(i);
        let checked = if is_format {
            substitute_placeholders(text, "x")
        } else {
            text.to_string()
        };
        if let Some(err) = name_grammar_error(&checked) {
            out.violations.push(Violation {
                rule: "R2",
                file: v.path.to_string(),
                line,
                message: format!(
                    "metric name {text:?} violates the dotted-name grammar ({err}); \
                     prometheus_text() cannot map it to a clean rmc_* family"
                ),
            });
            continue;
        }
        if is_read {
            out.reads.push(MetricRead {
                name: checked,
                kind,
                file: v.path.to_string(),
                line,
            });
            continue;
        }
        let pattern = if is_format {
            substitute_placeholders(text, "*")
        } else {
            text.to_string()
        };
        if let Some(last) = pattern.rsplit('.').next() {
            if RESERVED_SUFFIXES.contains(&last) {
                out.violations.push(Violation {
                    rule: "R2",
                    file: v.path.to_string(),
                    line,
                    message: format!(
                        "metric name {text:?} ends in reserved segment {last:?}, which \
                         collides with a sampler/report-derived series of the base name"
                    ),
                });
                continue;
            }
        }
        let first = pattern.split('.').next().unwrap_or("");
        let layer = if first == "*" || first.contains('*') {
            "dynamic".to_string()
        } else if KNOWN_LAYERS.contains(&first) {
            first.to_string()
        } else {
            "other".to_string()
        };
        out.sites.push(MetricSite {
            pattern,
            kind,
            layer,
            file: v.path.to_string(),
            line,
        });
    }
}

/// Glob match for manifest patterns: `*` matches any (possibly empty)
/// run of `[a-z0-9_.]` — a placeholder may expand across segments
/// (`{prefix}` routinely carries dots).
pub fn pattern_matches(pattern: &str, name: &str) -> bool {
    fn rec(p: &[u8], s: &[u8]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some(b'*') => {
                for k in 0..=s.len() {
                    if rec(&p[1..], &s[k..]) {
                        return true;
                    }
                    if k < s.len() {
                        let c = s[k];
                        let ok =
                            c.is_ascii_lowercase() || c.is_ascii_digit() || c == b'_' || c == b'.';
                        if !ok {
                            return false;
                        }
                    }
                }
                false
            }
            Some(&c) => !s.is_empty() && s[0] == c && rec(&p[1..], &s[1..]),
        }
    }
    rec(pattern.as_bytes(), name.as_bytes())
}

/// Validates every literal metric *read* against the registration
/// patterns collected across the whole workspace: a read of a name no
/// site registers silently returns zero forever — the typo'd-series
/// failure mode R2 exists to catch.
pub fn check_reads(sites: &[MetricSite], reads: &[MetricRead]) -> Vec<Violation> {
    let mut out = Vec::new();
    for r in reads {
        let known = sites
            .iter()
            .any(|s| s.kind == r.kind && pattern_matches(&s.pattern, &r.name));
        if !known {
            out.push(Violation {
                rule: "R2",
                file: r.file.clone(),
                line: r.line,
                message: format!(
                    "read of {} {:?} matches no registered metric: a typo here reads \
                     zero forever instead of failing",
                    r.kind, r.name
                ),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------
// R3 — trace-span balance
// ---------------------------------------------------------------------

/// Splits the arguments of a call whose `(` sits at `open`; returns
/// token ranges for each top-level argument.
pub(crate) fn split_args_toks(toks: &[Token], open: usize) -> Vec<(usize, usize)> {
    let mut args = Vec::new();
    let mut depth = 1usize;
    let mut start = open + 1;
    let mut j = open + 1;
    while j < toks.len() && depth > 0 {
        let t = &toks[j];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth == 0 {
                        if j > start {
                            args.push((start, j));
                        }
                        break;
                    }
                }
                "," if depth == 1 => {
                    args.push((start, j));
                    start = j + 1;
                }
                _ => {}
            }
        }
        j += 1;
    }
    args
}

/// A tracer-span emission site (`.begin(Layer::…)` / `.end(Layer::…)`,
/// `_detail` variants included) — shared with the cross-file R3v2 pass.
pub(crate) struct SpanSite {
    /// Token index of the method-name token.
    pub tok: usize,
    /// 1-based line of the method name.
    pub line: u32,
    /// True for `begin`/`begin_detail`.
    pub is_begin: bool,
    /// Literal span name; `None` when the name argument is dynamic.
    pub name: Option<String>,
    /// True when the span-key argument is the literal `0`.
    pub zero_key: bool,
}

/// Finds every tracer-span emission in a token stream. Recognition is
/// by shape: a `begin`/`end`(`_detail`) method call whose first argument
/// is a `Layer::…` placement (the tracer's emission helpers are the only
/// `begin`/`end` methods that start with `Layer`).
pub(crate) fn span_sites(toks: &[Token]) -> Vec<SpanSite> {
    let punct = |i: usize, c: char| {
        toks.get(i)
            .is_some_and(|t: &Token| t.kind == TokKind::Punct && t.text.starts_with(c))
    };
    let ident = |i: usize, s: &str| {
        toks.get(i)
            .is_some_and(|t: &Token| t.kind == TokKind::Ident && t.text == s)
    };
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !punct(i, '.') {
            continue;
        }
        let Some(t) = toks.get(i + 1) else { continue };
        if t.kind != TokKind::Ident {
            continue;
        }
        let method = t.text.strip_suffix("_detail").unwrap_or(&t.text);
        if method != "begin" && method != "end" {
            continue;
        }
        if !(punct(i + 2, '(') && ident(i + 3, "Layer") && punct(i + 4, ':')) {
            continue;
        }
        let args = split_args_toks(toks, i + 2);
        // args: layer, name, node, track, op, bytes, at
        let name = args.get(1).and_then(|&(a, b)| {
            (b == a + 1 && toks[a].kind == TokKind::Str).then(|| toks[a].text.clone())
        });
        let zero_key = args.get(4).is_some_and(|&(a, b)| {
            b == a + 1 && toks[a].kind == TokKind::Num && toks[a].text == "0"
        });
        out.push(SpanSite {
            tok: i + 1,
            line: toks[i + 1].line,
            is_begin: method == "begin",
            name,
            zero_key,
        });
    }
    out
}

fn rule_r3(v: &View, out: &mut FileScan) {
    // Literal-name begin/end pairing is interprocedural since the v2
    // analyzer (rule R3v2 in `crate::rules2`, matched through the call
    // graph). The file-local rule keeps what a workspace pass cannot
    // improve on: span-key hygiene, and pairing for *dynamic* names —
    // a dynamic name cannot be matched across files by value, so the
    // emitting file must balance it.
    let mut dyn_begins: Vec<u32> = Vec::new();
    let mut dyn_ends: Vec<u32> = Vec::new();
    for s in span_sites(v.toks) {
        if v.in_test(s.tok) {
            continue;
        }
        if s.zero_key {
            out.violations.push(Violation {
                rule: "R3",
                file: v.path.to_string(),
                line: s.line,
                message: format!(
                    "span {} {} uses the literal span key 0: begin/end cannot \
                     be correlated without a real wr_id/req_id",
                    if s.is_begin { "begin" } else { "end" },
                    s.name.as_deref().unwrap_or("<dynamic>")
                ),
            });
        }
        if s.name.is_none() {
            if s.is_begin {
                dyn_begins.push(s.line);
            } else {
                dyn_ends.push(s.line);
            }
        }
    }
    if !dyn_begins.is_empty() && dyn_ends.is_empty() {
        for line in dyn_begins {
            out.violations.push(Violation {
                rule: "R3",
                file: v.path.to_string(),
                line,
                message: "dynamic-name span begin has no end emission in this file: \
                          the span never closes on any timeline"
                    .to_string(),
            });
        }
    } else if dyn_begins.is_empty() && !dyn_ends.is_empty() {
        for line in dyn_ends {
            out.violations.push(Violation {
                rule: "R3",
                file: v.path.to_string(),
                line,
                message: "dynamic-name span end has no begin emission in this file: \
                          the span can never open"
                    .to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------------
// R4 — panic-path audit
// ---------------------------------------------------------------------

fn rule_r4(v: &View, out: &mut FileScan) {
    for i in 0..v.toks.len() {
        if v.in_test(i) {
            continue;
        }
        let hit = if v.punct(i, '.') && v.ident(i + 1, "unwrap") && v.punct(i + 2, '(') {
            Some((v.line(i + 1), ".unwrap()"))
        } else if v.punct(i, '.') && v.ident(i + 1, "expect") && v.punct(i + 2, '(') {
            Some((v.line(i + 1), ".expect()"))
        } else if v.ident(i, "panic") && v.punct(i + 1, '!') {
            Some((v.line(i), "panic!"))
        } else {
            None
        };
        if let Some((line, what)) = hit {
            out.violations.push(Violation {
                rule: "R4",
                file: v.path.to_string(),
                line,
                message: format!(
                    "{what} in protocol-crate non-test code: convert to a fault()-\
                     reporting error path (endpoint-failure model) or waive with a reason"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// R5 — counter monotonicity
// ---------------------------------------------------------------------

fn rule_r5(v: &View, out: &mut FileScan) {
    for i in 0..v.toks.len() {
        if v.in_test(i) {
            continue;
        }
        let seq_value_set = v.punct(i, '.')
            && v.ident(i + 1, "value")
            && v.punct(i + 2, '.')
            && v.ident(i + 3, "set")
            && v.punct(i + 4, '(');
        let seq_notify = v.punct(i, '.')
            && v.ident(i + 1, "notify")
            && v.punct(i + 2, '.')
            && v.ident(i + 3, "notify_all")
            && v.punct(i + 4, '(');
        if seq_value_set || seq_notify {
            out.violations.push(Violation {
                rule: "R5",
                file: v.path.to_string(),
                line: v.line(i + 1),
                message: format!(
                    "direct counter-cell {} outside counter.rs: the §4.1 bump ordering \
                     (value, trace, notify) is only guaranteed by CtrInner::bump",
                    if seq_value_set {
                        "write (.value.set)"
                    } else {
                        "wakeup (.notify.notify_all)"
                    }
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// Waiver application
// ---------------------------------------------------------------------

/// Drops violations covered by a waiver on the same line (or a
/// standalone waiver on the line directly above). Returns the surviving
/// violations and the number waived.
pub fn apply_waivers(violations: Vec<Violation>, lexed: &Lexed) -> (Vec<Violation>, usize) {
    let mut same_line: BTreeSet<(u32, &str)> = BTreeSet::new();
    let mut next_line: BTreeSet<(u32, &str)> = BTreeSet::new();
    for w in &lexed.waivers {
        for r in &w.rules {
            same_line.insert((w.line, r.as_str()));
            if w.standalone {
                next_line.insert((w.line + 1, r.as_str()));
            }
        }
    }
    let before = violations.len();
    let kept: Vec<Violation> = violations
        .into_iter()
        .filter(|v| {
            !(same_line.contains(&(v.line, v.rule)) || next_line.contains(&(v.line, v.rule)))
        })
        .collect();
    let waived = before - kept.len();
    (kept, waived)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn scan(path: &str, src: &str) -> FileScan {
        scan_file(path, &lex(src))
    }

    #[test]
    fn grammar_accepts_and_rejects() {
        assert!(name_grammar_error("mc.node0.worker1.queue_depth").is_none());
        assert!(name_grammar_error("bench.tps").is_none());
        assert!(name_grammar_error("x").is_none());
        assert!(name_grammar_error("Bad.name").is_some());
        assert!(name_grammar_error("a..b").is_some());
        assert!(name_grammar_error(".lead").is_some());
        assert!(name_grammar_error("tail.").is_some());
        assert!(name_grammar_error("has-dash").is_some());
        assert!(name_grammar_error("has space").is_some());
        assert!(name_grammar_error("0digit.first").is_some());
    }

    #[test]
    fn placeholder_substitution() {
        assert_eq!(
            substitute_placeholders("client.node{}.inflight", "*"),
            "client.node*.inflight"
        );
        assert_eq!(
            substitute_placeholders("ucr.{net}.{node}.{name}", "x"),
            "ucr.x.x.x"
        );
        assert_eq!(substitute_placeholders("{prefix}.wakes", "*"), "*.wakes");
        assert_eq!(substitute_placeholders("{v:>8}.q", "x"), "x.q");
        // Escaped braces survive substitution — and then fail the grammar.
        assert_eq!(substitute_placeholders("a{{b}}", "x"), "a{b}");
    }

    #[test]
    fn pattern_glob_semantics() {
        assert!(pattern_matches(
            "client.node*.inflight",
            "client.node1.inflight"
        ));
        assert!(pattern_matches("*.wakes", "mc.node0.worker3.wakes"));
        assert!(pattern_matches(
            "ucr.*.*.*",
            "ucr.ib.node0.mr_cache_hit_rate"
        ));
        assert!(!pattern_matches("*.wakes", "mc.node0.worker3.batch_items"));
        assert!(!pattern_matches("client.node*.inflight", "client.inflight"));
        assert!(pattern_matches("bench.tps", "bench.tps"));
    }

    #[test]
    fn r2_flags_bad_literal_and_reserved_suffix() {
        let src = r#"
fn f(m: &Metrics) {
    m.counter("Bad Name").inc();
    m.gauge("queue.depth.high").set(1.0);
    m.histogram("mc.node0.op_get").record(d);
}
"#;
        let s = scan("crates/core/src/x.rs", src);
        let rules: Vec<(u32, &str)> = s.violations.iter().map(|v| (v.line, v.rule)).collect();
        assert_eq!(rules, vec![(3, "R2"), (4, "R2")]);
        assert_eq!(s.sites.len(), 1);
        assert_eq!(s.sites[0].pattern, "mc.node0.op_get");
        assert_eq!(s.sites[0].layer, "mc");
    }

    #[test]
    fn r2_skips_dynamic_and_zero_arg_calls() {
        let src = r#"
fn f(m: &Metrics, n: &str) {
    m.counter(n).inc();
    let c = client.counter();
    m.gauge(&format!("mc.node{}.depth", i)).set(0.0);
}
"#;
        let s = scan("crates/core/src/x.rs", src);
        assert!(s.violations.is_empty());
        assert_eq!(s.sites.len(), 1);
        assert_eq!(s.sites[0].pattern, "mc.node*.depth");
    }

    #[test]
    fn r2_read_check_catches_typos() {
        let src = r#"
fn f(m: &Metrics) {
    m.counter("mc.node0.wakes").inc();
    let a = m.counter_value("mc.node0.wakes");
    let b = m.counter_value("mc.node0.wkaes");
    let c = m.gauge_value("mc.node0.wakes");
}
"#;
        let s = scan("crates/core/src/x.rs", src);
        let extra = check_reads(&s.sites, &s.reads);
        let lines: Vec<u32> = extra.iter().map(|v| v.line).collect();
        // The typo'd read AND the kind-mismatched read (gauge read of a
        // counter name) both fail.
        assert_eq!(lines, vec![5, 6]);
    }

    #[test]
    fn r4_only_fires_in_scope_and_outside_tests() {
        let src = r#"
fn live() { x.unwrap(); y.expect("msg"); panic!("boom"); z.unwrap_or(0); }
#[cfg(test)]
mod tests {
    fn t() { a.unwrap(); }
}
"#;
        let s = scan("crates/verbs/src/x.rs", src);
        let lines: Vec<u32> = s.violations.iter().map(|v| v.line).collect();
        assert_eq!(lines, vec![2, 2, 2]);
        assert!(scan("crates/simnet/src/x.rs", src).violations.is_empty());
    }

    #[test]
    fn r5_scopes_to_ucr_outside_counter_rs() {
        let src = "fn f(c: &CtrInner) { c.value.set(c.value.get() + 1); c.notify.notify_all(); }";
        assert_eq!(scan("crates/ucr/src/runtime.rs", src).violations.len(), 2);
        assert!(scan("crates/ucr/src/counter.rs", src).violations.is_empty());
        assert!(scan("crates/core/src/server.rs", src).violations.is_empty());
    }

    #[test]
    fn waivers_suppress_same_line_and_next_line() {
        let src = "fn f() { let t = Instant::now(); // lint:allow(R1) host-side harness\n\
                   // lint:allow(R1) wrapped below\n\
                   let u = Instant::now();\n\
                   let v = Instant::now();\n}";
        let lexed = lex(src);
        let s = scan_file("crates/bench/src/lib.rs", &lexed);
        assert_eq!(s.violations.len(), 3);
        let (kept, waived) = apply_waivers(s.violations, &lexed);
        assert_eq!(waived, 2);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].line, 4);
    }
}
