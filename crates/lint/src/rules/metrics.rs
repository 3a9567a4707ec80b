//! R2 — metric-name discipline, decided by token pattern: registry names
//! parse against the dotted grammar `prometheus_text()` maps to `rmc_*`
//! families, and literal reads reference a registered name.

use super::Findings;
use crate::lexer::TokKind;
use crate::workspace::{SourceFile, Workspace};

/// A metric registration site (the manifest rows).
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

impl MetricSite {
    /// True when this site registers a `kind` instrument under `name`.
    pub fn registers(&self, kind: &str, name: &str) -> bool {
        self.kind == kind && pattern_matches(&self.pattern, name)
    }
}

/// A literal-name metric *read* (`counter_value("…")`), checked against
/// the registered patterns after all files are scanned.
struct MetricRead {
    /// The read name, placeholders normalized to `x`.
    name: String,
    /// `counter` / `gauge` — the instrument kind the read expects.
    kind: &'static str,
    file: usize,
    line: u32,
}

/// Layer prefixes `prometheus_text()` turns into a `layer` label — kept
/// in sync with `simnet::metrics::LAYER_PREFIXES`.
const KNOWN_LAYERS: [&str; 10] = [
    "wire", "verbs", "ucr", "core", "mc", "client", "bench", "latency", "trace", "profile",
];

/// Final segments reserved for derived series (`<name>.rate`, the
/// exposition's watermarks and histogram summaries): a registered name
/// ending in one would collide with the derived series.
const RESERVED_SUFFIXES: [&str; 10] = [
    "rate", "high", "low", "count", "sum", "mean_us", "p50_us", "p95_us", "p99_us", "max_us",
];

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
/// literal or `[&]format!("…", …)`. Returns (raw format text, is a
/// format string).
fn first_string_arg(f: &SourceFile, mut j: usize) -> Option<(&str, bool)> {
    while f.punct(j, '&') {
        j += 1;
    }
    let is_format = f.ident(j, "format") && f.punct(j + 1, '!') && f.punct(j + 2, '(');
    if is_format {
        j += 3;
    }
    let t = f.toks.get(j)?;
    (t.kind == TokKind::Str).then_some((t.text.as_str(), is_format))
}

/// Glob match for manifest patterns: `*` matches any (possibly empty)
/// run of `[a-z0-9_.]` — a placeholder may expand across segments
/// (`{prefix}` routinely carries dots).
fn pattern_matches(pattern: &str, name: &str) -> bool {
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

pub(super) fn run(ws: &Workspace, out: &mut Findings) {
    let mut reads: Vec<MetricRead> = Vec::new();
    for (fi, f) in out.files(ws) {
        for i in 1..f.toks.len() {
            let (kind, is_read) = match f.any_ident(i) {
                Some("counter") => ("counter", false),
                Some("gauge") => ("gauge", false),
                Some("histogram") => ("histogram", false),
                Some("counter_value") => ("counter", true),
                Some("gauge_value") => ("gauge", true),
                _ => continue,
            };
            // Only method calls on a registry (`metrics.gauge(…)`) register:
            // this skips `fn counter(…)` definitions and local helper
            // closures whose inner registration is matched at its own site.
            if f.in_test(i) || !f.punct(i - 1, '.') || !f.punct(i + 1, '(') {
                continue;
            }
            let Some((text, is_format)) = first_string_arg(f, i + 2) else {
                continue; // dynamic name: not statically checkable
            };
            let line = f.line(i);
            let checked = if is_format {
                substitute_placeholders(text, "x")
            } else {
                text.to_string()
            };
            if let Some(err) = name_grammar_error(&checked) {
                out.report(
                    ws,
                    fi,
                    line,
                    format!(
                        "metric name {text:?} violates the dotted-name grammar ({err}); \
                         prometheus_text() cannot map it to a clean rmc_* family"
                    ),
                );
                continue;
            }
            if is_read {
                reads.push(MetricRead {
                    name: checked,
                    kind,
                    file: fi,
                    line,
                });
                continue;
            }
            let pattern = if is_format {
                substitute_placeholders(text, "*")
            } else {
                text.to_string()
            };
            let last = pattern.rsplit('.').next().unwrap_or("");
            if RESERVED_SUFFIXES.contains(&last) {
                out.report(
                    ws,
                    fi,
                    line,
                    format!(
                        "metric name {text:?} ends in reserved segment {last:?}, which \
                         collides with a derived series of the base name"
                    ),
                );
                continue;
            }
            let first = pattern.split('.').next().unwrap_or("");
            let layer = if first.contains('*') {
                "dynamic"
            } else if KNOWN_LAYERS.contains(&first) {
                first
            } else {
                "other"
            };
            out.sites.push(MetricSite {
                layer: layer.to_string(),
                pattern,
                kind,
                file: f.path.clone(),
                line,
            });
        }
    }
    // A read of a name no site registers silently returns zero forever —
    // the typo'd-series failure mode this rule exists to catch.
    for r in reads {
        if !out.sites.iter().any(|s| s.registers(r.kind, &r.name)) {
            out.report(
                ws,
                r.file,
                r.line,
                format!(
                    "read of {} {:?} matches no registered metric: a typo here reads \
                     zero forever instead of failing",
                    r.kind, r.name
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::run as run_rules;
    use super::*;

    fn scan(src: &str) -> Findings {
        run_rules(&Workspace::new(&[(
            "crates/core/src/x.rs".to_string(),
            src.to_string(),
        )]))
    }

    fn lines(out: &Findings) -> Vec<(u32, &'static str)> {
        out.violations.iter().map(|v| (v.line, v.rule)).collect()
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
        assert!(pattern_matches("ucr.*.*.*", "ucr.ib.node0.fins_sent"));
        assert!(!pattern_matches("*.wakes", "mc.node0.worker3.batch_items"));
        assert!(!pattern_matches("client.node*.inflight", "client.inflight"));
        assert!(pattern_matches("bench.tps", "bench.tps"));
    }

    #[test]
    fn flags_bad_literal_and_reserved_suffix() {
        let s = scan(
            r#"
fn f(m: &Metrics) {
    m.counter("Bad Name").inc();
    m.gauge("queue.depth.high").set(1.0);
    m.histogram("mc.node0.op_get").record(d);
}
"#,
        );
        assert_eq!(lines(&s), vec![(3, "R2"), (4, "R2")]);
        assert_eq!(s.sites.len(), 1);
        assert_eq!(s.sites[0].pattern, "mc.node0.op_get");
        assert_eq!(s.sites[0].layer, "mc");
    }

    #[test]
    fn skips_dynamic_and_zero_arg_calls() {
        let s = scan(
            r#"
fn f(m: &Metrics, n: &str) {
    m.counter(n).inc();
    let c = client.counter();
    m.gauge(&format!("mc.node{}.depth", i)).set(0.0);
}
"#,
        );
        assert!(s.violations.is_empty());
        assert_eq!(s.sites.len(), 1);
        assert_eq!(s.sites[0].pattern, "mc.node*.depth");
    }

    #[test]
    fn read_check_catches_typos() {
        let s = scan(
            r#"
fn f(m: &Metrics) {
    m.counter("mc.node0.wakes").inc();
    let a = m.counter_value("mc.node0.wakes");
    let b = m.counter_value("mc.node0.wkaes");
    let c = m.gauge_value("mc.node0.wakes");
}
"#,
        );
        // The typo'd read AND the kind-mismatched read (gauge read of a
        // counter name) both fail.
        assert_eq!(lines(&s), vec![(5, "R2"), (6, "R2")]);
    }
}
