//! The rule table: one row per invariant.
//!
//! A [`Rule`] row is everything the analyzer knows about an invariant —
//! the id findings carry, the text `--explain` prints, the predicate
//! saying which files a finding may be anchored in, and the function
//! that checks it. [`run`] walks the table once over one [`Workspace`];
//! nothing reports a finding except through the row being run, so an id
//! that is not a row cannot be emitted.
//!
//! `// lint:allow(<id>) reason` on the offending line (or alone on the
//! line above) waives a hit; the last row, W0, flags every waiver that
//! suppressed nothing. Every rule but R2's read check decides inside one
//! file, and errs toward *missing* a violation rather than inventing one:
//! a registration that is not retained carries no obligation.
//!
//! Ids are never reused: R1 and R4 moved to clippy (the root `clippy.toml`
//! and each covered `lib.rs`), R5 and R6 to the compiler.

mod metrics;
mod regions;
mod spans;

use std::collections::BTreeSet;

use crate::workspace::{is_test_path, SourceFile, Workspace};

pub use metrics::MetricSite;

/// One rule hit.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// Rule id (a [`RULES`] row).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

/// One invariant: what `--explain` prints, where it applies, how it is
/// checked.
pub struct Rule {
    /// The id findings carry and waivers name.
    pub id: &'static str,
    /// One-line summary (matches the README rules table).
    pub title: &'static str,
    /// Why the rule exists — what breaks when it is violated.
    pub rationale: &'static str,
    /// Which paths the rule scans and what it skips, in prose.
    pub scope: &'static str,
    /// The same scope as a predicate: may a finding be anchored in this
    /// file?
    pub covers: fn(&str) -> bool,
    /// Checks the invariant over the whole workspace.
    pub run: fn(&Workspace, &mut Findings),
    /// A minimal failing source, verbatim from `tests/fixtures/` — the
    /// files the end-to-end tests pin by `file:line`, so this
    /// documentation cannot drift from what the analyzer flags.
    pub example: &'static str,
    /// Which lines of the example fire and why.
    pub example_note: &'static str,
}

fn production(path: &str) -> bool {
    !is_test_path(path)
}

/// All rules, in the order they run. W0 is last: it reads which waivers
/// the rows before it consumed.
pub const RULES: &[Rule] = &[
    Rule {
        id: "R2",
        title: "metric names follow the grammar and reads match a registration",
        rationale: "Metrics are the observability contract: results/ files, \
                    `stats` output and every test that reads an instrument \
                    back key on exact metric names. A typo'd \
                    registration or a read of a never-registered name returns \
                    silent zeros instead of failing. The committed \
                    results/metric_manifest.json must byte-match what the \
                    sources register.",
        scope: "All scanned production code; registration sites feed the \
                manifest, read sites are checked against the union of \
                registrations across the whole workspace.",
        covers: production,
        run: metrics::run,
        example: include_str!("../tests/fixtures/r2.rs"),
        example_note: "Grammar violations (bad layer, bad segment, uppercase, \
                       reserved .high suffix) fire at the registration; the \
                       read of an unregistered name fires at the read.",
    },
    Rule {
        id: "R3",
        title: "tracer spans pair up in their file and carry a real key",
        rationale: "A begin with no end is a span that never closes, an end \
                    with no begin one that never opens — both poison the \
                    folded profile. A pair split across files is held \
                    together only by a name both must spell alike, and a \
                    rename on one side breaks it silently; every span in the \
                    tree opens and closes in the file that names it. Spans \
                    with key 0 collide with the sentinel the profiler uses \
                    for 'no span', corrupting critical-path attribution.",
        scope: "All scanned production code with `.begin(Layer::…` / \
                `.end(Layer::…` call shapes. A begin pairs with an end of \
                the same name in the same file; a name built at runtime \
                pairs with any runtime-built name there.",
        covers: production,
        run: spans::run,
        example: concat!(
            include_str!("../tests/fixtures/r3.rs"),
            "\n// --- crates/ucr/src/fixture_sa.rs (begin side) ---\n",
            include_str!("../tests/fixtures/r3v2_a.rs"),
            "\n// --- crates/core/src/fixture_sb.rs (end side) ---\n",
            include_str!("../tests/fixtures/r3v2_b.rs"),
        ),
        example_note: "In the first file the unpaired begin and end and the \
                       literal-0 span key fire. In the pair all four fire: \
                       \"xfile_ok\" and \"xfile_orphan\" each begin in one \
                       file and end in the other, and a callee both sides \
                       share (helper) does not pair them.",
    },
    Rule {
        id: "R7",
        title: "retained MR registrations have a release path",
        rationale: "Memory regions pin physical pages. A registration stored \
                    into a long-lived container with no remove/retain/clear/… \
                    on that container grows pinned memory without bound — \
                    the leak PR 6's mirror-page retire path exists to \
                    prevent. The release is looked for in the file that \
                    registers, where a reader can check it.",
        scope: "All scanned production code except crates/verbs (the \
                registrar itself). Only *retained* registrations (stored \
                into a container or bound then stored) carry the obligation; \
                transient registrations are out of scope by design.",
        covers: |p| production(p) && !p.starts_with("crates/verbs/"),
        run: regions::run,
        example: include_str!("../tests/fixtures/r7.rs"),
        example_note: "The let-bound registration inserted into `bufs` and \
                       the direct push into `pool` fire (no release on those \
                       containers); the `live` insert is balanced by a later \
                       `live.remove` and stays clean.",
    },
    Rule {
        id: "W0",
        title: "waivers must still suppress something",
        rationale: "An allow-comment whose rule no longer fires on its line \
                    is a silent hole: the next regression on that line is \
                    auto-suppressed by a comment written for code that no \
                    longer exists. Stale waivers are flagged at the waiver \
                    line and are not themselves waivable.",
        scope: "Every written waiver in scanned files, test trees included. \
                A waiver is 'used' if it suppressed a finding on its line \
                (or the line below, for standalone comment lines).",
        covers: |_| true,
        run: run_w0,
        example: include_str!("../tests/fixtures/w0.rs"),
        example_note: "clear() releases and retains nothing, so R7 never fires \
                       there: the waiver suppresses nothing and is itself flagged.",
    },
];

/// What one pass over the table produces.
pub struct Findings {
    /// The row being run: its id labels, and its scope admits, whatever
    /// is reported now.
    rule: &'static Rule,
    /// Hits no waiver covers.
    pub violations: Vec<Violation>,
    /// Hits suppressed by a waiver.
    pub waived: usize,
    /// `(file index, line, rule id)` of every hit a waiver consumed.
    used: BTreeSet<(usize, u32, &'static str)>,
    /// Metric registrations R2 found (the manifest rows).
    pub sites: Vec<MetricSite>,
    /// Every MR-retention obligation R7 tracked: (file, container,
    /// release found). The self-check pins these so "zero findings" stays
    /// distinguishable from "the pass silently stopped seeing the tree".
    pub r7_obligations: Vec<(String, String, bool)>,
}

impl Findings {
    /// The files the running rule scans, with their index into
    /// `ws.files`.
    fn files<'w>(&self, ws: &'w Workspace) -> Vec<(usize, &'w SourceFile)> {
        let covered = ws.files.iter().enumerate();
        covered
            .filter(|(_, f)| (self.rule.covers)(&f.path))
            .collect()
    }

    /// Files a hit of the running rule against `line` of file `file`,
    /// unless a waiver covers it (which then counts as used).
    fn report(&mut self, ws: &Workspace, file: usize, line: u32, message: String) {
        if ws.files[file].waived(line, self.rule.id) {
            self.used.insert((file, line, self.rule.id));
            self.waived += 1;
        } else {
            self.flag(ws, file, line, message);
        }
    }

    fn flag(&mut self, ws: &Workspace, file: usize, line: u32, message: String) {
        self.violations.push(Violation {
            rule: self.rule.id,
            file: ws.files[file].path.clone(),
            line,
            message,
        });
    }
}

/// Runs every row of [`RULES`] over `ws`; violations come back sorted by
/// (file, line, rule).
pub fn run(ws: &Workspace) -> Findings {
    let mut out = Findings {
        rule: &RULES[0],
        violations: Vec::new(),
        waived: 0,
        used: BTreeSet::new(),
        sites: Vec::new(),
        r7_obligations: Vec::new(),
    };
    for rule in RULES {
        out.rule = rule;
        (rule.run)(ws, &mut out);
    }
    out.violations
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out
}

fn run_w0(ws: &Workspace, out: &mut Findings) {
    for (fi, f) in ws.files.iter().enumerate() {
        for w in &f.waivers {
            for rule in &w.rules {
                let used = out
                    .used
                    .iter()
                    .any(|&(file, line, id)| file == fi && w.covers(line) && id == rule);
                if !used {
                    // Not `report`: W0 is not waivable.
                    out.flag(
                        ws,
                        fi,
                        w.line,
                        format!(
                            "stale waiver: lint:allow({rule}) suppresses nothing here — \
                             the rule no longer fires on this line; delete the waiver"
                        ),
                    );
                }
            }
        }
    }
}

/// Case-insensitive lookup of a rule by id.
pub fn lookup(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|d| d.id.eq_ignore_ascii_case(id.trim()))
}

/// Renders one rule's documentation for the terminal.
pub fn render(doc: &Rule) -> String {
    let mut out = String::new();
    out.push_str(&format!("{} — {}\n\n", doc.id, doc.title));
    out.push_str(&format!("Why:\n{}\n\n", reflow(doc.rationale)));
    out.push_str(&format!("Scope:\n{}\n\n", reflow(doc.scope)));
    out.push_str("Minimal failing example (from tests/fixtures/):\n");
    for line in doc.example.lines() {
        out.push_str(&format!("    {line}\n"));
    }
    out.push_str(&format!("\n{}\n", reflow(doc.example_note)));
    out
}

/// One-line id+title per rule, for `--explain` with no/unknown rule.
pub fn index() -> String {
    let mut out = String::from("rules:\n");
    for d in RULES {
        out.push_str(&format!("  {:<5} {}\n", d.id, d.title));
    }
    out
}

/// Collapses the multi-line string-literal continuations (runs of
/// whitespace) into single spaces, then wraps at ~76 columns.
fn reflow(s: &str) -> String {
    let mut out = String::new();
    let mut col = 0usize;
    for w in s.split_whitespace() {
        if col == 0 {
            out.push_str("  ");
            col = 2;
        } else if col + 1 + w.len() > 76 {
            out.push_str("\n  ");
            col = 2;
        } else {
            out.push(' ');
            col += 1;
        }
        out.push_str(w);
        col += w.len();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_ignores_case_and_rejects_unknown_ids() {
        for rule in RULES {
            assert_eq!(lookup(&rule.id.to_lowercase()).unwrap().id, rule.id);
            assert!(!rule.example.is_empty());
        }
        assert!(lookup("R99").is_none());
    }

    #[test]
    fn examples_come_from_the_fixture_files() {
        // Spot-check that the include_str! wiring points at the same
        // sources the end-to-end tests pin by file:line.
        assert!(lookup("R7").unwrap().example.contains("register(64)"));
        assert!(lookup("R3").unwrap().example.contains("xfile_orphan"));
    }

    #[test]
    fn render_and_index_are_presentable() {
        let text = render(lookup("R7").unwrap());
        assert!(text.starts_with("R7 — "));
        assert!(text.contains("Minimal failing example"));
        let idx = index();
        for d in RULES {
            assert!(idx.contains(d.id));
        }
    }

    #[test]
    fn waivers_suppress_same_line_and_next_line() {
        let src = "fn f(pd: &Pd, pool: &mut Vec<Mr>) {\n\
                   pool.push(pd.register(64)); // lint:allow(R7) program-lifetime pool\n\
                   // lint:allow(R7) wrapped below\n\
                   pool.push(pd.register(64));\n\
                   pool.push(pd.register(64));\n}";
        let ws = Workspace::new(&[("crates/ucr/src/lib.rs".to_string(), src.to_string())]);
        let out = run(&ws);
        assert_eq!(out.waived, 2);
        let left: Vec<(u32, &str)> = out.violations.iter().map(|v| (v.line, v.rule)).collect();
        assert_eq!(left, vec![(5, "R7")]);
    }
}
