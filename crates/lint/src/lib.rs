//! `rmc-lint` — in-tree invariant analyzer for the rmc workspace.
//!
//! The reproduction's headline property is bit-identical virtual-time
//! results; that property rests on source-level conventions no compiler
//! checks. This crate checks them statically in one pass: a hand-rolled
//! Rust tokenizer ([`lexer`]) feeds one [`workspace::Workspace`] (token
//! views, test regions, waivers), and one table of rules
//! ([`rules::RULES`]: R2, R3, R7 and the stale-waiver check W0) runs over
//! it, each rule deciding inside one file. What the compiler can check is
//! clippy's: R1 (host time and entropy) is the root `clippy.toml`, R4
//! (panics in protocol crates) a deny set in each protocol crate's
//! `lib.rs`. Findings come out as
//! `file:line` lines; the metric registrations R2 finds become the
//! committed manifest ([`report`]). No external dependencies — the build
//! container is offline.
//!
//! Library entry points: [`analyze_workspace`] walks the real tree;
//! [`analyze_sources`] runs the same pipeline over in-memory
//! `(path, text)` pairs (how the fixture tests seed violations).

pub mod lexer;
pub mod report;
pub mod rules;
pub mod workspace;

use std::io;
use std::path::{Path, PathBuf};

pub use rules::{MetricSite, Violation};

/// Path prefixes never scanned: build output, the dependency shims
/// (host-side by design), and the lint's own deliberately-violating
/// fixtures.
pub const IGNORE_PREFIXES: [&str; 4] = [
    "target/",
    "shims/",
    "crates/lint/tests/fixtures/",
    "results/",
];

/// Files never scanned even if a future walk widens beyond `*.rs`:
/// prose documents quote violating code on purpose.
pub const IGNORE_FILES: [&str; 3] = ["ISSUE.md", "REVIEW.md", "CHANGES.md"];

/// Result of a full analysis pass.
pub struct Analysis {
    /// Files lexed and scanned.
    pub files_scanned: usize,
    /// Violations surviving waiver application, sorted by (file, line, rule).
    pub violations: Vec<Violation>,
    /// Violations suppressed by `// lint:allow(...)` waivers.
    pub waived: usize,
    /// Every metric registration R2 found.
    pub sites: Vec<MetricSite>,
    /// The metric manifest derived from `sites` — the committed
    /// `results/metric_manifest.json` must byte-match it.
    pub manifest: String,
    /// Every MR-retention obligation R7 tracked: (file, container,
    /// release found) — pinned by the self-check.
    pub r7_obligations: Vec<(String, String, bool)>,
}

/// The workspace root when running via `cargo run -p rmc-lint`
/// (compile-time crate dir, two levels up).
pub fn default_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

fn ignored(rel: &str) -> bool {
    IGNORE_PREFIXES.iter().any(|p| rel.starts_with(p))
        || IGNORE_FILES
            .iter()
            .any(|f| rel == *f || rel.ends_with(&format!("/{f}")))
        || rel.ends_with(".md")
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let rel = match path.strip_prefix(root) {
            Ok(r) => r.to_string_lossy().replace('\\', "/"),
            Err(_) => continue,
        };
        if ignored(&rel) {
            continue;
        }
        if path.is_dir() {
            walk(&path, root, out)?;
        } else if rel.ends_with(".rs") {
            out.push(rel);
        }
    }
    Ok(())
}

/// Collects every scannable `*.rs` path (workspace-relative, `/`
/// separators, sorted) under the source roots.
pub fn collect_files(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    for top in ["crates", "src", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, root, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

/// Runs the full pipeline over in-memory `(relative path, source)`
/// pairs: lex once, build the workspace, run the rule table, derive the
/// manifest.
pub fn analyze_sources(files: &[(String, String)]) -> Analysis {
    let found = rules::run(&workspace::Workspace::new(files));
    Analysis {
        files_scanned: files.len(),
        violations: found.violations,
        waived: found.waived,
        manifest: report::write_manifest(&found.sites),
        sites: found.sites,
        r7_obligations: found.r7_obligations,
    }
}

/// Walks the workspace at `root` and analyzes every collected file.
pub fn analyze_workspace(root: &Path) -> io::Result<Analysis> {
    let mut files = Vec::new();
    for rel in collect_files(root)? {
        let text = std::fs::read_to_string(root.join(&rel))?;
        files.push((rel, text));
    }
    Ok(analyze_sources(&files))
}
