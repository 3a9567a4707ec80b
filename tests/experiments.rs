//! Experiment shape assertions: every quantitative claim of the paper's
//! evaluation (§VI), checked against the reproduction with reduced
//! iteration counts. These are the regression guard for EXPERIMENTS.md —
//! if a calibration change breaks a claim, this suite fails.

use rmc::Transport;
use rmc_bench::{json, measure_latency, measure_throughput, ClusterKind, Mix};
use simnet::Stack;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

const ITERS: u32 = 60;

fn lat(cluster: ClusterKind, t: Transport, mix: Mix, size: usize) -> f64 {
    measure_latency(cluster, t, mix, size, ITERS, 99)
}

const UCR: Transport = Transport::Ucr;
const SDP: Transport = Transport::Sockets(Stack::Sdp);
const IPOIB: Transport = Transport::Sockets(Stack::Ipoib);
const TOE: Transport = Transport::Sockets(Stack::TenGigEToe);
const GIGE: Transport = Transport::Sockets(Stack::OneGigE);

/// §VI headline: 4 KB get ≈ 12 µs on QDR, ≈ 20 µs on DDR.
#[test]
fn headline_4kb_get_latency() {
    let ddr = lat(ClusterKind::A, UCR, Mix::GetOnly, 4096);
    let qdr = lat(ClusterKind::B, UCR, Mix::GetOnly, 4096);
    assert!(
        (17.0..24.0).contains(&ddr),
        "DDR 4KB get {ddr} us, paper ~20"
    );
    assert!(
        (10.0..14.5).contains(&qdr),
        "QDR 4KB get {qdr} us, paper ~12"
    );
}

/// §VI-B (Cluster A): UCR ≥ 4× 10GigE-TOE for all message sizes.
#[test]
fn fig3_ucr_vs_toe_factor_four_all_sizes() {
    for size in [4usize, 1024, 4096, 65536, 512 * 1024] {
        let ucr = lat(ClusterKind::A, UCR, Mix::GetOnly, size);
        let toe = lat(ClusterKind::A, TOE, Mix::GetOnly, size);
        assert!(
            toe / ucr >= 3.8,
            "size {size}: TOE {toe} / UCR {ucr} = {:.2} (paper: >=4)",
            toe / ucr
        );
    }
}

/// §VI-B (Cluster A): UCR beats IPoIB and SDP by ~8× for small-to-medium
/// and ~5× for large messages (abstract: 5–10× over the range).
#[test]
fn fig3_ucr_vs_ib_sockets_factors() {
    for (size, lo, hi) in [
        (64usize, 5.0, 10.5),
        (4096, 5.0, 10.5),
        (512 * 1024, 3.5, 7.0),
    ] {
        for t in [SDP, IPOIB] {
            let ucr = lat(ClusterKind::A, UCR, Mix::GetOnly, size);
            let other = lat(ClusterKind::A, t, Mix::GetOnly, size);
            let f = other / ucr;
            assert!(
                (lo..hi).contains(&f),
                "size {size} {t:?}: factor {f:.2} outside [{lo}, {hi}]"
            );
        }
    }
}

/// §VI-B (Cluster B): UCR ≥ ~10× for small sizes, up to ~4× for large.
#[test]
fn fig4_cluster_b_factors() {
    let ucr_small = lat(ClusterKind::B, UCR, Mix::GetOnly, 64);
    let ipoib_small = lat(ClusterKind::B, IPOIB, Mix::GetOnly, 64);
    let f_small = ipoib_small / ucr_small;
    assert!(
        (8.0..13.0).contains(&f_small),
        "B small IPoIB/UCR factor {f_small:.2} (paper: ~10)"
    );
    let ucr_large = lat(ClusterKind::B, UCR, Mix::GetOnly, 512 * 1024);
    let ipoib_large = lat(ClusterKind::B, IPOIB, Mix::GetOnly, 512 * 1024);
    let f_large = ipoib_large / ucr_large;
    assert!(
        (2.5..4.5).contains(&f_large),
        "B large IPoIB/UCR factor {f_large:.2} (paper: up to 4)"
    );
}

/// §VI-B (Cluster B): SDP is noisier and slightly worse than IPoIB — the
/// QDR SDP artifact.
#[test]
fn fig4_sdp_artifact_on_qdr() {
    let sdp = lat(ClusterKind::B, SDP, Mix::GetOnly, 64);
    let ipoib = lat(ClusterKind::B, IPOIB, Mix::GetOnly, 64);
    assert!(
        sdp > ipoib,
        "SDP {sdp} should be worse than IPoIB {ipoib} on B"
    );
    // And jitter is visible: per-op latencies vary run to run more than
    // IPoIB's (deterministic seeds, different draws).
    let sdp2 = measure_latency(ClusterKind::B, SDP, Mix::GetOnly, 64, 10, 1);
    let sdp3 = measure_latency(ClusterKind::B, SDP, Mix::GetOnly, 64, 10, 2);
    let ipoib2 = measure_latency(ClusterKind::B, IPOIB, Mix::GetOnly, 64, 10, 1);
    let ipoib3 = measure_latency(ClusterKind::B, IPOIB, Mix::GetOnly, 64, 10, 2);
    let sdp_spread = (sdp2 - sdp3).abs();
    let ipoib_spread = (ipoib2 - ipoib3).abs();
    assert!(
        sdp_spread > ipoib_spread,
        "SDP spread {sdp_spread:.2} vs IPoIB spread {ipoib_spread:.2}"
    );
}

/// Cluster A latency ordering at small sizes: UCR < TOE < SDP < IPoIB < 1GigE.
#[test]
fn fig3_transport_ordering() {
    let ucr = lat(ClusterKind::A, UCR, Mix::GetOnly, 64);
    let toe = lat(ClusterKind::A, TOE, Mix::GetOnly, 64);
    let sdp = lat(ClusterKind::A, SDP, Mix::GetOnly, 64);
    let ipoib = lat(ClusterKind::A, IPOIB, Mix::GetOnly, 64);
    let gige = lat(ClusterKind::A, GIGE, Mix::GetOnly, 64);
    assert!(ucr < toe && toe < sdp && sdp < ipoib && ipoib < gige,
        "ordering violated: UCR {ucr:.1} TOE {toe:.1} SDP {sdp:.1} IPoIB {ipoib:.1} 1GigE {gige:.1}");
}

/// §VI-C: mixed instruction sets follow the same trends as pure set/get.
#[test]
fn fig5_mixed_follows_same_trends() {
    for mix in [Mix::NonInterleaved, Mix::Interleaved] {
        let ucr = lat(ClusterKind::A, UCR, mix, 1024);
        let toe = lat(ClusterKind::A, TOE, mix, 1024);
        let ipoib = lat(ClusterKind::A, IPOIB, mix, 1024);
        assert!(toe / ucr >= 3.5, "{mix:?}: TOE/UCR {:.2}", toe / ucr);
        assert!(ipoib / ucr >= 5.0, "{mix:?}: IPoIB/UCR {:.2}", ipoib / ucr);
        // Mixed latency sits between pure set and pure get (they are
        // nearly equal here, as in the paper's plots).
        let pure_get = lat(ClusterKind::A, UCR, Mix::GetOnly, 1024);
        assert!((ucr / pure_get - 1.0).abs() < 0.35, "{mix:?} vs pure get");
    }
}

/// §VI-D (Cluster A): UCR ≈ 6× 10GigE-TOE in small-get TPS; TOE > IPoIB.
#[test]
fn fig6_cluster_a_throughput_shape() {
    let ops = 400;
    let ucr = measure_throughput(ClusterKind::A, UCR, 16, 4, ops, 6);
    let toe = measure_throughput(ClusterKind::A, TOE, 16, 4, ops, 6);
    let ipoib = measure_throughput(ClusterKind::A, IPOIB, 16, 4, ops, 6);
    let f = ucr / toe;
    assert!(
        (5.0..7.5).contains(&f),
        "UCR/TOE TPS factor {f:.2} (paper: ~6)"
    );
    assert!(
        toe > ipoib,
        "TOE {toe:.0} must outperform IPoIB {ipoib:.0} (§VI-D)"
    );
}

/// §VI-D (Cluster B): ≈1.8 M TPS for UCR at 4 B/16 clients; ≈6× SDP;
/// SDP below IPoIB.
#[test]
fn fig6_cluster_b_throughput_shape() {
    let ops = 400;
    let ucr = measure_throughput(ClusterKind::B, UCR, 16, 4, ops, 6);
    let sdp = measure_throughput(ClusterKind::B, SDP, 16, 4, ops, 6);
    let ipoib = measure_throughput(ClusterKind::B, IPOIB, 16, 4, ops, 6);
    assert!(
        (1_500_000.0..2_100_000.0).contains(&ucr),
        "UCR TPS on QDR {ucr:.0} (paper: ~1.8M)"
    );
    let f = ucr / sdp;
    assert!(
        (4.5..8.0).contains(&f),
        "UCR/SDP TPS factor {f:.2} (paper: ~6)"
    );
    assert!(
        sdp < ipoib,
        "SDP {sdp:.0} below IPoIB {ipoib:.0} on B (§VI-D)"
    );
}

/// Set and Get behave alike across sizes (paper plots them as twins).
#[test]
fn set_tracks_get() {
    for size in [64usize, 4096] {
        let set = lat(ClusterKind::B, UCR, Mix::SetOnly, size);
        let get = lat(ClusterKind::B, UCR, Mix::GetOnly, size);
        let ratio = set / get;
        assert!(
            (0.8..1.25).contains(&ratio),
            "size {size}: set {set:.1} vs get {get:.1}"
        );
    }
}

/// Determinism: the same experiment with the same seed reproduces the
/// identical simulated result — the property that makes every number in
/// EXPERIMENTS.md replayable.
#[test]
fn experiments_are_reproducible() {
    let a = lat(ClusterKind::A, UCR, Mix::GetOnly, 1024);
    let b = lat(ClusterKind::A, UCR, Mix::GetOnly, 1024);
    assert_eq!(a, b);
    let t1 = measure_throughput(ClusterKind::B, SDP, 8, 4, 200, 5);
    let t2 = measure_throughput(ClusterKind::B, SDP, 8, 4, 200, 5);
    assert_eq!(t1, t2);
}

/// Reader and writer agree on every committed results twin: each parses
/// and renders again to its own bytes.
#[test]
fn every_results_twin_reads_back_as_written() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let mut twins = 0;
    for entry in std::fs::read_dir(results).expect("results/") {
        let path = entry.expect("results/ entry").path();
        let name = path.display().to_string();
        // A `.trace.json` is simnet's Perfetto export, not a twin.
        if !name.ends_with(".json") || name.ends_with(".trace.json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("a readable twin");
        let doc = json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(json::render(&doc) == text, "{name} renders otherwise");
        twins += 1;
    }
    assert_ne!(twins, 0, "no results twin");
}

/// The documents name only what exists. Every literal `results/<file>`,
/// every figure, ablation and extension bin, and every `crates/…/*.rs`,
/// `tests/*.rs` or `scripts/*.sh` path named in README.md, DESIGN.md,
/// EXPERIMENTS.md, the verify skill, the CI workflow or the results
/// script must be in the tree; a `tests/`
/// path may be the root package's or a crate's. A brace form
/// (`results/x.{txt,json}`) stands for each of its expansions; a glob or
/// a placeholder (`results/*`, `results/<bin>.json`) names nothing.
#[test]
fn the_documents_name_only_what_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut missing = Vec::new();
    for doc in [
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        ".claude/skills/verify/SKILL.md",
        ".github/workflows/ci.yml",
        "scripts/regen_results.sh",
    ] {
        let text = std::fs::read_to_string(root.join(doc)).expect(doc);
        missing.extend(missing_names(root, &text).map(|n| format!("{doc}: {n}")));
    }
    assert!(
        missing.is_empty(),
        "named but not in the tree:\n{}",
        missing.join("\n")
    );
}

/// Every "`NAME` = <integer>" in the documents names a `const` or `static`
/// under `crates/` whose literal initializer is that integer. A figure with
/// a unit or an operator after it ("1 MiB", "64 + 8 192") or written as a
/// power ("2²⁰") is not an integer and is skipped.
#[test]
fn the_documents_state_constants_as_the_code_does() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    source_files(&root.join("crates"), &mut sources);
    let mut code: BTreeMap<&str, Vec<Option<u128>>> = BTreeMap::new();
    let texts: Vec<String> = sources
        .iter()
        .filter(|path| path.extension().is_some_and(|e| e == "rs"))
        .map(|path| std::fs::read_to_string(path).expect("readable source"))
        .collect();
    for (name, value) in texts
        .iter()
        .flat_map(|text| text.lines().filter_map(constant))
    {
        code.entry(name).or_default().push(value);
    }
    let (mut stated, mut wrong) = (0, Vec::new());
    for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md"] {
        let text = std::fs::read_to_string(root.join(doc)).expect(doc);
        for (name, value) in stated_constants(&text) {
            stated += 1;
            let values: &[Option<u128>] = code.get(name).map_or(&[], Vec::as_slice);
            if !values.contains(&Some(value)) {
                wrong.push(format!(
                    "{doc}: `{name}` = {value}, the code has {values:?}"
                ));
            }
        }
    }
    assert!(stated > 0, "the scan found no stated constant");
    assert!(
        wrong.is_empty(),
        "stated otherwise than the code (None: not a literal):\n{}",
        wrong.join("\n")
    );
}

/// Every DESIGN.md section cited anywhere is a heading of it: `§N` a
/// `## N.` heading, `§N.M` a `### N.M` one. A citation is a numeric
/// `§N[.M]` later in a paragraph that names `DESIGN` (so a list of sections
/// may wrap a line), in `crates/`, `src/`, `tests/`, `examples/` and
/// `scripts/`, in README.md, EXPERIMENTS.md, the verify skill and the CI
/// workflow; in DESIGN.md every numeric `§N[.M]` is one. The paper's
/// sections are roman (`§VI-D`) and never match. CHANGES.md and ROADMAP.md
/// are history and are not read.
#[test]
fn every_design_section_cited_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md");
    let headings = design_headings(&design);
    let mut cited: Vec<(String, String)> = section_marks(&design)
        .into_iter()
        .map(|s| ("DESIGN.md".to_owned(), s))
        .collect();
    let mut files: Vec<PathBuf> = [
        "README.md",
        "EXPERIMENTS.md",
        ".claude/skills/verify/SKILL.md",
        ".github/workflows/ci.yml",
    ]
    .iter()
    .map(|doc| root.join(doc))
    .collect();
    for dir in ["crates", "src", "tests", "examples", "scripts"] {
        source_files(&root.join(dir), &mut files);
    }
    for path in files {
        // A file that is not text cites nothing.
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let name = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .display()
            .to_string();
        cited.extend(
            design_citations(&text)
                .into_iter()
                .map(|s| (name.clone(), s)),
        );
    }
    assert!(
        cited.iter().any(|(file, _)| file != "DESIGN.md"),
        "the scan found no citation outside DESIGN.md"
    );
    let missing: Vec<String> = cited
        .iter()
        .filter(|(_, section)| !headings.contains(section))
        .map(|(file, section)| format!("{file}: §{section}"))
        .collect();
    assert!(
        missing.is_empty(),
        "cited but not a DESIGN.md heading:\n{}",
        missing.join("\n")
    );
}

/// DESIGN.md states what is; which pull request made it so is CHANGES.md's.
#[test]
fn design_names_no_pull_request() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md");
    let named: Vec<&str> = design
        .lines()
        .filter(|line| names_pull_request(line))
        .collect();
    assert!(
        named.is_empty(),
        "DESIGN.md names a pull request:\n{}",
        named.join("\n")
    );
}

/// Every function DESIGN.md §9.1's table names — a backticked snake_case
/// name, or the last segment of such a path — is a `fn` defined in
/// `crates/`, `src/`, `tests/` or `examples/`, so a row folded, moved or
/// renamed leaves no name in the table that points at nothing.
#[test]
fn the_testing_table_names_only_functions_that_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md");
    let section = design.split("\n### 9.1 ").nth(1).expect("a §9.1 heading");
    let table = section.split("\n### ").next().unwrap_or_default().lines();
    let quoted = table.filter(|line| line.starts_with('|'));
    let quoted = quoted.flat_map(|line| line.split('`').skip(1).step_by(2));
    let named: BTreeSet<&str> = quoted.filter_map(function_named).collect();
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        source_files(&root.join(dir), &mut files);
    }
    let mut defined = BTreeSet::new();
    for path in files
        .iter()
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
    {
        let text = std::fs::read_to_string(path).expect("readable source");
        for after in text.split("fn ").skip(1) {
            let end = after.find(|c: char| !c.is_alphanumeric() && c != '_');
            defined.insert(after[..end.unwrap_or(after.len())].to_owned());
        }
    }
    assert!(named.len() > 10, "the scan found only {named:?}");
    let missing: Vec<&&str> = named.iter().filter(|n| !defined.contains(**n)).collect();
    assert!(
        missing.is_empty(),
        "DESIGN.md §9.1 names no such fn: {missing:?}"
    );
}

/// The function a backticked `quoted` names: the last segment of a `::`
/// path of lowercase snake_case segments, if that segment has an
/// underscore.
fn function_named(quoted: &str) -> Option<&str> {
    let name = quoted.rsplit("::").next()?;
    let path = quoted
        .bytes()
        .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b"_:".contains(&b));
    (path && name.contains('_')).then_some(name)
}

/// The citation reader follows a wrapped list, ends at a blank (or bare
/// comment) line and skips the paper's roman sections; the pull-request
/// reader wants a whole word `PR` before a number. The cases below are
/// themselves scanned as citations, so they name sections that exist.
#[test]
fn section_citations_are_read_as_the_checks_mean() {
    let cases: [(&str, &[&str]); 5] = [
        ("see DESIGN.md §9.1,\n§9.2). The families", &["9.1", "9.2"]),
        ("DESIGN §10, stage tables in §3", &["10", "3"]),
        ("//! (DESIGN.md §4.2)\n//!\n//! RFC 8259 §6", &["4.2"]),
        ("the paper's §VI-D; DESIGN.md §VI", &[]),
        ("RFC 8259 §6 (DESIGN.md)", &[]),
    ];
    for (text, want) in cases {
        assert_eq!(design_citations(text), want, "{text:?}");
    }
    assert_eq!(
        design_headings("## 4. UCR\n### 4.1 Eager\n#### 4.1.1 no\n## Notes"),
        BTreeSet::from(["4".to_owned(), "4.1".to_owned()])
    );
    for (line, named) in [
        ("PR 16 measured", true),
        ("(PR\u{a0}34)", true),
        ("the PRs", false),
        ("RFP 3", false),
        ("SPR 2", false),
    ] {
        assert_eq!(names_pull_request(line), named, "{line}");
    }
}

/// The `## N.` and `### N.M` headings of `design`, as `N` and `N.M`.
fn design_headings(design: &str) -> BTreeSet<String> {
    let mut headings = BTreeSet::new();
    for line in design.lines() {
        let (number, depth) = if let Some(rest) = line.strip_prefix("## ") {
            (rest.split_once(". ").map(|(n, _)| n), 1)
        } else if let Some(rest) = line.strip_prefix("### ") {
            (rest.split_once(' ').map(|(n, _)| n), 2)
        } else {
            continue;
        };
        let Some(number) = number else { continue };
        let parts: Vec<&str> = number.split('.').collect();
        let numeric = parts
            .iter()
            .all(|p| !p.is_empty() && p.bytes().all(|b| b.is_ascii_digit()));
        if numeric && parts.len() == depth {
            headings.insert(number.to_owned());
        }
    }
    headings
}

/// The DESIGN.md sections `text` cites: every numeric `§N[.M]` after a
/// mention of `DESIGN` in the same paragraph. A paragraph ends at a line
/// that is blank once comment markers are trimmed.
fn design_citations(text: &str) -> Vec<String> {
    let mut cited = Vec::new();
    let mut paragraph = String::new();
    for line in text.lines().chain([""]) {
        let bare = line.trim().trim_matches(['/', '!', '#', '*']);
        if bare.trim().is_empty() {
            if let Some(at) = paragraph.find("DESIGN") {
                cited.extend(section_marks(&paragraph[at..]));
            }
            paragraph.clear();
        } else {
            paragraph.push_str(line);
            paragraph.push('\n');
        }
    }
    cited
}

/// Every numeric `§N` or `§N.M` in `text`, as `N` or `N.M`.
fn section_marks(text: &str) -> Vec<String> {
    let digits = |s: &str| s.len() - s.trim_start_matches(|c: char| c.is_ascii_digit()).len();
    let mut marks = Vec::new();
    for rest in text.split('§').skip(1) {
        let major = digits(rest);
        if major == 0 {
            continue;
        }
        let minor = rest[major..].strip_prefix('.').map_or(0, digits);
        let end = if minor == 0 { major } else { major + 1 + minor };
        marks.push(rest[..end].to_owned());
    }
    marks
}

/// Whether `line` names a pull request: the word `PR` before a number.
fn names_pull_request(line: &str) -> bool {
    line.match_indices("PR").any(|(at, _)| {
        let whole = !line[..at].ends_with(|c: char| c.is_alphanumeric());
        let after = line[at + 2..].trim_start_matches([' ', '\u{a0}', '#']);
        whole && after.starts_with(|c: char| c.is_ascii_digit())
    })
}

/// Every file under `dir`, recursively.
fn source_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            source_files(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// The name of the `const` or `static` that `line` declares, whatever its
/// visibility (`pub`, `pub(crate)`, `pub(super)`, `pub(in path)`), and its
/// literal integer initializer, or `None` for any other; `None` outright
/// for a line declaring neither.
fn constant(line: &str) -> Option<(&str, Option<u128>)> {
    let mut decl = line.trim_start();
    if let Some(rest) = decl.strip_prefix("pub") {
        let rest = match rest.strip_prefix('(') {
            Some(scoped) => scoped.split_once(')')?.1,
            None => rest,
        };
        decl = rest.strip_prefix(' ')?;
    }
    let decl = decl
        .strip_prefix("const ")
        .or_else(|| decl.strip_prefix("static "))?;
    let (Some((name, _)), Some((_, init))) = (decl.split_once(':'), decl.split_once('=')) else {
        return None;
    };
    let name = name.trim();
    if !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return None;
    }
    let init = init.split(';').next().unwrap_or_default().trim();
    let end = init
        .find(|c: char| !(c.is_ascii_digit() || c == '_'))
        .unwrap_or(init.len());
    let (digits, suffix) = init.split_at(end);
    let typed = suffix
        .strip_prefix(['u', 'i'])
        .is_some_and(|bits| ["8", "16", "32", "64", "128", "size"].contains(&bits));
    let literal = !digits.is_empty() && (suffix.is_empty() || typed);
    let value = literal
        .then(|| digits.replace('_', "").parse().ok())
        .flatten();
    Some((name, value))
}

/// The declaration reader sees through every visibility, and reads a
/// literal only when the whole initializer is one.
#[test]
fn constants_are_read_whatever_their_visibility() {
    let cases = [
        ("const A: usize = 3;", Some(("A", Some(3)))),
        ("    pub const B: u64 = 4_096;", Some(("B", Some(4_096)))),
        ("pub(crate) const C: usize = 8;", Some(("C", Some(8)))),
        ("pub(super) const X: usize = 7;", Some(("X", Some(7)))),
        (
            "pub(in crate::a) const Y: u32 = 1_024;",
            Some(("Y", Some(1_024))),
        ),
        ("pub static S: u8 = 2u8;", Some(("S", Some(2)))),
        ("const D: usize = 1 << 10;", Some(("D", None))),
        ("const E: Duration = Duration::ZERO;", Some(("E", None))),
        ("pub fn f() -> usize {", None),
        ("publish(x);", None),
        ("let x: usize = 3;", None),
    ];
    for (line, want) in cases {
        assert_eq!(constant(line), want, "{line}");
    }
}

/// The `(NAME, integer)` of every "`NAME` = <integer>" in `text`. Digits
/// group in threes after a space ("4 096"); a figure followed by a unit,
/// an operator or a superscript is skipped.
fn stated_constants(text: &str) -> Vec<(&str, u128)> {
    let spans: Vec<&str> = text.split('`').collect();
    let mut stated = Vec::new();
    for (i, name) in spans.iter().enumerate().skip(1).step_by(2) {
        let is_const = name.starts_with(|c: char| c.is_ascii_uppercase())
            && name
                .chars()
                .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_');
        let Some(after) = spans.get(i + 1) else { break };
        let Some(rest) = after.trim_start().strip_prefix('=') else {
            continue;
        };
        if !is_const || rest.starts_with('=') {
            continue;
        }
        let rest = rest.trim_start();
        let lead = rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
        if lead == 0 {
            continue;
        }
        let mut number = rest[..lead].to_owned();
        let mut tail = &rest[lead..];
        while let Some(group) = tail
            .strip_prefix([' ', '\u{a0}', '\u{202f}'])
            .filter(|g| g.len() >= 3 && g.as_bytes()[..3].iter().all(u8::is_ascii_digit))
            .filter(|g| !g[3..].starts_with(|c: char| c.is_ascii_digit()))
        {
            number.push_str(&group[..3]);
            tail = &group[3..];
        }
        // A figure ends at a comma or full stop unless a digit follows it
        // ("1.5", "1,024").
        let fraction =
            tail.starts_with(['.', ',']) && tail[1..].starts_with(|c: char| c.is_ascii_digit());
        let power =
            fraction || tail.starts_with(['⁰', '¹', '²', '³', '⁴', '⁵', '⁶', '⁷', '⁸', '⁹', '–']);
        let next = tail.trim_start();
        let operator = next.starts_with(['+', '-', '×', '*', '/', '^', '<']);
        let word: String = next.chars().take_while(char::is_ascii_alphabetic).collect();
        let unit = ["KiB", "MiB", "GiB", "KB", "MB", "GB", "K", "M", "G"].contains(&word.as_str());
        if power || operator || unit {
            continue;
        }
        stated.push((*name, number.parse().expect("digits")));
    }
    stated
}

/// The names `text` gives that do not resolve under `root`, each once.
fn missing_names(root: &Path, text: &str) -> impl Iterator<Item = String> {
    let crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .expect("crates/")
        .map(|e| e.expect("crates/ entry").path())
        .collect();
    let exists = |path: &str| {
        root.join(path).is_file()
            || (path.starts_with("tests/") && crates.iter().any(|c| c.join(path).is_file()))
    };
    let mut missing = BTreeSet::new();
    let is_path = |c: char| c.is_ascii_alphanumeric() || "_./-{},*<>…".contains(c);
    for run in text.split(|c: char| !is_path(c)) {
        let run = run.trim_end_matches(['.', ',']);
        let checked = (run.starts_with("results/") && !run.ends_with('/'))
            || (run.starts_with("crates/") && run.ends_with(".rs"))
            || (run.starts_with("tests/") && run.ends_with(".rs"))
            || (run.starts_with("scripts/") && run.ends_with(".sh"));
        if !checked || run.contains(['*', '<', '>', '…']) {
            continue;
        }
        for path in expand_braces(run) {
            if !exists(&path) {
                missing.insert(path);
            }
        }
    }
    let bins = root.join("crates/bench/src/bin");
    for word in text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')) {
        let fig = word
            .strip_prefix("fig")
            .is_some_and(|rest| rest.starts_with(|c: char| c.is_ascii_digit()));
        let named = fig || word.starts_with("ablation_") || word.starts_with("ext_");
        let bin = bins.join(format!("{word}.rs"));
        if named && word.contains('_') && !word.ends_with('_') && !bin.is_file() {
            missing.insert(format!("bin {word}"));
        }
    }
    missing.into_iter()
}

/// `a{b,c}d{e,f}` → `abde`, `abdf`, `acde`, `acdf`; no braces → itself.
fn expand_braces(s: &str) -> Vec<String> {
    let Some(open) = s.find('{') else {
        return vec![s.to_owned()];
    };
    let Some(close) = s[open..].find('}').map(|i| open + i) else {
        return vec![s.to_owned()];
    };
    s[open + 1..close]
        .split(',')
        .flat_map(|alt| expand_braces(&format!("{}{alt}{}", &s[..open], &s[close + 1..])))
        .collect()
}
