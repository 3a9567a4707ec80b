//! The analyzer must pass on the workspace itself: running the real
//! walk in-process makes `cargo test` a lint gate too, not just the
//! dedicated CI step.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use rmc_lint::workspace::SourceFile;
use rmc_lint::MetricSite;

#[test]
fn workspace_is_clean() {
    let root = rmc_lint::default_root();
    let analysis = rmc_lint::analyze_workspace(&root).expect("workspace walk");
    assert!(
        analysis.violations.is_empty(),
        "lint violations — fix, or waive with a reason: {:#?}",
        analysis.violations
    );
}

#[test]
fn committed_metric_manifest_is_current() {
    let root = rmc_lint::default_root();
    let analysis = rmc_lint::analyze_workspace(&root).expect("workspace walk");
    let on_disk = std::fs::read_to_string(root.join("results/metric_manifest.json"))
        .expect("results/metric_manifest.json must be committed");
    assert_eq!(
        on_disk, analysis.manifest,
        "results/metric_manifest.json is stale; \
         run `cargo run -p rmc-lint -- --write-manifest` and commit"
    );
}

/// Checks a Prometheus exposition against the registration sites, in one
/// pass: every family has a `# HELP` and exactly one `# TYPE`, the registry
/// name its HELP quotes is registered as that kind of instrument, every
/// sample belongs to a typed family, has well-formed labels and a numeric
/// value, and no series appears twice. A count is exported as a counter:
/// no `ucr.*` family is a gauge, and no counter family has the
/// `_high`/`_low` watermark siblings only a gauge gets. Returns the
/// families checked, or one line per problem.
fn check_exposition(sites: &[MetricSite], prom: &str) -> Result<usize, Vec<String>> {
    let ident = |s: &str| {
        s.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
            && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
    };
    // `key="value"`, the value free of quotes, backslashes and commas.
    let label = |l: &str| {
        l.split_once("=\"").is_some_and(|(key, rest)| {
            let value = rest.strip_suffix('"');
            ident(key) && value.is_some_and(|v| !v.contains(['"', '\\']))
        })
    };
    let mut problems = Vec::new();
    let mut helped = BTreeMap::new(); // family -> the registry name its HELP quotes
    let mut typed = BTreeMap::new(); // family -> its TYPE
    let mut series = BTreeSet::new();
    for line in prom.lines().filter(|l| !l.is_empty()) {
        match line.splitn(4, ' ').collect::<Vec<_>>()[..] {
            ["#", "HELP", family, text] => {
                helped.insert(family, text.split('`').nth(1).unwrap_or(""));
            }
            ["#", "TYPE", family, kind] => {
                let kind = if kind == "summary" { "histogram" } else { kind };
                let name = helped.get(family).copied().unwrap_or("");
                if typed.insert(family, kind).is_some() {
                    problems.push(format!("{family}: duplicate TYPE"));
                }
                if kind == "gauge" && name.starts_with("ucr.") {
                    problems.push(format!("{family}: `{name}` is a count exported as a gauge"));
                }
                if !sites.iter().any(|s| s.registers(kind, name)) {
                    problems.push(format!("{family}: no {kind} is registered as `{name}`"));
                }
            }
            _ if line.starts_with('#') => {} // any other comment line
            _ => {
                let (id, value) = line.rsplit_once(' ').unwrap_or((line, ""));
                let (name, labels) = id
                    .strip_suffix('}')
                    .map_or(Some((id, "")), |l| l.split_once('{'))
                    .unwrap_or(("", ""));
                let family = ["_sum", "_count"]
                    .iter()
                    .find_map(|suffix| name.strip_suffix(suffix));
                if !typed.contains_key(name) && !family.is_some_and(|f| typed.contains_key(f)) {
                    problems.push(format!("{id}: sample of a family without TYPE"));
                }
                if !ident(name) || !labels.split(',').all(|l| labels.is_empty() || label(l)) {
                    problems.push(format!("{id}: malformed series"));
                }
                if value.parse::<f64>().is_err() {
                    problems.push(format!("{id}: value {value:?} is not a number"));
                }
                if !series.insert(id) {
                    problems.push(format!("{id}: duplicate series"));
                }
            }
        }
    }
    problems.extend(
        helped
            .keys()
            .filter(|f| !typed.contains_key(*f))
            .map(|f| format!("{f}: HELP without TYPE")),
    );
    for (family, _) in typed.iter().filter(|(_, kind)| **kind == "counter") {
        for mark in ["_high", "_low"] {
            if typed.contains_key(format!("{family}{mark}").as_str()) {
                problems.push(format!(
                    "{family}: a counter with a {mark} watermark family"
                ));
            }
        }
    }
    if problems.is_empty() {
        Ok(typed.len())
    } else {
        Err(problems)
    }
}

#[test]
fn the_committed_exposition_matches_the_registrations() {
    let root = rmc_lint::default_root();
    let sites = rmc_lint::analyze_workspace(&root)
        .expect("workspace walk")
        .sites;
    let prom = std::fs::read_to_string(root.join("results/ext_pipeline_depth.prom"))
        .expect("results/ext_pipeline_depth.prom must be committed");
    let families = check_exposition(&sites, &prom).expect("committed exposition is sound");
    assert!(families > 0, "the exposition has no families");

    // The check must bite: a renamed series, a duplicate series and a
    // family without TYPE each fail it.
    const SERIES: &str = "rmc_wakes{layer=\"mc\",node=\"node0\",worker=\"0\"} 3\n";
    let good = format!(
        "# HELP rmc_wakes Event count from registry metric `mc.node0.worker0.wakes`.\n\
         # TYPE rmc_wakes counter\n{SERIES}"
    );
    assert_eq!(check_exposition(&sites, &good), Ok(1));
    let problems = |prom: String| check_exposition(&sites, &prom).expect_err("must fail");
    let renamed = problems(good.replace("worker0.wakes", "worker0.wkaes"));
    assert!(renamed.len() == 1 && renamed[0].contains("no counter is registered"));
    let duplicate = problems(format!("{good}{SERIES}"));
    assert!(duplicate.len() == 1 && duplicate[0].ends_with("duplicate series"));
    let untyped = problems(good.replace("# TYPE rmc_wakes counter\n", ""));
    assert!(untyped.iter().any(|p| p.ends_with("family without TYPE")));
    // So do the two shapes of a count mirrored into a gauge.
    let mirror = |family: &str| {
        format!(
            "# HELP {family} Level from registry metric `ucr.ib.node0.progress_wakes`.\n\
             # TYPE {family} gauge\n{family}{{layer=\"ucr\",net=\"ib\",node=\"node0\"}} 3\n"
        )
    };
    let as_gauge = problems(mirror("rmc_progress_wakes"));
    assert!(as_gauge.iter().any(|p| p.ends_with("exported as a gauge")));
    let watermarked = problems(format!("{good}{}", mirror("rmc_wakes_high")));
    assert!(watermarked
        .iter()
        .any(|p| p.ends_with("a counter with a _high watermark family")));
}

/// Ground truth for R7 on the actual workspace. The rule follows a
/// registration retained in the function that makes it, and `crates/`
/// has exactly three, each released in the file that registers it: an
/// endpoint's advertised sources (`remove` on Fin), UCR's receive buffers,
/// and the bypass directory's mirror pages (retire). UCR's send pool is not
/// among them: a send buffer is registered into the packet it carries and
/// retained only when it comes back (`return_send_buf`, which keeps at most
/// the pool's cap), so its bound is pinned by `ucr`'s at-cap row
/// (`the_send_pool_keeps_its_cap_and_deregisters_the_surplus`) instead. If a
/// refactor stopped the rule from recognizing these shapes it would pass
/// vacuously; this pins them.
#[test]
fn r7_sees_every_retained_registration_in_the_real_tree() {
    let root = rmc_lint::default_root();
    let analysis = rmc_lint::analyze_workspace(&root).expect("workspace walk");
    let mut in_crates: Vec<(&str, &str, bool)> = analysis
        .r7_obligations
        .iter()
        .filter(|(file, _, _)| file.starts_with("crates/"))
        .map(|(file, container, released)| (file.as_str(), container.as_str(), *released))
        .collect();
    in_crates.sort();
    assert_eq!(
        in_crates,
        [
            ("crates/core/src/server/bypass.rs", "pages", true),
            ("crates/ucr/src/endpoint.rs", "sources", true),
            ("crates/ucr/src/runtime.rs", "recv_bufs", true),
        ]
    );
}

/// Lexes every `*.rs` under `dir` (a missing directory holds none).
fn lex_tree(dir: &Path, out: &mut Vec<SourceFile>) {
    for entry in std::fs::read_dir(dir).into_iter().flatten() {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            lex_tree(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).expect("readable source");
            out.push(SourceFile::new(&path.to_string_lossy(), &text));
        }
    }
}

/// A dependency a member declares is one its code names: as a path root
/// (`name::…`, `use name`) in a token — a comment does not count — of its
/// `src/`, or for a dev-dependency of its `src/`, `tests/` or `examples/`.
#[test]
fn every_dependency_edge_is_used() {
    let root = rmc_lint::default_root();
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/");
    let mut members: Vec<_> = crates.map(|e| e.expect("crates/ entry").path()).collect();
    members.push(root);
    let mut dead = Vec::new();
    for member in members {
        let manifest = std::fs::read_to_string(member.join("Cargo.toml")).expect("a manifest");
        let mut files = Vec::new();
        lex_tree(&member.join("src"), &mut files);
        let src = files.len();
        lex_tree(&member.join("tests"), &mut files);
        lex_tree(&member.join("examples"), &mut files);
        let mut section = "";
        for line in manifest.lines().map(str::trim) {
            if line.starts_with('[') {
                section = line;
                continue;
            }
            let files = match section {
                "[dependencies]" => &files[..src],
                "[dev-dependencies]" => &files[..],
                _ => continue,
            };
            let name = line.split(['.', ' ', '=']).next().unwrap_or("");
            if name.is_empty() || name.starts_with('#') {
                continue;
            }
            let krate = name.replace('-', "_");
            let named = |f: &SourceFile, i: usize| {
                // `use {a, b}` names each entry: step back over the list.
                let mut head = i;
                while head >= 2 && f.punct(head - 1, ',') && f.any_ident(head - 2).is_some() {
                    head -= 2;
                }
                head -= usize::from(head > 0 && f.punct(head - 1, '{'));
                let path = f.punct(i + 1, ':') && f.punct(i + 2, ':');
                f.ident(i, &krate) && (path || (head > 0 && f.ident(head - 1, "use")))
            };
            if !files.iter().any(|f| (0..f.toks.len()).any(|i| named(f, i))) {
                dead.push(format!("{}: {name}", member.display()));
            }
        }
    }
    assert!(dead.is_empty(), "declared but never named: {dead:#?}");
}

/// clippy's `disallowed-methods` (R1) checks a use where it stands, which
/// holds only while nothing can hand one in: no member but the host tools
/// (`crates/lint` and `shims/`) declares a dependency edge on `rmc-lint` or
/// on a `shims/` crate — a `[dependencies]` edge, or for a member with
/// `examples/`, a `[dev-dependencies]` one (an example links its package's
/// dev-dependencies).
#[test]
fn no_simulated_layer_depends_on_a_host_tool() {
    let root = rmc_lint::default_root();
    let mut host_tools = vec!["rmc-lint".to_string()];
    for shim in std::fs::read_dir(root.join("shims")).expect("shims/") {
        let manifest =
            std::fs::read_to_string(shim.expect("shims/ entry").path().join("Cargo.toml"))
                .expect("a shim manifest");
        let name = manifest
            .lines()
            .find_map(|l| l.trim().strip_prefix("name = "));
        host_tools.push(name.expect("a package name").trim_matches('"').to_string());
    }
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/");
    let mut members: Vec<_> = crates.map(|e| e.expect("crates/ entry").path()).collect();
    members.retain(|m| !m.ends_with("lint"));
    members.push(root.clone());
    let mut edges = Vec::new();
    for member in members {
        let examples = member.join("examples").is_dir();
        let manifest = std::fs::read_to_string(member.join("Cargo.toml")).expect("a manifest");
        let mut section = "";
        for line in manifest.lines().map(str::trim) {
            if line.starts_with('[') {
                section = line;
                continue;
            }
            let checked =
                section == "[dependencies]" || (examples && section == "[dev-dependencies]");
            let name = line.split(['.', ' ', '=']).next().unwrap_or("");
            if checked && host_tools.iter().any(|t| t == name) {
                edges.push(format!("{}: {section} {name}", member.display()));
            }
        }
    }
    assert!(
        edges.is_empty(),
        "a simulated layer can reach a host tool: {edges:#?}"
    );
}

/// R1 and R4 are clippy's (DESIGN.md §10), and this pins their homes as the
/// rule table pinned them: the root `clippy.toml` disallows every host-time
/// and entropy path R1 named, and outside its tests every library but the
/// lint's denies iterating a hash table, the five protocol crates (R4's
/// scope) also every way to panic.
#[test]
fn clippy_holds_r1_and_r4() {
    let root = rmc_lint::default_root();
    let config = std::fs::read_to_string(root.join("clippy.toml")).expect("clippy.toml");
    let (methods, types) = config
        .split_once("disallowed-types")
        .expect("clippy.toml disallows types");
    let listed = |list: &str, path: &str| list.contains(&format!("path = \"{path}\""));
    for path in [
        "std::time::Instant::now",
        "std::time::SystemTime::now",
        "std::thread::sleep",
        "std::process::id",
        "rand::random",
        "rand::thread_rng",
        "rand::SeedableRng::from_entropy",
        "getrandom::getrandom",
    ] {
        assert!(listed(methods, path), "clippy.toml lost method {path}");
    }
    for path in [
        "std::time::Instant",
        "std::time::SystemTime",
        "rand::rngs::OsRng",
    ] {
        assert!(listed(types, path), "clippy.toml lost type {path}");
    }

    const PROTOCOL: [&str; 5] = ["verbs", "ucr", "sockets", "core", "proto"];
    const R4: [&str; 6] = [
        "unwrap_used",
        "expect_used",
        "panic",
        "unreachable",
        "todo",
        "unimplemented",
    ];
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/");
    let mut members: Vec<_> = crates.map(|e| e.expect("crates/ entry").path()).collect();
    members.retain(|m| !m.ends_with("lint"));
    members.push(root.clone());
    for member in members {
        let lib = std::fs::read_to_string(member.join("src/lib.rs")).expect("a lib.rs");
        let lib: String = lib.split_whitespace().collect();
        let denied = lib
            .split_once("#![cfg_attr(not(test),deny(")
            .and_then(|(_, rest)| rest.split_once("))]"))
            .map_or("", |(lints, _)| lints);
        let denied: Vec<&str> = denied
            .split(',')
            .filter_map(|l| l.strip_prefix("clippy::"))
            .collect();
        let protocol = PROTOCOL.iter().any(|p| member.ends_with(p));
        let want = R4.iter().filter(|_| protocol);
        for lint in want.chain(&["iter_over_hash_type"]) {
            assert!(
                denied.contains(lint),
                "{}: lib.rs no longer denies clippy::{lint} outside its tests",
                member.display()
            );
        }
    }
}

/// A `pub fn set_*` is a knob, and a knob exists for someone who turns it:
/// every one under `crates/*/src` is called (`.set_x(` or `::set_x(`) from
/// code that is not a test — a member's `src/` outside `#[cfg(test)]`, or
/// `benchmark/src`. Callers under `tests/` and `examples/` do not count.
#[test]
fn every_setter_is_called_outside_tests() {
    let root = rmc_lint::default_root();
    let mut files = Vec::new();
    for member in std::fs::read_dir(root.join("crates")).expect("crates/") {
        lex_tree(
            &member.expect("crates/ entry").path().join("src"),
            &mut files,
        );
    }
    let members = files.len();
    lex_tree(&root.join("src"), &mut files);
    lex_tree(&root.join("benchmark/src"), &mut files);
    let called = |name: &str| {
        files.iter().any(|f| {
            (1..f.toks.len()).any(|i| {
                f.ident(i, name)
                    && f.punct(i + 1, '(')
                    && (f.punct(i - 1, '.') || f.punct(i - 1, ':'))
                    && !f.in_test(i)
            })
        })
    };
    let mut idle = Vec::new();
    for f in &files[..members] {
        for i in 2..f.toks.len() {
            let setter = f.any_ident(i).filter(|name| name.starts_with("set_"));
            let Some(name) = setter else { continue };
            let defined = f.ident(i - 1, "fn") && f.ident(i - 2, "pub") && !f.in_test(i);
            if defined && !called(name) {
                idle.push(format!("{}:{}: {name}", f.path, f.line(i)));
            }
        }
    }
    assert!(idle.is_empty(), "setters nothing turns: {idle:#?}");
}
