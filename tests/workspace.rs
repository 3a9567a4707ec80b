//! Checks on the workspace's own shape, read as text with comments and
//! the insides of literals blanked, so a name in a comment or a string
//! never counts as code. Every dependency edge is used, no simulated layer
//! can reach a host tool, clippy keeps the determinism and panic rules,
//! and every setter is turned by code that is not a test.

use std::path::{Path, PathBuf};

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// Every workspace member with simulated code: each crate and the root.
fn members() -> Vec<PathBuf> {
    let root = Path::new(ROOT);
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/");
    let mut members: Vec<_> = crates.map(|e| e.expect("crates/ entry").path()).collect();
    members.sort();
    members.push(root.to_path_buf());
    members
}

/// Rust source `text` with its comments and its string and character
/// literals blanked; line breaks stay. Cutting each line at `//` is not
/// enough: a crate or a setter named in a block comment or a string would
/// count as named.
fn code(text: &str) -> String {
    let c: Vec<char> = text.chars().collect();
    let at = |i: usize, s: &str| s.chars().enumerate().all(|(k, x)| c.get(i + k) == Some(&x));
    let find = |from: usize, s: &str| (from..c.len()).find(|&j| at(j, s)).unwrap_or(c.len());
    let mut out = String::with_capacity(text.len());
    let mut i = 0;
    while i < c.len() {
        let hashes = c[i + 1..].iter().take_while(|&&x| x == '#').count();
        // Where the comment or literal starting at `i` ends.
        let end = if at(i, "//") {
            find(i, "\n")
        } else if at(i, "/*") {
            let (mut depth, mut j) = (0, i);
            while j < c.len() && (j == i || depth > 0) {
                let step = [("/*", 1), ("*/", -1)].into_iter().find(|(s, _)| at(j, s));
                depth += step.map_or(0, |(_, d)| d);
                j += if step.is_some() { 2 } else { 1 };
            }
            j
        } else if c[i] == 'r' && c.get(i + 1 + hashes) == Some(&'"') {
            let close = format!("\"{}", "#".repeat(hashes));
            find(i + 2 + hashes, &close) + close.len()
        } else if c[i] == '"' {
            let mut j = i + 1;
            while j < c.len() && c[j] != '"' {
                j += if c[j] == '\\' { 2 } else { 1 };
            }
            j + 1
        } else if c[i] == '\'' && c.get(i + 1) == Some(&'\\') {
            find(i + 3, "'") + 1
        } else if c[i] == '\'' && c.get(i + 2) == Some(&'\'') {
            i + 3
        } else {
            out.push(c[i]);
            i += 1;
            continue;
        };
        let end = end.min(c.len());
        out.extend(c[i..end].iter().filter(|&&x| x == '\n'));
        i = end;
    }
    out
}

/// `(path, code)` of every `*.rs` under `dir` (a missing directory holds
/// none), in path order.
fn sources(dir: &Path, out: &mut Vec<(String, String)>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<_> = entries
        .map(|e| e.expect("directory entry").path())
        .collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).expect("readable source");
            out.push((path.display().to_string(), code(&text)));
        }
    }
}

/// `code` without its test items: an item under `#[cfg(test)]` or
/// `#[test]`, or a `mod tests`, is left out through the brace that closes
/// it (or, with no body, through its `;`).
fn outside_tests(code: &str) -> String {
    let mut out = String::new();
    let mut depth: Option<i64> = None;
    for line in code.lines() {
        let t = line.trim();
        if depth.is_none() && (t == "#[cfg(test)]" || t == "#[test]" || t.starts_with("mod tests"))
        {
            depth = Some(0);
        }
        let Some(d) = depth.as_mut() else {
            out.push_str(line);
            out.push('\n');
            continue;
        };
        let opens = line.matches('{').count() as i64;
        *d += opens - line.matches('}').count() as i64;
        let bodyless = *d == 0 && opens == 0 && t.ends_with(';');
        if (*d == 0 && line.contains('}')) || bodyless {
            depth = None;
        }
    }
    out
}

fn is_ident(c: Option<char>) -> bool {
    c.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// True when `code` names the crate `krate` as a path root (`krate::…`)
/// or in a `use` (`use krate;`, `use {a, krate}`).
fn names_crate(code: &str, krate: &str) -> bool {
    let path_root = code.match_indices(krate).any(|(i, _)| {
        let rest = &code[i + krate.len()..];
        !is_ident(code[..i].chars().next_back()) && rest.starts_with("::")
    });
    let used = code.match_indices("use ").any(|(i, _)| {
        let rest = code[i + 4..].trim_start();
        let items = match rest.strip_prefix('{') {
            Some(list) => list.split('}').next().unwrap_or(""),
            None => rest.split([';', ' ', ':']).next().unwrap_or(""),
        };
        !is_ident(code[..i].chars().next_back()) && items.split(',').any(|n| n.trim() == krate)
    });
    path_root || used
}

/// `(section, package name, line)` of every dependency line of `manifest`.
fn dependency_lines(manifest: &str) -> Vec<(&str, &str, &str)> {
    let mut section = "";
    let mut out = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line;
            continue;
        }
        let name = line.split(['.', ' ', '=']).next().unwrap_or("");
        if !name.is_empty() && !name.starts_with('#') {
            out.push((section, name, line));
        }
    }
    out
}

/// A dependency a member declares is one its code names: as a path root
/// or in a `use`, outside a comment, in its `src/`, or for a
/// dev-dependency in its `src/`, `tests/` or `examples/`.
#[test]
fn every_dependency_edge_is_used() {
    let mut dead = Vec::new();
    for member in members() {
        let manifest = std::fs::read_to_string(member.join("Cargo.toml")).expect("a manifest");
        let mut files = Vec::new();
        sources(&member.join("src"), &mut files);
        let src = files.len();
        sources(&member.join("tests"), &mut files);
        sources(&member.join("examples"), &mut files);
        for (section, name, _) in dependency_lines(&manifest) {
            let files = match section {
                "[dependencies]" => &files[..src],
                "[dev-dependencies]" => &files[..],
                _ => continue,
            };
            let krate = name.replace('-', "_");
            if !files.iter().any(|(_, code)| names_crate(code, &krate)) {
                dead.push(format!("{}: {name}", member.display()));
            }
        }
    }
    assert!(dead.is_empty(), "declared but never named: {dead:#?}");
}

/// clippy's `disallowed-methods` checks a use where it stands, which holds
/// only while nothing can hand one in: every dependency edge of every
/// member, dev edges included, names a workspace crate under `crates/`,
/// through `workspace = true` or a `path` into that crate's directory.
#[test]
fn no_simulated_layer_depends_on_a_host_tool() {
    let root = Path::new(ROOT);
    let crates: Vec<(String, PathBuf)> = members()
        .into_iter()
        .filter(|m| m.as_path() != root)
        .map(|dir| {
            let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).expect("a manifest");
            let name = manifest
                .lines()
                .find_map(|l| l.trim().strip_prefix("name = "))
                .expect("a package name");
            (name.trim_matches('"').to_string(), dir)
        })
        .collect();
    let (mut checked, mut edges) = (0, Vec::new());
    for member in members() {
        let manifest = std::fs::read_to_string(member.join("Cargo.toml")).expect("a manifest");
        for (section, name, line) in dependency_lines(&manifest) {
            if !section.ends_with("dependencies]") {
                continue;
            }
            checked += 1;
            let dir = crates.iter().find(|(n, _)| n == name).map(|(_, d)| d);
            let path = line
                .split_once("path = \"")
                .and_then(|(_, rest)| rest.split_once('"'))
                .map(|(path, _)| member.join(path));
            let resolves = match (dir, path) {
                (Some(dir), Some(path)) => path.canonicalize().ok() == dir.canonicalize().ok(),
                (Some(_), None) => line.replace(' ', "").contains("workspace=true"),
                (None, _) => false,
            };
            if !resolves {
                edges.push(format!("{}: {section} {line}", member.display()));
            }
        }
    }
    assert!(checked > 0, "no dependency edge found");
    assert!(
        edges.is_empty(),
        "an edge leaves the workspace crates: {edges:#?}"
    );
}

/// Determinism and panic freedom are clippy's (DESIGN.md §9.2): the root
/// `clippy.toml` disallows every host-time and entropy path, and outside
/// its tests every library denies iterating a hash table, the five
/// protocol crates also every way to panic.
#[test]
fn clippy_holds_r1_and_r4() {
    let root = Path::new(ROOT);
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
    for member in members() {
        let lib = std::fs::read_to_string(member.join("src/lib.rs")).expect("a lib.rs");
        let lib: String = code(&lib).split_whitespace().collect();
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
/// code that is not a test — a member's `src/` outside its test items, or
/// `benchmark/src`. Callers under `tests/` and `examples/` do not count.
#[test]
fn every_setter_is_called_outside_tests() {
    let root = Path::new(ROOT);
    let mut files = Vec::new();
    for member in members() {
        sources(&member.join("src"), &mut files);
    }
    sources(&root.join("benchmark/src"), &mut files);
    let files: Vec<(String, String)> = files
        .into_iter()
        .map(|(path, code)| (path, outside_tests(&code)))
        .collect();
    let called = |name: &str| {
        files.iter().any(|(_, code)| {
            [".", "::"]
                .iter()
                .any(|sep| code.contains(&format!("{sep}{name}(")))
        })
    };
    let mut setters = 0;
    let mut idle = Vec::new();
    let crates = Path::new(ROOT).join("crates").display().to_string();
    for (path, code) in files.iter().filter(|(p, _)| p.starts_with(&crates)) {
        for (i, _) in code.match_indices("pub fn set_") {
            let name: String = code[i + 7..]
                .chars()
                .take_while(|&c| is_ident(Some(c)))
                .collect();
            setters += 1;
            if !called(&name) {
                idle.push(format!("{path}: {name}"));
            }
        }
    }
    assert!(setters > 0, "the scan found no setter");
    assert!(idle.is_empty(), "setters nothing turns: {idle:#?}");
}

/// The test items `outside_tests` leaves out: a `#[cfg(test)]` module, a
/// `#[test]` fn, a `mod tests` without the attribute, an item under
/// stacked attributes and a body-less one; the code around them stays.
#[test]
fn outside_tests_leaves_out_exactly_the_test_items() {
    let text = "\
fn kept_a() {}
#[cfg(test)]
use helper;
#[cfg(test)]
#[allow(dead_code)]
mod unit {
    fn dropped_a() { if x { y() } }
}
fn kept_b() { let s = format!(\"{}\", 1); }
#[test]
fn dropped_b() {
}
mod tests {
    fn dropped_c() {}
}
fn kept_c() {}
";
    let kept = outside_tests(&code(text));
    for name in ["kept_a", "kept_b", "kept_c"] {
        assert!(kept.contains(name), "{name} was left out:\n{kept}");
    }
    for name in ["helper", "dropped_a", "dropped_b", "dropped_c"] {
        assert!(!kept.contains(name), "{name} was kept:\n{kept}");
    }
}

/// What `code` blanks: line and nested block comments, strings with
/// escapes, raw strings with hashes, byte strings and character literals;
/// a lifetime, a raw identifier and the code around them stay, and so does
/// every line break.
#[test]
fn code_blanks_comments_and_literals() {
    let text = concat!(
        "use a; // mcstore::x\n",
        "/* outer /* inner */ still simnet::x */ b::f();\n",
        "let s = \"q\\\"uote // verbs::x\"; c::g();\n",
        "let r = r##\"raw \"# verbs::x\"##; let t = br\"y\";\n",
        "let ch = ['{', '\\'', '\\u{7b}', '\"']; fn f<'a>(x: &'a u8) {}\n",
        "let r#type = 1;\n",
    );
    let kept = code(text);
    assert_eq!(kept.lines().count(), text.lines().count(), "{kept}");
    for gone in ["mcstore", "simnet", "verbs", "inner", "uote", "{", "\\"] {
        let body = kept.replace("fn f<'a>(x: &'a u8) {}", "");
        assert!(!body.contains(gone), "{gone:?} was kept:\n{kept}");
    }
    for stays in [
        "use a;",
        "b::f();",
        "c::g();",
        "let t = b;",
        "&'a u8",
        "let r#type = 1;",
    ] {
        assert!(kept.contains(stays), "{stays:?} was blanked:\n{kept}");
    }
}
