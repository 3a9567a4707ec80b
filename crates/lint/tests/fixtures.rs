//! Fixture-based end-to-end tests: each rule gets a deliberately
//! violating source file under `tests/fixtures/` (excluded from the
//! real workspace walk), fed through the full pipeline under a virtual
//! path inside the rule's scope, and every hit is asserted by exact
//! `file:line`.

use rmc_lint::analyze_sources;

fn hits(files: &[(&str, &str)]) -> (Vec<(String, u32, &'static str)>, usize, String) {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(p, t)| (p.to_string(), t.to_string()))
        .collect();
    let analysis = analyze_sources(&owned);
    (
        analysis
            .violations
            .iter()
            .map(|v| (v.file.clone(), v.line, v.rule))
            .collect(),
        analysis.waived,
        analysis.manifest,
    )
}

#[test]
fn r2_fixture_exact_lines() {
    let (v, _, manifest) = hits(&[(
        "crates/core/src/fixture_r2.rs",
        include_str!("fixtures/r2.rs"),
    )]);
    // 5–8: grammar violations; 9: reserved `.high` suffix; 12: read of
    // an unregistered name. 10 registers cleanly, 11 reads it back.
    let expect: Vec<(String, u32, &str)> = [5, 6, 7, 8, 9, 12]
        .iter()
        .map(|&l| ("crates/core/src/fixture_r2.rs".to_string(), l, "R2"))
        .collect();
    assert_eq!(v, expect);
    assert!(manifest.contains("\"name\": \"mc.node*.ops\""));
    assert!(manifest.contains("\"kind\": \"counter\""));
    assert!(manifest.contains("\"layer\": \"mc\""));
}

#[test]
fn r3_fixture_exact_lines() {
    let (v, _, _) = hits(&[(
        "crates/ucr/src/fixture_r3.rs",
        include_str!("fixtures/r3.rs"),
    )]);
    // 5: begin whose end exists nowhere in the workspace; 8: the
    // symmetric end; 9: literal-0 span key.
    let expect: Vec<(String, u32, &str)> = [5, 8, 9]
        .iter()
        .map(|&l| ("crates/ucr/src/fixture_r3.rs".to_string(), l, "R3"))
        .collect();
    assert_eq!(v, expect);
}

#[test]
fn r7_fixture_exact_lines() {
    let (v, _, _) = hits(&[(
        "crates/ucr/src/fixture_r7.rs",
        include_str!("fixtures/r7.rs"),
    )]);
    // 12: let-bound registration inserted into `bufs` with no release;
    // 17: registration pushed into `pool` with no release. The
    // `live` insert on 21 is balanced by the remove on 25.
    let expect: Vec<(String, u32, &str)> = [12, 17]
        .iter()
        .map(|&l| ("crates/ucr/src/fixture_r7.rs".to_string(), l, "R7"))
        .collect();
    assert_eq!(v, expect);
}

#[test]
fn r3_fixture_cross_file_pairing() {
    let (v, _, _) = hits(&[
        (
            "crates/ucr/src/fixture_sa.rs",
            include_str!("fixtures/r3v2_a.rs"),
        ),
        (
            "crates/core/src/fixture_sb.rs",
            include_str!("fixtures/r3v2_b.rs"),
        ),
    ]);
    // A span opens and closes in the file that names it: both names
    // are flagged on both sides, the shared `helper` callee
    // notwithstanding.
    assert_eq!(
        v,
        vec![
            ("crates/core/src/fixture_sb.rs".to_string(), 8, "R3"),
            ("crates/core/src/fixture_sb.rs".to_string(), 12, "R3"),
            ("crates/ucr/src/fixture_sa.rs".to_string(), 5, "R3"),
            ("crates/ucr/src/fixture_sa.rs".to_string(), 10, "R3"),
        ]
    );
}

#[test]
fn w0_fixture_stale_waiver_flagged() {
    // A waiver over a line where its rule no longer fires is itself a
    // violation: silently dead suppressions hide future regressions.
    let (v, waived, _) = hits(&[(
        "crates/ucr/src/fixture_stale.rs",
        include_str!("fixtures/w0.rs"),
    )]);
    assert_eq!(waived, 0);
    assert_eq!(
        v,
        vec![("crates/ucr/src/fixture_stale.rs".to_string(), 2, "W0")]
    );
}

#[test]
fn waiver_fixture_suppresses_covered_lines_only() {
    let (v, waived, _) = hits(&[(
        "crates/ucr/src/fixture_waiver.rs",
        include_str!("fixtures/waiver.rs"),
    )]);
    // Line 5 is waived inline, line 7 by the standalone comment on 6;
    // line 8 has no waiver and must survive.
    assert_eq!(waived, 2);
    assert_eq!(
        v,
        vec![("crates/ucr/src/fixture_waiver.rs".to_string(), 8, "R7")]
    );
}

/// Each row of the rule table with the fixtures that are its own, under
/// the paths the tests above mount them at.
const OWN_FIXTURES: [(&str, &[(&str, &str)]); 4] = [
    (
        "R2",
        &[(
            "crates/core/src/fixture_r2.rs",
            include_str!("fixtures/r2.rs"),
        )],
    ),
    (
        "R3",
        &[
            (
                "crates/ucr/src/fixture_r3.rs",
                include_str!("fixtures/r3.rs"),
            ),
            (
                "crates/ucr/src/fixture_sa.rs",
                include_str!("fixtures/r3v2_a.rs"),
            ),
            (
                "crates/core/src/fixture_sb.rs",
                include_str!("fixtures/r3v2_b.rs"),
            ),
        ],
    ),
    (
        "R7",
        &[(
            "crates/ucr/src/fixture_r7.rs",
            include_str!("fixtures/r7.rs"),
        )],
    ),
    (
        "W0",
        &[(
            "crates/ucr/src/fixture_stale.rs",
            include_str!("fixtures/w0.rs"),
        )],
    ),
];

#[test]
fn all_fixtures_together_stay_disjoint() {
    // Every rule's fixtures plus the waiver fixture in one workspace (the
    // stale-waiver fixture stays out: its finding is about a waiver, not
    // about the code the others share a workspace with).
    let mut all: Vec<(&str, &str)> = OWN_FIXTURES
        .iter()
        .filter(|(id, _)| *id != "W0")
        .flat_map(|(_, fixtures)| fixtures.iter().copied())
        .collect();
    all.push((
        "crates/ucr/src/fixture_waiver.rs",
        include_str!("fixtures/waiver.rs"),
    ));
    let (v, waived, _) = hits(&all);
    // Per-file counts: r2=6, r3=3, waiver=1, r7=2, span pair=4.
    assert_eq!(v.len(), 6 + 3 + 1 + 2 + 4);
    assert_eq!(waived, 2);
    for rule in ["R2", "R3", "R7"] {
        assert!(v.iter().any(|(_, _, r)| *r == rule), "missing {rule} hits");
    }
}

#[test]
fn every_row_fires_on_its_own_fixtures_and_on_no_other_rows() {
    // The table is the id space: what `--explain` resolves is what can
    // be emitted, row for row.
    let ids: Vec<&str> = rmc_lint::rules::RULES.iter().map(|r| r.id).collect();
    let expected: Vec<&str> = OWN_FIXTURES.iter().map(|(id, _)| *id).collect();
    assert_eq!(ids, expected);
    for (id, fixtures) in OWN_FIXTURES {
        let (v, _, _) = hits(fixtures);
        assert!(!v.is_empty(), "{id} is silent on its own fixtures");
        for (file, line, rule) in v {
            assert_eq!(rule, id, "{file}:{line} fired on {id}'s fixtures");
        }
    }
}

#[test]
fn explain_resolves_exactly_the_table() {
    let explain = |id: &str| {
        std::process::Command::new(env!("CARGO_BIN_EXE_rmc-lint"))
            .args(["--explain", id])
            .output()
            .expect("rmc-lint runs")
    };
    for rule in rmc_lint::rules::RULES {
        let out = explain(rule.id);
        assert!(out.status.success(), "--explain {} failed", rule.id);
        let text = String::from_utf8(out.stdout).expect("utf-8");
        assert!(text.starts_with(&format!("{} — {}", rule.id, rule.title)));
    }
    for unknown in ["R0", "R1", "R4", "R5", "R6", "R8", "W1", "R1x"] {
        let out = explain(unknown);
        assert_eq!(out.status.code(), Some(2), "--explain {unknown}");
        // The error lists the table: four rows under the header.
        let listing = String::from_utf8(out.stderr).expect("utf-8");
        assert_eq!(listing.lines().filter(|l| l.starts_with("  ")).count(), 4);
    }
}

#[test]
fn out_of_scope_placement_is_ignored() {
    // The same violating sources outside their rules' scopes: R7 does
    // not apply to crates/verbs (the registrar itself), and files under
    // tests/ are test code wholesale.
    let (v, _, _) = hits(&[
        (
            "crates/verbs/src/fixture_r7.rs",
            include_str!("fixtures/r7.rs"),
        ),
        (
            "crates/ucr/tests/fixture_r7.rs",
            include_str!("fixtures/r7.rs"),
        ),
        (
            "crates/ucr/tests/fixture_r3.rs",
            include_str!("fixtures/r3.rs"),
        ),
    ]);
    assert_eq!(v, vec![]);
}
