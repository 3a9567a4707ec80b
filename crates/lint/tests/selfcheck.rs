//! The analyzer must pass on the workspace itself: running the real
//! walk in-process makes `cargo test` a lint gate too, not just the
//! dedicated CI step.

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

#[test]
fn interprocedural_pass_sees_the_real_tree() {
    // Ground truth for the call-graph rules on the actual workspace.
    // If a refactor silently stops the call graph from resolving these
    // shapes, the rules would pass vacuously — this pins them.
    let root = rmc_lint::default_root();
    let analysis = rmc_lint::analyze_workspace(&root).expect("workspace walk");
    let s = &analysis.stats;

    // The call graph is substantial and mostly resolved.
    assert!(s.fns > 400, "only {} non-test fns found", s.fns);
    assert!(
        s.resolved_calls > 500,
        "only {} resolved call edges",
        s.resolved_calls
    );

    // R6: the PR 8 sharded store is the one multi-acquisition site —
    // the executor's lock_shards takes locks[0] then ascending shard
    // indices, and both acquisitions must be *provably* ascending (not
    // merely skipped).
    let srv: Vec<_> = s
        .r6_acquisitions
        .iter()
        .filter(|(f, _, _)| f == "crates/core/src/server/executor.rs")
        .collect();
    assert!(
        srv.len() >= 2,
        "expected the lock_shards acquisitions to be typed, got {:?}",
        s.r6_acquisitions
    );
    assert!(
        srv.iter().all(|(_, _, provable)| *provable),
        "lock_shards acquisitions no longer provably ascending: {srv:?}"
    );

    // R7: the three retained-registration sites, each with a live
    // release path (PR 6's mirror-page retire among them).
    for want in [
        ("crates/ucr/src/runtime.rs", "cache"),
        ("crates/ucr/src/runtime.rs", "recv_bufs"),
        ("crates/core/src/server/bypass.rs", "pages"),
    ] {
        assert!(
            s.r7_obligations
                .iter()
                .any(|(f, c, released)| f == want.0 && c == want.1 && *released),
            "missing released MR obligation {want:?} in {:?}",
            s.r7_obligations
        );
    }
}
