//! Experiment shape assertions: every quantitative claim of the paper's
//! evaluation (§VI), checked against the reproduction with reduced
//! iteration counts. These are the regression guard for EXPERIMENTS.md —
//! if a calibration change breaks a claim, this suite fails.

use rmc::Transport;
use rmc_bench::{measure_latency, measure_throughput, ClusterKind, Mix};
use simnet::Stack;
use std::collections::BTreeSet;
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

/// The documents name only what exists. Every literal `results/<file>`,
/// every figure, ablation and extension bin, and every `crates/…/*.rs`,
/// `tests/*.rs` or `scripts/*.sh` path named in README.md, DESIGN.md,
/// EXPERIMENTS.md or the verify skill must be in the tree; a `tests/`
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
