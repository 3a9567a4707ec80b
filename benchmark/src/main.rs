//! The repo's benchmark: five workloads over the simulated cluster, two
//! clocks (virtual time of the modelled machine, host time of the
//! simulator), end-to-end metrics from an untraced run and a per-layer
//! budget from a traced one. See `README.md` beside this crate.
//!
//! ```text
//! rmc-benchmark --seed N                       every workload, each run in a child process
//!               [--seconds S] [--no-trace]
//! rmc-benchmark --workload W --seed N --seconds S --trace 0|1     one run (what BENCHMARK.json calls)
//! rmc-benchmark --probes                       the layer probes alone
//! rmc-benchmark --compare A.json B.json        before/after table; exit 1 on a regression
//! ```

#![warn(unsafe_op_in_unsafe_fn)]

mod alloc;
mod compare;
mod gen;
mod host;
mod json;
mod layers;
mod probes;
mod report;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use json::Json;
use report::{END_TO_END, HOST_RATE, PER_LAYER};
use workload::{best_rate, median, Outcome, RunConfig, Spec, OPS_SCALE, SPECS};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// `BENCHMARK.json`'s `run_seconds`, for runs that do not say.
const DEFAULT_SECONDS: f64 = 20.0;

/// Repetitions of set-up, warm-up and window that an untraced run makes
/// however short `--seconds` is: host time needs samples from more than
/// one stretch of the host's time (and a best rate a second to confirm it,
/// so never fewer than 2).
const MIN_REPETITIONS: usize = 3;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    no_trace: bool,
    probes: bool,
    compare: Option<(String, String)>,
}

fn usage() -> ! {
    eprintln!(
        "usage: rmc-benchmark [--seed N] [--seconds S] [--no-trace]\n\
         \x20      rmc-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20      rmc-benchmark --probes\n\
         \x20      rmc-benchmark --compare A.json B.json\n\
         workloads: {}",
        SPECS.each_ref().map(|s| s.name).join(" ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
        no_trace: false,
        probes: false,
        compare: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = Some(value()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                args.seconds = value().parse().unwrap_or_else(|_| usage());
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    usage();
                }
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--no-trace" => args.no_trace = true,
            "--probes" => args.probes = true,
            "--compare" => args.compare = Some((value(), value())),
            _ => usage(),
        }
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    if let Some((a, b)) = &args.compare {
        return match compare::run(a, b) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::from(1),
            Err(e) => {
                eprintln!("rmc-benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }
    if args.probes {
        for (name, value) in probes::run_all(1024).values {
            println!("{name:<44} {value:>14.1} {}", unit_of(name));
        }
        return ExitCode::SUCCESS;
    }
    match &args.workload {
        Some(name) => {
            let Some(spec) = workload::spec(name) else {
                usage()
            };
            let record = if args.trace {
                traced_run(spec, &args)
            } else {
                untraced_run(spec, &args)
            };
            finish_run(&record, spec, &args)
        }
        None => all_workloads(&args),
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// Where every run's record, the traced run's span profile and the
/// all-workloads report go: `out/` beside this crate's manifest, inside the
/// checkout.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A run's record: `<workload>.json` for the traced run (beside its
/// `<workload>.folded`), `<workload>.end_to_end.json` for the untraced one.
fn record_path(workload: &str, traced: bool) -> PathBuf {
    let suffix = if traced { "json" } else { "end_to_end.json" };
    out_dir().join(format!("{workload}.{suffix}"))
}

fn write_file(path: &Path, contents: &str) {
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, contents));
    if let Err(e) = written {
        eprintln!("rmc-benchmark: could not write {}: {e}", path.display());
    }
}

/// A run's record, by field name.
type Record = BTreeMap<String, Json>;

/// The fields every run's record has.
fn record_base(spec: &Spec, args: &Args, mode: &str, outcome: &Outcome) -> Record {
    let failed_share = outcome.failed as f64 / outcome.attempted as f64;
    println!(
        "{}: {} ops attempted, {} failed (failed_ops_share {failed_share}), {} misses{}",
        spec.name,
        outcome.attempted,
        outcome.failed,
        outcome.misses,
        if spec.misses_legal {
            " (legal: the store evicts)"
        } else {
            ""
        },
    );
    println!(
        "sim_digest {:016x} over {} window ops; mean latency {:.1} sim_ns",
        outcome.sim_digest, outcome.window_ops, outcome.sim_mean_ns
    );
    let digest = format!("{:016x}", outcome.sim_digest);
    Record::from([
        ("workload".into(), Json::str(spec.name)),
        ("mode".into(), Json::str(mode)),
        ("seed".into(), Json::Num(args.seed as f64)),
        ("ops_scale".into(), Json::Num(OPS_SCALE)),
        ("attempted".into(), Json::Num(outcome.attempted as f64)),
        ("failed".into(), Json::Num(outcome.failed as f64)),
        ("misses".into(), Json::Num(outcome.misses as f64)),
        ("failed_ops_share".into(), Json::Num(failed_share)),
        ("correct".into(), Json::Bool(outcome.failed == 0)),
        ("window_ops".into(), Json::Num(outcome.window_ops as f64)),
        ("sim_digest".into(), Json::str(digest)),
        ("sim_mean_ns".into(), Json::Num(outcome.sim_mean_ns)),
    ])
}

fn metrics_json(values: &[(&'static str, f64)]) -> Json {
    Json::object(values.iter().map(|(name, value)| {
        println!("{name:<44} {value:>16.4} {}", unit_of(name));
        (
            *name,
            Json::object([
                ("value", Json::Num(*value)),
                ("unit", Json::str(unit_of(name))),
            ]),
        )
    }))
}

/// `--trace 0`: set-up, warm-up and window, over again in a fresh world
/// for as many whole repetitions as fit into `--seconds`. Every repetition
/// does the same simulated work, so the counts, the virtual-time metrics
/// and the memory are the first one's, and the others must reproduce its
/// `sim_digest`; what they add is host time sampled across the whole run
/// and not at one moment of it.
///
/// This host runs at 0.6 of its speed for minutes on end whenever a
/// neighbour is busy, so neither host number is a plain stopwatch reading.
/// `setup_s` is the time from nothing to a warm testbed **as a share of the
/// window's time**, both taken seconds apart in one repetition and so at
/// one speed of the host, scaled to the window's nominal rate
/// ([`Spec::nominal_ops_per_s`]); the host rate is what the fastest slices
/// of all windows reach ([`workload::best_rate`]).
fn untraced_run(spec: &'static Spec, args: &Args) -> Json {
    let cfg = RunConfig {
        seed: args.seed,
        traced: false,
        scale: OPS_SCALE,
    };
    let started = Instant::now();
    let mut first: Option<Outcome> = None;
    let (mut attempted, mut failed, mut misses) = (0, 0, 0);
    let mut repeats = true;
    let mut slice_rates = Vec::new();
    let mut window_rates = Vec::new();
    let mut cpu_over_wall = Vec::new();
    let mut setup_shares = Vec::new();
    let mut setup_seconds = Vec::new();
    loop {
        let repetition = Instant::now();
        let bench = workload::setup(spec, &cfg);
        let outcome = workload::measure(&bench, &cfg);
        bench.server.shutdown();

        attempted += outcome.attempted;
        failed += outcome.failed;
        misses += outcome.misses;
        slice_rates.extend_from_slice(&outcome.host_slice_rates);
        window_rates.push(outcome.host_ops_per_s);
        cpu_over_wall.extend(outcome.cpu_over_wall);
        setup_seconds.push(bench.build_s + outcome.warmup_s);
        setup_shares.push((bench.build_s + outcome.warmup_s) / outcome.window_s);
        match &first {
            Some(first) => repeats &= outcome.sim_digest == first.sim_digest,
            None => first = Some(outcome),
        }
        drop(bench);

        let next_ends = (started.elapsed() + repetition.elapsed()).as_secs_f64();
        if window_rates.len() >= MIN_REPETITIONS && next_ends > args.seconds {
            break;
        }
    }
    let first = first.expect("a run makes at least one repetition");
    let outcome = Outcome {
        attempted,
        failed,
        misses,
        host_ops_per_s: best_rate(&slice_rates),
        ..first
    };
    let setup_share = median(&mut setup_shares);
    let setup_s = setup_share * outcome.window_ops as f64 / spec.nominal_ops_per_s;
    setup_seconds.sort_by(f64::total_cmp);
    window_rates.sort_by(f64::total_cmp);

    let mut record = record_base(spec, args, "end_to_end", &outcome);
    if !repeats {
        eprintln!(
            "rmc-benchmark: {}: a repetition's sim_digest differs from the first one's",
            spec.name
        );
        record.insert("correct".into(), Json::Bool(false));
    }
    println!(
        "{} repetitions; setup_s: building the testbed and warming it up took {:.4} to {:.4} s \
         by the clock, {:.4} to {:.4} of the window's time (median {setup_share:.4}), which at \
         the nominal {} ops/s is",
        setup_shares.len(),
        setup_seconds[0],
        setup_seconds[setup_seconds.len() - 1],
        setup_shares[0],
        setup_shares[setup_shares.len() - 1],
        spec.nominal_ops_per_s,
    );
    let metrics = report::end_to_end(&outcome, setup_s);
    record.insert("metrics".into(), metrics_json(&metrics));
    // Not a metric of the contract (this host cannot hold it steady, see
    // README.md), but what `--compare` and a host-time claim look at.
    println!(
        "{:<44} {:>16.4} {}   (best {} % of {} slices of {} ops; the windows' own: \
         {:.0} to {:.0})",
        HOST_RATE.name,
        outcome.host_ops_per_s,
        HOST_RATE.unit,
        workload::BEST_SHARE * 100.0,
        slice_rates.len(),
        spec.segment_ops(OPS_SCALE) / workload::SLICES_PER_SEGMENT,
        window_rates[0],
        window_rates[window_rates.len() - 1],
    );
    record.insert(HOST_RATE.name.into(), Json::Num(outcome.host_ops_per_s));
    // How far the run disagrees with itself: the two best windows' rates
    // (a best that was reached twice is the simulator's, not the
    // neighbour's), and the set-up shares' median distance from their median.
    let (best, second) = (
        window_rates[window_rates.len() - 1],
        window_rates[window_rates.len() - 2],
    );
    let mut off_median: Vec<f64> = setup_shares
        .iter()
        .map(|s| (s - setup_share).abs())
        .collect();
    record.insert(
        "spread".into(),
        Json::object([
            (HOST_RATE.name, Json::Num((best - second) / best)),
            ("setup_s", Json::Num(median(&mut off_median) / setup_share)),
        ]),
    );
    record.insert("setup_stopwatch_s".into(), Json::Num(setup_seconds[0]));
    record.insert("repetitions".into(), Json::Num(setup_shares.len() as f64));
    record.insert("slices".into(), Json::Num(slice_rates.len() as f64));
    let cpu = (!cpu_over_wall.is_empty()).then(|| median(&mut cpu_over_wall));
    println!(
        "{:<44} {:>16.4} share",
        "host.cpu_over_wall",
        cpu.unwrap_or(f64::NAN)
    );
    record.insert(
        "host.cpu_over_wall".into(),
        cpu.map_or(Json::Null, Json::Num),
    );
    Json::Object(record)
}

/// `--trace 1`: the window bare, then the same window with the profiler
/// and the counting sink attached, then the layer probes. `--seconds` does
/// not apply: every number here is per operation of the window or per call
/// of a probe.
fn traced_run(spec: &'static Spec, args: &Args) -> Json {
    let window = |traced: bool| {
        let cfg = RunConfig {
            seed: args.seed,
            traced,
            scale: OPS_SCALE,
        };
        let bench = workload::setup(spec, &cfg);
        let outcome = workload::measure(&bench, &cfg);
        bench.server.shutdown();
        (bench, outcome)
    };
    let (_, bare) = window(false);
    let (bench, traced) = window(true);
    let probes = probes::run_all(spec.value_size);

    let mut record = record_base(spec, args, "per_layer", &traced);
    let mut correct = bare.failed == 0 && traced.failed == 0;
    // Tracing costs no virtual time: the traced run must be the bare run.
    if traced.sim_digest != bare.sim_digest {
        eprintln!(
            "rmc-benchmark: {}: traced sim_digest {:016x} differs from the bare run's {:016x}",
            spec.name, traced.sim_digest, bare.sim_digest
        );
        correct = false;
    }
    let (t0, t1) = (&traced.at_start.trace, &traced.at_end.trace);
    let budget = report::path_budget(
        t0.as_ref().expect("traced run"),
        t1.as_ref().expect("traced run"),
    );
    println!(
        "critical path: {} ops profiled, mean end-to-end {:.3} sim_ns (benchmark's own clock: {:.3}), \
         stages + residual - end-to-end = {} ns, {} inexact ops",
        budget.paths, budget.end_to_end_ns, traced.sim_mean_ns, budget.identity_gap_ns,
        budget.inexact_paths,
    );
    if budget.paths != traced.window_ops || budget.identity_gap_ns != 0 || budget.inexact_paths != 0
    {
        eprintln!(
            "rmc-benchmark: {}: the critical-path budget does not add up",
            spec.name
        );
        correct = false;
    }
    record.insert("correct".into(), Json::Bool(correct));
    record.insert("path_end_to_end_ns".into(), Json::Num(budget.end_to_end_ns));

    let metrics = report::per_layer(spec, &bare, &traced, &probes);
    record.insert("metrics".into(), metrics_json(&metrics));

    // The model is checked against the paper only where the paper has a
    // figure; elsewhere it is unvalidated and no error is given.
    match &spec.reference {
        Some(r) => {
            let ours = match r.unit {
                "us" => traced.sim_mean_ns / 1e3,
                _ => traced.sim_ops_per_s,
            };
            let err = (ours - r.paper_value).abs() / r.paper_value * 100.0;
            println!(
                "{:<44} {err:>16.4} % ({ours:.1} {} here, {} in the paper's {}, section {}; \
                 {} in the repo's results/)",
                "simnet.profiles.paper_err_pct",
                r.unit,
                r.paper_value,
                r.figure,
                r.section,
                r.repo_value,
            );
            record.insert("simnet.profiles.paper_err_pct".into(), Json::Num(err));
            record.insert(
                "reference".into(),
                Json::object([
                    ("figure", Json::str(r.figure)),
                    ("section", Json::str(r.section)),
                    ("paper_value", Json::Num(r.paper_value)),
                    ("repo_value", Json::Num(r.repo_value)),
                    ("measured", Json::Num(ours)),
                    ("unit", Json::str(r.unit)),
                ]),
            );
        }
        None => {
            println!(
                "simnet.profiles.paper_err_pct: no figure in the paper; model unvalidated here"
            );
            record.insert("reference".into(), Json::Null);
        }
    }

    // The spans were kept in memory; write them out now that the run is over.
    let tracing = bench.tracing.as_ref().expect("traced run");
    let folded: String = tracing
        .profiler
        .folded_lines()
        .iter()
        .map(|(stack, ns)| format!("{stack} {ns}\n"))
        .collect();
    write_file(&out_dir().join(format!("{}.folded", spec.name)), &folded);
    Json::Object(record)
}

/// Writes the run's record and prints the contract's result line.
fn finish_run(record: &Json, spec: &Spec, args: &Args) -> ExitCode {
    write_file(&record_path(spec.name, args.trace), &format!("{record}\n"));
    let field = |name: &str| record.get(name).cloned().unwrap_or(Json::Null);
    let correct = field("correct") == Json::Bool(true);
    println!(
        "{}",
        Json::object([
            ("correct", Json::Bool(correct)),
            ("attempted", field("attempted")),
            ("failed", field("failed")),
            ("metrics", field("metrics")),
        ])
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// No `--workload`: every workload, untraced then traced, each run in its
/// own child process one after the other, so that allocation counts and
/// peak memory are one workload's. Writes `out/report.json`.
fn all_workloads(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut ok = true;
    let mut workloads = Vec::new();
    for spec in &SPECS {
        println!("== {} — {}", spec.name, spec.why);
        let mut modes = Vec::new();
        for (mode, traced) in [("end_to_end", false), ("per_layer", true)] {
            if traced && args.no_trace {
                continue;
            }
            let trace = if traced { "1" } else { "0" };
            let out = record_path(spec.name, traced);
            // Only this child's record counts, not one an earlier run left.
            let _ = std::fs::remove_file(&out);
            let status = Command::new(&exe)
                .args(["--workload", spec.name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .status();
            let record = std::fs::read_to_string(&out)
                .ok()
                .and_then(|text| Json::parse(&text).ok());
            match (status, record) {
                (Ok(s), Some(record)) => {
                    ok &= s.success();
                    modes.push((mode, record));
                }
                (status, _) => {
                    eprintln!(
                        "rmc-benchmark: {} --trace {trace} did not report: {status:?}",
                        spec.name
                    );
                    ok = false;
                }
            }
        }
        workloads.push((spec.name, Json::object(modes)));
    }
    let report = Json::object([
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("ops_scale", Json::Num(OPS_SCALE)),
        ("workloads", Json::object(workloads)),
    ]);
    let path = out_dir().join("report.json");
    write_file(&path, &format!("{report}\n"));
    println!("report: {}", path.display());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
