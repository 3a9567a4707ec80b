//! `rmc-lint` CLI.
//!
//! ```text
//! cargo run -p rmc-lint -- --check           # gate: exit 1 on any violation, a stale manifest or a blown time budget
//! cargo run -p rmc-lint -- --write-manifest  # rewrite results/metric_manifest.json
//! cargo run -p rmc-lint -- --explain R3      # rule rationale + minimal failing example
//! ```
//!
//! Option: `--root PATH` (workspace root).

use std::path::PathBuf;
use std::process::ExitCode;

use rmc_lint::{analyze_workspace, default_root, rules};

/// Wall-clock budget of one `--check` pass.
const BUDGET_MS: u64 = 5000;

enum Mode {
    Check,
    WriteManifest,
    Explain(String),
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("rmc-lint: {msg}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut mode = None;
    let mut root: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check" => mode = Some(Mode::Check),
            "--write-manifest" => mode = Some(Mode::WriteManifest),
            "--explain" => {
                let Some(v) = args.next() else {
                    return fail(&format!("--explain needs a rule id\n{}", rules::index()));
                };
                mode = Some(Mode::Explain(v));
            }
            "--root" => {
                let Some(v) = args.next() else {
                    return fail("--root needs a value");
                };
                root = Some(PathBuf::from(v));
            }
            other => {
                return fail(&format!(
                    "unknown argument {other:?} (see --check/--write-manifest/--explain)"
                ))
            }
        }
    }
    let Some(mode) = mode else {
        return fail("pick a mode: --check | --write-manifest | --explain RULE");
    };

    if let Mode::Explain(id) = &mode {
        return match rules::lookup(id) {
            Some(doc) => {
                print!("{}", rules::render(doc));
                ExitCode::SUCCESS
            }
            None => fail(&format!("no rule {id:?}\n{}", rules::index())),
        };
    }

    let root = root.unwrap_or_else(default_root);
    let manifest_path = root.join("results/metric_manifest.json");

    #[expect(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "the analyzer times itself against its budget on the host clock"
    )]
    let started = std::time::Instant::now();
    let analysis = match analyze_workspace(&root) {
        Ok(a) => a,
        Err(e) => return fail(&format!("walking {}: {e}", root.display())),
    };
    let elapsed_ms = started.elapsed().as_millis() as u64;

    if matches!(mode, Mode::WriteManifest) {
        if let Err(e) = std::fs::write(&manifest_path, &analysis.manifest) {
            return fail(&format!("writing {}: {e}", manifest_path.display()));
        }
        println!("manifest written to {}", manifest_path.display());
        return ExitCode::SUCCESS;
    }

    for v in &analysis.violations {
        eprintln!("{}:{}: [{}] {}", v.file, v.line, v.rule, v.message);
    }
    let mut failed = !analysis.violations.is_empty();

    // Manifest sync: the committed metric inventory must match what the
    // sources register, byte for byte.
    match std::fs::read_to_string(&manifest_path) {
        Ok(on_disk) if on_disk == analysis.manifest => {}
        Ok(_) => {
            failed = true;
            eprintln!(
                "[R2] {}: stale — metric registrations changed; \
                 run `cargo run -p rmc-lint -- --write-manifest` and commit",
                manifest_path.display()
            );
        }
        Err(e) => {
            failed = true;
            eprintln!(
                "[R2] {}: unreadable ({e}) — run `cargo run -p rmc-lint -- --write-manifest`",
                manifest_path.display()
            );
        }
    }

    // The whole-workspace analysis has a latency budget: it runs in every
    // `cargo test` and CI pass.
    if elapsed_ms >= BUDGET_MS {
        failed = true;
        eprintln!("analysis took {elapsed_ms} ms (budget {BUDGET_MS} ms)");
    }

    let summary = format!(
        "({} files scanned, {} violations, {} waived) in {} ms",
        analysis.files_scanned,
        analysis.violations.len(),
        analysis.waived,
        elapsed_ms
    );
    if failed {
        eprintln!("rmc-lint: FAILED {summary}");
        ExitCode::FAILURE
    } else {
        println!("rmc-lint: clean {summary}");
        ExitCode::SUCCESS
    }
}
