//! `--compare A.json B.json`: the before/after table. Reads two reports of
//! the all-workloads run and gives every (end-to-end metric, workload)
//! pair, and the host rate, a verdict against the metric's bound:
//!
//! * `same` — B is within the bound of A, either way;
//! * `worse` / `better` — B is beyond the bound;
//! * `unresolved` — a host-clock metric whose run was disturbed (process
//!   CPU time below [`MIN_CPU_OVER_WALL`] of wall time) or whose
//!   repetitions disagree by more than the bound: the runs cannot tell
//!   `same` from `worse`, so neither is claimed.
//!
//! Metrics that do not depend on the host's speed (virtual time, allocation
//! counts) are also checked for repeating, which is what two runs of one
//! commit and seed must show.

use crate::json::Json;
use crate::report::{Better, EndToEnd, END_TO_END, HOST_RATE};

/// Below this share of a core the run was preempted.
pub const MIN_CPU_OVER_WALL: f64 = 0.9;

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// What one run says about one metric.
#[derive(Clone, Copy)]
pub struct Reading {
    pub value: f64,
    /// How far the run's repetitions disagree about the metric, as a share
    /// of its value.
    pub spread: Option<f64>,
    pub cpu_over_wall: Option<f64>,
}

pub fn verdict(metric: &EndToEnd, a: Reading, b: Reading) -> Verdict {
    if metric.repeats_within.is_none() {
        let disturbed = |r: Reading| r.cpu_over_wall.is_some_and(|c| c < MIN_CPU_OVER_WALL);
        let wide = |r: Reading| r.spread.is_some_and(|s| s > metric.bound);
        if disturbed(a) || disturbed(b) || wide(a) || wide(b) {
            return Verdict::Unresolved;
        }
    }
    let worse_by = match metric.better {
        Better::Higher => (a.value - b.value) / a.value,
        Better::Lower => (b.value - a.value) / a.value,
    };
    if worse_by > metric.bound {
        Verdict::Worse
    } else if worse_by < -metric.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn reading(record: &Json, name: &str) -> Option<Reading> {
    let metric = record.get("metrics")?.get(name);
    Some(Reading {
        // The host rate is in the record, not among the contract's metrics.
        value: match metric {
            Some(m) => m.get("value")?.as_f64()?,
            None => record.get(name)?.as_f64()?,
        },
        spread: record
            .get("spread")
            .and_then(|s| s.get(name))
            .and_then(Json::as_f64),
        cpu_over_wall: record.get("host.cpu_over_wall").and_then(Json::as_f64),
    })
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints the table; `Ok(true)` when some metric is `worse`.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let workloads = |doc: &Json, path: &str| {
        doc.get("workloads")
            .and_then(Json::as_object)
            .cloned()
            .ok_or_else(|| format!("{path}: no \"workloads\" object"))
    };
    let (wa, wb) = (workloads(&a, path_a)?, workloads(&b, path_b)?);

    let mut any_worse = false;
    let mut all_repeat = true;
    println!(
        "{:<28} {:<24} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "A", "B", "change"
    );
    for (name, rec_a) in &wa {
        let Some(rec_b) = wb.get(name) else {
            println!("{name:<28} only in {path_a}");
            continue;
        };
        let (Some(e2e_a), Some(e2e_b)) = (rec_a.get("end_to_end"), rec_b.get("end_to_end")) else {
            println!("{name:<28} has no end_to_end record in both files");
            continue;
        };
        for metric in END_TO_END.iter().chain([&HOST_RATE]) {
            let (Some(ra), Some(rb)) = (reading(e2e_a, metric.name), reading(e2e_b, metric.name))
            else {
                println!("{name:<28} {:<24} missing", metric.name);
                continue;
            };
            let v = verdict(metric, ra, rb);
            any_worse |= v == Verdict::Worse;
            let repeats = metric
                .repeats_within
                .map(|within| (ra.value - rb.value).abs() <= within * ra.value.abs());
            all_repeat &= repeats != Some(false);
            println!(
                "{name:<28} {:<24} {:>16.4} {:>16.4} {:>+8.2}%  {}{}",
                metric.name,
                ra.value,
                rb.value,
                (rb.value - ra.value) / ra.value * 100.0,
                v.label(),
                match repeats {
                    Some(true) => " (repeats)",
                    Some(false) => " (DOES NOT repeat)",
                    None => "",
                },
            );
        }
        let digest = |r: &Json| {
            r.get("sim_digest")
                .and_then(Json::as_str)
                .map(str::to_owned)
        };
        let same_digest = digest(e2e_a).is_some() && digest(e2e_a) == digest(e2e_b);
        all_repeat &= same_digest;
        println!(
            "{name:<28} {:<24} {:>16} {:>16} {:>9}  {}",
            "sim_digest",
            digest(e2e_a).unwrap_or_default(),
            digest(e2e_b).unwrap_or_default(),
            "",
            if same_digest { "identical" } else { "DIFFERS" },
        );

        // Per-layer metrics carry no bound: show what moved, judge nothing.
        let layers = |r: &Json| r.get("per_layer").and_then(|l| l.get("metrics")).cloned();
        if let (Some(Json::Object(la)), Some(lb)) = (layers(rec_a), layers(rec_b)) {
            for (metric, va) in &la {
                let value = |v: &Json| v.get("value").and_then(Json::as_f64);
                let (Some(x), Some(y)) = (value(va), lb.get(metric).and_then(value)) else {
                    continue;
                };
                if x != y {
                    let change = if x == 0.0 {
                        f64::INFINITY
                    } else {
                        (y - x) / x * 100.0
                    };
                    println!("{name:<28} {metric:<40} {x:>14.4} {y:>14.4} {change:>+8.2}%");
                }
            }
        }
    }
    for name in wb.keys().filter(|n| !wa.contains_key(*n)) {
        println!("{name:<28} only in {path_b}");
    }
    println!(
        "virtual time, allocation counts and sim_digest: {}",
        if all_repeat {
            "all repeat"
        } else {
            "DO NOT all repeat"
        }
    );
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END
            .iter()
            .chain([&HOST_RATE])
            .find(|m| m.name == name)
            .expect("metric exists")
    }

    fn clean(value: f64) -> Reading {
        Reading {
            value,
            spread: Some(0.01),
            cpu_over_wall: Some(0.99),
        }
    }

    #[test]
    fn bound_decides_same_worse_better_in_the_metrics_direction() {
        let rate = metric("host_ops_per_s"); // higher is better
        let (inside, beyond) = (100.0 * rate.bound * 0.5, 100.0 * rate.bound * 1.5);
        assert_eq!(
            verdict(rate, clean(100.0), clean(100.0 - inside)),
            Verdict::Same
        );
        assert_eq!(
            verdict(rate, clean(100.0), clean(100.0 + inside)),
            Verdict::Same
        );
        assert_eq!(
            verdict(rate, clean(100.0), clean(100.0 - beyond)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(rate, clean(100.0), clean(100.0 + beyond)),
            Verdict::Better
        );
        let p50 = metric("sim_p50_us"); // lower is better
        assert_eq!(
            verdict(p50, clean(10.0), clean(10.0 * (1.0 + 2.0 * p50.bound))),
            Verdict::Worse
        );
        assert_eq!(
            verdict(p50, clean(10.0), clean(10.0 * (1.0 - 2.0 * p50.bound))),
            Verdict::Better
        );
    }

    #[test]
    fn a_disturbed_or_wide_host_metric_is_unresolved_never_same() {
        let rate = metric("host_ops_per_s");
        let preempted = Reading {
            cpu_over_wall: Some(0.7),
            ..clean(100.0)
        };
        let wide = Reading {
            spread: Some(rate.bound * 1.1),
            ..clean(100.0)
        };
        assert_eq!(verdict(rate, preempted, clean(100.0)), Verdict::Unresolved);
        assert_eq!(verdict(rate, clean(100.0), wide), Verdict::Unresolved);
        // Virtual time does not depend on the host: still judged.
        assert_eq!(
            verdict(metric("sim_p50_us"), preempted, clean(100.0)),
            Verdict::Same
        );
    }
}
