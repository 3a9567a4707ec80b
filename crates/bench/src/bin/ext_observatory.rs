//! Extension: the metrics observatory over the pipelined-get sweep.
//!
//! Reruns the `ext_pipeline_depth` offered-load sweep (same workload,
//! same seed) with the [`simnet::Sampler`] snapshotting the cluster's
//! counters, gauges, and watermarks on a 100 µs virtual-time interval.
//! Every sampled run must end on the same virtual clock — and measure the
//! bit-identical throughput — as a bare run of the same parameters:
//! sampling is free in virtual time. Each cluster's knee is the first
//! depth step whose throughput gain over the previous step is below
//! [`KNEE_GAIN`], where `ext_pipeline_depth`'s curve stops scaling.
//!
//! The final cluster-B exposition is written to
//! `results/ext_observatory.prom`, which `rmc-lint`'s self-check holds
//! against the exposition format and the metric registrations.

use rmc::Transport;
use rmc_bench::{measure_observatory, measure_pipeline_run, ClusterKind, ObservatoryRun};

const DEPTHS: [usize; 5] = [1, 2, 4, 8, 16];
const SIZE: usize = 4;
const OPS: u32 = 1000;
const SEED: u64 = 77;
/// A depth step gaining less throughput than this over the previous one
/// has stopped scaling.
const KNEE_GAIN: f64 = 0.15;

/// Renders `vals` as an 8-level sparkline, downsampled to `width` buckets
/// by bucket mean, scaled to the series maximum.
fn sparkline(vals: &[f64], width: usize) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if vals.is_empty() {
        return "(no samples)".into();
    }
    let buckets: Vec<f64> = if vals.len() <= width {
        vals.to_vec()
    } else {
        (0..width)
            .map(|b| {
                let lo = b * vals.len() / width;
                let hi = ((b + 1) * vals.len() / width).max(lo + 1);
                vals[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
            })
            .collect()
    };
    let max = buckets.iter().cloned().fold(0.0f64, f64::max);
    if max <= 0.0 {
        return "▁".repeat(buckets.len());
    }
    buckets
        .iter()
        .map(|v| BARS[((v / max * 7.0).round() as usize).min(7)])
        .collect()
}

/// The index of the first sweep step whose throughput gain over the
/// previous step is below [`KNEE_GAIN`].
fn knee(tps: &[f64]) -> Option<usize> {
    (1..tps.len()).find(|&i| (tps[i] - tps[i - 1]) / tps[i - 1] < KNEE_GAIN)
}

fn main() {
    println!("Extension: metrics observatory over the pipelined-get sweep (UCR, 4 B values)");
    let mut records = Vec::new();
    let mut last_prom = String::new();
    for cluster in [ClusterKind::A, ClusterKind::B] {
        println!("\n{} / UCR IB", cluster.label());
        println!(
            "{:>8} {:>11} {:>7} {:>9} {:>7}  throughput series",
            "depth", "Kops/s", "ticks", "inflight", "queue"
        );
        let mut curve: Vec<f64> = Vec::new();
        for depth in DEPTHS {
            let obs: ObservatoryRun =
                measure_observatory(cluster, Transport::Ucr, depth, SIZE, OPS, SEED);
            // Zero virtual-time sampling: the bare run must land on the
            // identical clock and measure the identical number.
            let (bare_tps, bare_clock) =
                measure_pipeline_run(cluster, Transport::Ucr, depth, SIZE, OPS, SEED);
            assert_eq!(
                obs.end_clock.as_nanos(),
                bare_clock.as_nanos(),
                "sampling moved the virtual clock at depth {depth}"
            );
            assert_eq!(
                obs.tps.to_bits(),
                bare_tps.to_bits(),
                "sampling changed the measured throughput at depth {depth}"
            );
            println!(
                "{:>8} {:>11.1} {:>7} {:>9.0} {:>7.0}  {}",
                depth,
                obs.tps / 1000.0,
                obs.ticks,
                obs.inflight_high,
                obs.queue_high,
                sparkline(&obs.tput_series, 24)
            );
            records.push(
                rmc_bench::json_out::Record::new()
                    .str("op", "observatory")
                    .str("cluster", cluster.label())
                    .str("transport", "UCR")
                    .int("size", SIZE as u64)
                    .int("depth", depth as u64)
                    .num("tps", obs.tps)
                    .int("ticks", obs.ticks)
                    .num("inflight_high", obs.inflight_high)
                    .num("queue_high", obs.queue_high),
            );
            curve.push(obs.tps);
            last_prom = obs.prom;
        }
        let knee_idx = knee(&curve).expect("UCR 4 B pipelining saturates within the sweep");
        println!(
            "knee: depth {} (step {knee_idx} of the sweep, the first to gain < {:.0} %)",
            DEPTHS[knee_idx],
            KNEE_GAIN * 100.0
        );
        records.push(
            rmc_bench::json_out::Record::new()
                .str("op", "knee")
                .str("cluster", cluster.label())
                .str("transport", "UCR")
                .int("size", SIZE as u64)
                .int("knee_index", knee_idx as u64)
                .int("knee_depth", DEPTHS[knee_idx] as u64),
        );
    }
    rmc_bench::json_out::write("ext_observatory", &records);
    match std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write("results/ext_observatory.prom", &last_prom))
    {
        Ok(()) => eprintln!("wrote results/ext_observatory.prom"),
        Err(e) => eprintln!("could not write results/ext_observatory.prom: {e}"),
    }
    println!("\n(Series are sampled on a 100us virtual-time grid at zero virtual cost.)");
}
