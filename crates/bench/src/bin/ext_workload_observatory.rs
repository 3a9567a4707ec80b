//! Extension: the workload observatory under a zipfian flash crowd.
//!
//! Drives a three-phase workload against a server with the
//! [`rmc::ObservatoryConfig`] enabled and machine-checks every claim the
//! observatory makes:
//!
//! 1. **Steady state** — zipfian reads over 64 keys (mget batches of
//!    1–8 keys plus occasional single-key gets), ~10% writes. Both SLOs
//!    (get ≤ 2 µs, mget ≤ 4 µs worker service) are comfortably met.
//! 2. **Flash crowd** — traffic collapses onto 4 keys fetched in 48-key
//!    mget batches, pushing mget service far past its target. The
//!    error-budget burn crosses the monitor's threshold, the server goes
//!    [`Degraded`](simnet::Health::Degraded), the tracer dumps its
//!    flight recorder, and the exemplar ring is frozen alongside it.
//! 3. **Recovery** — the steady mix returns; the SLO window rolls the
//!    bad buckets out and the monitor transitions back to Healthy.
//!
//! Checked against ground truth maintained by the driver:
//!
//! * every `stats hot` top-K estimate brackets the exact per-key count
//!   within its published error bound, and the flash keys own the top
//!   of the table after the crowd;
//! * the Degraded-episode exemplar dump concentrates in the flash phase
//!   and its span ids resolve to `worker_service` spans in the trace;
//! * `stats slo` shows the mget budget spent and the get budget intact;
//! * `stats prom` carries `# EXEMPLAR` annotations;
//! * a bare rerun (no observatory, no sampler) of the identical workload
//!   lands on the identical virtual clock and throughput bit for bit —
//!   the observatory costs zero virtual time.
//!
//! Results land in `results/ext_workload_observatory.{txt,json}`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

use rmc::{McClientConfig, McServerConfig, ObservatoryConfig, Scenario, SloObjective, Transport};
use rmc_bench::ClusterKind;
use simnet::sketch::SketchConfig;
use simnet::{
    EventRecorder, ExemplarConfig, Health, HealthMonitor, HealthRules, Layer, MonitorBinding,
    NodeId, Sampler, SamplerConfig, SimDuration,
};

const SEED: u64 = 83;
const STEADY_KEYS: usize = 64;
const FLASH_KEYS: usize = 4;
const STEADY_BATCHES: u32 = 280;
const FLASH_BATCHES: u32 = 150;
const RECOVERY_BATCHES: u32 = 320;
const FLASH_BATCH_KEYS: usize = 48;
const VALUE: &[u8] = &[0x5a; 64];

/// SplitMix64: the driver's deterministic workload generator (identical
/// in the observed and bare runs).
fn next_u64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Cumulative zipf(1.0) distribution over `n` ranks.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (0..n)
        .map(|i| {
            acc += 1.0 / (i + 1) as f64;
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

fn zipf_pick(cdf: &[f64], state: &mut u64) -> usize {
    let r = (next_u64(state) >> 11) as f64 / (1u64 << 53) as f64;
    cdf.iter().position(|&c| r < c).unwrap_or(cdf.len() - 1)
}

/// Exact per-key observation counts, mirroring
/// [`rmc::WorkloadObservatory::observe_key`]: one observation per key
/// occurrence per request.
#[derive(Default)]
struct Truth {
    counts: BTreeMap<Vec<u8>, u64>,
    reads: u64,
    writes: u64,
}

impl Truth {
    fn read(&mut self, key: &[u8]) {
        *self.counts.entry(key.to_vec()).or_default() += 1;
        self.reads += 1;
    }
    fn write(&mut self, key: &[u8]) {
        *self.counts.entry(key.to_vec()).or_default() += 1;
        self.writes += 1;
    }
}

/// Everything one scenario run measured.
struct RunOutcome {
    /// Virtual clock at the end of phase 3, before any stats traffic.
    end_ns: u64,
    /// Client ops per virtual second over the whole workload.
    tps: f64,
    /// Phase boundary clocks (end of phase 1, end of phase 2), in ns.
    phase_ends: [u64; 2],
    /// Monitor state observed at each phase boundary (observed run).
    phase_health: [Health; 3],
    truth: Truth,
}

fn observatory_config() -> ObservatoryConfig {
    ObservatoryConfig {
        sketch: SketchConfig::default(),
        exemplars: ExemplarConfig {
            capacity: 64,
            quantile: 0.99,
            min_samples: 256,
        },
        slos: vec![
            SloObjective {
                op: "get",
                latency_target: SimDuration::from_micros(2),
                objective: 0.99,
                window: SimDuration::from_micros(1000),
            },
            SloObjective {
                op: "mget",
                latency_target: SimDuration::from_micros(4),
                objective: 0.95,
                window: SimDuration::from_micros(1000),
            },
        ],
    }
}

/// Runs the three-phase workload. `observed` wires up the observatory,
/// sampler, monitor, and trace recorder; bare runs drive the identical
/// byte-for-byte workload with none of them.
#[allow(clippy::type_complexity)]
fn run_scenario(
    cluster: ClusterKind,
    observed: bool,
) -> (
    RunOutcome,
    Option<(Scenario, Sampler, Rc<HealthMonitor>, Rc<EventRecorder>)>,
) {
    let world = cluster.world(SEED, 4);
    let recorder = EventRecorder::new();
    let mut srv_cfg = McServerConfig::default();
    if observed {
        world.cluster.tracer().add_sink(recorder.clone());
        srv_cfg.observatory = Some(observatory_config());
    }
    let client = McClientConfig::single(Transport::Ucr, NodeId(0));
    let s = Scenario::new(world, srv_cfg, [client]);
    let world = &s.world;
    let obs = observed.then(|| s.server.observatory().expect("observatory configured"));
    let monitor = HealthMonitor::new(
        HealthRules::default(),
        NodeId(0),
        Some(world.cluster.tracer().clone()),
        obs.as_ref().map(|obs| obs.ring()),
    );
    let sampler = Sampler::new(
        world.sim(),
        world.cluster.metrics(),
        SamplerConfig::default(),
        obs.map(|obs| MonitorBinding {
            monitor: Rc::clone(&monitor),
            throughput_counter: "client.node1.ops_completed".into(),
            queue_gauge: "client.node1.inflight".into(),
            latency_hist: None,
            error_counter: None,
            slos: obs.slo_trackers(),
        }),
    );
    if observed {
        sampler.start();
    }

    let sim = world.sim().clone();
    let sim2 = sim.clone();
    let mon = Rc::clone(&monitor);
    let cl = s.clients[0].clone();
    let outcome = sim.block_on(async move {
        let mut truth = Truth::default();
        let mut rng = SEED;
        let steady: Vec<String> = (0..STEADY_KEYS).map(|i| format!("key-{i:02}")).collect();
        let flash: Vec<String> = (0..FLASH_KEYS).map(|i| format!("flash-{i}")).collect();
        let cdf = zipf_cdf(STEADY_KEYS);

        // Preload: every key exists before the phases start.
        for k in steady.iter().chain(flash.iter()) {
            cl.set(k.as_bytes(), VALUE, 0, 0).await.unwrap();
            truth.write(k.as_bytes());
        }

        // Phase 1: steady zipfian mix.
        let steady_batch = |rng: &mut u64, b: u32| -> Vec<usize> {
            let size = 1 + (b as usize % 8);
            (0..size).map(|_| zipf_pick(&cdf, rng)).collect()
        };
        for b in 0..STEADY_BATCHES {
            let picks = steady_batch(&mut rng, b);
            let keys: Vec<&[u8]> = picks.iter().map(|&i| steady[i].as_bytes()).collect();
            for k in &keys {
                truth.read(k);
            }
            cl.mget(&keys).await.unwrap();
            if b % 10 == 9 {
                let w = zipf_pick(&cdf, &mut rng);
                cl.set(steady[w].as_bytes(), VALUE, 0, 0).await.unwrap();
                truth.write(steady[w].as_bytes());
                for hot in &steady[..2] {
                    cl.get(hot.as_bytes()).await.unwrap().unwrap();
                    truth.read(hot.as_bytes());
                }
            }
        }
        let p1_end = sim2.now().as_nanos();
        let h1 = mon.state();

        // Phase 2: flash crowd — 48-key batches over 4 keys.
        for _ in 0..FLASH_BATCHES {
            let keys: Vec<&[u8]> = (0..FLASH_BATCH_KEYS)
                .map(|i| flash[i % FLASH_KEYS].as_bytes())
                .collect();
            for k in &keys {
                truth.read(k);
            }
            cl.mget(&keys).await.unwrap();
        }
        let p2_end = sim2.now().as_nanos();
        let h2 = mon.state();

        // Phase 3: the steady mix returns.
        for b in 0..RECOVERY_BATCHES {
            let picks = steady_batch(&mut rng, b);
            let keys: Vec<&[u8]> = picks.iter().map(|&i| steady[i].as_bytes()).collect();
            for k in &keys {
                truth.read(k);
            }
            cl.mget(&keys).await.unwrap();
            if b % 10 == 9 {
                let w = zipf_pick(&cdf, &mut rng);
                cl.set(steady[w].as_bytes(), VALUE, 0, 0).await.unwrap();
                truth.write(steady[w].as_bytes());
            }
        }
        let end = sim2.now().as_nanos();
        let h3 = mon.state();
        let ops = cl.ops_issued();
        let tps = ops as f64 / (end as f64 / 1e9);
        RunOutcome {
            end_ns: end,
            tps,
            phase_ends: [p1_end, p2_end],
            phase_health: [h1, h2, h3],
            truth,
        }
    });
    if observed {
        (outcome, Some((s, sampler, monitor, recorder)))
    } else {
        (outcome, None)
    }
}

fn stat<'a>(pairs: &'a [(String, String)], key: &str) -> &'a str {
    pairs
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
        .unwrap_or_else(|| panic!("missing stat {key}"))
}

/// Pulls `name=value` out of an exemplar line.
fn exemplar_field<'a>(line: &'a str, name: &str) -> &'a str {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{name}=")))
        .unwrap_or_else(|| panic!("exemplar line missing {name}=: {line}"))
}

fn main() {
    println!("Extension: workload observatory under a zipfian flash crowd (UCR)");
    let mut records = Vec::new();
    let mut report = String::new();
    let _ = writeln!(
        report,
        "workload observatory: {STEADY_BATCHES} steady / {FLASH_BATCHES} flash / \
         {RECOVERY_BATCHES} recovery batches, seed {SEED}"
    );
    for cluster in [ClusterKind::A, ClusterKind::B] {
        println!("\n{} / UCR IB", cluster.label());
        let (run, ctx) = run_scenario(cluster, true);
        let (s, sampler, monitor, recorder) = ctx.unwrap();
        let (world, client) = (&s.world, &s.clients[0]);
        sampler.stop();

        // --- Phase / health trajectory -------------------------------
        let [h1, h2, h3] = run.phase_health;
        assert_eq!(h1, Health::Healthy, "steady phase must stay healthy");
        assert_eq!(
            h2,
            Health::Degraded,
            "the flash crowd must burn the mget error budget"
        );
        assert_eq!(h3, Health::Healthy, "the monitor must recover");
        let transitions = monitor.transitions();
        assert!(
            transitions
                .iter()
                .any(|t| t.to == Health::Degraded && t.reason.contains("error-budget burn")),
            "degradation must cite the budget-burn rule: {transitions:?}"
        );
        assert!(
            world.cluster.tracer().fault_count() >= 1,
            "Degraded must dump the flight recorder"
        );

        // --- Exemplar dump frozen at the Degraded transition ---------
        let dumps = monitor.exemplar_dumps();
        assert!(!dumps.is_empty(), "Degraded must freeze the exemplar ring");
        let dump_lines: Vec<&str> = dumps[0]
            .lines()
            .filter(|l| l.contains("op=") && l.contains("at_us="))
            .collect();
        assert!(!dump_lines.is_empty(), "dump carries exemplars");
        let [p1_end, p2_end] = run.phase_ends;
        let in_flash = dump_lines
            .iter()
            .filter(|l| {
                let at_us: f64 = exemplar_field(l, "at_us").parse().unwrap();
                at_us * 1000.0 > p1_end as f64
            })
            .count();
        assert!(
            in_flash * 2 >= dump_lines.len(),
            "exemplars concentrate in the flash phase: {in_flash}/{}",
            dump_lines.len()
        );
        assert!(
            dump_lines.iter().any(|l| l.contains("op=mget")),
            "the saturating op is represented"
        );

        // --- Exemplar span ids resolve in the trace ------------------
        let span: u64 = exemplar_field(
            dump_lines
                .iter()
                .find(|l| l.contains("op=mget"))
                .expect("an mget exemplar"),
            "span",
        )
        .parse()
        .expect("numeric span id");
        assert!(
            recorder
                .events()
                .iter()
                .any(|e| e.layer == Layer::Core && e.name == "worker_service" && e.op == span),
            "exemplar span {span} must resolve to a worker_service trace span"
        );

        // --- Stats verbs over the wire + sketch vs ground truth ------
        let sim = world.sim().clone();
        let truth = &run.truth;
        let (hot, slo, exemplars, prom_text) = sim.block_on({
            let client = client.clone();
            async move {
                let hot = client.stats_report("hot").await.unwrap();
                let slo = client.stats_report("slo").await.unwrap();
                let ex = client.stats_report("exemplars").await.unwrap();
                let prom = client.stats_report("prom").await.unwrap();
                let text: String = prom.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
                (hot, slo, ex, text)
            }
        });
        let total: u64 = stat(&hot, "wl.total").parse().unwrap();
        let reads: u64 = stat(&hot, "wl.reads").parse().unwrap();
        let writes: u64 = stat(&hot, "wl.writes").parse().unwrap();
        assert_eq!(total, truth.reads + truth.writes, "sketch saw every key");
        assert_eq!(reads, truth.reads);
        assert_eq!(writes, truth.writes);
        let mut checked = 0usize;
        for rank in 0.. {
            let Some((_, key)) = hot.iter().find(|(k, _)| *k == format!("hot.{rank}.key")) else {
                break;
            };
            let est: u64 = stat(&hot, &format!("hot.{rank}.est")).parse().unwrap();
            let err: u64 = stat(&hot, &format!("hot.{rank}.err")).parse().unwrap();
            let exact = *truth
                .counts
                .get(key.as_bytes())
                .unwrap_or_else(|| panic!("hot table names a key the driver never touched: {key}"));
            assert!(
                est.saturating_sub(err) <= exact && exact <= est,
                "hot.{rank} {key}: exact {exact} outside [est-err, est] = \
                 [{}, {est}]",
                est.saturating_sub(err)
            );
            checked += 1;
        }
        assert!(checked >= FLASH_KEYS, "top-K table populated");
        let top_key = stat(&hot, "hot.0.key");
        assert!(
            top_key.starts_with("flash-"),
            "the flash crowd owns the top of the table, got {top_key}"
        );

        // --- SLO accounting ------------------------------------------
        let mget_bad: u64 = stat(&slo, "slo.mget.bad").parse().unwrap();
        let get_bad: u64 = stat(&slo, "slo.get.bad").parse().unwrap();
        assert_eq!(
            mget_bad, FLASH_BATCHES as u64,
            "every flash batch blows the mget target, nothing else does"
        );
        assert_eq!(get_bad, 0, "single-key gets never breach their SLO");
        let mget_burn: f64 = stat(&slo, "slo.mget.burn").parse().unwrap();
        assert!(
            mget_burn < 1.0,
            "burn subsides after recovery, got {mget_burn}"
        );

        // --- Exemplar gate counters + prom annotations ---------------
        let seen: u64 = stat(&exemplars, "exemplars.seen").parse().unwrap();
        let captured: u64 = stat(&exemplars, "exemplars.captured").parse().unwrap();
        assert!(seen > captured && captured > 0, "the gate is selective");
        assert!(
            prom_text.contains("# EXEMPLAR") && prom_text.contains("span="),
            "the exposition carries exemplar annotations"
        );
        assert!(
            prom_text.contains("wl_slot_imbalance"),
            "workload gauges exposed"
        );

        // --- Zero virtual-time cost ----------------------------------
        let (bare, _) = run_scenario(cluster, false);
        assert_eq!(
            run.end_ns, bare.end_ns,
            "the observatory moved the virtual clock"
        );
        assert_eq!(
            run.tps.to_bits(),
            bare.tps.to_bits(),
            "the observatory changed the measured throughput"
        );

        // --- Report ---------------------------------------------------
        let burn_series = sampler.values("slo.node0.mget.burn");
        let burn_peak = burn_series.iter().cloned().fold(0.0f64, f64::max);
        let degraded_at = transitions
            .iter()
            .find(|t| t.to == Health::Degraded)
            .map(|t| t.at.as_nanos())
            .unwrap();
        let recovered_at = transitions
            .iter()
            .find(|t| t.from == Health::Degraded && t.to == Health::Healthy)
            .map(|t| t.at.as_nanos())
            .unwrap();
        // Degrade inside the flash phase, recover after it; the burn peak
        // crosses the monitor's 8x rule.
        assert!(
            p1_end < degraded_at && degraded_at <= p2_end && p2_end < recovered_at,
            "degraded @{degraded_at} recovered @{recovered_at}, flash phase {p1_end}..{p2_end}"
        );
        assert!(burn_peak > 8.0, "burn peaked at {burn_peak:.1}x");
        println!(
            "{:>10} {:>10} {:>10} {:>9} {:>9} {:>9} {:>8}",
            "phase1_us", "phase2_us", "end_us", "degrade", "recover", "burn_pk", "tps"
        );
        println!(
            "{:>10.1} {:>10.1} {:>10.1} {:>9.1} {:>9.1} {:>9.1} {:>8.0}",
            p1_end as f64 / 1000.0,
            p2_end as f64 / 1000.0,
            run.end_ns as f64 / 1000.0,
            degraded_at as f64 / 1000.0,
            recovered_at as f64 / 1000.0,
            burn_peak,
            run.tps,
        );
        println!(
            "hot.0 {} est {} (exact {}), exemplars {}/{} captured, {} in dump",
            top_key,
            stat(&hot, "hot.0.est"),
            truth.counts[top_key.as_bytes()],
            captured,
            seen,
            dump_lines.len()
        );
        let _ = writeln!(
            report,
            "{}: degrade @{:.1}us recover @{:.1}us burn-peak {:.1}x \
             top={} exemplars={}/{} clock-identical-to-bare={}",
            cluster.label(),
            degraded_at as f64 / 1000.0,
            recovered_at as f64 / 1000.0,
            burn_peak,
            top_key,
            captured,
            seen,
            run.end_ns == bare.end_ns,
        );
        records.push(
            rmc_bench::json_out::Record::new()
                .str("op", "trajectory")
                .str("cluster", cluster.label())
                .str("transport", "UCR")
                .num("phase1_end_us", p1_end as f64 / 1000.0)
                .num("phase2_end_us", p2_end as f64 / 1000.0)
                .num("end_us", run.end_ns as f64 / 1000.0)
                .num("degraded_at_us", degraded_at as f64 / 1000.0)
                .num("recovered_at_us", recovered_at as f64 / 1000.0)
                .num("burn_peak", burn_peak)
                .num("tps", run.tps)
                .int("transitions", transitions.len() as u64)
                .int("exemplar_dumps", dumps.len() as u64),
        );
        records.push(
            rmc_bench::json_out::Record::new()
                .str("op", "sketch")
                .str("cluster", cluster.label())
                .str("transport", "UCR")
                .int("total", total)
                .int("reads", reads)
                .int("writes", writes)
                .str("top_key", top_key)
                .int("top_est", stat(&hot, "hot.0.est").parse().unwrap())
                .int("top_err", stat(&hot, "hot.0.err").parse().unwrap())
                .int("top_exact", truth.counts[top_key.as_bytes()])
                .int("hot_checked", checked as u64)
                .num(
                    "slot_imbalance",
                    stat(&hot, "wl.slot_imbalance").parse().unwrap(),
                )
                .num(
                    "hot_coverage",
                    stat(&hot, "wl.hot_coverage").parse().unwrap(),
                ),
        );
        records.push(
            rmc_bench::json_out::Record::new()
                .str("op", "slo")
                .str("cluster", cluster.label())
                .str("transport", "UCR")
                .int("mget_bad", mget_bad)
                .int("mget_good", stat(&slo, "slo.mget.good").parse().unwrap())
                .int("get_bad", get_bad)
                .int("get_good", stat(&slo, "slo.get.good").parse().unwrap())
                .num("mget_burn_final", mget_burn)
                .int("exemplars_seen", seen)
                .int("exemplars_captured", captured),
        );
    }
    rmc_bench::json_out::write("ext_workload_observatory", &records);
    match std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write("results/ext_workload_observatory.txt", &report))
    {
        Ok(()) => eprintln!("wrote results/ext_workload_observatory.txt"),
        Err(e) => eprintln!("could not write results/ext_workload_observatory.txt: {e}"),
    }
    println!("\n(Sketch estimates bracket exact counts within published bounds; the budget-burn");
    println!("rule degrades and recovers on the flash crowd; instrumented and bare runs are");
    println!("clock-identical — the observatory is free in virtual time.)");
}
