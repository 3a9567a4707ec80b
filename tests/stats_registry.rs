//! Acceptance tests for the metrics registry as the memcached stats
//! protocol serves it: a gauge's high watermark records the deepest
//! pipelined window, the Prometheus exposition round-trips the stats
//! channel on both client families, `stats reset` zeroes counters and
//! histograms while preserving gauges and their watermarks, and the plain
//! `stats` report pins the UCR runtime counters the paper's optimisations
//! are judged by, and the committed exposition is sound against the live
//! registry it was rendered from.

use std::collections::{BTreeMap, BTreeSet};

use rdma_memcached::rmc::{McClientConfig, McServerConfig, Scenario, Transport, World};
use rdma_memcached::simnet::{Metrics, NodeId, Stack};
use rmc_bench::{run_pipeline_gets, ClusterKind};

/// A UCR client keeping up to eight requests in flight.
fn pipelined() -> McClientConfig {
    McClientConfig {
        pipeline_depth: 8,
        ..McClientConfig::single(Transport::Ucr, NodeId(0))
    }
}

#[test]
fn a_pipelined_window_fills_the_inflight_gauge_to_its_depth() {
    let s = Scenario::new(
        World::cluster_b(91, 4),
        McServerConfig::default(),
        [pipelined()],
    );
    let client = s.clients[0].clone();
    s.world.sim().block_on(async move {
        let keys: Vec<String> = (0..16).map(|i| format!("obs-{i}")).collect();
        for k in &keys {
            client.set(k.as_bytes(), &[0x42u8; 64], 0, 0).await.unwrap();
        }
        let batch: Vec<&[u8]> = (0..200).map(|i| keys[i % 16].as_bytes()).collect();
        let got = client.get_many(&batch).await.unwrap();
        assert!(got.iter().all(Option::is_some));
    });
    let inflight = s.world.cluster.metrics().gauge("client.node1.inflight");
    assert_eq!(inflight.high(), 8.0, "pipeline window filled to its depth");
}

#[test]
fn stats_prom_round_trips_on_both_client_families() {
    for transport in [Transport::Ucr, Transport::Sockets(Stack::Sdp)] {
        let s = Scenario::start(World::cluster_b(92, 4), transport);
        let (sim, client) = (s.world.sim().clone(), s.clients[0].clone());
        sim.block_on(async move {
            client.set(b"k", &[7u8; 256], 0, 0).await.unwrap();
            client.get(b"k").await.unwrap().unwrap();
            let pairs = client.stats_report("prom").await.unwrap();
            // The exposition rides the stats channel as
            // (first-token, rest-of-line) pairs; rejoining them restores
            // the exact text.
            let text: String = pairs.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
            assert!(
                text.contains("# TYPE rmc_queue_depth gauge"),
                "{transport:?}: worker queue gauge exposed"
            );
            assert!(
                text.contains("# HELP "),
                "{transport:?}: HELP lines present"
            );
            assert!(
                text.lines()
                    .any(|l| l.starts_with("rmc_") && l.contains("node=\"node0\"")),
                "{transport:?}: node label present"
            );
            // Every sample line is `name{labels} value` with a parseable
            // float value.
            for line in text.lines().filter(|l| !l.starts_with('#')) {
                let (series, value) = line.rsplit_once(' ').expect("sample line shape");
                assert!(series.starts_with("rmc_"), "prefixed family: {series}");
                value.parse::<f64>().expect("numeric sample value");
            }
        });
    }
}

#[test]
fn stats_reset_zeroes_counters_and_histograms_but_preserves_watermarks() {
    let s = Scenario::new(
        World::cluster_b(93, 4),
        McServerConfig::default(),
        [pipelined()],
    );
    let (world, client) = (&s.world, s.clients[0].clone());
    let metrics = world.cluster.metrics().clone();
    let rt = client.ucr_runtime().expect("UCR client");
    let sim = world.sim().clone();
    sim.block_on(async move {
        for i in 0..20 {
            let key = format!("r-{}", i % 4);
            client.set(key.as_bytes(), &[1u8; 64], 0, 0).await.unwrap();
            client.get(key.as_bytes()).await.unwrap().unwrap();
        }
        let lookup = |stats: &[(String, String)], key: &str| -> u64 {
            stats
                .iter()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("missing {key}"))
                .1
                .parse()
                .unwrap_or_else(|_| panic!("non-integer {key}"))
        };
        let before = client.stats().await.unwrap();
        assert!(lookup(&before, "get_hits") >= 20);
        assert!(lookup(&before, "cmd_set") >= 20);
        assert!(lookup(&before, "ucr_messages_sent") > 0);
        assert!(lookup(&before, "op.get.count") >= 20);
        assert_eq!(lookup(&before, "curr_connections"), 1);
        // The client's runtime counts in the same registry.
        let client_sent = || metrics.counter_value("ucr.ib.node1.messages_sent");
        assert!(client_sent() >= 40);
        assert_eq!(client_sent(), rt.stats().messages_sent.get());

        let ack = client.stats_report("reset").await.unwrap();
        assert_eq!(ack, vec![("reset".to_string(), "ok".to_string())]);

        let after = client.stats().await.unwrap();
        // Counters and histograms restart from zero; the `stats` request
        // that reads them is itself the only op since the reset.
        assert_eq!(lookup(&after, "get_hits"), 0);
        assert_eq!(lookup(&after, "cmd_set"), 0);
        assert_eq!(lookup(&after, "op.get.count"), 0);
        assert!(
            lookup(&after, "ucr_messages_sent") <= 2,
            "only the stats exchange itself"
        );
        // The reset reaches every node's runtime: the client's counters
        // restarted too, and count only the exchanges since.
        assert!(client_sent() <= 2, "client runtime restarted");
        assert_eq!(client_sent(), rt.stats().messages_sent.get());
        // Levels survive: the store still holds every item, the
        // connection is still there.
        assert_eq!(lookup(&after, "curr_items"), 4);
        assert_eq!(lookup(&after, "curr_connections"), 1);
        // Gauge watermarks survive too: the worker queue-depth high-water
        // from before the reset is still visible.
        let depth_high = metrics.gauge("mc.node0.worker0.queue_depth").high();
        assert!(depth_high >= 1.0, "watermark preserved across reset");
        // Registry counters were zeroed by the reset; only activity after
        // it (the stats exchanges) re-counts.
        let wakes: u64 = (0..4)
            .map(|w| metrics.counter_value(&format!("mc.node0.worker{w}.wakes")))
            .sum();
        assert!(wakes <= 2, "wake counters restarted, got {wakes}");
    });
}

#[test]
fn plain_stats_pins_ucr_runtime_counters() {
    let s = Scenario::new(
        World::cluster_b(94, 4),
        McServerConfig::default(),
        [pipelined()],
    );
    let (world, client) = (&s.world, s.clients[0].clone());
    let sim = world.sim().clone();
    sim.block_on(async move {
        // A large set rides the rendezvous path (one source registration
        // each); small ops ride eager (recv-pool recycling).
        client.set(b"big", &[9u8; 64 * 1024], 0, 0).await.unwrap();
        client.set(b"big", &[9u8; 64 * 1024], 0, 0).await.unwrap();
        for _ in 0..8 {
            client.get(b"big").await.unwrap().unwrap();
        }
        let stats = client.stats().await.unwrap();
        let lookup = |key: &str| -> u64 {
            stats
                .iter()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("missing {key}"))
                .1
                .parse()
                .unwrap()
        };
        // The observability surface the paper's optimisations are judged
        // by, pinned by name.
        assert!(lookup("ucr_messages_sent") > 0);
        assert!(lookup("ucr_mr_cache_hits") + lookup("ucr_mr_cache_misses") > 0);
        assert!(lookup("ucr_recv_bufs_recycled") > 0);
        assert!(lookup("ucr_progress_wakes") > 0);
        assert!(lookup("ucr_progress_completions") > 0);
    });
}

/// Every instrument of a live registry as `(kind, name)`.
fn registrations(metrics: &Metrics) -> BTreeSet<(&'static str, String)> {
    let counters = metrics.counters().into_iter().map(|(n, _)| ("counter", n));
    let gauges = metrics.gauges().into_iter().map(|(n, _)| ("gauge", n));
    let histograms = metrics.histograms().into_iter();
    let histograms = histograms.map(|(n, _)| ("histogram", n));
    counters.chain(gauges).chain(histograms).collect()
}

/// Checks a Prometheus exposition against a live registry, in one pass:
/// every family has a `# HELP` and exactly one `# TYPE`, the registry name
/// its HELP quotes is registered as that kind of instrument, every sample
/// belongs to a typed family, has well-formed labels and a numeric value,
/// and no series appears twice. A count is exported as a counter: no
/// `ucr.*` family is a gauge, and no counter family has the `_high`/`_low`
/// watermark siblings only a gauge gets. Returns the families checked, or
/// one line per problem.
fn check_exposition(
    registry: &BTreeSet<(&'static str, String)>,
    prom: &str,
) -> Result<usize, Vec<String>> {
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
                if !registry.iter().any(|(k, n)| *k == kind && n == name) {
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

/// `results/ext_pipeline_depth.prom` is the exposition of the registry of
/// its last cell (Cluster B, UCR, 4 B, depth 16, seed 77): that cell, run
/// again here, renders it byte for byte, and it is sound against the
/// registry it came from.
#[test]
fn the_committed_exposition_matches_the_registrations() {
    let world = ClusterKind::B.world(77, 4);
    run_pipeline_gets(&world, Transport::Ucr, 16, 4, 1000);
    let prom = world.cluster.export_prometheus();
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let committed = std::fs::read_to_string(root.join("results/ext_pipeline_depth.prom"))
        .expect("results/ext_pipeline_depth.prom must be committed");
    assert!(
        committed == prom,
        "the committed exposition is not the cell's"
    );
    let registry = registrations(world.cluster.metrics());
    let families = check_exposition(&registry, &prom).expect("committed exposition is sound");
    assert!(families > 0, "the exposition has no families");

    // The check must bite: a renamed series, a duplicate series and a
    // family without TYPE each fail it.
    const SERIES: &str = "rmc_wakes{layer=\"mc\",node=\"node0\",worker=\"0\"} 3\n";
    let good = format!(
        "# HELP rmc_wakes Event count from registry metric `mc.node0.worker0.wakes`.\n\
         # TYPE rmc_wakes counter\n{SERIES}"
    );
    assert_eq!(check_exposition(&registry, &good), Ok(1));
    let problems = |prom: String| check_exposition(&registry, &prom).expect_err("must fail");
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
