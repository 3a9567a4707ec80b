//! Acceptance tests for the metrics observatory: virtual-time sampling
//! costs zero virtual time, the Prometheus exposition round-trips the
//! memcached stats protocol on both client families, `stats reset`
//! zeroes counters and histograms while preserving gauges and their
//! watermarks, and the plain `stats` report pins the UCR runtime
//! counters the paper's optimisations are judged by.

use rdma_memcached::rmc::{
    McClient, McClientConfig, McServerConfig, ObservatoryConfig, Scenario, SloObjective, Transport,
    World,
};
use rdma_memcached::simnet::{
    HealthMonitor, HealthRules, MonitorBinding, NodeId, Sampler, SamplerConfig, SimDuration, Stack,
};

/// A server config with the workload observatory enabled: default
/// sketch/exemplar sizing plus a single comfortable `get` objective.
fn observed_config() -> McServerConfig {
    McServerConfig {
        observatory: Some(ObservatoryConfig {
            slos: vec![SloObjective {
                op: "get",
                latency_target: SimDuration::from_micros(50),
                objective: 0.99,
                window: SimDuration::from_micros(1000),
            }],
            ..ObservatoryConfig::default()
        }),
        ..McServerConfig::default()
    }
}

/// A UCR client keeping up to eight requests in flight.
fn pipelined() -> McClientConfig {
    McClientConfig {
        pipeline_depth: 8,
        ..McClientConfig::single(Transport::Ucr, NodeId(0))
    }
}

/// Runs the reference pipelined workload, returns the end-of-run clock.
fn run_workload(world: &World, client: McClient) -> u64 {
    let sim = world.sim().clone();
    let sim2 = sim.clone();
    sim.block_on(async move {
        let keys: Vec<String> = (0..16).map(|i| format!("obs-{i}")).collect();
        for k in &keys {
            client.set(k.as_bytes(), &[0x42u8; 64], 0, 0).await.unwrap();
        }
        let batch: Vec<&[u8]> = (0..200).map(|i| keys[i % 16].as_bytes()).collect();
        let got = client.get_many(&batch).await.unwrap();
        assert!(got.iter().all(Option::is_some));
        sim2.now().as_nanos()
    })
}

#[test]
fn sampling_adds_no_virtual_time_and_captures_series() {
    let run = |sampled: bool| {
        let s = Scenario::new(
            World::cluster_b(91, 4),
            McServerConfig::default(),
            [pipelined()],
        );
        let (world, client) = (&s.world, s.clients[0].clone());
        let binding = sampled.then(|| MonitorBinding {
            monitor: HealthMonitor::new(
                HealthRules::default(),
                NodeId(1),
                Some(world.cluster.tracer().clone()),
                None,
            ),
            throughput_counter: "client.node1.ops_completed".into(),
            queue_gauge: "client.node1.inflight".into(),
            latency_hist: None,
            error_counter: None,
            slos: Vec::new(),
        });
        let sampler = Sampler::new(
            world.sim(),
            world.cluster.metrics(),
            SamplerConfig::default(),
            binding,
        );
        if sampled {
            sampler.start();
        }
        let end = run_workload(world, client);
        sampler.stop();
        let rate_points = sampler.values("client.node1.ops_completed.rate").len();
        let inflight_high = world
            .cluster
            .metrics()
            .gauge("client.node1.inflight")
            .high();
        (end, sampler.ticks(), rate_points, inflight_high)
    };
    let (bare_end, bare_ticks, _, bare_high) = run(false);
    let (sampled_end, ticks, rate_points, high) = run(true);
    assert_eq!(bare_ticks, 0);
    assert!(ticks > 0, "the sampler actually ran");
    assert!(rate_points > 0, "throughput rate series captured");
    assert_eq!(
        bare_end, sampled_end,
        "sampling must not move the virtual clock"
    );
    // The layer gauges are workload-driven, not sampler-driven: the
    // in-flight high watermark is identical with and without sampling.
    assert_eq!(bare_high, high);
    assert_eq!(high, 8.0, "pipeline window filled to its depth");
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
fn observatory_stats_verbs_round_trip_on_both_client_families() {
    for transport in [Transport::Ucr, Transport::Sockets(Stack::Sdp)] {
        let client = McClientConfig::single(transport, NodeId(0));
        let s = Scenario::new(World::cluster_b(95, 4), observed_config(), [client]);
        let (sim, client) = (s.world.sim().clone(), s.clients[0].clone());
        sim.block_on(async move {
            for i in 0..8 {
                let key = format!("wl-{i}");
                client.set(key.as_bytes(), &[3u8; 64], 0, 0).await.unwrap();
                client.get(key.as_bytes()).await.unwrap().unwrap();
            }
            // One key far hotter than the rest.
            for _ in 0..24 {
                client.get(b"wl-0").await.unwrap().unwrap();
            }
            let find = |pairs: &[(String, String)], key: &str| -> String {
                pairs
                    .iter()
                    .find(|(k, _)| k == key)
                    .unwrap_or_else(|| panic!("{transport:?}: missing {key}"))
                    .1
                    .clone()
            };
            let hot = client.stats_report("hot").await.unwrap();
            let total: u64 = find(&hot, "wl.total").parse().unwrap();
            assert_eq!(total, 40, "{transport:?}: 8 sets + 32 gets all sketched");
            assert_eq!(find(&hot, "wl.reads"), "32", "{transport:?}");
            assert_eq!(find(&hot, "wl.writes"), "8", "{transport:?}");
            assert_eq!(
                find(&hot, "hot.0.key"),
                "wl-0",
                "{transport:?}: the hammered key tops the table"
            );
            let est: u64 = find(&hot, "hot.0.est").parse().unwrap();
            let err: u64 = find(&hot, "hot.0.err").parse().unwrap();
            // wl-0: 1 set + 25 gets; space-saving brackets the true count.
            assert!(est.saturating_sub(err) <= 26 && 26 <= est);

            let slo = client.stats_report("slo").await.unwrap();
            assert_eq!(find(&slo, "slo.get.target_us"), "50.000", "{transport:?}");
            let good: u64 = find(&slo, "slo.get.good").parse().unwrap();
            if transport == Transport::Ucr {
                // Service-time objectives are judged on the UCR path.
                assert_eq!(good, 32, "{transport:?}: every get judged good");
                assert_eq!(find(&slo, "slo.get.bad"), "0", "{transport:?}");
            }

            let ex = client.stats_report("exemplars").await.unwrap();
            let seen: u64 = find(&ex, "exemplars.seen").parse().unwrap();
            if transport == Transport::Ucr {
                assert!(seen > 0, "every UCR completion is offered to the gate");
            }
            let _ = find(&ex, "exemplars.captured");
            let _ = find(&ex, "exemplars.dropped");
        });
    }
}

#[test]
fn stats_reset_clears_observatory_state_but_preserves_gauges() {
    let s = Scenario::new(World::cluster_b(96, 4), observed_config(), [pipelined()]);
    let (world, client) = (&s.world, s.clients[0].clone());
    let metrics = world.cluster.metrics().clone();
    let sim = world.sim().clone();
    sim.block_on(async move {
        for i in 0..16 {
            let key = format!("rs-{i}");
            client.set(key.as_bytes(), &[9u8; 64], 0, 0).await.unwrap();
            client.get(key.as_bytes()).await.unwrap().unwrap();
        }
        let find = |pairs: &[(String, String)], key: &str| -> u64 {
            pairs
                .iter()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("missing {key}"))
                .1
                .parse()
                .unwrap_or_else(|_| panic!("non-integer {key}"))
        };
        let before = client.stats_report("hot").await.unwrap();
        assert_eq!(find(&before, "wl.total"), 32);
        // A prom export publishes the workload gauges, arming their
        // watermarks.
        client.stats_report("prom").await.unwrap();
        let imbalance_high = metrics.gauge("mc.node0.wl.slot_imbalance").high();
        assert!(imbalance_high >= 1.0, "sketch gauge published");

        let ack = client.stats_report("reset").await.unwrap();
        assert_eq!(ack, vec![("reset".to_string(), "ok".to_string())]);

        // Sketch, SLO windows, and the exemplar ring restart from zero;
        // stats requests themselves feed no keys.
        let hot = client.stats_report("hot").await.unwrap();
        assert_eq!(find(&hot, "wl.total"), 0);
        assert!(!hot.iter().any(|(k, _)| k == "hot.0.key"));
        let slo = client.stats_report("slo").await.unwrap();
        assert_eq!(find(&slo, "slo.get.good"), 0);
        assert_eq!(find(&slo, "slo.get.bad"), 0);
        let ex = client.stats_report("exemplars").await.unwrap();
        assert_eq!(find(&ex, "exemplars.len"), 0);
        assert_eq!(find(&ex, "exemplars.captured"), 0);
        // Only the post-reset stats exchanges themselves have been
        // offered to the gate since the reset.
        assert!(find(&ex, "exemplars.seen") <= 4);
        // Gauges are levels: the pre-reset watermark survives.
        assert!(metrics.gauge("mc.node0.wl.slot_imbalance").high() >= imbalance_high);
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
