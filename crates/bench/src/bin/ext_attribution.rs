//! Extension analysis: the paper's §VI-D argument as one table.
//!
//! UCR is faster because it spends less time per layer and because it
//! saturates the HCA where a sockets stack saturates the kernel. Each row
//! is one run read through one attribution window
//! ([`rmc_bench::Attribution`]): the audit, the eight critical-path stages
//! plus the residual (their sum is end-to-end, op by op), the server's HCA
//! and kernel utilization, and the rate. Three views of the table: (a) a
//! 4 KB get on Cluster A; (b) 16 clients' 4 B gets, six cluster ×
//! transport cases; (c) the lock plateau of a multiget storm, whose folded
//! stacks land in `results/ext_attribution.folded`.

use rmc::{McServerConfig, StoreModel, Transport};
use rmc_bench::json::{self, Json};
use rmc_bench::{
    model_label, run_latency, run_mget_storm, run_throughput, xorshift, Attribution, ClusterKind,
    MgetStorm, Mix, MGET_STORM_CLIENTS as CLIENTS,
};
use simnet::trace_export::folded_text;
use simnet::{NodeId, PathStage, SimDuration, Stack};

/// One row of the table: the run's setup and its window's reading.
struct Row {
    view: &'static str,
    cluster: ClusterKind,
    transport: &'static str,
    server: McServerConfig,
    clients: u32,
    size: usize,
    at: Attribution,
}

impl Row {
    fn model(&self) -> String {
        model_label(self.server.store_model)
    }

    /// The column heading: the cluster, then what the view varies.
    fn head(&self) -> String {
        match self.view {
            "lock_plateau" => format!("{:?} {}", self.cluster, self.model()),
            _ => format!("{:?} {}", self.cluster, self.transport),
        }
    }

    /// Every column of the row.
    fn record(&self) -> Json {
        let (a, p) = (&self.at, &self.at.profiler);
        let audit = &a.audit;
        let mut rec = Json::obj()
            .str("view", self.view)
            .str("op", "get")
            .str("transport", self.transport)
            .str("cluster", self.cluster.label())
            .str("model", self.model())
            .int("workers", self.server.workers as u64)
            .int("clients", u64::from(self.clients))
            .int("size", self.size as u64)
            .num("tps", a.rate)
            .num("mean_us", a.mean_us)
            .num("e2e_us", a.e2e_us())
            .int("ops", audit.ops)
            // Both names, so each record keeps every field its view had.
            .int("ops_attributed", audit.ops)
            .int("inexact_ops", audit.inexact_ops);
        for stage in PathStage::ALL {
            rec = rec.num(&format!("stage_{}_us", stage.label()), a.stage_us(stage));
        }
        let wire = p.stage_share(PathStage::RequestWire) + p.stage_share(PathStage::ResponseWire);
        rec = rec
            .num("residual_us", a.residual_us())
            .num("residual_abs_us", audit.residual_abs_total.as_micros_f64())
            .num("residual_share", audit.residual_share)
            .num("lock_wait_share", p.stage_share(PathStage::LockWait))
            .num("lock_hold_share", p.stage_share(PathStage::LockHold))
            .num("service_share", p.stage_share(PathStage::Service))
            .num("wire_share", wire)
            .str("dominant_stage", p.dominant_stage().label())
            .num("hca_utilization", a.hca_utilization)
            .num("kernel_utilization", a.kernel_utilization)
            .int("flight_len", a.flight.0)
            .int("flight_dropped", a.flight.1);
        for (i, (sig, n)) in p.top_signatures(3).into_iter().enumerate() {
            rec = rec.str(&format!("signature_{i}"), format!("{n}x {sig}"));
        }
        rec
    }
}

/// One view: a column per row, a line per quantity. Stages read in mean
/// microseconds per op, or in the lock plateau's view in percent of
/// end-to-end time.
fn render(title: &str, rows: &[Row]) -> String {
    let shares = rows.iter().any(|r| r.view == "lock_plateau");
    let mut out = format!("{title}\n");
    let mut line = |name: &str, cell: &dyn Fn(&Row) -> String| {
        out.push_str(&format!("{name:>14}"));
        for r in rows {
            out.push_str(&format!("{:>15}", cell(r)));
        }
        out.push('\n');
    };
    let pct = |x: f64| format!("{:.2}%", x * 100.0);
    line("", &Row::head);
    line("rate (K/s)", &|r| format!("{:.1}", r.at.rate / 1e3));
    for stage in PathStage::ALL {
        line(stage.label(), &|r| {
            if shares {
                pct(r.at.profiler.stage_share(stage))
            } else {
                format!("{:.3}", r.at.stage_us(stage))
            }
        });
    }
    line("residual", &|r| {
        if shares {
            pct(r.at.audit.residual_share)
        } else {
            format!("{:.3}", r.at.residual_us())
        }
    });
    line("end_to_end us", &|r| format!("{:.3}", r.at.e2e_us()));
    line("hca util", &|r| pct(r.at.hca_utilization));
    line("kernel util", &|r| pct(r.at.kernel_utilization));
    line("dominant", &|r| {
        r.at.profiler.dominant_stage().label().into()
    });
    out
}

/// View (a): one client's 4 KB gets on Cluster A, seed 7.
fn latency() -> Vec<Row> {
    let transports = [
        Transport::Ucr,
        Transport::Sockets(Stack::TenGigEToe),
        Transport::Sockets(Stack::Ipoib),
    ];
    let rows = transports.into_iter().map(|t| {
        let (_, at) = run_latency(ClusterKind::A, t, Mix::GetOnly, 4096, 60, 7, true);
        let at = at.expect("window");
        // One op in flight: every op decomposes and every marker correlates,
        // and the quiesced window holds nothing open or unmatched.
        assert_eq!(at.audit.ops, 60);
        assert_eq!(at.audit.residual_abs_total, SimDuration::ZERO);
        let closed = (at.profiler.open_len(), at.profiler.unmatched_events());
        assert_eq!(closed, (0, 0), "{}", t.label());
        Row {
            view: "latency",
            cluster: ClusterKind::A,
            transport: t.label(),
            server: McServerConfig::default(),
            clients: 1,
            size: 4096,
            at,
        }
    });
    rows.collect()
}

/// View (b): 16 clients × 800 4 B gets, six cluster × transport cases,
/// seed 31.
fn saturation() -> Vec<Row> {
    let cases = [
        (ClusterKind::A, Transport::Ucr),
        (ClusterKind::A, Transport::Sockets(Stack::TenGigEToe)),
        (ClusterKind::A, Transport::Sockets(Stack::Ipoib)),
        (ClusterKind::B, Transport::Ucr),
        (ClusterKind::B, Transport::Sockets(Stack::Sdp)),
        (ClusterKind::B, Transport::Sockets(Stack::Ipoib)),
    ];
    let rows = cases.into_iter().map(|(cluster, t)| {
        let (_, at, _, _) = run_throughput(&cluster.world(31, 17), t, 16, 4, 800, true);
        let at = at.expect("window");
        // OS-bypass: UCR pegs the HCA and leaves the kernel idle; a
        // sockets transport pegs the kernel and barely touches the HCA.
        let ucr = t == Transport::Ucr;
        let case = format!("{cluster:?} {}", t.label());
        let (hca, kernel) = (at.hca_utilization, at.kernel_utilization);
        let (busy, idle) = if ucr { (hca, kernel) } else { (kernel, hca) };
        assert!(busy >= 0.9 && idle <= 0.1, "{case}: {busy}, {idle}");
        // UCR's stages account for every nanosecond of every get, and its
        // request ids leave nothing open or unmatched.
        let exact = at.audit.ops == 12_800 && at.audit.residual_abs_total == SimDuration::ZERO;
        assert!(!ucr || exact, "{case}: {:?}", at.audit);
        let closed = (at.profiler.open_len(), at.profiler.unmatched_events());
        assert!(
            !ucr || closed == (0, 0),
            "{case}: (open, unmatched) {closed:?}"
        );
        Row {
            view: "saturation",
            cluster,
            transport: t.label(),
            server: McServerConfig::default(),
            clients: 16,
            size: 4,
            at,
        }
    });
    rows.collect()
}

/// View (c): 8 clients × 100 × 32-key mgets on 8 workers under both
/// lock models, both clusters, seed 47. The window opens before the
/// preload, which it counts.
fn lock_plateau() -> Vec<Row> {
    const KEYSPACE: u64 = 1024;
    let models = [StoreModel::GlobalLock, StoreModel::Sharded(16)];
    let runs = [ClusterKind::A, ClusterKind::B].map(|c| models.map(|m| (c, m)));
    let rows = runs.into_iter().flatten().map(|(cluster, model)| {
        let storm = MgetStorm {
            workers: 8,
            model,
            // A node of its own: request ids are node-prefixed.
            loader: NodeId(CLIENTS + 1),
            keyspace: KEYSPACE,
            value: b"0123456789abcdef0123456789abcdef",
            mgets_per_client: 100,
            keys_per_mget: 32,
        };
        let world = cluster.world(47, CLIENTS + 2);
        let (_, at, _) = run_mget_storm(&world, &storm, |rng| xorshift(rng) % KEYSPACE, true);
        let at = at.expect("window");
        let (p, case) = (&at.profiler, format!("{cluster:?} {}", model_label(model)));
        // Every mget and preload set retired; nothing open or uncorrelated.
        let ops = u64::from(CLIENTS * storm.mgets_per_client) + KEYSPACE;
        let closed = (at.audit.ops, p.open_len(), p.unmatched_events());
        assert_eq!(closed, (ops, 0, 0), "{case}");
        // GlobalLock plateaus on lock wait; sharding removes the wait.
        let wait = p.stage_share(PathStage::LockWait);
        let global = model == StoreModel::GlobalLock;
        let plateau = if global { wait >= 0.5 } else { wait < 0.1 };
        assert!(plateau, "{case}: lock wait {wait}");
        assert!(at.audit.residual_share < 0.05, "{case}: {:?}", at.audit);
        // A wait is charged where it is spent: in the waiting worker's
        // service frame.
        let folded = p.folded_lines();
        let frame = "core:worker_service;core:lock_wait";
        let folds = folded
            .iter()
            .any(|(path, ns)| path.ends_with(frame) && *ns > 0);
        assert!(!global || folds, "{case}: no lock wait under a worker");
        let server = McServerConfig {
            workers: storm.workers,
            store_model: model,
            ..Default::default()
        };
        Row {
            view: "lock_plateau",
            cluster,
            transport: "UCR IB",
            server,
            clients: CLIENTS,
            size: storm.value.len(),
            at,
        }
    });
    rows.collect()
}

fn main() {
    let (a, b) = (latency(), saturation());
    let c = lock_plateau();
    println!("Extension: the §VI-D attribution table, one window per run");
    let mut records = Vec::new();
    for (title, rows) in [
        ("(a) a 4 KB get, Cluster A (DDR), 60 ops: us per op", &a),
        ("(b) 16 clients x 800 4 B gets: us per op, saturation", &b),
        ("(c) lock plateau, 8 workers: share of end-to-end time", &c),
    ] {
        for row in rows {
            assert_eq!(row.at.audit.inexact_ops, 0, "{}", row.head());
            records.push(row.record());
        }
        println!("\n{}", render(title, rows));
    }
    println!("Stages plus residual equal end-to-end for every op of every row. A");
    println!("sockets residual in (b) is time the one-open-op fallback cannot");
    println!("correlate across 16 clients; it is printed, not asserted.");
    json::write("ext_attribution", &records);

    let folded: Vec<(String, u64)> = c
        .iter()
        .flat_map(|row| {
            let root = format!("{}.{}", row.cluster.label().replace(' ', "_"), row.model());
            let lines = row.at.profiler.folded_lines().into_iter();
            lines.map(move |(path, ns)| (format!("{root};{path}"), ns))
        })
        .collect();
    json::write_file("ext_attribution.folded", &folded_text(&folded));
}
