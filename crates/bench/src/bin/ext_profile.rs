//! Extension: profiler attribution of the worker-scaling plateau.
//!
//! PR 8's `ablation_workers` showed *that* `GlobalLock` stops scaling
//! with workers while `Sharded(16)` keeps going; this study uses the
//! virtual-time profiler to show *why*, machine-checkably. Eight clients
//! issue uniform single-key gets against an 8-worker server under both
//! lock models, on both clusters, with a `Profiler` attached. For every
//! completed request the profiler decomposes end-to-end latency into
//! critical-path stages (issue, request wire, worker queue, lock wait,
//! lock hold, service, response wire, completion) plus an explicit
//! residual, and the run asserts the attribution:
//!
//! * exactness — stage sums plus residual equal end-to-end for every
//!   single op (tolerance zero, by construction);
//! * the `GlobalLock` plateau is majority-**lock_wait** (≥ 50% of total
//!   end-to-end time at 8 workers × 8 clients);
//! * `Sharded(16)` spends < 10% of end-to-end time in lock wait — the
//!   plateau attribution, not just the plateau;
//! * the unaccounted residual stays < 5% of total time.
//!
//! Alongside the table and JSON, the merged folded span profile of every
//! configuration lands in `results/ext_profile.folded` (collapsed-stack
//! format, one `cluster.model` root frame per configuration) for direct
//! flamegraph rendering.

use std::rc::Rc;

use rmc::StoreModel;
use rmc_bench::{
    model_label, run_mget_storm, xorshift, ClusterKind, MgetStorm, MGET_STORM_CLIENTS as CLIENTS,
};
use simnet::trace_export::folded_text;
use simnet::{NodeId, PathStage, Profiler, ProfilerConfig};

const WORKERS: usize = 8;
const MGETS_PER_CLIENT: u32 = 100;
const KEYS_PER_MGET: usize = 32;
const KEYSPACE: u64 = 1024;

struct RunResult {
    profiler: Rc<Profiler>,
    keys_per_sec: f64,
    flight_len: u64,
    flight_dropped: u64,
}

fn measure(cluster: ClusterKind, model: StoreModel) -> RunResult {
    // One node per client plus a dedicated loader node: client request-id
    // spaces are node-prefixed, so distinct nodes keep concurrent ids
    // collision-free.
    let world = cluster.world(47, CLIENTS + 2);

    // The profiler attaches before any traffic, so the preload decomposes
    // too.
    let profiler = Profiler::attach(world.cluster.tracer(), ProfilerConfig::default());

    let storm = MgetStorm {
        workers: WORKERS,
        model,
        loader: NodeId(CLIENTS + 1),
        keyspace: KEYSPACE,
        value: b"0123456789abcdef0123456789abcdef",
        mgets_per_client: MGETS_PER_CLIENT,
        keys_per_mget: KEYS_PER_MGET,
    };
    let (keys_per_sec, server) = run_mget_storm(&world, &storm, |rng| xorshift(rng) % KEYSPACE);
    let tracer = world.cluster.tracer();
    drop(server);

    RunResult {
        profiler,
        keys_per_sec,
        flight_len: tracer.flight_len() as u64,
        flight_dropped: tracer.flight_dropped(),
    }
}

fn main() {
    const MODELS: [StoreModel; 2] = [StoreModel::GlobalLock, StoreModel::Sharded(16)];
    println!(
        "Profiler attribution of the lock plateau — {CLIENTS} clients x \
         {MGETS_PER_CLIENT} x {KEYS_PER_MGET}-key mgets, {WORKERS} workers, \
         per-stage share of total end-to-end time"
    );
    let mut records = Vec::new();
    let mut folded = Vec::new();
    for cluster in [ClusterKind::A, ClusterKind::B] {
        println!();
        println!("{}", cluster.label());
        println!(
            "{:>12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>12}",
            "model", "keys/s", "lock_wait", "lock_hold", "service", "wire", "residual", "dominant"
        );
        for model in MODELS {
            let r = measure(cluster, model);
            let p = &r.profiler;
            // Preload sets are client ops too: one per key.
            let expected_ops = u64::from(CLIENTS * MGETS_PER_CLIENT) + KEYSPACE;
            let audit = p.audit();
            // The exactness identity is asserted per op, tolerance zero:
            // stage sum + residual == end-to-end for all of them.
            assert_eq!(
                audit.ops, expected_ops,
                "every op retired through the profiler"
            );
            assert_eq!(audit.inexact_ops, 0, "per-op exactness holds everywhere");
            assert_eq!(p.open_len(), 0, "no path left open after the run");
            assert_eq!(p.unmatched_events(), 0, "UCR ids correlate end to end");

            let wait = p.stage_share(PathStage::LockWait);
            let hold = p.stage_share(PathStage::LockHold);
            let service = p.stage_share(PathStage::Service);
            let wire =
                p.stage_share(PathStage::RequestWire) + p.stage_share(PathStage::ResponseWire);

            println!(
                "{:>12} {:>9.1}K {:>9.1}% {:>9.1}% {:>9.1}% {:>9.1}% {:>9.2}% {:>12}",
                model_label(model),
                r.keys_per_sec / 1e3,
                wait * 100.0,
                hold * 100.0,
                service * 100.0,
                wire * 100.0,
                audit.residual_share * 100.0,
                p.dominant_stage().label(),
            );

            match model {
                StoreModel::GlobalLock => assert!(
                    wait >= 0.50,
                    "GlobalLock at {WORKERS} workers must be majority lock-wait, got {wait:.3}"
                ),
                _ => assert!(
                    wait < 0.10,
                    "Sharded(16) must not wait on locks, got {wait:.3}"
                ),
            }
            assert!(
                audit.residual_share < 0.05,
                "unaccounted time must stay under 5%, got {:.4}",
                audit.residual_share
            );

            let stacks = p.folded_lines();
            // The wait is attributed where it is spent: under the service
            // frame of the worker that waited.
            assert!(
                model != StoreModel::GlobalLock
                    || stacks.iter().any(|(path, ns)| {
                        path.ends_with("core:worker_service;core:lock_wait") && *ns > 0
                    }),
                "lock waits must fold under worker_service frames"
            );
            let root = format!(
                "{}.{}",
                cluster.label().replace(' ', "_"),
                model_label(model)
            );
            folded.extend(
                stacks
                    .into_iter()
                    .map(|(path, ns)| (format!("{root};{path}"), ns)),
            );

            let mut rec = rmc_bench::json_out::Record::new()
                .str("op", "get")
                .str("transport", "UCR IB")
                .str("cluster", cluster.label())
                .str("model", model_label(model))
                .int("workers", WORKERS as u64)
                .int("clients", u64::from(CLIENTS))
                .int("ops", audit.ops)
                .int("inexact_ops", audit.inexact_ops)
                .num("tps", r.keys_per_sec)
                .num("lock_wait_share", wait)
                .num("lock_hold_share", hold)
                .num("service_share", service)
                .num("wire_share", wire)
                .num("residual_share", audit.residual_share)
                .num("residual_abs_us", audit.residual_abs_total.as_micros_f64())
                .str("dominant_stage", p.dominant_stage().label())
                .int("flight_len", r.flight_len)
                .int("flight_dropped", r.flight_dropped);
            for (i, (sig, n)) in p.top_signatures(3).into_iter().enumerate() {
                rec = rec.str(&format!("signature_{i}"), format!("{n}x {sig}"));
            }
            records.push(rec);
        }
    }
    println!();
    println!(
        "Both models pay the same wire and service costs; the GlobalLock plateau\n\
         is lock_wait — requests queueing on the one cache_lock — while sharded\n\
         dispatch turns the same demand into parallel lock holds. Stage sums plus\n\
         residual equal end-to-end latency exactly for every single request."
    );
    rmc_bench::json_out::write("ext_profile", &records);
    match std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write("results/ext_profile.folded", folded_text(&folded)))
    {
        Ok(()) => eprintln!("wrote results/ext_profile.folded"),
        Err(e) => eprintln!("could not write results/ext_profile.folded: {e}"),
    }
}
