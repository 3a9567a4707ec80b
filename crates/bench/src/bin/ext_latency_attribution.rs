//! Extension analysis: *where* a get's microseconds go (§VI-D).
//!
//! The profiler decomposes every operation's critical path from the
//! tracer stream — issue, request wire, worker queue, lock wait, lock
//! hold, service, response wire, complete — on the one virtual clock, so
//! the per-stage means plus the residual sum exactly to the end-to-end
//! mean. This run decomposes a 4 KB get on Cluster A for UCR vs
//! 10GigE-TOE: the wire stages collapse under OS-bypass while the
//! store's service stage is transport-invariant, which is the paper's
//! §VI-D argument in one table.

use rmc::Transport;
use rmc_bench::{measure_latency_attributed, ClusterKind, Mix};
use simnet::{PathStage, Stack};

fn main() {
    let cases = [
        ("UCR", Transport::Ucr),
        ("10GigE-TOE", Transport::Sockets(Stack::TenGigEToe)),
        ("IPoIB", Transport::Sockets(Stack::Ipoib)),
    ];
    println!("Extension: per-stage attribution of a 4 KB get, Cluster A (DDR), 60 ops");
    print!("{:>18}", "stage (us)");
    for (name, _) in cases {
        print!("{name:>12}");
    }
    println!();
    let reports: Vec<_> = cases
        .iter()
        .map(|(_, t)| measure_latency_attributed(ClusterKind::A, *t, Mix::GetOnly, 4096, 60, 7))
        .collect();
    for stage in PathStage::ALL {
        print!("{:>18}", stage.label());
        for r in &reports {
            print!("{:>12.3}", r.stage_us(stage));
        }
        println!();
    }
    print!("{:>18}", "residual");
    for r in &reports {
        print!("{:>12.3}", r.residual_us());
    }
    println!();
    print!("{:>18}", "end_to_end");
    for r in &reports {
        print!("{:>12.3}", r.mean_us);
    }
    println!();
    let mut records = Vec::new();
    for ((name, _), r) in cases.iter().zip(&reports) {
        let mut rec = rmc_bench::json_out::Record::new()
            .str("op", "get")
            .str("transport", *name)
            .str("cluster", ClusterKind::A.label())
            .int("size", 4096)
            .num("mean_us", r.mean_us)
            .int("ops_attributed", r.audit.ops);
        for stage in PathStage::ALL {
            rec = rec.num(&format!("stage_{}_us", stage.label()), r.stage_us(stage));
        }
        rec = rec.num("residual_us", r.residual_us());
        records.push(rec);
    }
    rmc_bench::json_out::write("ext_latency_attribution", &records);
    println!("\n(Stages plus residual sum to the end-to-end mean — the attribution");
    println!("invariant. OS-bypass shrinks the wire stages; service is the store's");
    println!("own cost and does not move across transports.)");
}
