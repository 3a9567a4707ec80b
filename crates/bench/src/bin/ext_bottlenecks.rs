//! Extension analysis: *why* Figure 6 looks the way it does.
//!
//! §VI-D's numbers follow from which server resource saturates. This run
//! reports, for each transport at 16 clients / 4-byte gets, the server's
//! HCA work-request pipeline utilization and its kernel protocol-
//! processing utilization alongside the achieved TPS: UCR pegs the HCA
//! and leaves the kernel idle (OS-bypass); every sockets transport does
//! the opposite. The window is `run_throughput`'s timed phase: it opens
//! once every client has connected and populated its key.

use rmc::Transport;
use rmc_bench::{measure_bottlenecks, ClusterKind};
use simnet::Stack;

fn main() {
    println!("Extension: server-side bottlenecks at 16 clients, 4 B gets");
    println!(
        "{:>10}{:>12}{:>12}{:>14}{:>14}",
        "cluster", "transport", "TPS", "HCA util", "kernel util"
    );
    let cases = [
        (ClusterKind::A, Transport::Ucr),
        (ClusterKind::A, Transport::Sockets(Stack::TenGigEToe)),
        (ClusterKind::A, Transport::Sockets(Stack::Ipoib)),
        (ClusterKind::B, Transport::Ucr),
        (ClusterKind::B, Transport::Sockets(Stack::Sdp)),
        (ClusterKind::B, Transport::Sockets(Stack::Ipoib)),
    ];
    let mut records = Vec::new();
    for (cluster, transport) in cases {
        let r = measure_bottlenecks(cluster, transport, 16, 4, 800, 31);
        // OS-bypass: UCR pegs the HCA and leaves the kernel idle; a sockets
        // transport pegs the kernel and barely touches the HCA.
        let (busy, idle) = match transport {
            Transport::Ucr => (r.hca_utilization, r.kernel_utilization),
            _ => (r.kernel_utilization, r.hca_utilization),
        };
        assert!(
            busy >= 0.9 && idle <= 0.1,
            "{} {}: {r:?}",
            cluster.label(),
            transport.label()
        );
        println!(
            "{:>10}{:>12}{:>11.1}K{:>13.0}%{:>13.0}%",
            match cluster {
                ClusterKind::A => "A (DDR)",
                ClusterKind::B => "B (QDR)",
            },
            transport.label(),
            r.tps / 1e3,
            r.hca_utilization * 100.0,
            r.kernel_utilization * 100.0,
        );
        records.push(
            rmc_bench::json_out::Record::new()
                .str("op", "get")
                .str("transport", transport.label())
                .str("cluster", cluster.label())
                .int("size", 4)
                .int("clients", 16)
                .num("tps", r.tps)
                .num("hca_utilization", r.hca_utilization)
                .num("kernel_utilization", r.kernel_utilization),
        );
    }
    rmc_bench::json_out::write("ext_bottlenecks", &records);
    println!("\n(OS-bypass in one row: UCR runs the HCA at ~100% with the kernel");
    println!("near 0%; sockets transports saturate the kernel instead, which is");
    println!("the 5-25x request-rate gap of Figure 6.)");
}
