//! Extension experiment: RC vs UD endpoint scaling (paper §VII).
//!
//! "We aim to leverage the Unreliable Datagram transport to scale up the
//! total number of clients that can be handled by a single server." This
//! study runs a UCR echo service with N clients over (a) one RC endpoint
//! per client — the paper's evaluated design — and (b) unreliable
//! endpoints multiplexed over a **single** server UD queue pair, and
//! reports the server's QP footprint and the aggregate small-message
//! throughput of each.

use std::rc::Rc;

use simnet::{Cluster, NodeId, SimDuration};
use ucr::{AmData, Endpoint, FnHandler, SendOptions, UcrRuntime};
use verbs::IbFabric;

const ECHO: u16 = 1;
const REPLY: u16 = 2;

struct EchoHandler;

impl ucr::AmHandler for EchoHandler {
    fn on_complete(&self, ep: &Endpoint, hdr: &[u8], data: AmData) {
        let ctr = u64::from_le_bytes(hdr[..8].try_into().unwrap());
        ep.post_message(
            REPLY,
            hdr,
            data.into_vec().unwrap_or_default(),
            SendOptions {
                target_ctr: ctr,
                ..Default::default()
            },
        );
    }
}

/// Runs `clients` echo loops; returns (server QPs, aggregate msgs/sec).
fn run(clients: u32, unreliable: bool) -> (usize, f64) {
    let cluster = Rc::new(Cluster::cluster_b(23, clients + 1));
    let fabric = IbFabric::new(cluster.clone());
    let server = UcrRuntime::new(&fabric, NodeId(0));
    server.register_handler(ECHO, EchoHandler);
    let sim = cluster.sim().clone();

    let ud_qpn = if unreliable { server.ud_bind() } else { 0 };
    if !unreliable {
        let listener = server.listen(9000).unwrap();
        let n = clients as usize;
        sim.spawn(async move {
            for _ in 0..n {
                if listener.accept().await.is_err() {
                    break;
                }
            }
        });
    }

    let ops = 400u32;
    let mut joins = Vec::new();
    for c in 0..clients {
        let client = UcrRuntime::new(&fabric, NodeId(1 + c));
        client.register_handler(REPLY, FnHandler(|_: &Endpoint, _: &[u8], _: AmData| {}));
        joins.push(sim.spawn(async move {
            let ep = if unreliable {
                client.ud_endpoint(NodeId(0), ud_qpn)
            } else {
                client
                    .connect(NodeId(0), 9000, SimDuration::from_millis(100))
                    .await
                    .unwrap()
            };
            for _ in 0..ops {
                let ctr = client.counter();
                let hdr = ctr.id().to_le_bytes().to_vec();
                ep.send_message(ECHO, &hdr, b"req-" as &[u8], SendOptions::default())
                    .await
                    .unwrap();
                ctr.wait_for(1, SimDuration::from_millis(100))
                    .await
                    .unwrap();
            }
        }));
    }
    let sim2 = sim.clone();
    let tps = sim.block_on(async move {
        let t0 = sim2.now();
        for j in joins {
            j.await;
        }
        (clients as u64 * ops as u64) as f64 / (sim2.now() - t0).as_secs_f64()
    });
    (server.qp_count(), tps)
}

fn main() {
    println!("Extension: RC endpoints vs shared-UD endpoints at the server (Cluster B)");
    println!(
        "{:>10}{:>12}{:>14}{:>12}{:>14}",
        "clients", "RC QPs", "RC msgs/s", "UD QPs", "UD msgs/s"
    );
    let mut records = Vec::new();
    for clients in [4u32, 16, 64, 128] {
        let (rc_qps, rc_tps) = run(clients, false);
        let (ud_qps, ud_tps) = run(clients, true);
        println!(
            "{clients:>10}{rc_qps:>12}{:>13.1}K{ud_qps:>12}{:>13.1}K",
            rc_tps / 1e3,
            ud_tps / 1e3
        );
        for (transport, qps, tps) in [("UCR RC", rc_qps, rc_tps), ("UCR UD", ud_qps, ud_tps)] {
            records.push(
                rmc_bench::json_out::Record::new()
                    .str("op", "am_echo")
                    .str("transport", transport)
                    .str("cluster", "Cluster B (QDR)")
                    .int("size", 4)
                    .int("clients", clients as u64)
                    .int("server_qps", qps as u64)
                    .num("tps", tps),
            );
        }
    }
    rmc_bench::json_out::write("ext_ud_scale", &records);
    println!("\n(RC holds one queue pair per client at the server — memory that");
    println!("grows with the client population. UD multiplexes every client over");
    println!("a single QP at comparable throughput, which is why SVII proposes it");
    println!("for scaling the client count.)");
}
