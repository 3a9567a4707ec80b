//! Extension experiment: the §III Facebook comparison.
//!
//! The paper contrasts its design with Facebook's UDP memcached: "Using
//! their changes, Memcached was able to handle up to 200,000 UDP requests
//! per second with an average latency of 173 µs. The maximum throughput
//! can be up to 300,000 UDP requests/s, but the latency at that request
//! rate is too high to be useful... using our version of Memcached on
//! RDMA capable networks, the latency is around 12 µs and request rates
//! are in Millions per second."
//!
//! This experiment stages that contrast: small gets over memcached's UDP
//! protocol on a 10GigE-class network versus UCR on InfiniBand, sweeping
//! client count, with mean latency and aggregate request rate per point.

use rmc::{McClientConfig, McServerConfig, Scenario, Transport, World};
use simnet::{NodeId, Stack};

fn run(transport: Transport, clients: u32, cluster_b: bool) -> (f64, f64) {
    let world = if cluster_b {
        World::cluster_b(29, clients + 1)
    } else {
        World::cluster_a(29, clients + 1)
    };
    let client = McClientConfig::single(transport, NodeId(0));
    let s = Scenario::new(
        world,
        McServerConfig::default(),
        vec![client; clients as usize],
    );
    let sim = s.world.sim().clone();
    let ops = 800u32;
    let mut joins = Vec::new();
    for (c, client) in s.clients.into_iter().enumerate() {
        joins.push(sim.spawn(async move {
            let key = format!("fb-{c}");
            client.set(key.as_bytes(), &[1u8; 32], 0, 0).await.unwrap();
            let mut lost = 0u32;
            for _ in 0..ops {
                // UDP gets may be lost; a lost get is retried once, as a
                // production client would.
                if client.get(key.as_bytes()).await.is_err() {
                    lost += 1;
                    let _ = client.get(key.as_bytes()).await;
                }
            }
            lost
        }));
    }
    let sim2 = sim.clone();
    sim.block_on(async move {
        let t0 = sim2.now();
        let mut lost = 0u32;
        for j in joins {
            lost += j.await;
        }
        let elapsed = (sim2.now() - t0).as_secs_f64();
        let total = clients as u64 * ops as u64;
        let _ = lost;
        (
            (total as f64) / elapsed,
            elapsed * 1e6 * clients as f64 / total as f64,
        )
    })
}

fn main() {
    println!("Extension: UCR (QDR IB) vs memcached-UDP (10GigE) — the SIII contrast");
    println!(
        "{:>10}{:>16}{:>14}{:>16}{:>14}",
        "clients", "UDP req/s", "UDP us/op", "UCR req/s", "UCR us/op"
    );
    let mut records = Vec::new();
    for clients in [4u32, 8, 16, 32] {
        let (udp_tps, udp_lat) = run(Transport::Udp(Stack::TenGigEToe), clients, false);
        let (ucr_tps, ucr_lat) = run(Transport::Ucr, clients, true);
        println!(
            "{clients:>10}{:>15.1}K{udp_lat:>14.1}{:>15.1}K{ucr_lat:>14.1}",
            udp_tps / 1e3,
            ucr_tps / 1e3
        );
        for (transport, cluster, tps, lat) in [
            ("UDP 10GigE-TOE", "Cluster A (DDR)", udp_tps, udp_lat),
            ("UCR IB", "Cluster B (QDR)", ucr_tps, ucr_lat),
        ] {
            records.push(
                rmc_bench::json_out::Record::new()
                    .str("op", "get")
                    .str("transport", transport)
                    .str("cluster", cluster)
                    .int("size", 32)
                    .int("clients", clients as u64)
                    .num("tps", tps)
                    .num("mean_us", lat),
            );
        }
    }
    rmc_bench::json_out::write("ext_facebook_udp", &records);
    println!("\n(Facebook reported ~200-300K UDP req/s at 173+ us; the paper's");
    println!("answer is ~12 us latency and request rates in the millions. The");
    println!("UDP ceiling here is the server's kernel per-datagram cost; UCR's");
    println!("is the HCA message rate.)");
}
