//! Extension experiment: UCR over RoCE (paper §VII future work).
//!
//! The paper announces iWARP/RoCE ports of UCR and predicts "good gains
//! in performance with the iWARP/RoCE implementations of UCR that will
//! run over a 10 GigE network" (§VI, note on interpreting results). This
//! experiment runs the *same* Memcached + UCR code over Cluster A's
//! converged 10GigE adapters and compares against native IB verbs and
//! the TOE sockets baseline on identical hardware paths.

use rmc::{Scenario, Transport, World};
use simnet::Stack;

fn latency(transport: Transport, size: usize) -> f64 {
    let s = Scenario::start(World::cluster_a(19, 4), transport);
    let (sim, client) = (s.world.sim().clone(), s.clients[0].clone());
    let sim2 = sim.clone();
    sim.block_on(async move {
        client.set(b"k", &vec![1u8; size], 0, 0).await.unwrap();
        client.get(b"k").await.unwrap();
        let iters = 200u32;
        let t0 = sim2.now();
        for _ in 0..iters {
            client.get(b"k").await.unwrap().unwrap();
        }
        (sim2.now() - t0).as_micros_f64() / iters as f64
    })
}

fn main() {
    println!("Extension: UCR over RoCE vs native IB verbs vs sockets, Cluster A");
    println!("(same 10GigE wire for UCR-RoCE and 10GigE-TOE; same NIC family)");
    println!(
        "{:>10}{:>12}{:>12}{:>12}",
        "size", "UCR (IB)", "UCR-RoCE", "10GigE-TOE"
    );
    let mut records = Vec::new();
    for size in [4usize, 64, 1024, 4096, 65536] {
        let ib = latency(Transport::Ucr, size);
        let roce = latency(Transport::UcrRoce, size);
        let toe = latency(Transport::Sockets(Stack::TenGigEToe), size);
        println!("{size:>10}{ib:>12.1}{roce:>12.1}{toe:>12.1}");
        for (name, us) in [("UCR IB", ib), ("UCR RoCE", roce), ("10GigE-TOE", toe)] {
            records.push(
                rmc_bench::json_out::Record::new()
                    .str("op", "get")
                    .str("transport", name)
                    .str("cluster", "Cluster A (DDR)")
                    .int("size", size as u64)
                    .num("mean_us", us),
            );
        }
    }
    rmc_bench::json_out::write("ext_roce", &records);
    println!("\n(RoCE keeps the OS-bypass win over TOE sockets while trailing");
    println!("native DDR IB slightly — Ethernet switch latency and a slower");
    println!("RDMA engine. Exactly the outcome the paper's SVII anticipates.)");
}
