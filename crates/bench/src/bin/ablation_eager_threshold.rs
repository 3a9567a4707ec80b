//! Ablation: the eager/rendezvous switch point.
//!
//! The paper fixes the eager path at one 8 KB network buffer (§V, "Note on
//! Small Set/Get operations"). This study sweeps the threshold and
//! measures get latency for mid-size values: below the threshold a value
//! travels inline with two staging copies; above it, UCR sends the header
//! only and the target pulls the data with a zero-copy RDMA read — paying
//! an extra control round trip. The crossover justifies the 8 KB choice.

use rmc::{Scenario, Transport, World};

fn measure(threshold: usize, size: usize) -> f64 {
    let s = Scenario::start(World::cluster_b(11, 4), Transport::Ucr);
    let (sim, client) = (s.world.sim().clone(), s.clients[0].clone());
    s.server
        .ucr_runtime()
        .unwrap()
        .set_eager_threshold(threshold);
    let sim2 = sim.clone();
    sim.block_on(async move {
        client.ucr_runtime().unwrap().set_eager_threshold(threshold);
        let value = vec![3u8; size];
        client.set(b"k", &value, 0, 0).await.unwrap();
        client.get(b"k").await.unwrap().unwrap();
        let iters = 100;
        let t0 = sim2.now();
        for _ in 0..iters {
            client.get(b"k").await.unwrap().unwrap();
        }
        (sim2.now() - t0).as_micros_f64() / iters as f64
    })
}

fn main() {
    let thresholds = [512usize, 1024, 2048, 4096, 8192];
    // 992 sits exactly at the 1024 boundary: the get response's payload is
    // the value plus the 32-byte response header, so at thr=1024 a 992 B
    // value is the largest that still rides the eager path (the threshold
    // applies to payload bytes; the 64-byte packet header is carried by
    // the receive buffers' headroom).
    let sizes = [256usize, 992, 1024, 2048, 4096, 7000];
    println!("Ablation: UCR eager/rendezvous threshold vs get latency (us), Cluster B");
    print!("{:>10}", "value");
    for t in thresholds {
        print!("{:>10}", format!("thr={t}"));
    }
    println!();
    let mut records = Vec::new();
    for size in sizes {
        print!("{size:>10}");
        for t in thresholds {
            let us = measure(t, size);
            print!("{us:>10.1}");
            records.push(
                rmc_bench::json::Json::obj()
                    .str("op", "get")
                    .str("transport", "UCR IB")
                    .str("cluster", "Cluster B (QDR)")
                    .int("size", size as u64)
                    .int("eager_threshold", t as u64)
                    .num("mean_us", us),
            );
        }
        println!();
    }
    rmc_bench::json::write("ablation_eager_threshold", &records);
    println!("\n(Values under the threshold ride the eager path; larger ones pay an");
    println!("extra rendezvous round trip but skip both staging copies.)");
}
