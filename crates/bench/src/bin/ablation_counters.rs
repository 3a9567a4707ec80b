//! Ablation: active-message counter cost (paper §IV-C).
//!
//! The origin and completion counters are optional; passing NULL
//! suppresses the associated internal message. This study measures the
//! per-message cost of each counter variant on a raw UCR echo: the
//! completion counter adds a Fin message from the target; the origin
//! counter is free for eager traffic (local completion) but adds the Fin
//! for rendezvous transfers.

use std::rc::Rc;

use simnet::{Cluster, NodeId, SimDuration};
use ucr::{AmData, Endpoint, FnHandler, SendOptions, UcrRuntime};
use verbs::IbFabric;

const SINK: u16 = 7;

#[derive(Clone, Copy)]
enum Counters {
    None,
    Origin,
    Completion,
    Both,
}

impl Counters {
    fn label(self) -> &'static str {
        match self {
            Counters::None => "none",
            Counters::Origin => "origin",
            Counters::Completion => "completion",
            Counters::Both => "both",
        }
    }
}

fn measure(which: Counters, size: usize) -> (f64, u64) {
    let cluster = Rc::new(Cluster::cluster_b(17, 2));
    let fabric = IbFabric::new(cluster.clone());
    let server = UcrRuntime::new(&fabric, NodeId(1));
    server.register_handler(SINK, FnHandler(|_: &Endpoint, _: &[u8], _: AmData| {}));
    let listener = server.listen(9000).unwrap();
    server.sim().spawn(async move {
        let _ = listener.accept().await;
    });
    let client = UcrRuntime::new(&fabric, NodeId(0));
    let sim = cluster.sim().clone();
    let sim2 = sim.clone();
    let server2 = server.clone();
    let us_per_op = sim.block_on(async move {
        let ep = client
            .connect(NodeId(1), 9000, SimDuration::from_millis(100))
            .await
            .unwrap();
        let data = vec![1u8; size];
        let iters = 200u64;
        let t0 = sim2.now();
        for _ in 0..iters {
            let origin = client.counter();
            let completion = client.counter();
            let opts = match which {
                Counters::None => SendOptions::default(),
                Counters::Origin => SendOptions {
                    origin: Some(origin.clone()),
                    ..Default::default()
                },
                Counters::Completion => SendOptions {
                    completion: Some(completion.clone()),
                    ..Default::default()
                },
                Counters::Both => SendOptions {
                    origin: Some(origin.clone()),
                    completion: Some(completion.clone()),
                    ..Default::default()
                },
            };
            ep.send_message(SINK, b"hdr", &data, opts).await.unwrap();
            // Wait on whichever counters were requested so the cost of
            // their internal messages lands on the critical path.
            match which {
                Counters::None => {}
                Counters::Origin => origin
                    .wait_for(1, SimDuration::from_millis(10))
                    .await
                    .unwrap(),
                Counters::Completion => completion
                    .wait_for(1, SimDuration::from_millis(10))
                    .await
                    .unwrap(),
                Counters::Both => {
                    origin
                        .wait_for(1, SimDuration::from_millis(10))
                        .await
                        .unwrap();
                    completion
                        .wait_for(1, SimDuration::from_millis(10))
                        .await
                        .unwrap();
                }
            }
        }
        (sim2.now() - t0).as_micros_f64() / iters as f64
    });
    (us_per_op, server2.stats().fins_sent.get())
}

fn main() {
    println!("Ablation: counter variants vs per-message cost (UCR, Cluster B)");
    println!(
        "{:>12}{:>16}{:>12}{:>16}{:>12}",
        "counters", "64B us/msg", "fins", "64KB us/msg", "fins"
    );
    let mut records = Vec::new();
    for which in [
        Counters::None,
        Counters::Origin,
        Counters::Completion,
        Counters::Both,
    ] {
        let (small, fins_small) = measure(which, 64);
        let (large, fins_large) = measure(which, 64 * 1024);
        println!(
            "{:>12}{small:>16.2}{fins_small:>12}{large:>16.2}{fins_large:>12}",
            which.label()
        );
        for (size, us, fins) in [(64u64, small, fins_small), (64 * 1024, large, fins_large)] {
            records.push(
                rmc_bench::json::Json::obj()
                    .str("op", "am_echo")
                    .str("transport", "UCR IB")
                    .str("cluster", "Cluster B (QDR)")
                    .str("counters", which.label())
                    .int("size", size)
                    .num("mean_us", us)
                    .int("fins", fins),
            );
        }
    }
    rmc_bench::json::write("ablation_counters", &records);
    println!("\n(Eager + origin counter costs nothing extra: local completion.");
    println!("Completion counters add one internal message; rendezvous always");
    println!("sends a Fin to release the advertised source buffer.)");
}
