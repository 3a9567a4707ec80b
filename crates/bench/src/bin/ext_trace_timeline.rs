//! Extension tooling: a cross-layer Perfetto timeline of one UCR get.
//!
//! Runs a single Memcached client against a server over UCR (RC path) on
//! Cluster B, records every trace event the run emits — verbs work
//! requests and completions, UCR active messages and counter bumps, the
//! server's dispatch and worker-service span, the client's operation span
//! — and exports them as Chrome/Perfetto trace JSON to
//! `results/ext_trace_timeline.trace.json`. Open the file at
//! <https://ui.perfetto.dev> to see the request travel down the client's
//! layers, across the wire, and back: each node is a process, each
//! worker/endpoint/QP a track, and every span of one operation shares its
//! op id. Two gets are traced — a 4 KB eager get and a 64 KB rendezvous
//! get, so the timeline shows both protocol shapes (paper §IV-B).
//!
//! The exported JSON is re-parsed before the bin exits, so a corrupt
//! export fails the run instead of silently producing an unloadable file.

use std::io::Write as _;

use rmc::{Scenario, Transport, World};
use simnet::trace_export::{chrome_trace_json, parse_json};
use simnet::{EventRecorder, Layer};

fn main() {
    let world = World::cluster_b(47, 4);
    let recorder = EventRecorder::new();
    world.cluster.tracer().add_sink(recorder.clone());

    let mut s = Scenario::start(world, Transport::Ucr);
    // The run takes the client along: its runtime's teardown is traced too.
    let (sim, client) = (s.world.sim().clone(), s.clients.remove(0));
    sim.clone().block_on(async move {
        // 4 KB rides the eager path; 64 KB exceeds the 8 KB threshold and
        // comes back by rendezvous RDMA read.
        client
            .set(b"eager", &vec![0x11u8; 4096], 0, 0)
            .await
            .unwrap();
        client
            .set(b"rndv", &vec![0x22u8; 64 << 10], 0, 0)
            .await
            .unwrap();
        client.get(b"eager").await.unwrap().unwrap();
        client.get(b"rndv").await.unwrap().unwrap();
    });

    let events = recorder.events();
    let json = chrome_trace_json(&events);
    let parsed = parse_json(&json).expect("exported trace must be valid JSON");
    let n = parsed
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .map(|a| a.len())
        .unwrap_or(0);
    assert!(n > 0, "exported trace must be non-empty");

    std::fs::create_dir_all("results").expect("create results/");
    let path = "results/ext_trace_timeline.trace.json";
    std::fs::File::create(path)
        .and_then(|mut f| f.write_all(json.as_bytes()))
        .expect("write trace file");

    println!("Extension: cross-layer Perfetto timeline of UCR set/get (Cluster B)");
    println!("{:>10}{:>10}", "layer", "events");
    let tracer = s.world.cluster.tracer();
    for layer in Layer::ALL {
        println!("{:>10}{:>10}", layer.label(), tracer.layer_count(layer));
    }
    println!("{:>10}{:>10}", "total", tracer.total_events());
    println!("\nwrote {path} ({n} trace entries) — load it at ui.perfetto.dev");
}
