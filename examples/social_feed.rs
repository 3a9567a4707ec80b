//! Social-network feed caching — the workload that motivated Memcached's
//! heaviest deployments (paper §I: social networks generating dynamic
//! data; Facebook's 800-server Memcached tier).
//!
//! A feed service renders timelines by fetching the latest post of each
//! friend. Posts live in a "database" with millisecond lookups; Memcached
//! in front absorbs the read traffic (cache-aside). The example measures
//! feed-render latency with a cold cache, a warm cache over UCR, and a
//! warm cache over IPoIB — showing both the caching win and the
//! interconnect win the paper quantifies.
//!
//! ```text
//! cargo run --release --example social_feed
//! ```

use rdma_memcached::rmc::{McClient, McClientConfig, McServer, McServerConfig, Transport, World};
use rdma_memcached::simnet::{NodeId, Sim, SimDuration, Stack};

/// Simulated database: a primary-key lookup costs ~1.5 ms (B-tree walk,
/// buffer pool, SQL layer) — the expense the paper says caching must keep
/// off the critical path (§I).
async fn db_lookup(sim: &Sim, user: u32) -> Vec<u8> {
    sim.sleep(SimDuration::from_micros(1500)).await;
    format!("{{\"user\":{user},\"post\":\"latest post of {user}\"}}").into_bytes()
}

async fn render_feed(
    sim: &Sim,
    cache: &McClient,
    friends: &[u32],
) -> (Vec<Vec<u8>>, u32 /* db hits */) {
    let mut feed = Vec::new();
    let mut db_hits = 0;
    for &friend in friends {
        let key = format!("post:{friend}");
        match cache.get(key.as_bytes()).await.expect("cache reachable") {
            Some(v) => feed.push(v.data.into_vec()),
            None => {
                let row = db_lookup(sim, friend).await;
                // 60 s TTL: posts churn.
                let _ = cache.set(key.as_bytes(), &row, 0, 60).await;
                feed.push(row);
                db_hits += 1;
            }
        }
    }
    (feed, db_hits)
}

fn main() {
    let world = World::cluster_b(7, 4);
    let _server = McServer::start(&world, NodeId(0), McServerConfig::default());
    let ucr_cache = McClient::new(
        &world,
        NodeId(1),
        McClientConfig::single(Transport::Ucr, NodeId(0)),
    );
    let ipoib_cache = McClient::new(
        &world,
        NodeId(2),
        McClientConfig::single(Transport::Sockets(Stack::Ipoib), NodeId(0)),
    );

    let sim = world.sim().clone();
    let sim2 = sim.clone();
    sim.block_on(async move {
        let friends: Vec<u32> = (100..150).collect();

        // Cold cache: every friend costs a database round trip.
        let t0 = sim2.now();
        let (feed, db_hits) = render_feed(&sim2, &ucr_cache, &friends).await;
        let cold = sim2.now() - t0;
        println!(
            "cold cache : feed of {} posts in {cold} ({db_hits} DB lookups)",
            feed.len()
        );

        // Warm cache over UCR: pure RDMA-path gets.
        let t0 = sim2.now();
        let (_, db_hits) = render_feed(&sim2, &ucr_cache, &friends).await;
        let warm_ucr = sim2.now() - t0;
        println!("warm / UCR : feed in {warm_ucr} ({db_hits} DB lookups)");

        // Warm cache over IPoIB: same data, sockets interconnect.
        let t0 = sim2.now();
        let (_, db_hits) = render_feed(&sim2, &ipoib_cache, &friends).await;
        let warm_ipoib = sim2.now() - t0;
        println!("warm / IPoIB: feed in {warm_ipoib} ({db_hits} DB lookups)");

        // Batched render: one mget per feed instead of 50 gets.
        let keys: Vec<String> = friends.iter().map(|f| format!("post:{f}")).collect();
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_bytes()).collect();
        let t0 = sim2.now();
        let hits = ucr_cache.mget(&refs).await.expect("mget");
        let batched = sim2.now() - t0;
        println!(
            "warm / UCR mget: {} posts in one request, {batched}",
            hits.len()
        );

        let speedup_cache = cold.as_micros_f64() / warm_ucr.as_micros_f64();
        let speedup_net = warm_ipoib.as_micros_f64() / warm_ucr.as_micros_f64();
        println!("\ncaching win: {speedup_cache:.0}x over the database");
        println!("interconnect win: {speedup_net:.1}x UCR over IPoIB (paper: 5-10x)");
    });
}
