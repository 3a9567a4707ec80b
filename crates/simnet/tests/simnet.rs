//! Integration and property tests for the simulation substrate:
//! executor determinism under random task graphs, resource conservation,
//! and fabric timing laws.

use std::cell::RefCell;
use std::rc::Rc;

use simnet::{check_cases, Cluster, NodeId, Sim, SimDuration, SimRng, SimTime};

/// Runs a random task graph and returns its full event trace.
fn run_task_graph(seed: u64, delays: &[u64]) -> Vec<(u64, usize)> {
    let sim = Sim::new(seed);
    let log: Rc<RefCell<Vec<(u64, usize)>>> = Rc::new(RefCell::new(Vec::new()));
    for (idx, &base) in delays.iter().enumerate() {
        let s = sim.clone();
        let log = log.clone();
        sim.spawn(async move {
            for step in 0..3u64 {
                let jitter = s.with_rng(|r| r.gen_range_u64(1, 50));
                s.sleep(SimDuration::from_nanos(base % 1000 + 1 + jitter * step))
                    .await;
                log.borrow_mut().push((s.now().as_nanos(), idx));
            }
        });
    }
    sim.run();
    let result = log.borrow().clone();
    result
}

/// The executor is deterministic: identical seeds and task graphs
/// produce identical traces, event for event.
#[test]
fn executor_is_deterministic() {
    let draw = |r: &mut SimRng| {
        let seed = r.gen_range_u64(0, 1000);
        (seed, r.vec_of(1..12, |r| r.gen_range_u64(0, 10_000)))
    };
    check_cases("executor_is_deterministic", 64, draw, |(seed, delays)| {
        assert_eq!(run_task_graph(*seed, delays), run_task_graph(*seed, delays));
    });
}

/// Transfer time over a link is monotone in the byte count and never
/// less than propagation.
#[test]
fn transfer_time_is_monotone() {
    let draw = |r: &mut SimRng| r.vec_of(2..8, |r| r.gen_range_u64(1, 1_000_000));
    check_cases("transfer_time_is_monotone", 64, draw, |bytes| {
        let prop_delay = Cluster::cluster_a(1, 2).profile().ib.propagation;
        let mut sorted = bytes.clone();
        sorted.sort_unstable();
        let (t0, mut last) = (SimTime::ZERO, SimDuration::ZERO);
        for (i, &b) in sorted.iter().enumerate() {
            // Fresh cluster per transfer so queueing never interferes.
            let c = Cluster::cluster_a(1, 2);
            let d = c.ib().transmit(c.sim(), NodeId(0), NodeId(1), b, t0, || {}) - t0;
            assert!(d >= prop_delay);
            if i > 0 && sorted[i] > sorted[i - 1] {
                assert!(d >= last, "{b} bytes faster than smaller transfer");
            }
            last = d;
        }
    });
}

/// Back-to-back transfers through one egress port serialize: total
/// elapsed time is at least the sum of serialization times.
#[test]
fn egress_serialization_conserves_time() {
    let draw = |r: &mut SimRng| (r.gen_range_u64(1, 20), r.gen_range_u64(1_000, 100_000));
    check_cases(
        "egress_serialization_conserves_time",
        64,
        draw,
        |&(n, bytes)| {
            let cluster = Cluster::cluster_a(1, 3);
            let (net, t0) = (cluster.ib(), SimTime::ZERO);
            let mut last = t0;
            for _ in 0..n {
                last = net.transmit(cluster.sim(), NodeId(0), NodeId(1), bytes, t0, || {});
            }
            let ser = net.ser_time(bytes);
            assert!(last - t0 >= ser * n, "{n} transfers finished too fast");
        },
    );
}

#[test]
fn sleep_zero_still_yields_in_order() {
    let sim = Sim::new(1);
    let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
    for i in 0..4u32 {
        let s = sim.clone();
        let log = log.clone();
        sim.spawn(async move {
            s.sleep(SimDuration::ZERO).await;
            log.borrow_mut().push(i);
        });
    }
    sim.run();
    assert_eq!(*log.borrow(), vec![0, 1, 2, 3]);
}

#[test]
fn join_handle_can_be_detached() {
    let sim = Sim::new(1);
    let hit = Rc::new(std::cell::Cell::new(false));
    let hit2 = hit.clone();
    let s = sim.clone();
    let handle = sim.spawn(async move {
        s.sleep(SimDuration::from_micros(1)).await;
        hit2.set(true);
    });
    drop(handle); // detach
    sim.run();
    assert!(hit.get(), "detached task still runs to completion");
}

#[test]
fn nested_timeouts_resolve_innermost_first() {
    use simnet::sync::{oneshot, timeout};
    let sim = Sim::new(1);
    let s = sim.clone();
    let out = sim.block_on(async move {
        let (_tx, rx) = oneshot::<u8>();
        // Inner timeout (2 us) fires before outer (10 us).
        let inner = timeout(&s, SimDuration::from_micros(2), rx);
        timeout(&s, SimDuration::from_micros(10), Box::pin(inner)).await
    });
    // Outer Ok, inner Err(Elapsed).
    assert!(matches!(out, Ok(Err(_))));
    assert_eq!(sim.now().as_nanos(), 2_000);
}

#[test]
fn run_until_can_be_resumed() {
    let sim = Sim::new(1);
    let hits = Rc::new(std::cell::Cell::new(0u32));
    for i in 1..=5u64 {
        let hits = hits.clone();
        sim.schedule(SimDuration::from_micros(i * 10), move || {
            hits.set(hits.get() + 1)
        });
    }
    sim.run_until(SimTime::from_nanos(25_000));
    assert_eq!(hits.get(), 2);
    sim.run_until(SimTime::from_nanos(45_000));
    assert_eq!(hits.get(), 4);
    sim.run();
    assert_eq!(hits.get(), 5);
}

#[test]
fn cluster_kernel_and_hca_resources_are_per_node() {
    let cluster = Cluster::cluster_a(1, 3);
    let n0 = cluster.node(NodeId(0));
    let n1 = cluster.node(NodeId(1));
    let t0 = n0
        .kernel
        .occupy_from(SimTime::ZERO, SimDuration::from_micros(100));
    // Node 1 is unaffected by node 0's busy kernel.
    let t1 = n1
        .kernel
        .occupy_from(SimTime::ZERO, SimDuration::from_micros(1));
    assert!(t1 < t0);
    assert_eq!(n0.hca.free_at(), SimTime::ZERO, "hca independent of kernel");
}
