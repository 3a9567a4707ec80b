//! PGAS-style one-sided communication over UCR.
//!
//! UCR's goal is to serve *both* worlds: data-center middleware like
//! Memcached and parallel programming models like UPC (paper §I, §IV).
//! This example uses the §IV-B one-sided put/get interface directly: a
//! set of worker processes expose shards of a global array; a driver
//! reads and writes them with zero remote CPU involvement — no handler
//! runs on the workers after setup, yet their memory is fully accessible.
//!
//! ```text
//! cargo run --release --example pgas_onesided
//! ```

use rdma_memcached::simnet::{Cluster, NodeId, SimDuration};
use rdma_memcached::ucr::{AmData, Endpoint, FnHandler, SendOptions, UcrRuntime};
use rdma_memcached::verbs::IbFabric;
use std::cell::RefCell;
use std::rc::Rc;

const DESC_XCHG: u16 = 40;
const SHARD_ELEMS: usize = 1024; // u64s per worker

fn main() {
    let workers = 4u32;
    let cluster = Rc::new(Cluster::cluster_b(3, workers + 1));
    let fabric = IbFabric::new(cluster.clone());
    let sim = cluster.sim().clone();

    // Workers: register a shard, then answer exactly one active message —
    // the descriptor exchange. After that, all access is one-sided.
    let mut worker_runtimes = Vec::new();
    for w in 1..=workers {
        let rt = UcrRuntime::new(&fabric, NodeId(w));
        // PGAS shards are program-lifetime: pinned until the example exits.
        let shard = Rc::new(rt.register_memory(SHARD_ELEMS * 8));
        // Initialize shard: element i = w * 1_000_000 + i.
        for i in 0..SHARD_ELEMS {
            shard.write(i * 8, &((w as u64) * 1_000_000 + i as u64).to_le_bytes());
        }
        let shard2 = shard.clone();
        rt.register_handler(
            DESC_XCHG,
            FnHandler(move |ep: &Endpoint, hdr: &[u8], _: AmData| {
                let ctr = u64::from_le_bytes(hdr[..8].try_into().unwrap());
                let d = shard2.descriptor(0, SHARD_ELEMS * 8);
                let mut reply = Vec::new();
                reply.extend_from_slice(&d.rkey.to_le_bytes());
                reply.extend_from_slice(&d.offset.to_le_bytes());
                reply.extend_from_slice(&d.len.to_le_bytes());
                ep.post_message(
                    DESC_XCHG + 1,
                    Vec::new(),
                    reply,
                    SendOptions {
                        target_ctr: ctr,
                        ..Default::default()
                    },
                );
            }),
        );
        let listener = rt.listen(9100).unwrap();
        sim.spawn(async move {
            let _ = listener.accept().await;
        });
        worker_runtimes.push((rt, shard));
    }

    // Driver: connect to every worker, learn shard descriptors, then do a
    // global reduction (sum of all elements) purely with one-sided gets,
    // and a global update purely with puts.
    let driver = UcrRuntime::new(&fabric, NodeId(0));
    let descs: Rc<RefCell<Vec<Vec<u8>>>> = Rc::new(RefCell::new(Vec::new()));
    let descs2 = descs.clone();
    driver.register_handler(
        DESC_XCHG + 1,
        FnHandler(move |_: &Endpoint, _: &[u8], data: AmData| {
            descs2.borrow_mut().push(data.into_vec().unwrap());
        }),
    );

    let driver2 = driver.clone();
    let sim2 = sim.clone();
    sim.block_on(async move {
        let mut eps = Vec::new();
        for w in 1..=workers {
            let ep = driver2
                .connect(NodeId(w), 9100, SimDuration::from_millis(100))
                .await
                .unwrap();
            let ctr = driver2.counter();
            ep.send_message(DESC_XCHG, &ctr.id().to_le_bytes(), &[], SendOptions::default())
                .await
                .unwrap();
            ctr.wait_for(1, SimDuration::from_millis(100)).await.unwrap();
            eps.push(ep);
        }
        let descriptors: Vec<rdma_memcached::ucr::MemoryDescriptor> = {
            let raw = descs.borrow();
            raw.iter()
                .zip(1..=workers)
                .map(|(b, w)| rdma_memcached::ucr::MemoryDescriptor {
                    node: NodeId(w),
                    rkey: u32::from_le_bytes(b[0..4].try_into().unwrap()),
                    offset: u64::from_le_bytes(b[4..12].try_into().unwrap()),
                    len: u64::from_le_bytes(b[12..20].try_into().unwrap()),
                })
                .collect()
        };
        println!("descriptor exchange complete for {} shards", descriptors.len());

        // Global read: gather every shard concurrently with one-sided gets.
        let local = driver2.register_memory(workers as usize * SHARD_ELEMS * 8);
        let done = driver2.counter();
        let t0 = sim2.now();
        for (i, (ep, d)) in eps.iter().zip(&descriptors).enumerate() {
            ep.get(&local, i * SHARD_ELEMS * 8, *d, Some(done.clone())).unwrap();
        }
        done.wait_for(workers as u64, SimDuration::from_millis(100))
            .await
            .unwrap();
        let gather_time = sim2.now() - t0;

        let mut sum = 0u64;
        for i in 0..(workers as usize * SHARD_ELEMS) {
            sum += u64::from_le_bytes(local.read(i * 8, 8).try_into().unwrap());
        }
        let expect: u64 = (1..=workers as u64)
            .map(|w| (0..SHARD_ELEMS as u64).map(|i| w * 1_000_000 + i).sum::<u64>())
            .sum();
        assert_eq!(sum, expect);
        println!(
            "one-sided gather of {} KiB from {workers} workers in {gather_time}; global sum = {sum}",
            workers as usize * SHARD_ELEMS * 8 / 1024
        );

        // Global write: zero element 0 of every shard with one-sided puts.
        let done = driver2.counter();
        for (ep, d) in eps.iter().zip(&descriptors) {
            let head = rdma_memcached::ucr::MemoryDescriptor { len: 8, ..*d };
            ep.put(head, &0u64.to_le_bytes(), Some(done.clone())).unwrap();
        }
        done.wait_for(workers as u64, SimDuration::from_millis(100))
            .await
            .unwrap();
        println!("one-sided scatter complete (element 0 zeroed on every worker)");
    });

    // Verify the puts landed — reading worker memory directly.
    for (w, (_, shard)) in worker_runtimes.iter().enumerate() {
        let head = u64::from_le_bytes(shard.read(0, 8).try_into().unwrap());
        assert_eq!(head, 0, "worker {} element 0", w + 1);
        let second = u64::from_le_bytes(shard.read(8, 8).try_into().unwrap());
        assert_eq!(second, (w as u64 + 1) * 1_000_000 + 1);
    }
    println!("verified: remote puts visible in worker memory, neighbors untouched");
}
