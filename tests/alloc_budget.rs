//! Allocation ratchet for the simulator's hot paths.
//!
//! The event engine's steady state allocates nothing — timers and tasks live
//! in slabs, a task's waker is built once — and the UCR eager path copies a
//! payload once. These tests pin what one memcached operation still costs the
//! host allocator on the two transport families, so the next per-event or
//! per-poll allocation fails `cargo test` instead of showing up in a
//! benchmark run. They also pin that a run leaves no dead timers behind: the
//! event queue holds live events only.
//!
//! The budgets are counts, not timings: for a given build they repeat but
//! for a hash table that happens to grow inside the measured loop, which is
//! what the headroom above the measured figures is for.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use rdma_memcached::rmc::{
    McClient, McClientConfig, McServer, McServerConfig, StoreModel, Transport, World,
};
use rdma_memcached::simnet::{NodeId, Stack};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts the calling thread's allocations; per-thread, so the two tests of
/// this binary do not count each other.
struct Counting;

fn bump() {
    // `try_with`: an allocation made while the thread's locals are torn down
    // goes uncounted rather than aborting the process.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain thread-local
// cell without a destructor, so touching it never allocates or unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: as in `alloc`; `ptr` and `layout` come from this allocator,
        // which only ever hands out `System` blocks.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const SERVER: NodeId = NodeId(0);
const KEYS: usize = 64;
/// Coprime to [`KEYS`], so every client walks the whole key space.
const KEY_STRIDE: usize = 7;
const WARMUP_OPS: u64 = 4_000;
const MEASURED_OPS: u64 = 20_000;

fn key(i: usize) -> Vec<u8> {
    format!("key-{i:016x}").into_bytes()
}

/// Closed loop of gets, `clients` of them, one operation in flight each,
/// until `ops` have completed in total. Returns allocations per operation.
fn allocs_per_get(world: &World, clients: &[McClient], ops: u64) -> f64 {
    let sim = world.sim().clone();
    let keys: Rc<Vec<Vec<u8>>> = Rc::new((0..KEYS).map(key).collect());
    let completed = Rc::new(Cell::new(0u64));
    let tasks: Vec<_> = clients
        .iter()
        .enumerate()
        .map(|(c, client)| {
            let (client, keys, completed) = (client.clone(), keys.clone(), completed.clone());
            sim.spawn(async move {
                let mut k = c;
                while completed.get() < ops {
                    let got = client.get(&keys[k % KEYS]).await;
                    assert!(matches!(got, Ok(Some(_))), "every key was preloaded");
                    completed.set(completed.get() + 1);
                    k += KEY_STRIDE;
                }
            })
        })
        .collect();
    let before = ALLOCS.with(Cell::get);
    sim.block_on(async move {
        for t in tasks {
            t.await;
        }
    });
    (ALLOCS.with(Cell::get) - before) as f64 / completed.get() as f64
}

/// Sliding windows of gets, `depth` handles in flight per client (claimed
/// oldest first), until `ops` have completed in total. Returns allocations
/// per operation.
fn allocs_per_pipelined_get(world: &World, clients: &[McClient], depth: usize, ops: u64) -> f64 {
    let sim = world.sim().clone();
    let keys: Rc<Vec<Vec<u8>>> = Rc::new((0..KEYS).map(key).collect());
    let completed = Rc::new(Cell::new(0u64));
    let tasks: Vec<_> = clients
        .iter()
        .enumerate()
        .map(|(c, client)| {
            let (client, keys, completed) = (client.clone(), keys.clone(), completed.clone());
            sim.spawn(async move {
                let mut window = std::collections::VecDeque::with_capacity(depth);
                let mut k = c;
                while completed.get() < ops {
                    while window.len() < depth {
                        window.push_back(client.issue_get(&keys[k % KEYS]).await.expect("issue"));
                        k += KEY_STRIDE;
                    }
                    let oldest = window.pop_front().expect("window is full");
                    assert!(matches!(oldest.complete().await, Ok(Some(_))));
                    completed.set(completed.get() + 1);
                }
                for rest in window {
                    assert!(matches!(rest.complete().await, Ok(Some(_))));
                }
            })
        })
        .collect();
    let before = ALLOCS.with(Cell::get);
    sim.block_on(async move {
        for t in tasks {
            t.await;
        }
    });
    (ALLOCS.with(Cell::get) - before) as f64 / completed.get() as f64
}

/// Starts a server, preloads the keys with `value_size`-byte values and
/// connects `clients` clients over `transport` (one get each).
fn testbed(
    world: &World,
    server: McServerConfig,
    transport: Transport,
    clients: u32,
    value_size: usize,
) -> (McServer, Vec<McClient>) {
    let server = McServer::start(world, SERVER, server);
    let clients: Vec<McClient> = (0..clients)
        .map(|c| {
            McClient::new(
                world,
                NodeId(1 + c),
                McClientConfig::single(transport, SERVER),
            )
        })
        .collect();
    let cl = clients.clone();
    world.sim().block_on(async move {
        let value = vec![7u8; value_size];
        for i in 0..KEYS {
            cl[0].set(&key(i), &value, 0, 0).await.expect("preload");
        }
        for client in &cl {
            assert!(matches!(client.get(&key(0)).await, Ok(Some(_))));
        }
    });
    (server, clients)
}

/// The paper's Fig. 6(c) point: 16 UCR clients, 4 B gets, Cluster B.
#[test]
fn ucr_small_gets_stay_within_the_allocation_budget() {
    const CLIENTS: u32 = 16;
    let world = World::cluster_b(42, CLIENTS + 1);
    let (_server, clients) = testbed(
        &world,
        McServerConfig::default(),
        Transport::Ucr,
        CLIENTS,
        4,
    );
    allocs_per_get(&world, &clients, WARMUP_OPS);
    let per_op = allocs_per_get(&world, &clients, MEASURED_OPS);
    assert!(
        per_op <= 32.0,
        "{per_op:.2} allocations per UCR get (budget 32)"
    );
    // Every get arms a 250 ms timeout and wins it within microseconds: the
    // cancelled timers must be gone, not waiting out their deadline.
    let pending = world.sim().pending_events();
    assert!(
        pending <= 8 * CLIENTS as usize,
        "{pending} events pending after the run"
    );
}

/// The same 16 clients at depth 8 against 8 workers over 16 store shards
/// (the benchmark's `ucr_pipelined_sharded_16c` shape). Requests and
/// replies queued behind a backed-up send share network buffers here;
/// staging them must cost no more than posting each on its own did (24
/// per op before they shared).
#[test]
fn ucr_pipelined_gets_stay_within_the_allocation_budget() {
    const CLIENTS: u32 = 16;
    const DEPTH: usize = 8;
    let world = World::cluster_b(42, CLIENTS + 1);
    let sharded = McServerConfig {
        workers: 8,
        store_model: StoreModel::Sharded(16),
        ..Default::default()
    };
    let (server, clients) = testbed(&world, sharded, Transport::Ucr, CLIENTS, 64);
    allocs_per_pipelined_get(&world, &clients, DEPTH, WARMUP_OPS);
    let per_op = allocs_per_pipelined_get(&world, &clients, DEPTH, MEASURED_OPS);
    assert!(
        per_op <= 24.0,
        "{per_op:.2} allocations per pipelined UCR get (budget 24)"
    );
    let rt = server.ucr_runtime().expect("UCR server");
    assert!(
        rt.stats().eager_coalesced.get() > 0,
        "replies shared buffers"
    );
    let pending = world.sim().pending_events();
    assert!(
        pending <= 8 * CLIENTS as usize,
        "{pending} events pending after the run"
    );
}

/// The sockets baseline: 8 ASCII clients over 10GigE-TOE, 1 KB gets.
#[test]
fn ascii_socket_gets_stay_within_the_allocation_budget() {
    const CLIENTS: u32 = 8;
    let world = World::cluster_a(42, CLIENTS + 1);
    let transport = Transport::Sockets(Stack::TenGigEToe);
    let (_server, clients) = testbed(&world, McServerConfig::default(), transport, CLIENTS, 1024);
    allocs_per_get(&world, &clients, WARMUP_OPS);
    let per_op = allocs_per_get(&world, &clients, MEASURED_OPS);
    assert!(
        per_op <= 40.0,
        "{per_op:.2} allocations per ASCII get (budget 40)"
    );
    let pending = world.sim().pending_events();
    assert!(
        pending <= 8 * CLIENTS as usize,
        "{pending} events pending after the run"
    );
}
