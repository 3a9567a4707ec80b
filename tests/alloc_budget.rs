//! Allocation ratchet for the simulator's hot paths.
//!
//! The event engine's steady state allocates nothing — timers and tasks live
//! in slabs, a task's waker is built once, a message in flight is a record
//! and a targeted event — and UCR moves a payload between registered
//! buffers with nothing in between: the eager path from a pooled send buffer
//! into a pooled receive buffer, the rendezvous path from the source region
//! straight into the landing region. These tests pin what one memcached
//! operation still costs the host allocator on the two transport families,
//! so the next per-event or per-poll allocation fails `cargo test` instead of
//! showing up in a benchmark run. A warm get allocates nothing on any wire,
//! its value included: the value a caller gets is lent — the buffer the
//! reply landed in, from its UCR runtime's eager or rendezvous pool, or a
//! buffer from the client's value pool that a socket wire's, a multiget's or
//! a bypass read's value is copied into — and it goes back to its pool when
//! the caller drops it, for the next get to take. On UCR the counter the
//! client waits on is a released counter's box under a fresh id, the server
//! reads the request's key from a pooled key list, and a rendezvous holds
//! its header in a pooled buffer. A UCR set allocates nothing either: its
//! value lands in a payload buffer from the server runtime's eager pool, or,
//! at 64 KB, in a landing region from its rendezvous pool; each
//! registration refills the record of a deregistered region and the
//! server's reply waits for its runtime's rendezvous sender instead of a
//! task of its own. On the three socket wires — ASCII and binary over TCP,
//! ASCII over UDP — a write's bytes and a datagram's ride in a pooled
//! buffer, the client writes each request into the buffer it keeps and reads
//! a reply in place, and the server reads a request in place from the pooled
//! buffer it arrived in and writes its reply into its worker's buffer. A
//! bypass get looks its descriptor up by the borrowed key and copies the
//! value straight out of the landing window. They also pin that a run
//! leaves no dead timers behind: the event queue holds live events only;
//! that a UCR runtime holds the receive buffers its traffic needs, not its
//! pool's cap; and that the live bytes of every budget shape (allocated
//! minus freed) stay flat once it is warm: what an operation allocates it
//! frees, and every pool and table holds its bound.
//!
//! The budgets are counts, not timings: for a given build they repeat but
//! for a hash table that happens to grow inside the measured loop, which is
//! what the headroom above the measured figures is for — a hundredth of an
//! allocation per operation, which one allocation per operation fails by a
//! hundredfold. Where the count of a shape comes from, call site by call
//! site, is what `cargo test --test alloc_budget -- --ignored --nocapture`
//! prints.

use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use rdma_memcached::mcstore::{ClassId, Store};
use rdma_memcached::rmc::{
    InFlightGet, InFlightSet, McClient, McClientConfig, McServer, McServerConfig, Scenario,
    StoreModel, Transport, World,
};
use rdma_memcached::simnet::{
    EventTarget, JoinHandle, NodeId, Profiler, ProfilerConfig, Sim, SimDuration, Stack,
};
use rdma_memcached::ucr::UcrRuntime;

/// Allocations and bytes per call site.
type SiteTable = RefCell<HashMap<String, (u64, u64)>>;

/// A site table drained, most allocations first.
type Census = Vec<(String, (u64, u64))>;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes asked for by those allocations (a `realloc` counts its new size).
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Bytes given back: a `dealloc`'s, and a `realloc`'s old size.
    static FREED: Cell<u64> = const { Cell::new(0) };
    /// Where allocations are attributed while a site table is being made
    /// (leaked, so the thread-local has no destructor to register).
    static SITES: Cell<Option<&'static SiteTable>> = const { Cell::new(None) };
}

/// Counts the calling thread's allocations; per-thread, so the tests of
/// this binary do not count each other.
struct Counting;

fn freed(bytes: usize) {
    let _ = FREED.try_with(|c| c.set(c.get() + bytes as u64));
}

/// Bytes allocated and not yet freed by the calling thread.
fn live_bytes() -> i64 {
    BYTES.with(Cell::get) as i64 - FREED.with(Cell::get) as i64
}

fn bump(bytes: usize) {
    // `try_with`: an allocation made while the thread's locals are torn down
    // goes uncounted rather than aborting the process.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
    if let Ok(Some(sites)) = SITES.try_with(Cell::get) {
        // Capturing a backtrace allocates: the borrow is the re-entrancy
        // guard, and what is allocated under it goes unattributed.
        if let Ok(mut sites) = sites.try_borrow_mut() {
            let site = sites.entry(call_site()).or_default();
            *site = (site.0 + 1, site.1 + bytes as u64);
        }
    }
}

/// The innermost frame of the current backtrace that lies in `crates/`, as
/// `function at crates/…:line` (line tables are kept in release builds
/// too). The path is cut at its last `crates/`, so a binary built in
/// another checkout names its sites the same way.
fn call_site() -> String {
    let trace = Backtrace::force_capture().to_string();
    let mut function = "";
    for line in trace.lines().map(str::trim) {
        match line.strip_prefix("at ") {
            Some(at) if at.contains("crates/") => {
                let at = at
                    .rsplit_once(':')
                    .map_or(at, |(file_line, _column)| file_line);
                let at = at.rfind("crates/").map_or(at, |from| &at[from..]);
                return format!("{function} at {at}");
            }
            Some(_) => {}
            None => function = line.split_once(": ").map_or(line, |(_, name)| name),
        }
    }
    "(outside crates/: the harness)".to_string()
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain thread-local
// cells without destructors, so touching them never allocates or unwinds.
// While a site table is being made (`Shape::census` only) counting
// allocates — a backtrace, a map entry — with the table borrowed, so the
// nested calls see the borrow, skip the attribution and terminate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        freed(layout.size());
        // SAFETY: as in `alloc`; `ptr` and `layout` come from this allocator,
        // which only ever hands out `System` blocks.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        freed(layout.size());
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

/// What a measured loop cost the allocator, and how many operations it ran.
struct Load {
    allocs: u64,
    bytes: u64,
    /// Change in live bytes (allocated minus freed) over the loop, once
    /// its tasks and keys are gone: set by [`Shape::run`].
    live: i64,
    ops: u64,
    /// Of those, the gets: each hands its client a value.
    gets: u64,
}

/// Operations completed by a driver's clients: all of them, and the gets.
#[derive(Default)]
struct Completed {
    ops: Cell<u64>,
    gets: Cell<u64>,
}

impl Completed {
    fn count(&self, get: bool) {
        self.ops.set(self.ops.get() + 1);
        self.gets.set(self.gets.get() + u64::from(get));
    }
}

impl Load {
    /// Runs `tasks` to the end: what that cost, and the operations they
    /// counted into `completed`.
    fn of(sim: &Sim, tasks: Vec<JoinHandle<()>>, completed: &Completed) -> Load {
        let before = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
        sim.block_on(async move {
            for t in tasks {
                t.await;
            }
        });
        Load {
            allocs: ALLOCS.with(Cell::get) - before.0,
            bytes: BYTES.with(Cell::get) - before.1,
            live: 0,
            ops: completed.ops.get(),
            gets: completed.gets.get(),
        }
    }

    fn allocs_per_op(&self) -> f64 {
        self.allocs as f64 / self.ops as f64
    }

    fn bytes_per_op(&self) -> f64 {
        self.bytes as f64 / self.ops as f64
    }
}

/// Closed loop, `clients` of them, one operation in flight each, until
/// `ops` have completed in total: gets, or — given a value to store — sets
/// and gets by turns.
fn closed_loop(world: &World, clients: &[McClient], ops: u64, store: Option<&[u8]>) -> Load {
    let sim = world.sim().clone();
    let keys: Rc<Vec<Vec<u8>>> = Rc::new((0..KEYS).map(key).collect());
    let value: Option<Rc<[u8]>> = store.map(Rc::from);
    let completed = Rc::new(Completed::default());
    let tasks: Vec<_> = clients
        .iter()
        .enumerate()
        .map(|(c, client)| {
            let (client, keys, completed) = (client.clone(), keys.clone(), completed.clone());
            let value = value.clone();
            sim.spawn(async move {
                let mut k = c;
                while completed.ops.get() < ops {
                    let key = &keys[k % KEYS];
                    match &value {
                        Some(value) if k % 2 == 0 => {
                            client.set(key, value, 0, 0).await.expect("set");
                            completed.count(false);
                        }
                        _ => {
                            let got = client.get(key).await;
                            assert!(matches!(got, Ok(Some(_))), "every key was preloaded");
                            completed.count(true);
                        }
                    }
                    k += KEY_STRIDE;
                }
            })
        })
        .collect();
    Load::of(&sim, tasks, &completed)
}

/// A get or a set issued and not yet claimed.
enum Issued {
    Get(InFlightGet),
    Set(InFlightSet),
}

impl Issued {
    /// Claims the answer and counts the operation into `completed`.
    async fn complete(self, completed: &Completed) {
        match self {
            Issued::Get(get) => {
                let got = get.complete().await;
                assert!(matches!(got, Ok(Some(_))), "every key was preloaded");
                completed.count(true);
            }
            Issued::Set(set) => {
                set.complete().await.expect("set");
                completed.count(false);
            }
        }
    }
}

/// Sliding windows, `depth` handles in flight per client (claimed oldest
/// first), until `ops` have completed in total, and then the windows
/// drained: gets, or — given a value to store — sets and gets by turns.
fn pipelined_gets(
    world: &World,
    clients: &[McClient],
    depth: usize,
    ops: u64,
    store: Option<&[u8]>,
) -> Load {
    let sim = world.sim().clone();
    let keys: Rc<Vec<Vec<u8>>> = Rc::new((0..KEYS).map(key).collect());
    let value: Option<Rc<[u8]>> = store.map(Rc::from);
    let completed = Rc::new(Completed::default());
    let tasks: Vec<_> = clients
        .iter()
        .enumerate()
        .map(|(c, client)| {
            let (client, keys, completed) = (client.clone(), keys.clone(), completed.clone());
            let value = value.clone();
            sim.spawn(async move {
                let mut window = std::collections::VecDeque::with_capacity(depth);
                let mut k = c;
                while completed.ops.get() < ops {
                    while window.len() < depth {
                        let key = &keys[k % KEYS];
                        window.push_back(match &value {
                            Some(value) if k % 2 == 0 => {
                                let set = client.issue_set(key, value, 0, 0).await;
                                Issued::Set(set.expect("issue"))
                            }
                            _ => Issued::Get(client.issue_get(key).await.expect("issue")),
                        });
                        k += KEY_STRIDE;
                    }
                    let oldest = window.pop_front().expect("window is full");
                    oldest.complete(&completed).await;
                }
                for rest in window {
                    rest.complete(&completed).await;
                }
            })
        })
        .collect();
    Load::of(&sim, tasks, &completed)
}

/// A testbed, and the closed loop that loads it.
struct Shape {
    name: &'static str,
    world: World,
    server: McServer,
    clients: Vec<McClient>,
    /// Runs this many more operations.
    drive: fn(&Shape, u64) -> Load,
}

impl Shape {
    /// Starts a server, preloads the keys with `value_size`-byte values and
    /// connects `clients` clients over `transport` (one get each).
    fn new(
        name: &'static str,
        world: World,
        server: McServerConfig,
        transport: Transport,
        clients: usize,
        value_size: usize,
        drive: fn(&Shape, u64) -> Load,
    ) -> Shape {
        let client = McClientConfig::single(transport, SERVER);
        Shape::with_clients(name, world, server, client, clients, value_size, drive)
    }

    /// [`Shape::new`], with `clients` clients of configuration `client`.
    fn with_clients(
        name: &'static str,
        world: World,
        server: McServerConfig,
        client: McClientConfig,
        clients: usize,
        value_size: usize,
        drive: fn(&Shape, u64) -> Load,
    ) -> Shape {
        let Scenario {
            world,
            server,
            clients,
        } = Scenario::new(world, server, vec![client; clients]);
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
        Shape {
            name,
            world,
            server,
            clients,
            drive,
        }
    }

    fn run(&self, ops: u64) -> Load {
        let before = live_bytes();
        let load = (self.drive)(self, ops);
        Load {
            live: live_bytes() - before,
            ..load
        }
    }

    /// Where `ops` more operations allocate: per call site (the innermost
    /// frame in `crates/`), allocations and bytes in total, most allocations
    /// first, and the operations they took. Slow: every allocation takes a
    /// backtrace.
    fn census(&self, ops: u64) -> (Census, Load) {
        let table: &'static SiteTable = Box::leak(Box::default());
        SITES.set(Some(table));
        let load = self.run(ops);
        SITES.set(None);
        let mut sites: Vec<_> = table.borrow_mut().drain().collect();
        sites.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        (sites, load)
    }

    /// Warms the testbed up, then holds a measured run to `budget`
    /// allocations per operation, its live bytes to a drift of `drift`
    /// either way (what an operation allocates it frees, so no table grows
    /// with the operations run) and its event queue to live events.
    /// Returns the measured run.
    fn stays_within(&self, budget: f64, drift: u64) -> Load {
        self.run(WARMUP_OPS);
        let load = self.run(MEASURED_OPS);
        let per_op = load.allocs_per_op();
        assert!(
            per_op <= budget,
            "{}: {per_op:.2} allocations per operation (budget {budget})",
            self.name
        );
        assert!(
            load.live.unsigned_abs() <= drift,
            "{}: live bytes drifted by {} over {} operations (bound {drift})",
            self.name,
            load.live,
            load.ops
        );
        // Every get arms a 250 ms timeout and wins it within microseconds:
        // the cancelled timers must be gone, not waiting out their deadline.
        let pending = self.world.sim().pending_events();
        assert!(
            pending <= 8 * self.clients.len(),
            "{}: {pending} events pending after the run",
            self.name
        );
        load
    }

    /// The receive buffers each UCR runtime of the testbed holds
    /// registered: the server's, then each client's in order.
    fn recv_buffers(&self) -> (usize, Vec<usize>) {
        let held = |rt: Option<UcrRuntime>| rt.expect("a UCR testbed").recv_buffers();
        let clients = self.clients.iter().map(|c| held(c.ucr_runtime()));
        (held(self.server.ucr_runtime()), clients.collect())
    }

    /// Holds the receive pool of the server to `server` buffers and of
    /// every client to `client`: it grows to the traffic, not to its cap.
    fn holds_recv_buffers(&self, server: usize, client: usize) {
        let (held, clients) = self.recv_buffers();
        assert!(
            held <= server,
            "{}: the server holds {held} receive buffers (budget {server})",
            self.name
        );
        let most = clients.into_iter().max().unwrap_or(0);
        assert!(
            most <= client,
            "{}: a client holds {most} receive buffers (budget {client})",
            self.name
        );
    }
}

/// The paper's Fig. 6(c) point: 16 UCR clients, 4 B gets, Cluster B.
fn ucr_small_gets() -> Shape {
    const CLIENTS: u32 = 16;
    Shape::new(
        "ucr_small_gets",
        World::cluster_b(42, CLIENTS + 1),
        McServerConfig::default(),
        Transport::Ucr,
        CLIENTS as usize,
        4,
        |s, ops| closed_loop(&s.world, &s.clients, ops, None),
    )
}

/// The same 16 clients at depth 8 against 8 workers over 16 store shards
/// (the benchmark's `ucr_pipelined_sharded_16c` shape). Requests and
/// replies queued behind a backed-up send share network buffers here.
fn ucr_pipelined_gets() -> Shape {
    pipelined_shape("ucr_pipelined_gets", |s, ops| {
        pipelined_gets(&s.world, &s.clients, 8, ops, None)
    })
}

/// The same pipelined testbed storing its 64 B values and getting them by
/// turns: a set's value rides eager, into a payload buffer from the
/// server runtime's pool.
fn ucr_pipelined_sets_and_gets() -> Shape {
    pipelined_shape("ucr_pipelined_sets_and_gets", |s, ops| {
        pipelined_gets(&s.world, &s.clients, 8, ops, Some(&[7u8; 64]))
    })
}

/// 16 UCR clients, 64 B values, against 8 workers over 16 store shards,
/// driven by `drive`.
fn pipelined_shape(name: &'static str, drive: fn(&Shape, u64) -> Load) -> Shape {
    const CLIENTS: u32 = 16;
    let sharded = McServerConfig {
        workers: 8,
        store_model: StoreModel::Sharded(16),
        ..Default::default()
    };
    Shape::new(
        name,
        World::cluster_b(42, CLIENTS + 1),
        sharded,
        Transport::Ucr,
        CLIENTS as usize,
        64,
        drive,
    )
}

/// 8 clients over 10GigE-TOE on `transport`, 1 KB gets, Cluster A.
fn socket_gets(name: &'static str, transport: Transport) -> Shape {
    Shape::new(
        name,
        World::cluster_a(42, 9),
        McServerConfig::default(),
        transport,
        8,
        1024,
        |s, ops| closed_loop(&s.world, &s.clients, ops, None),
    )
}

/// The Fig. 6(c) testbed with bypass gets: each of the 16 clients reads a
/// 4 B value straight out of the server's slab memory with a one-sided
/// RDMA read, through the descriptor it cached on its first get of the key.
fn ucr_bypass_gets() -> Shape {
    const CLIENTS: u32 = 16;
    let client = McClientConfig {
        bypass_get: true,
        ..McClientConfig::single(Transport::Ucr, SERVER)
    };
    Shape::with_clients(
        "ucr_bypass_gets",
        World::cluster_b(42, CLIENTS + 1),
        McServerConfig::default(),
        client,
        CLIENTS as usize,
        4,
        |s, ops| closed_loop(&s.world, &s.clients, ops, None),
    )
}

/// The sockets baseline: ASCII over TCP.
fn ascii_socket_gets() -> Shape {
    socket_gets("ascii_socket_gets", Transport::Sockets(Stack::TenGigEToe))
}

/// The same gets in memcached's binary protocol.
fn binary_socket_gets() -> Shape {
    socket_gets("binary_socket_gets", Transport::Binary(Stack::TenGigEToe))
}

/// The same gets as ASCII over UDP: a request and its reply are a
/// datagram each.
fn udp_gets() -> Shape {
    socket_gets("udp_gets", Transport::Udp(Stack::TenGigEToe))
}

/// The same 8 clients storing 1 KB values and getting them by turns: the
/// set path, a data block each way of the text protocol.
fn ascii_socket_sets_and_gets() -> Shape {
    const CLIENTS: u32 = 8;
    Shape::new(
        "ascii_socket_sets_and_gets",
        World::cluster_a(42, CLIENTS + 1),
        McServerConfig::default(),
        Transport::Sockets(Stack::TenGigEToe),
        CLIENTS as usize,
        1024,
        |s, ops| closed_loop(&s.world, &s.clients, ops, Some(&[7u8; 1024])),
    )
}

#[test]
fn ucr_small_gets_stay_within_the_allocation_budget() {
    let shape = ucr_small_gets();
    let load = shape.stays_within(0.01, 1024); // measured 0.0001 and 0 B
    shape.holds_recv_buffers(7, 4); // measured 5 and 2
    let bytes = load.bytes_per_op();
    assert!(
        bytes <= 1.0, // measured 0.012
        "ucr_small_gets: {bytes:.3} bytes allocated per operation"
    );
}

/// What watching costs the host: the allocations a profiler adds to a UCR
/// get, alone, pipelined and at 64 KB. Folded paths and signatures are
/// strings only at first sight, and a fold lane (an op's spans on one
/// track) takes its stack from the profiler's free list and gives it back
/// when it closes.
#[test]
fn a_profiler_adds_few_allocations_to_a_ucr_get() {
    for (shape, budget) in [
        (ucr_small_gets(), 0.01),        // measured 0.0000
        (ucr_pipelined_gets(), 0.1),     // measured 0.017
        (ucr_64k_sets_and_gets(), 0.01), // measured 0.0000
    ] {
        let allocs_per_op = || {
            shape.run(WARMUP_OPS);
            shape.run(WARMUP_OPS).allocs_per_op()
        };
        let bare = allocs_per_op();
        let _profiler = Profiler::attach(shape.world.cluster.tracer(), ProfilerConfig::default());
        let added = allocs_per_op() - bare;
        assert!(
            added <= budget,
            "{}: a profiler adds {added:.4} allocations per operation (budget {budget})",
            shape.name
        );
    }
}

#[test]
fn ucr_pipelined_gets_stay_within_the_allocation_budget() {
    let shape = ucr_pipelined_gets();
    // A table reaches its working size in the measured run.
    let load = shape.stays_within(0.01, 12_288); // measured 0.0025 and 11 332 B
    shape.holds_recv_buffers(9, 4); // measured 7 and 2
    let bytes = load.bytes_per_op();
    assert!(
        bytes <= 8.0, // measured 1.6
        "ucr_pipelined_gets: {bytes:.1} bytes allocated per operation"
    );
    let rt = shape.server.ucr_runtime().expect("UCR server");
    assert!(
        rt.stats().eager_coalesced.get() > 0,
        "replies shared buffers"
    );
}

/// A set's value rides eager into a payload buffer from the server
/// runtime's pool, and goes back to it once the store has copied it; a
/// get's value is the client runtime's eager buffer it landed in, back in
/// that pool once the caller drops it: the pipelined sets and gets
/// allocate nothing.
#[test]
fn ucr_pipelined_sets_and_gets_stay_within_the_allocation_budget() {
    let shape = ucr_pipelined_sets_and_gets();
    // A second warm-up: the receive pools reach their working size in it,
    // and the eager pool in the measured run.
    shape.run(WARMUP_OPS);
    let load = shape.stays_within(0.01, 12_288); // measured 0.0015 and 1 728 B
    shape.holds_recv_buffers(17, 6); // measured 15 and 4
    let bytes = load.bytes_per_op();
    assert!(
        bytes <= 4.0, // measured 0.7
        "ucr_pipelined_sets_and_gets: {bytes:.1} bytes allocated per operation"
    );
}

#[test]
fn ascii_socket_gets_stay_within_the_allocation_budget() {
    let load = ascii_socket_gets().stays_within(0.01, 1024); // measured 0.0001 and 0 B
    let bytes = load.bytes_per_op();
    assert!(
        bytes <= 1.0, // measured 0.012
        "ascii_socket_gets: {bytes:.3} bytes allocated per operation"
    );
}

/// On every wire a warm operation allocates nothing, not even the caller's
/// value: a get lends its caller the value, in a buffer that goes back to
/// its pool when the caller drops it. A socket write's or datagram's bytes
/// ride in a pooled buffer, the client writes each request into the buffer
/// it keeps and copies a reply's value out of the frame, where it landed,
/// into a buffer from its value pool; the server reads a request in place
/// from the buffer it arrived in — a pooled frame buffer, a pooled datagram
/// — and writes its reply into its worker's buffer (and a UDP reply's
/// datagrams over the request's); a UCR set's value lands in a payload
/// buffer from the server runtime's eager pool and a get's in the client
/// runtime's; a bypass get copies its value out of the landing window into
/// a buffer from the value pool. So no site of a census is in
/// `crates/sockets/`, in `crates/proto/` or in the server, and nothing is
/// left in the simulated layers but the engine's sites, which are the
/// harness's own tasks.
fn every_wire_allocates_only_the_callers_value() {
    for shape in [
        ascii_socket_gets(),
        binary_socket_gets(),
        udp_gets(),
        ucr_pipelined_sets_and_gets(),
        ucr_bypass_gets(),
    ] {
        // Warmed up as long as a budget's measured run: the pipelined sets'
        // receive pools and counter table reach their working size in it
        // (a run starts with every window filling at once).
        shape.run(WARMUP_OPS);
        shape.run(MEASURED_OPS);
        let (sites, load) = shape.census(200);
        assert!(
            load.ops >= 200 && !sites.is_empty(),
            "{}: a census",
            shape.name
        );
        let below_the_client: Vec<_> = sites
            .iter()
            .filter(|(site, _)| {
                [
                    "crates/sockets/",
                    "crates/proto/",
                    "crates/core/src/server/",
                ]
                .iter()
                .any(|layer| site.contains(layer))
            })
            .collect();
        assert!(
            below_the_client.is_empty(),
            "{}: {below_the_client:?}",
            shape.name
        );
        let (allocs, bytes) = sites
            .iter()
            .filter(|(site, _)| site.contains(" at crates/") && !site.contains("crates/simnet/"))
            .fold((0, 0), |sum, (_, site)| (sum.0 + site.0, sum.1 + site.1));
        assert_eq!((allocs, bytes), (0, 0), "{}: {sites:?}", shape.name);
    }
}

#[test]
fn an_ascii_socket_get_allocates_only_the_clients_value() {
    every_wire_allocates_only_the_callers_value();
}

#[test]
fn binary_socket_gets_stay_within_the_allocation_budget() {
    binary_socket_gets().stays_within(0.01, 1024); // measured 0.0001 and 0 B
}

#[test]
fn udp_gets_stay_within_the_allocation_budget() {
    udp_gets().stays_within(0.01, 1024); // measured 0.0001 and 0 B
}

/// A warm bypass get allocates nothing: its descriptor is looked up by the
/// borrowed key, its read lands in the client's landing window, and the
/// value is copied from there into a buffer from the client's value pool.
/// Every get is a one-sided read: none falls back to the AM path.
#[test]
fn ucr_bypass_gets_stay_within_the_allocation_budget() {
    let shape = ucr_bypass_gets();
    let load = shape.stays_within(0.01, 1024); // measured 0.0001 and 0 B
    let bytes = load.bytes_per_op();
    assert!(
        bytes <= 1.0, // measured 0.012
        "ucr_bypass_gets: {bytes:.3} bytes allocated per operation"
    );
    let rt = shape.clients[0].ucr_runtime().expect("UCR");
    assert_eq!(
        rt.stats().bypass_fallbacks.get(),
        0,
        "every get read one-sided"
    );
    assert!(rt.stats().bypass_reads.get() > 0);
}

/// A value that outlives its client frees its bytes: the pool it was lent
/// by went with the client — its UCR runtime's, or its own value pool — so
/// dropping the value gives the allocator back at least its length.
#[test]
fn a_value_that_outlives_its_client_frees_its_bytes() {
    const LEN: usize = 4096;
    for (world, transport) in [
        (World::cluster_b(42, 2), Transport::Ucr),
        (
            World::cluster_a(42, 2),
            Transport::Sockets(Stack::TenGigEToe),
        ),
    ] {
        let scenario = Scenario::start(world, transport);
        let client = scenario.clients[0].clone();
        let value = scenario.world.sim().block_on(async move {
            client.set(b"k", &[7; LEN], 0, 0).await.expect("stored");
            client.get(b"k").await.expect("served").expect("a hit")
        });
        drop(scenario);
        let before = live_bytes();
        drop(value);
        let freed = before - live_bytes();
        assert!(
            freed >= LEN as i64,
            "{transport:?}: dropping the value freed {freed} B"
        );
    }
}

/// A get hit leaves the slab once: the store lends it and the front-end
/// writes it straight into the reply's buffer, on UCR and on the text
/// protocol alike. So nothing the four get-only shapes allocate is
/// allocated in `crates/store/`.
#[test]
fn get_hits_allocate_nothing_in_the_store() {
    const OPS: u64 = 200;
    for shape in [
        ucr_small_gets(),
        ucr_4k_gets(),
        ucr_pipelined_gets(),
        ascii_socket_gets(),
    ] {
        shape.run(WARMUP_OPS);
        let (sites, load) = shape.census(OPS);
        assert!(
            load.ops >= OPS && !sites.is_empty(),
            "{}: a census",
            shape.name
        );
        let in_store: Vec<_> = sites
            .iter()
            .filter(|(site, _)| site.contains("crates/store/"))
            .collect();
        assert!(in_store.is_empty(), "{}: {in_store:?}", shape.name);
    }
}

/// Items the store residency shape holds.
const STORED_ITEMS: usize = 50_000;

/// A store after [`STORED_ITEMS`] small items (a 12-byte key and a 16-byte
/// value, one 96-byte chunk each), and the heap bytes it grew by.
fn stored_items() -> (Store, u64) {
    let before = live_bytes();
    let mut store = Store::with_defaults();
    for i in 0..STORED_ITEMS {
        store.set(format!("key-{i:08}").as_bytes(), &[7; 16], 0, 0, 1);
    }
    let grown = live_bytes() - before;
    (store, grown as u64)
}

/// The heap a store needs for what it holds and nothing per item beside
/// it: its slab pages, its bucket tables, a version word per chunk and a
/// free list entry per free chunk (each vector up to twice its length),
/// and 16 KiB for its class table and per-class vectors.
fn store_needs(store: &Store) -> u64 {
    let slabs = store.slabs();
    let (mut chunks, mut free) = (0, 0);
    for c in 0..slabs.class_count() {
        let class = ClassId(c as u8);
        let st = slabs.class_stats(class);
        chunks += u64::from(st.pages) * u64::from(slabs.chunks_per_page(class));
        free += u64::from(st.free);
    }
    let buckets = store.bucket_count() as u64 * if store.is_expanding() { 6 } else { 4 };
    // A version word is a u64, a free list entry a u32 chunk id.
    slabs.mem_allocated() as u64 + buckets + 2 * (8 * chunks + 4 * free) + (16 << 10)
}

/// An item's header lives in the last 48 bytes of its slab chunk and its
/// id is its chunk's, so a store holds nothing per item outside its slab
/// pages: no side table of items.
#[test]
fn a_store_keeps_its_items_in_its_slab_pages() {
    let (store, grown) = stored_items();
    assert_eq!(store.curr_items(), STORED_ITEMS as u64);
    let needs = store_needs(&store);
    let over = grown.saturating_sub(needs) as f64 / STORED_ITEMS as f64;
    assert!(
        grown <= needs,
        "{STORED_ITEMS} items grew the heap by {grown} B, {over:.1} B an item past the \
         {needs} B its slab pages, bucket tables, version words and free lists take"
    );
}

#[test]
fn ascii_socket_sets_and_gets_stay_within_the_allocation_budget() {
    let load = ascii_socket_sets_and_gets().stays_within(0.01, 1024); // measured 0.0001 and 0 B
    let bytes = load.bytes_per_op();
    assert!(
        bytes <= 1.0, // measured 0.012
        "ascii_socket_sets_and_gets: {bytes:.3} bytes allocated per operation"
    );
}

/// The text parsers split and frame in place: one that asks for more bytes
/// or refuses what it was given allocates nothing. A 64 KB `set` arriving
/// a read at a time costs no copy per read, and neither does a reply that
/// is not all there yet.
#[test]
fn text_parsers_allocate_nothing_until_a_frame_is_whole() {
    use rdma_memcached::mcproto::{
        encode_command, encode_response, parse_command, parse_response, Command, GetValue,
        Response, StoreVerb,
    };
    let set = encode_command(&Command::Store {
        verb: StoreVerb::Set,
        key: key(1),
        flags: 0,
        exptime: 0,
        data: vec![5; 64 << 10],
        noreply: false,
    });
    let hit = |i| GetValue {
        key: key(i),
        flags: 0,
        data: vec![5; 1024],
        cas: Some(7),
    };
    let values = encode_response(&Response::Values((0..3).map(hit).collect()));
    let stats = encode_response(&Response::Stats(vec![
        ("pid".to_string(), "7".to_string()),
        ("version".to_string(), "1.4.5".to_string()),
    ]));
    let refused_commands: [&[u8]; 6] = [
        b"bogus k\r\n",
        b"get\r\n",
        b"get k \x01\r\n",
        b"set k 0 0 x\r\n",
        b"incr k one\r\n",
        b"set k 0 0 3\r\nabcd\r\n",
    ];
    let refused_replies: [&[u8]; 4] = [
        b"VALUE k 0 3\r\nabcEND\r\n",
        b"VALUE k 0 1\r\na\r\nSTORED\r\n",
        b"STAT pid 7\r\nVALUE k 0 1\r\na\r\nEND\r\n",
        b"BOGUS\r\n",
    ];

    let before = ALLOCS.with(Cell::get);
    for cut in (0..set.len()).step_by(997) {
        assert!(matches!(parse_command(&set[..cut]), Ok(None)), "cut {cut}");
    }
    for wire in [&values, &stats] {
        for cut in 0..wire.len() {
            assert!(
                matches!(parse_response(&wire[..cut]), Ok(None)),
                "cut {cut}"
            );
        }
    }
    for line in refused_commands {
        assert!(parse_command(line).is_err());
    }
    for reply in refused_replies {
        assert!(parse_response(reply).is_err());
    }
    assert_eq!(ALLOCS.with(Cell::get) - before, 0);
}

/// The binary, UDP, UCR packet and AM header decoders find out that their
/// input is not whole, or not well formed, before they copy anything out of
/// it: a request header cut short of its last key allocates nothing.
#[test]
fn binary_decoders_allocate_nothing_on_refused_input() {
    use rdma_memcached::mcproto::{store_extras, BinFrame, BinOpcode, UdpFrame};
    use rdma_memcached::rmc::{DirReq, DirResp, McOp, ReqHeader, RespHeader, RespStatus};
    use rdma_memcached::ucr::{PacketHeader, PacketKind};
    let mut set = BinFrame::request(BinOpcode::Set, 7);
    set.extras = store_extras(1, 0).to_vec();
    set.key = key(1);
    set.value = vec![5; 4096];
    let bin = set.encode();
    let garbled = |wire: &[u8], at: usize, byte: u8| {
        let mut w = wire.to_vec();
        w[at] = byte;
        w
    };
    // Bad magic, unknown opcode, a key longer than the body, a data type.
    let garbled_bin = [(0, 0x00), (1, 0xfe), (2, 0xff), (5, 1)].map(|(at, b)| garbled(&bin, at, b));
    let udp = UdpFrame {
        request_id: 3,
        seq: 2,
        total: 1,
    }
    .encode();
    let pkt = PacketHeader::new(PacketKind::RndvReq, 9).encode();
    let mget = ReqHeader {
        keys: (0..3).map(key).collect::<Vec<_>>().into(),
        ..ReqHeader::new(McOp::Get, 1, 2, Vec::new())
    }
    .encode();
    let mut many_keys = mget.clone();
    many_keys[2..4].copy_from_slice(&u16::MAX.to_le_bytes());
    let resp = RespHeader {
        req_id: 1,
        status: RespStatus::Hit,
        flags: 0,
        cas: 0,
        number: 0,
        nvalues: 0,
    }
    .encode();
    let dir_req = DirReq {
        req_id: 1,
        ctr_id: 2,
        key: key(1),
    }
    .encode();
    let dir_resp = DirResp::miss(1).encode();
    let (bad_op, bad_kind) = (garbled(&mget, 0, 0), garbled(&pkt, 0, 0));
    let bad_status = garbled(&resp, 0, 0);

    let before = ALLOCS.with(Cell::get);
    for cut in 0..bin.len() {
        assert!(
            matches!(BinFrame::parse(&bin[..cut]), Ok(None)),
            "cut {cut}"
        );
    }
    for wire in &garbled_bin {
        assert!(BinFrame::parse(wire).is_err());
    }
    for cut in 0..udp.len() {
        assert!(UdpFrame::decode(&udp[..cut]).is_err());
    }
    assert!(UdpFrame::decode(&udp).is_err(), "seq beyond total");
    for cut in 0..pkt.len() {
        assert!(PacketHeader::decode(&pkt[..cut]).is_none());
    }
    assert!(PacketHeader::decode(&bad_kind).is_none());
    for cut in 0..mget.len() {
        assert!(ReqHeader::decode(&mget[..cut]).is_none(), "cut {cut}");
    }
    assert!(ReqHeader::decode(&many_keys).is_none());
    assert!(ReqHeader::decode(&bad_op).is_none());
    for cut in 0..resp.len() {
        assert!(RespHeader::decode(&resp[..cut]).is_none());
    }
    assert!(RespHeader::decode(&bad_status).is_none());
    for cut in 0..dir_req.len() {
        assert!(DirReq::decode(&dir_req[..cut]).is_none(), "cut {cut}");
    }
    for cut in 0..dir_resp.len() {
        assert!(DirResp::decode(&dir_resp[..cut]).is_none());
    }
    assert_eq!(ALLOCS.with(Cell::get) - before, 0);
}

/// The paper's Fig. 4(c) point: one UCR client, 4 KB gets — the largest
/// power of two that still rides eager with its headers.
fn ucr_4k_gets() -> Shape {
    Shape::new(
        "ucr_4k_gets",
        World::cluster_b(42, 2),
        McServerConfig::default(),
        Transport::Ucr,
        1,
        4096,
        |s, ops| closed_loop(&s.world, &s.clients, ops, None),
    )
}

/// A 4 KB get allocates nothing: the server writes the hit from the store
/// straight into a registered send buffer from the pool, the target HCA
/// lands it in a pooled receive buffer, and the client's value is a copy of
/// it in a buffer from its runtime's eager pool, which the caller gives
/// back by dropping it.
#[test]
fn ucr_4k_gets_stay_within_the_allocation_budget() {
    let shape = ucr_4k_gets();
    let load = shape.stays_within(0.01, 1024); // measured 0.0001 and 0 B
    shape.holds_recv_buffers(4, 4); // measured 2 and 2
    let bytes = load.bytes_per_op();
    assert!(
        bytes <= 1.0, // measured 0.012
        "ucr_4k_gets: {bytes:.3} bytes allocated per operation"
    );
}

/// 64 KB values, sets and gets by turns: every value travels by rendezvous,
/// a read request out and the data back, the four-stage flight. Both ends
/// draw the source and the landing region of a rendezvous from their
/// runtime's pool and give them back when the read is done, or, for a
/// get's landing region, when the caller drops the value it became.
fn ucr_64k_sets_and_gets() -> Shape {
    Shape::new(
        "ucr_64k_sets_and_gets",
        World::cluster_b(42, 5),
        McServerConfig::default(),
        Transport::Ucr,
        4,
        64 << 10,
        |s, ops| closed_loop(&s.world, &s.clients, ops, Some(&[7u8; 64 << 10])),
    )
}

/// The same four clients getting the 64 KB values only: a rendezvous per
/// get, the server's reply.
fn ucr_64k_gets() -> Shape {
    Shape::new(
        "ucr_64k_gets",
        World::cluster_b(42, 5),
        McServerConfig::default(),
        Transport::Ucr,
        4,
        64 << 10,
        |s, ops| closed_loop(&s.world, &s.clients, ops, None),
    )
}

/// A 64 KB get allocates nothing, its value included: the server's reply
/// is queued for its runtime's rendezvous sender, not given a task of its
/// own, its source and the client's landing region are buffers from the
/// runtimes' rendezvous pools, each registration refills the record of a
/// deregistered region, and the landing region's bytes are the value the
/// caller gets, back in the client runtime's pool when dropped. So no site
/// of the census is in `crates/verbs/` or in the engine's `Sim::spawn`
/// (beyond the harness's own tasks, a handful per run), and nothing else is
/// left in the simulated layers.
#[test]
fn a_64k_ucr_get_allocates_only_the_clients_value() {
    let shape = ucr_64k_gets();
    shape.run(WARMUP_OPS);
    let (sites, load) = shape.census(200);
    assert!(load.gets >= 200 && !sites.is_empty(), "a census");
    let in_verbs: Vec<_> = sites
        .iter()
        .filter(|(site, _)| site.contains("crates/verbs/"))
        .collect();
    assert!(in_verbs.is_empty(), "{in_verbs:?}");
    // The harness spawns one task per client and one to wait on them, each
    // its future and its waker.
    let in_spawn: u64 = sites
        .iter()
        .filter(|(site, _)| site.contains("crates/simnet/src/engine.rs"))
        .map(|(_, (count, _))| count)
        .sum();
    let harness = 2 * (shape.clients.len() as u64 + 1);
    assert!(in_spawn <= harness, "{in_spawn} in Sim::spawn: {sites:?}");
    let (allocs, bytes) = sites
        .iter()
        .filter(|(site, _)| site.contains(" at crates/") && !site.contains("crates/simnet/"))
        .fold((0, 0), |sum, (_, site)| (sum.0 + site.0, sum.1 + site.1));
    assert_eq!((allocs, bytes), (0, 0), "{sites:?}");
}

#[test]
fn ucr_64k_sets_and_gets_stay_within_the_allocation_budget() {
    let shape = ucr_64k_sets_and_gets();
    let load = shape.stays_within(0.01, 1024); // measured 0.0002 and 64 B
    shape.holds_recv_buffers(6, 4); // measured 4 and 2
    let bytes = load.bytes_per_op();
    assert!(
        bytes <= 1.0, // measured 0.015
        "ucr_64k_sets_and_gets: {bytes:.3} bytes allocated per operation"
    );
}

/// A UCR put copies its data into a buffer from the runtime's rendezvous
/// pool, registered in the record of a deregistered region, and gives the
/// buffer back when the write completes: once the pool holds a buffer, a
/// thousand 64 KB puts, each waited for, cost the allocator nothing.
#[test]
fn a_warm_one_sided_put_allocates_nothing() {
    use rdma_memcached::simnet::Cluster;
    use rdma_memcached::verbs::IbFabric;
    const LEN: usize = 64 << 10;
    const PUTS: u64 = 1_000;
    const PORT: u16 = 11_311;
    let cluster = Rc::new(Cluster::cluster_b(42, 2));
    let fabric = IbFabric::new(cluster.clone());
    let target = UcrRuntime::new(&fabric, NodeId(1));
    let origin = UcrRuntime::new(&fabric, NodeId(0));
    let window = Rc::new(target.register_memory(LEN));
    let listener = target.listen(PORT).expect("port free");
    let sim = cluster.sim().clone();
    let _accepted = sim.spawn(async move { listener.accept().await });
    let connecting = origin.clone();
    let ep = sim
        .block_on(async move {
            let timeout = SimDuration::from_millis(100);
            connecting.connect(NodeId(1), PORT, timeout).await
        })
        .expect("connected");
    // What one round of puts of `fill` bytes cost the allocator.
    let round = |fill: u8| {
        let (ep, window, done) = (ep.clone(), window.clone(), origin.counter());
        let data = vec![fill; LEN];
        sim.block_on(async move {
            let before = ALLOCS.with(Cell::get);
            for i in 1..=PUTS {
                ep.put(window.descriptor(0, LEN), &data, Some(done.clone()))
                    .expect("posted");
                done.wait_for(i, SimDuration::from_millis(1))
                    .await
                    .expect("placed");
            }
            ALLOCS.with(Cell::get) - before
        })
    };
    assert!(round(1) > 0, "the first put fills the pool");
    assert_eq!(round(2), 0);
    assert_eq!(window.read(0, LEN), vec![2; LEN]);
}

/// One-sided verbs move bytes from registered region to registered region:
/// a thousand 64 KB READs and a thousand 64 KB WRITEs between regions
/// registered up front cost the allocator nothing once the tables they pass
/// through — flights, the event queue, the completion queue — have grown.
#[test]
fn one_sided_verbs_allocate_nothing_in_steady_state() {
    use rdma_memcached::simnet::Cluster;
    use rdma_memcached::verbs::{Access, IbFabric, QpType, SendOp, SendWr};
    const LEN: usize = 64 << 10;
    const EACH: u64 = 1_000;
    let cluster = Rc::new(Cluster::cluster_b(42, 2));
    let fabric = IbFabric::new(cluster.clone());
    let (a, b) = (fabric.open(NodeId(0)), fabric.open(NodeId(1)));
    let (pda, pdb) = (a.alloc_pd(), b.alloc_pd());
    let (cqa, cqb) = (a.create_cq(), b.create_cq());
    let qa = pda.create_qp(QpType::Rc, &cqa, &cqa, None);
    let qb = pdb.create_qp(QpType::Rc, &cqb, &cqb, None);
    qa.connect_to(b.node(), qb.qpn()).expect("fresh QP");
    qb.connect_to(a.node(), qa.qpn()).expect("fresh QP");
    let landing = pda.register(LEN, Access::LOCAL_WRITE);
    let payload = pda.register_with(vec![7; LEN], Access::default());
    let target = pdb.register_with(vec![5; LEN], Access::REMOTE_READ | Access::REMOTE_WRITE);
    let round = || {
        for i in 0..EACH {
            let read = SendOp::RdmaRead {
                local: landing.full(),
                remote: target.remote(0, LEN),
            };
            let write = SendOp::RdmaWrite {
                local: payload.full(),
                remote: target.remote(0, LEN),
                imm: None,
            };
            qa.post_send(SendWr::new(2 * i, read)).expect("RTS");
            qa.post_send(SendWr::new(2 * i + 1, write)).expect("RTS");
        }
        cluster.sim().run();
        let completed = std::iter::from_fn(|| cqa.poll())
            .inspect(|wc| assert!(wc.status.is_ok(), "{wc:?}"))
            .count();
        assert_eq!(completed as u64, 2 * EACH);
    };
    round();
    let before = ALLOCS.with(Cell::get);
    round();
    assert_eq!(ALLOCS.with(Cell::get) - before, 0);
    assert_eq!(
        landing.read_at(0, LEN),
        vec![7; LEN],
        "the last READ saw a WRITE land"
    );
}

/// A registered SEND lands from its window, region to region: a thousand
/// SENDs into receives posted anew for each cost the allocator nothing once
/// the tables they pass through have grown.
#[test]
fn two_sided_sends_allocate_nothing_in_steady_state() {
    use rdma_memcached::simnet::Cluster;
    use rdma_memcached::verbs::{Access, IbFabric, QpType, SendOp, SendWr};
    const LEN: usize = 4096;
    const SENDS: u64 = 1_000;
    let cluster = Rc::new(Cluster::cluster_b(42, 2));
    let fabric = IbFabric::new(cluster.clone());
    let (a, b) = (fabric.open(NodeId(0)), fabric.open(NodeId(1)));
    let (pda, pdb) = (a.alloc_pd(), b.alloc_pd());
    let (cqa, cqb) = (a.create_cq(), b.create_cq());
    let qa = pda.create_qp(QpType::Rc, &cqa, &cqa, None);
    let qb = pdb.create_qp(QpType::Rc, &cqb, &cqb, None);
    qa.connect_to(b.node(), qb.qpn()).expect("fresh QP");
    qb.connect_to(a.node(), qa.qpn()).expect("fresh QP");
    let payload = pda.register_with(vec![7; LEN], Access::default());
    let landing = pdb.register(LEN, Access::LOCAL_WRITE);
    let round = || {
        for i in 0..SENDS {
            qb.post_recv(i, landing.full());
            let send = SendOp::Send {
                local: payload.full(),
                imm: None,
            };
            qa.post_send(SendWr::new(i, send)).expect("RTS");
        }
        cluster.sim().run();
        for cq in [&cqa, &cqb] {
            let completed = std::iter::from_fn(|| cq.poll())
                .inspect(|wc| assert!(wc.status.is_ok(), "{wc:?}"))
                .count();
            assert_eq!(completed as u64, SENDS);
        }
    };
    round();
    let before = ALLOCS.with(Cell::get);
    round();
    assert_eq!(ALLOCS.with(Cell::get) - before, 0);
    assert_eq!(landing.read_at(0, LEN), vec![7; LEN]);
}

/// The engine's third kind of event costs the allocator nothing: a hundred
/// thousand targeted events, sixty-four in the queue at any time.
#[test]
fn targeted_events_allocate_nothing_in_steady_state() {
    struct Relay {
        sim: Sim,
        left: Cell<u64>,
    }
    impl EventTarget for Relay {
        fn fire(self: Rc<Self>, token: u64) {
            if let Some(left) = self.left.get().checked_sub(1) {
                self.left.set(left);
                let sim = self.sim.clone();
                let at = sim.now() + SimDuration::from_nanos(1 + token % 7);
                sim.schedule_target_at(at, self, token);
            }
        }
    }
    let sim = Sim::new(1);
    let relay = Rc::new(Relay {
        sim: sim.clone(),
        left: Cell::new(1_000),
    });
    for token in 0..64 {
        sim.schedule_target_at(sim.now(), relay.clone(), token);
    }
    sim.run();
    assert_eq!(sim.events_executed(), 1_064);

    relay.left.set(100_000);
    for token in 0..64 {
        sim.schedule_target_at(sim.now(), relay.clone(), token);
    }
    let before = ALLOCS.with(Cell::get);
    sim.run();
    assert_eq!(ALLOCS.with(Cell::get) - before, 0);
    assert_eq!(sim.events_executed(), 1_064 + 100_064);
}

/// Where the allocations of the benchmark-like shapes come from: per
/// call site (the innermost frame in `crates/`), allocations and bytes per
/// operation over a thousand operations on a warmed-up testbed. Slow — every
/// allocation takes a backtrace — and a report, not a check:
/// `cargo test --test alloc_budget -- --ignored --nocapture`. Each shape
/// also prints how far its live bytes drifted over a measured run as long
/// as the budget tests', and a UCR shape the receive buffers each runtime
/// holds. Last comes the store residency shape: the heap bytes a store
/// holds per stored item.
#[test]
#[ignore = "prints the allocation site table; slow"]
fn print_allocation_sites() {
    const OPS: u64 = 1_000;
    let shapes = [
        ucr_small_gets(),
        ucr_4k_gets(),
        ucr_pipelined_gets(),
        ucr_pipelined_sets_and_gets(),
        ascii_socket_gets(),
        ascii_socket_sets_and_gets(),
        ucr_64k_sets_and_gets(),
        ucr_64k_gets(),
        binary_socket_gets(),
        udp_gets(),
        ucr_bypass_gets(),
    ];
    for shape in shapes {
        shape.run(WARMUP_OPS);
        let measured = shape.run(MEASURED_OPS);
        let (sites, load) = shape.census(OPS);
        let ops = load.ops as f64;
        // Summed over the table: the run's own count includes what taking
        // the backtraces allocated.
        let (allocs, bytes) = sites
            .iter()
            .fold((0, 0), |sum, (_, site)| (sum.0 + site.0, sum.1 + site.1));
        println!(
            "\n{}: {:.2} allocs/op, {:.0} bytes/op over {ops} operations; \
             live bytes drifted by {} over {}",
            shape.name,
            allocs as f64 / ops,
            bytes as f64 / ops,
            measured.live,
            measured.ops
        );
        println!("{:>10} {:>10}  site", "allocs/op", "bytes/op");
        for (site, (count, bytes)) in sites {
            let (count, bytes) = (count as f64 / ops, bytes as f64 / ops);
            if count >= 0.005 {
                println!("{count:>10.2} {bytes:>10.0}  {site}");
            }
        }
        if shape.clients[0].ucr_runtime().is_some() {
            let (server, clients) = shape.recv_buffers();
            println!("receive buffers held: server {server}, clients {clients:?}");
        }
    }
    let (store, grown) = stored_items();
    let per_item = |bytes: u64| bytes as f64 / STORED_ITEMS as f64;
    println!(
        "\nstore residency: {:.1} heap bytes per stored item over {STORED_ITEMS} small \
         items, {:.1} of them slab pages",
        per_item(grown),
        per_item(store.slabs().mem_allocated() as u64)
    );
}
