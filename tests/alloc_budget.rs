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
//! showing up in a benchmark run. They also pin that a run leaves no dead
//! timers behind: the event queue holds live events only.
//!
//! The budgets are counts, not timings: for a given build they repeat but
//! for a hash table that happens to grow inside the measured loop, which is
//! what the headroom of one to two above the measured figures is for. Where the
//! count of a shape comes from, call site by call site, is what
//! `cargo test --test alloc_budget -- --ignored --nocapture` prints.

use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use rdma_memcached::rmc::{
    McClient, McClientConfig, McServer, McServerConfig, StoreModel, Transport, World,
};
use rdma_memcached::simnet::{EventTarget, JoinHandle, NodeId, Sim, SimDuration, Stack};

/// Allocations and bytes per call site.
type SiteTable = RefCell<HashMap<String, (u64, u64)>>;

/// A site table drained, most allocations first.
type Census = Vec<(String, (u64, u64))>;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes asked for by those allocations (a `realloc` counts its new size).
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Where allocations are attributed while a site table is being made
    /// (leaked, so the thread-local has no destructor to register).
    static SITES: Cell<Option<&'static SiteTable>> = const { Cell::new(None) };
}

/// Counts the calling thread's allocations; per-thread, so the tests of
/// this binary do not count each other.
struct Counting;

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
/// `function at file:line` (line tables are kept in release builds too).
fn call_site() -> String {
    let trace = Backtrace::force_capture().to_string();
    let mut function = "";
    for line in trace.lines().map(str::trim) {
        match line.strip_prefix("at ") {
            Some(at) if at.contains("crates/") => {
                let at = at
                    .rsplit_once(':')
                    .map_or(at, |(file_line, _column)| file_line);
                return format!("{function} at {}", at.trim_start_matches("./"));
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

/// What a measured loop cost the allocator, and how many operations it ran.
struct Load {
    allocs: u64,
    bytes: u64,
    ops: u64,
}

impl Load {
    /// Runs `tasks` to the end: what that cost, and the operations they
    /// counted into `completed`.
    fn of(sim: &Sim, tasks: Vec<JoinHandle<()>>, completed: &Cell<u64>) -> Load {
        let before = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
        sim.block_on(async move {
            for t in tasks {
                t.await;
            }
        });
        Load {
            allocs: ALLOCS.with(Cell::get) - before.0,
            bytes: BYTES.with(Cell::get) - before.1,
            ops: completed.get(),
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
    let completed = Rc::new(Cell::new(0u64));
    let tasks: Vec<_> = clients
        .iter()
        .enumerate()
        .map(|(c, client)| {
            let (client, keys, completed) = (client.clone(), keys.clone(), completed.clone());
            let value = value.clone();
            sim.spawn(async move {
                let mut k = c;
                while completed.get() < ops {
                    let key = &keys[k % KEYS];
                    match &value {
                        Some(value) if k % 2 == 0 => {
                            client.set(key, value, 0, 0).await.expect("set");
                        }
                        _ => {
                            let got = client.get(key).await;
                            assert!(matches!(got, Ok(Some(_))), "every key was preloaded");
                        }
                    }
                    completed.set(completed.get() + 1);
                    k += KEY_STRIDE;
                }
            })
        })
        .collect();
    Load::of(&sim, tasks, &completed)
}

/// Sliding windows of gets, `depth` handles in flight per client (claimed
/// oldest first), until `ops` have completed in total.
fn pipelined_gets(world: &World, clients: &[McClient], depth: usize, ops: u64) -> Load {
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
        clients: u32,
        value_size: usize,
        drive: fn(&Shape, u64) -> Load,
    ) -> Shape {
        let server = McServer::start(&world, SERVER, server);
        let clients: Vec<McClient> = (0..clients)
            .map(|c| {
                McClient::new(
                    &world,
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
        Shape {
            name,
            world,
            server,
            clients,
            drive,
        }
    }

    fn run(&self, ops: u64) -> Load {
        (self.drive)(self, ops)
    }

    /// Where `ops` more operations allocate: per call site (the innermost
    /// frame in `crates/`), allocations and bytes in total, most allocations
    /// first, and the operations they took. Slow: every allocation takes a
    /// backtrace.
    fn census(&self, ops: u64) -> (Census, u64) {
        let table: &'static SiteTable = Box::leak(Box::default());
        SITES.set(Some(table));
        let ops = self.run(ops).ops;
        SITES.set(None);
        let mut sites: Vec<_> = table.borrow_mut().drain().collect();
        sites.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        (sites, ops)
    }

    /// Warms the testbed up, then holds a measured run to `budget`
    /// allocations per operation and to an event queue of live events.
    /// Returns the measured run.
    fn stays_within(&self, budget: f64) -> Load {
        self.run(WARMUP_OPS);
        let load = self.run(MEASURED_OPS);
        let per_op = load.allocs_per_op();
        assert!(
            per_op <= budget,
            "{}: {per_op:.2} allocations per operation (budget {budget})",
            self.name
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
}

/// The paper's Fig. 6(c) point: 16 UCR clients, 4 B gets, Cluster B.
fn ucr_small_gets() -> Shape {
    const CLIENTS: u32 = 16;
    Shape::new(
        "ucr_small_gets",
        World::cluster_b(42, CLIENTS + 1),
        McServerConfig::default(),
        Transport::Ucr,
        CLIENTS,
        4,
        |s, ops| closed_loop(&s.world, &s.clients, ops, None),
    )
}

/// The same 16 clients at depth 8 against 8 workers over 16 store shards
/// (the benchmark's `ucr_pipelined_sharded_16c` shape). Requests and
/// replies queued behind a backed-up send share network buffers here.
fn ucr_pipelined_gets() -> Shape {
    const CLIENTS: u32 = 16;
    let sharded = McServerConfig {
        workers: 8,
        store_model: StoreModel::Sharded(16),
        ..Default::default()
    };
    Shape::new(
        "ucr_pipelined_gets",
        World::cluster_b(42, CLIENTS + 1),
        sharded,
        Transport::Ucr,
        CLIENTS,
        64,
        |s, ops| pipelined_gets(&s.world, &s.clients, 8, ops),
    )
}

/// The sockets baseline: 8 ASCII clients over 10GigE-TOE, 1 KB gets.
fn ascii_socket_gets() -> Shape {
    const CLIENTS: u32 = 8;
    Shape::new(
        "ascii_socket_gets",
        World::cluster_a(42, CLIENTS + 1),
        McServerConfig::default(),
        Transport::Sockets(Stack::TenGigEToe),
        CLIENTS,
        1024,
        |s, ops| closed_loop(&s.world, &s.clients, ops, None),
    )
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
        CLIENTS,
        1024,
        |s, ops| closed_loop(&s.world, &s.clients, ops, Some(&[7u8; 1024])),
    )
}

#[test]
fn ucr_small_gets_stay_within_the_allocation_budget() {
    ucr_small_gets().stays_within(4.0); // measured 3.00
}

#[test]
fn ucr_pipelined_gets_stay_within_the_allocation_budget() {
    let shape = ucr_pipelined_gets();
    shape.stays_within(4.5); // measured 3.02
    let rt = shape.server.ucr_runtime().expect("UCR server");
    assert!(
        rt.stats().eager_coalesced.get() > 0,
        "replies shared buffers"
    );
}

#[test]
fn ascii_socket_gets_stay_within_the_allocation_budget() {
    ascii_socket_gets().stays_within(9.0); // measured 7.00
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
        let (sites, ops) = shape.census(OPS);
        assert!(ops >= OPS && !sites.is_empty(), "{}: a census", shape.name);
        let in_store: Vec<_> = sites
            .iter()
            .filter(|(site, _)| site.contains("crates/store/"))
            .collect();
        assert!(in_store.is_empty(), "{}: {in_store:?}", shape.name);
    }
}

#[test]
fn ascii_socket_sets_and_gets_stay_within_the_allocation_budget() {
    ascii_socket_sets_and_gets().stays_within(9.0); // measured 6.50
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
    set.extras = store_extras(1, 0);
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

/// A 4 KB get copies its value into one allocation, the client's own
/// `Value`: the server writes the hit from the store straight into a
/// registered send buffer from the pool, and the target HCA lands it in a
/// pooled receive buffer.
#[test]
fn ucr_4k_gets_stay_within_the_allocation_budget() {
    let load = ucr_4k_gets().stays_within(4.0); // measured 3.00
    let bytes = load.bytes_per_op();
    assert!(
        bytes <= (4096 + 256) as f64,
        "ucr_4k_gets: {bytes:.0} bytes allocated per operation"
    );
}

/// 64 KB values, sets and gets by turns: every value travels by rendezvous,
/// a read request out and the data back, the four-stage flight. Both ends
/// draw the source and the landing region of a rendezvous from their
/// runtime's pool and give them back when the read is done, so the one
/// 64 KB allocation left is the client's own value, on a get.
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

#[test]
fn ucr_64k_sets_and_gets_stay_within_the_allocation_budget() {
    let load = ucr_64k_sets_and_gets().stays_within(7.5); // measured 7.00
    let bytes = load.bytes_per_op();
    assert!(
        bytes <= (65_536 / 2 + 2_048) as f64,
        "ucr_64k_sets_and_gets: {bytes:.0} bytes allocated per operation"
    );
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
/// `cargo test --test alloc_budget -- --ignored --nocapture`.
#[test]
#[ignore = "prints the allocation site table; slow"]
fn print_allocation_sites() {
    const OPS: u64 = 1_000;
    let shapes = [
        ucr_small_gets(),
        ucr_4k_gets(),
        ucr_pipelined_gets(),
        ascii_socket_gets(),
        ascii_socket_sets_and_gets(),
        ucr_64k_sets_and_gets(),
    ];
    for shape in shapes {
        shape.run(WARMUP_OPS);
        let (sites, ops) = shape.census(OPS);
        let ops = ops as f64;
        // Summed over the table: the run's own count includes what taking
        // the backtraces allocated.
        let (allocs, bytes) = sites
            .iter()
            .fold((0, 0), |sum, (_, site)| (sum.0 + site.0, sum.1 + site.1));
        println!(
            "\n{}: {:.2} allocs/op, {:.0} bytes/op over {ops} operations",
            shape.name,
            allocs as f64 / ops,
            bytes as f64 / ops
        );
        println!("{:>10} {:>10}  site", "allocs/op", "bytes/op");
        for (site, (count, bytes)) in sites {
            let (count, bytes) = (count as f64 / ops, bytes as f64 / ops);
            if count >= 0.005 {
                println!("{count:>10.2} {bytes:>10.0}  {site}");
            }
        }
    }
}
