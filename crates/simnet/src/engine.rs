//! The discrete-event engine and the cooperative task executor.
//!
//! A [`Sim`] owns a virtual clock, a time-ordered event queue, and a
//! single-threaded executor for `async` tasks. Events come in three kinds:
//! timers ([`sleep`](Sim::sleep)), targeted events — a token handed to an
//! [`EventTarget`] ([`schedule_target_at`](Sim::schedule_target_at)) — and
//! closures ([`schedule_at`](Sim::schedule_at)); tasks are futures that
//! suspend on simulation primitives (timers, channels, [`crate::sync`]
//! waiters) and are woken by events. Ties in the event queue are broken by
//! insertion order, whatever the kind, which makes every run fully
//! deterministic: the same program and seed produce the identical event
//! trace, nanosecond for nanosecond.
//!
//! The executor is deliberately tiny — no work stealing, no threads — because
//! simulated time, not wall time, is the quantity under measurement. Its
//! steady state allocates nothing: timers and tasks live in generation-checked
//! slabs ([`Slab`]), a task's waker is built once when it is spawned, a timer
//! that is dropped before it fires leaves the queue, and a targeted event is
//! an `Rc` clone and a word. A closure is boxed, which is why the data path —
//! every work request, socket segment and staged reply — schedules targeted
//! events and closures are left to what happens once per connection (see
//! `DESIGN.md` §2).

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::future::Future;
use std::marker::PhantomData;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::task::{Context, Poll, Wake, Waker};

use crate::rng::SimRng;
use crate::slab::{Slab, SlabKey};
use crate::time::{SimDuration, SimTime};

/// Identifier of a spawned task.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TaskId(SlabKey);

/// Handle of a pending or fired timer, held by [`crate::sync::Sleep`].
#[derive(Clone, Copy)]
pub(crate) struct TimerKey(SlabKey);

/// A task's future, its output type erased so the task table holds tasks of
/// every type. Unit outputs — every fire-and-forget task — box for free.
type TaskFuture = Pin<Box<dyn Future<Output = Box<dyn Any>>>>;

/// Receives the events scheduled for it with
/// [`Sim::schedule_target_at`]: the allocation-free form of an event, for
/// what happens once per message and not once per connection. The target
/// keeps what the event needs in a record of its own (typically in a
/// [`Slab`]) and finds it again by the token.
pub trait EventTarget {
    /// The event scheduled with `token` has come due.
    fn fire(self: Rc<Self>, token: u64);
}

enum Action {
    /// Mark the timer fired and wake whoever polled its `Sleep`.
    Timer(TimerKey),
    /// Run the closure.
    Call(Box<dyn FnOnce()>),
    /// Hand the token to the target.
    Target(Rc<dyn EventTarget>, u64),
}

/// An event queue entry: perform `action` at `time`. `seq` breaks ties so
/// that two events scheduled for the same instant fire in scheduling order.
struct EventEntry {
    time: SimTime,
    seq: u64,
    action: Action,
}

impl EventEntry {
    /// False for the entry a cancelled timer left behind.
    fn is_live(&self, timers: &Slab<Timer>) -> bool {
        match self.action {
            Action::Timer(key) => timers.contains(key.0),
            Action::Call(_) | Action::Target(..) => true,
        }
    }
}

impl PartialEq for EventEntry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for EventEntry {}
impl PartialOrd for EventEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EventEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// The time-ordered queue. A cancelled timer's entry stays in the heap as a
/// tombstone (it no longer resolves in the timer slab) until it reaches the
/// top or the tombstones outnumber the live entries, when the heap is rebuilt
/// without them: the heap is never more than twice the live events long.
struct EventQueue {
    heap: BinaryHeap<Reverse<EventEntry>>,
    tombstones: usize,
}

struct Timer {
    fired: bool,
    waker: Option<Waker>,
}

struct Task {
    /// The future and the waker built when the task was spawned. Both are out
    /// of the table while the task is polled (a poll may spawn or wake other
    /// tasks) and gone once it has finished.
    idle: Option<(TaskFuture, Waker)>,
    /// The finished task's output, waiting for the join handle.
    output: Option<Box<dyn Any>>,
    join_waker: Option<Waker>,
    /// The join handle is gone: free the slot when the task finishes.
    detached: bool,
}

/// Tasks ready to be polled. Shared with wakers, hence the (uncontended)
/// mutex: `std::task::Wake` requires `Send + Sync` even though this executor
/// never leaves one thread (see `DESIGN.md` §2 for why not a
/// `RawWaker` over `Rc`).
type ReadyQueue = Arc<Mutex<VecDeque<TaskId>>>;

/// The guard is only ever held for one `push_back` or `pop_front`, neither of
/// which can leave the queue half-updated, so a poisoned lock is still valid.
fn lock_ready(ready: &ReadyQueue) -> MutexGuard<'_, VecDeque<TaskId>> {
    ready.lock().unwrap_or_else(PoisonError::into_inner)
}

struct SimWaker {
    id: TaskId,
    ready: ReadyQueue,
}

impl Wake for SimWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        lock_ready(&self.ready).push_back(self.id);
    }
}

struct EngineCore {
    now: Cell<SimTime>,
    seq: Cell<u64>,
    events: RefCell<EventQueue>,
    timers: RefCell<Slab<Timer>>,
    ready: ReadyQueue,
    tasks: RefCell<Slab<Task>>,
    live_tasks: Cell<usize>,
    events_executed: Cell<u64>,
    polls: Cell<u64>,
    rng: RefCell<SimRng>,
}

/// Handle to the simulation world. Cheap to clone; all clones share state.
#[derive(Clone)]
pub struct Sim {
    core: Rc<EngineCore>,
}

/// Await side of [`Sim::spawn`]: resolves with the task's output once the
/// task completes. Dropping the handle detaches the task (it keeps running).
pub struct JoinHandle<T> {
    sim: Sim,
    id: TaskId,
    _output: PhantomData<fn() -> T>,
}

impl<T: 'static> JoinHandle<T> {
    /// The task's output if it has finished; claiming it frees the task's
    /// slot.
    fn try_take(&self) -> Option<T> {
        let mut tasks = self.sim.core.tasks.borrow_mut();
        tasks.get_mut(self.id.0)?.output.as_ref()?;
        let out = tasks.remove(self.id.0)?.output?.downcast();
        Some(*out.expect("a task's output has its handle's type"))
    }
}

impl<T: 'static> Future for JoinHandle<T> {
    type Output = T;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        if let Some(out) = self.try_take() {
            return Poll::Ready(out);
        }
        let mut tasks = self.sim.core.tasks.borrow_mut();
        let task = tasks
            .get_mut(self.id.0)
            .expect("join handle polled after it returned the task's output");
        if !matches!(&task.join_waker, Some(w) if w.will_wake(cx.waker())) {
            task.join_waker = Some(cx.waker().clone());
        }
        Poll::Pending
    }
}

impl<T> Drop for JoinHandle<T> {
    fn drop(&mut self) {
        let mut tasks = self.sim.core.tasks.borrow_mut();
        let Some(task) = tasks.get_mut(self.id.0) else {
            return; // output already claimed
        };
        task.detached = true;
        if task.output.is_some() {
            let finished = tasks.remove(self.id.0);
            // The unclaimed output may itself hold simulation handles: drop
            // it with the table released.
            drop(tasks);
            drop(finished);
        }
    }
}

impl Sim {
    /// Creates a fresh simulation world with the given RNG seed.
    pub fn new(seed: u64) -> Sim {
        Sim {
            core: Rc::new(EngineCore {
                now: Cell::new(SimTime::ZERO),
                seq: Cell::new(0),
                events: RefCell::new(EventQueue {
                    heap: BinaryHeap::new(),
                    tombstones: 0,
                }),
                timers: RefCell::new(Slab::new()),
                ready: ReadyQueue::default(),
                tasks: RefCell::new(Slab::new()),
                live_tasks: Cell::new(0),
                events_executed: Cell::new(0),
                polls: Cell::new(0),
                rng: RefCell::new(SimRng::new(seed)),
            }),
        }
    }

    /// The current instant on the virtual clock.
    pub fn now(&self) -> SimTime {
        self.core.now.get()
    }

    /// Runs `f` with the simulation's deterministic RNG.
    pub fn with_rng<R>(&self, f: impl FnOnce(&mut SimRng) -> R) -> R {
        f(&mut self.core.rng.borrow_mut())
    }

    /// Schedules `action` to run after `delay`.
    pub fn schedule(&self, delay: SimDuration, action: impl FnOnce() + 'static) {
        self.schedule_at(self.now() + delay, action);
    }

    /// Schedules `action` to run at absolute time `at`. Scheduling in the
    /// past is a logic error and panics: it would rewind causality.
    pub fn schedule_at(&self, at: SimTime, action: impl FnOnce() + 'static) {
        self.enqueue(at, Action::Call(Box::new(action)));
    }

    /// Schedules `target` to be handed `token` at absolute time `at`. Queued
    /// exactly as [`schedule_at`](Sim::schedule_at) queues a closure — the
    /// same clock check, the same place among same-instant events — and
    /// nothing is allocated for it.
    pub fn schedule_target_at(&self, at: SimTime, target: Rc<dyn EventTarget>, token: u64) {
        self.enqueue(at, Action::Target(target, token));
    }

    fn enqueue(&self, at: SimTime, action: Action) {
        assert!(
            at >= self.now(),
            "cannot schedule event in the past: at={at:?} now={:?}",
            self.now()
        );
        let seq = self.core.seq.get();
        self.core.seq.set(seq + 1);
        self.core.events.borrow_mut().heap.push(Reverse(EventEntry {
            time: at,
            seq,
            action,
        }));
    }

    /// Arms a timer for `at`. Its queue entry is made now, so it takes its
    /// place among same-instant events by when it was armed, not by when its
    /// `Sleep` is first polled.
    pub(crate) fn start_timer(&self, at: SimTime) -> TimerKey {
        let key = TimerKey(self.core.timers.borrow_mut().insert(Timer {
            fired: false,
            waker: None,
        }));
        self.enqueue(at, Action::Timer(key));
        key
    }

    /// Ready once the timer has fired; until then the timer wakes `cx`.
    pub(crate) fn poll_timer(&self, key: TimerKey, cx: &mut Context<'_>) -> Poll<()> {
        let mut timers = self.core.timers.borrow_mut();
        let timer = timers.get_mut(key.0).expect("a Sleep owns its timer");
        if timer.fired {
            return Poll::Ready(());
        }
        if !matches!(&timer.waker, Some(w) if w.will_wake(cx.waker())) {
            timer.waker = Some(cx.waker().clone());
        }
        Poll::Pending
    }

    /// Releases the timer; one that has not fired leaves the event queue. A
    /// key whose timer is already gone is ignored.
    pub(crate) fn cancel_timer(&self, key: TimerKey) {
        let mut timers = self.core.timers.borrow_mut();
        match timers.remove(key.0) {
            Some(timer) if !timer.fired => {}
            _ => return,
        }
        let mut events = self.core.events.borrow_mut();
        events.tombstones += 1;
        if events.tombstones * 2 > events.heap.len() {
            events.heap.retain(|Reverse(entry)| entry.is_live(&timers));
            events.tombstones = 0;
        }
    }

    /// Spawns a task on the executor. The task starts at the next executor
    /// dispatch (it does not run synchronously inside `spawn`).
    pub fn spawn<T: 'static>(&self, fut: impl Future<Output = T> + 'static) -> JoinHandle<T> {
        let fut: TaskFuture = Box::pin(async move { Box::new(fut.await) as Box<dyn Any> });
        let id = TaskId(self.core.tasks.borrow_mut().insert_with(|key| {
            let waker = Waker::from(Arc::new(SimWaker {
                id: TaskId(key),
                ready: self.core.ready.clone(),
            }));
            Task {
                idle: Some((fut, waker)),
                output: None,
                join_waker: None,
                detached: false,
            }
        }));
        self.core.live_tasks.set(self.core.live_tasks.get() + 1);
        lock_ready(&self.core.ready).push_back(id);
        JoinHandle {
            sim: self.clone(),
            id,
            _output: PhantomData,
        }
    }

    /// A future that completes after `d` of simulated time.
    pub fn sleep(&self, d: SimDuration) -> crate::sync::Sleep {
        crate::sync::Sleep::start(self, d)
    }

    /// A future that completes at absolute time `at` (immediately if `at` has
    /// passed).
    pub fn sleep_until(&self, at: SimTime) -> crate::sync::Sleep {
        let d = at.saturating_since(self.now());
        crate::sync::Sleep::start(self, d)
    }

    /// Runs the simulation until both the event queue and the ready queue are
    /// empty. Returns the final virtual time: that of the last event
    /// executed (a cancelled timer is not an event).
    pub fn run(&self) -> SimTime {
        self.run_inner(None)
    }

    /// Runs the simulation until `deadline` (events at exactly `deadline`
    /// still fire). Returns the virtual time when the run stopped.
    pub fn run_until(&self, deadline: SimTime) -> SimTime {
        self.run_inner(Some(deadline))
    }

    /// Drives the world until `main` completes, then returns its output.
    /// Other pending tasks/events are left in place and can be resumed with
    /// further `run*` or `block_on` calls.
    pub fn block_on<T: 'static>(&self, main: impl Future<Output = T> + 'static) -> T {
        let main = self.spawn(main);
        loop {
            if let Some(out) = main.try_take() {
                return out;
            }
            if !self.step() {
                panic!(
                    "simulation deadlock: block_on future is pending but no events remain \
                     (a task is waiting on something that will never happen)"
                );
            }
        }
    }

    /// Executes one unit of work (all currently-ready task polls, or one
    /// event). Returns false when nothing remains.
    fn step(&self) -> bool {
        if self.drain_ready() {
            return true;
        }
        match self.next_event(None) {
            Some(ev) => {
                self.fire(ev);
                self.drain_ready();
                true
            }
            None => false,
        }
    }

    fn run_inner(&self, deadline: Option<SimTime>) -> SimTime {
        loop {
            if self.drain_ready() {
                continue;
            }
            match self.next_event(deadline) {
                Some(ev) => self.fire(ev),
                None => {
                    if let Some(d) = deadline {
                        self.core.now.set(d.max(self.core.now.get()));
                    }
                    return self.now();
                }
            }
        }
    }

    /// Pops the earliest event, unless it lies beyond `deadline`. Tombstones
    /// that have reached the top are discarded on the way, so neither the
    /// clock nor the deadline check ever sees a cancelled timer.
    fn next_event(&self, deadline: Option<SimTime>) -> Option<EventEntry> {
        let mut events = self.core.events.borrow_mut();
        let timers = self.core.timers.borrow();
        loop {
            let Reverse(top) = events.heap.peek()?;
            if !top.is_live(&timers) {
                events.heap.pop();
                events.tombstones -= 1;
                continue;
            }
            if deadline.is_some_and(|d| top.time > d) {
                return None;
            }
            return events.heap.pop().map(|Reverse(entry)| entry);
        }
    }

    fn fire(&self, ev: EventEntry) {
        debug_assert!(ev.time >= self.core.now.get());
        self.core.now.set(ev.time);
        self.core
            .events_executed
            .set(self.core.events_executed.get() + 1);
        match ev.action {
            Action::Call(action) => action(),
            Action::Target(target, token) => target.fire(token),
            Action::Timer(key) => {
                let waker = self.core.timers.borrow_mut().get_mut(key.0).and_then(|t| {
                    t.fired = true;
                    t.waker.take()
                });
                if let Some(waker) = waker {
                    waker.wake();
                }
            }
        }
    }

    /// Polls every task currently in the ready queue. Returns true if any
    /// task was polled.
    fn drain_ready(&self) -> bool {
        let mut any = false;
        loop {
            let id = match lock_ready(&self.core.ready).pop_front() {
                Some(id) => id,
                None => break,
            };
            // Take the future out of its slot so the task table is not
            // borrowed while polling (a poll may spawn or wake other tasks).
            let mut tasks = self.core.tasks.borrow_mut();
            let idle = tasks.get_mut(id.0).and_then(|task| task.idle.take());
            drop(tasks);
            let Some((mut fut, waker)) = idle else {
                continue; // finished, or woke itself mid-poll: stale wake
            };
            any = true;
            self.core.polls.set(self.core.polls.get() + 1);
            let polled = fut.as_mut().poll(&mut Context::from_waker(&waker));
            let mut tasks = self.core.tasks.borrow_mut();
            let task = tasks
                .get_mut(id.0)
                .expect("a task keeps its slot while polled");
            match polled {
                Poll::Pending => task.idle = Some((fut, waker)),
                Poll::Ready(out) => {
                    self.core.live_tasks.set(self.core.live_tasks.get() - 1);
                    if task.detached {
                        let finished = tasks.remove(id.0);
                        // Futures and outputs may hold simulation handles
                        // whose drop re-enters the engine: release the
                        // table first.
                        drop(tasks);
                        drop((finished, out, fut));
                    } else {
                        task.output = Some(out);
                        let join_waker = task.join_waker.take();
                        drop(tasks);
                        drop(fut);
                        if let Some(w) = join_waker {
                            w.wake();
                        }
                    }
                }
            }
        }
        any
    }

    /// Number of events executed so far (diagnostics, determinism checks).
    /// A timer cancelled before its instant never executes.
    pub fn events_executed(&self) -> u64 {
        self.core.events_executed.get()
    }

    /// Number of task polls so far (diagnostics, determinism checks).
    pub fn task_polls(&self) -> u64 {
        self.core.polls.get()
    }

    /// Number of tasks that have been spawned and not yet completed.
    pub fn live_tasks(&self) -> usize {
        self.core.live_tasks.get()
    }

    /// Number of events waiting to execute: scheduled closures, targeted
    /// events and armed timers, not counting timers that were cancelled.
    pub fn pending_events(&self) -> usize {
        let events = self.core.events.borrow();
        events.heap.len() - events.tombstones
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn events_fire_in_time_order() {
        let sim = Sim::new(1);
        let log: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        for &d in &[30u64, 10, 20] {
            let log = log.clone();
            sim.schedule(SimDuration::from_nanos(d), move || log.borrow_mut().push(d));
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![10, 20, 30]);
        assert_eq!(sim.now().as_nanos(), 30);
    }

    #[test]
    fn same_instant_fires_in_scheduling_order() {
        let sim = Sim::new(1);
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        for i in 0..16u32 {
            let log = log.clone();
            sim.schedule(SimDuration::from_nanos(5), move || log.borrow_mut().push(i));
        }
        sim.run();
        assert_eq!(*log.borrow(), (0..16).collect::<Vec<_>>());
    }

    /// The three kinds of event share one queue and one sequence: what is
    /// scheduled for one instant fires in scheduling order whatever its kind,
    /// so a closure turned into a targeted event keeps its place.
    #[test]
    fn closures_timers_and_targeted_events_share_one_order() {
        struct Log(RefCell<Vec<u64>>);
        impl EventTarget for Log {
            fn fire(self: Rc<Self>, token: u64) {
                self.0.borrow_mut().push(token);
            }
        }
        let sim = Sim::new(1);
        let log = Rc::new(Log(RefCell::new(Vec::new())));
        let at = SimTime::from_nanos(5);
        for i in 0..30u64 {
            let log = log.clone();
            match i % 3 {
                0 => sim.schedule_at(at, move || log.0.borrow_mut().push(i)),
                1 => sim.schedule_target_at(at, log, i),
                _ => {
                    // Armed now, first polled only when the task runs.
                    let sleep = sim.sleep_until(at);
                    sim.spawn(async move {
                        sleep.await;
                        log.0.borrow_mut().push(i);
                    });
                }
            }
        }
        assert_eq!(sim.pending_events(), 30);
        sim.run();
        assert_eq!(*log.0.borrow(), (0..30).collect::<Vec<_>>());
        assert_eq!(sim.events_executed(), 30);
    }

    #[test]
    fn nested_scheduling() {
        let sim = Sim::new(1);
        let log: Rc<RefCell<Vec<&'static str>>> = Rc::new(RefCell::new(Vec::new()));
        {
            let sim2 = sim.clone();
            let log = log.clone();
            sim.schedule(SimDuration::from_nanos(10), move || {
                log.borrow_mut().push("outer");
                let log = log.clone();
                sim2.schedule(SimDuration::from_nanos(5), move || {
                    log.borrow_mut().push("inner");
                });
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec!["outer", "inner"]);
        assert_eq!(sim.now().as_nanos(), 15);
    }

    #[test]
    #[should_panic(expected = "cannot schedule event in the past")]
    fn scheduling_in_the_past_panics() {
        let sim = Sim::new(1);
        sim.schedule(SimDuration::from_nanos(100), {
            let sim = sim.clone();
            move || sim.schedule_at(SimTime::from_nanos(50), || {})
        });
        sim.run();
    }

    #[test]
    fn block_on_sleep_advances_clock() {
        let sim = Sim::new(1);
        let s = sim.clone();
        sim.block_on(async move {
            s.sleep(SimDuration::from_micros(7)).await;
        });
        assert_eq!(sim.now().as_nanos(), 7_000);
    }

    #[test]
    fn spawn_and_join() {
        let sim = Sim::new(1);
        let s = sim.clone();
        let got = sim.block_on(async move {
            let inner = s.clone();
            let h = s.spawn(async move {
                inner.sleep(SimDuration::from_nanos(42)).await;
                99u32
            });
            h.await
        });
        assert_eq!(got, 99);
        assert_eq!(sim.now().as_nanos(), 42);
    }

    #[test]
    fn run_until_respects_deadline() {
        let sim = Sim::new(1);
        let hits: Rc<Cell<u32>> = Rc::new(Cell::new(0));
        for d in [10u64, 20, 30, 40] {
            let hits = hits.clone();
            sim.schedule(SimDuration::from_nanos(d), move || hits.set(hits.get() + 1));
        }
        sim.run_until(SimTime::from_nanos(25));
        assert_eq!(hits.get(), 2);
        assert_eq!(sim.now().as_nanos(), 25);
        sim.run();
        assert_eq!(hits.get(), 4);
    }

    #[test]
    #[should_panic(expected = "simulation deadlock")]
    fn block_on_detects_deadlock() {
        let sim = Sim::new(1);
        sim.block_on(async {
            // A future that never resolves and has no event behind it.
            std::future::pending::<()>().await;
        });
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn run_once(seed: u64) -> (u64, u64, u64) {
            let sim = Sim::new(seed);
            let s = sim.clone();
            sim.block_on(async move {
                for _ in 0..50 {
                    let jitter = s.with_rng(|r| r.gen_range_u64(1, 100));
                    s.sleep(SimDuration::from_nanos(jitter)).await;
                }
            });
            (
                sim.now().as_nanos(),
                sim.events_executed(),
                sim.task_polls(),
            )
        }
        assert_eq!(run_once(7), run_once(7));
        // A different seed should (overwhelmingly likely) produce a
        // different finishing time.
        assert_ne!(run_once(7).0, run_once(8).0);
    }

    #[test]
    fn many_tasks_interleave_deterministically() {
        let sim = Sim::new(3);
        let log: Rc<RefCell<Vec<(u32, u64)>>> = Rc::new(RefCell::new(Vec::new()));
        for i in 0..8u32 {
            let s = sim.clone();
            let log = log.clone();
            sim.spawn(async move {
                for step in 0..4u64 {
                    s.sleep(SimDuration::from_nanos(10 * (i as u64 + 1))).await;
                    log.borrow_mut().push((i, step));
                }
            });
        }
        sim.run();
        let first = log.borrow().clone();

        let sim2 = Sim::new(3);
        let log2: Rc<RefCell<Vec<(u32, u64)>>> = Rc::new(RefCell::new(Vec::new()));
        for i in 0..8u32 {
            let s = sim2.clone();
            let log = log2.clone();
            sim2.spawn(async move {
                for step in 0..4u64 {
                    s.sleep(SimDuration::from_nanos(10 * (i as u64 + 1))).await;
                    log.borrow_mut().push((i, step));
                }
            });
        }
        sim2.run();
        assert_eq!(first, *log2.borrow());
    }

    fn noop_cx() -> Context<'static> {
        Context::from_waker(Waker::noop())
    }

    #[test]
    fn dropping_an_unpolled_sleep_cancels_it() {
        let sim = Sim::new(1);
        sim.schedule(SimDuration::from_nanos(10), || {});
        let sleep = sim.sleep(SimDuration::from_millis(250));
        assert_eq!(sim.pending_events(), 2);
        drop(sleep);
        assert_eq!(sim.pending_events(), 1);
        // The run ends at the last live event: the cancelled timer neither
        // executes nor moves the clock.
        assert_eq!(sim.run().as_nanos(), 10);
        assert_eq!(sim.events_executed(), 1);
    }

    #[test]
    fn cancelled_timers_keep_same_instant_order() {
        let sim = Sim::new(1);
        let at = SimDuration::from_nanos(5);
        // Armed in index order; every other one is cancelled, and the rest
        // are awaited in reverse: firing order is arming order all the same.
        let mut sleeps: Vec<_> = (0..16u32).map(|i| (i, sim.sleep(at))).collect();
        sleeps.retain(|(i, _)| i % 2 == 0);
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        for (i, sleep) in sleeps.into_iter().rev() {
            let log = log.clone();
            sim.spawn(async move {
                sleep.await;
                log.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![0, 2, 4, 6, 8, 10, 12, 14]);
        assert_eq!(sim.events_executed(), 8);
    }

    #[test]
    fn stale_timer_key_cannot_touch_the_slot_s_next_timer() {
        let sim = Sim::new(1);
        let old = sim.start_timer(SimTime::from_nanos(10));
        sim.cancel_timer(old);
        let new = sim.start_timer(SimTime::from_nanos(20));
        assert_eq!(old.0.slot, new.0.slot, "the slot is reused");
        assert_ne!(old.0.generation, new.0.generation);

        // A second cancel through the stale key is ignored...
        sim.cancel_timer(old);
        assert_eq!(sim.pending_events(), 1);
        // ...and the cancelled timer's instant passes without firing the
        // slot's new occupant.
        sim.run_until(SimTime::from_nanos(15));
        assert_eq!(sim.events_executed(), 0);
        assert!(sim.poll_timer(new, &mut noop_cx()).is_pending());

        assert_eq!(sim.run().as_nanos(), 20);
        assert!(sim.poll_timer(new, &mut noop_cx()).is_ready());
        sim.cancel_timer(new);
    }

    #[test]
    fn queue_length_follows_live_timers() {
        let sim = Sim::new(1);
        let keep = sim.sleep(SimDuration::from_millis(1));
        for _ in 0..10_000 {
            drop(sim.sleep(SimDuration::from_millis(250)));
            assert_eq!(sim.pending_events(), 1);
            let heap = sim.core.events.borrow().heap.len();
            assert!(heap <= 3, "{heap} queue entries for one live timer");
        }
        drop(keep);
        assert_eq!(sim.pending_events(), 0);
    }

    #[test]
    fn a_finished_task_s_slot_is_reused() {
        let sim = Sim::new(1);
        for round in 0..1_000u32 {
            let joined = sim.spawn(async move { round });
            sim.spawn(async {}); // detached
            let s = sim.clone();
            assert_eq!(
                sim.block_on(async move { joined.await + s.spawn(async { 1 }).await }),
                round + 1
            );
            assert_eq!(sim.live_tasks(), 0);
        }
        assert!(sim.core.tasks.borrow().slots.len() <= 4);
    }
}
