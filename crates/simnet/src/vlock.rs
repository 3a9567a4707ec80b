//! Virtual-time mutex with contention accounting.
//!
//! Real memcached's worker scaling is bounded by its coarse locks (the
//! global `slabs_lock` / item-lock discipline), not by the network. To let
//! the simulation *exhibit* that ceiling instead of idealizing it away,
//! a `VLock` models a mutex over simulated time: acquiring an uncontended
//! lock costs **zero virtual nanoseconds**, while a contended acquire parks
//! the task on a FIFO waiter queue until the holder releases — exactly the
//! serialization a kernel futex or pthread mutex imposes, minus the
//! (irrelevant for our model) atomic-instruction cost.
//!
//! `VLock` is private to this module: the one way to take one is
//! [`VLockTable::lock`], which takes a *range* of a table's locks in
//! ascending index order — the total order that makes holding several at
//! once deadlock-free (DESIGN.md §12). An acquisition in any other order
//! cannot be written outside this file.
//!
//! Every lock books acquisitions, contention and cumulative wait/hold
//! time in four [`Counter`]s — its own, or registry counters handed in at
//! construction (the per-shard `mc.nodeN.shardS.*` families), which are
//! then the lock's only books — and can emit `lock_wait` / `lock_hold`
//! tracer spans on [`Layer::Core`] so contention shows up on the Perfetto
//! timeline next to worker service spans.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::ops::Range;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::engine::Sim;
use crate::fabric::NodeId;
use crate::metrics::Counter;
use crate::time::{SimDuration, SimTime};
use crate::trace::{Layer, Tracer, Track};

/// The four counters one lock of a [`VLockTable`] keeps its accounting
/// in. Names follow the per-shard metric family
/// `mc.nodeN.shardS.{ops,lock_wait_ns,lock_hold_ns,contended}`.
#[derive(Clone, Default)]
pub struct VLockMeters {
    /// Successful acquisitions (`.ops`).
    pub ops: Rc<Counter>,
    /// Cumulative nanoseconds spent waiting for the lock (`.lock_wait_ns`).
    pub lock_wait_ns: Rc<Counter>,
    /// Cumulative nanoseconds the lock was held (`.lock_hold_ns`).
    pub lock_hold_ns: Rc<Counter>,
    /// Acquisitions that had to park because the lock was busy
    /// (`.contended`).
    pub contended: Rc<Counter>,
}

/// Point-in-time totals for one lock (see [`VLockTable::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VLockStats {
    /// Successful acquisitions.
    pub acquires: u64,
    /// Acquisitions that found the lock busy and parked.
    pub contended: u64,
    /// Total virtual time spent waiting across all acquires.
    pub wait_total: SimDuration,
    /// Total virtual time the lock was held.
    pub hold_total: SimDuration,
}

/// One parked task: granted by the releaser in FIFO order (direct handoff),
/// so a stream of later arrivals can never starve an early waiter.
struct Waiter {
    ticket: u64,
    granted: bool,
    enqueued_at: SimTime,
    waker: Option<Waker>,
}

struct LockState {
    locked: bool,
    queue: VecDeque<Rc<RefCell<Waiter>>>,
    next_ticket: u64,
}

/// Tracer binding for `lock_wait`/`lock_hold` spans (see `VLock::new`).
struct TraceBinding {
    tracer: Rc<Tracer>,
    node: NodeId,
}

/// The locks guarding a sharded store, one per shard, and the only way to
/// take them.
pub struct VLockTable {
    locks: Vec<Rc<VLock>>,
}

impl VLockTable {
    /// One lock per entry of `meters`, on `sim`'s clock (see `VLock::new`
    /// for what the meters and `trace` receive).
    pub fn new(
        sim: &Sim,
        meters: impl IntoIterator<Item = VLockMeters>,
        trace: Option<(Rc<Tracer>, NodeId)>,
    ) -> VLockTable {
        let locks = meters
            .into_iter()
            .map(|m| VLock::new(sim, m, trace.clone()))
            .collect();
        VLockTable { locks }
    }

    /// True when the table has no lock (an unlocked store).
    pub fn is_empty(&self) -> bool {
        self.locks.is_empty()
    }

    /// Acquires the locks of `shards` in ascending order (a range walks
    /// that way: the deadlock-free total order). `op` and `track` label
    /// the tracer spans (the request id and worker lane of the acquiring
    /// task).
    pub async fn lock(&self, shards: Range<usize>, op: u64, track: Track) -> Held {
        let mut held = Held::default();
        for lock in &self.locks[shards] {
            let guard = lock.lock(op, track).await;
            match held.first {
                None => held.first = Some(guard),
                Some(_) => held.rest.push(guard),
            }
        }
        held
    }

    /// Totals so far, per lock in index order.
    pub fn stats(&self) -> Vec<VLockStats> {
        self.locks.iter().map(|l| l.stats()).collect()
    }
}

/// The locks one [`VLockTable::lock`] took, in acquisition order. A
/// one-lock range is held inline: only a range of several allocates.
/// Fields drop in declaration order, so the guards are released in the
/// order they were taken — release order decides which waiter is handed a
/// lock first, and with it the schedule.
#[derive(Default)]
pub struct Held {
    first: Option<VLockGuard>,
    rest: Vec<VLockGuard>,
}

/// A virtual-time FIFO mutex. Cheap to share (`Rc`); all waiting happens
/// over the sim scheduler, so an uncontended `lock().await` completes on
/// the first poll without advancing the clock.
struct VLock {
    sim: Sim,
    state: RefCell<LockState>,
    meters: VLockMeters,
    trace: Option<TraceBinding>,
}

impl VLock {
    /// Creates an unlocked lock on `sim`'s clock that counts in `meters`
    /// (`VLock::stats` reads them, so whoever resets them resets the
    /// lock) and, given `trace`, emits `lock_wait`/`lock_hold` spans on
    /// that tracer as that node. Wait spans are only emitted for contended
    /// acquires (an uncontended acquire has no wait interval to show).
    fn new(sim: &Sim, meters: VLockMeters, trace: Option<(Rc<Tracer>, NodeId)>) -> Rc<VLock> {
        Rc::new(VLock {
            sim: sim.clone(),
            state: RefCell::new(LockState {
                locked: false,
                queue: VecDeque::new(),
                next_ticket: 0,
            }),
            meters,
            trace: trace.map(|(tracer, node)| TraceBinding { tracer, node }),
        })
    }

    /// Acquires the lock, waiting in FIFO order if it is held. `op` and
    /// `track` label the tracer spans (the request id and worker lane of
    /// the acquiring task).
    fn lock(self: &Rc<Self>, op: u64, track: Track) -> LockFuture {
        LockFuture {
            lock: self.clone(),
            op,
            track,
            waiter: None,
            done: false,
        }
    }

    /// Totals so far.
    fn stats(&self) -> VLockStats {
        let m = &self.meters;
        VLockStats {
            acquires: m.ops.get(),
            contended: m.contended.get(),
            wait_total: SimDuration::from_nanos(m.lock_wait_ns.get()),
            hold_total: SimDuration::from_nanos(m.lock_hold_ns.get()),
        }
    }

    /// Releases the lock: direct handoff to the oldest waiter, else unlock.
    fn release(&self, acquired_at: SimTime, op: u64, track: Track) {
        let hold = self.sim.now().saturating_since(acquired_at);
        self.meters.lock_hold_ns.add(hold.as_nanos());
        if let Some(t) = &self.trace {
            t.tracer.end(
                Layer::Core,
                "lock_hold",
                t.node,
                track,
                op,
                0,
                self.sim.now(),
            );
        }
        let mut st = self.state.borrow_mut();
        debug_assert!(st.locked, "release of an unlocked VLock");
        if let Some(next) = st.queue.pop_front() {
            // Ownership transfers directly: the lock never observably
            // unlocks, so a racing fresh acquire cannot jump the queue.
            let mut w = next.borrow_mut();
            w.granted = true;
            if let Some(wk) = w.waker.take() {
                wk.wake();
            }
        } else {
            st.locked = false;
        }
    }
}

/// Future returned by `VLock::lock`; resolves to a `VLockGuard`.
struct LockFuture {
    lock: Rc<VLock>,
    op: u64,
    track: Track,
    waiter: Option<Rc<RefCell<Waiter>>>,
    done: bool,
}

impl LockFuture {
    /// Builds the guard once the lock is ours, booking stats and spans.
    fn granted(&mut self, wait: SimDuration) -> VLockGuard {
        self.done = true;
        self.lock.meters.ops.inc();
        self.lock.meters.lock_wait_ns.add(wait.as_nanos());
        let now = self.lock.sim.now();
        if let Some(t) = &self.lock.trace {
            t.tracer.begin(
                Layer::Core,
                "lock_hold",
                t.node,
                self.track,
                self.op,
                0,
                now,
            );
        }
        VLockGuard {
            lock: self.lock.clone(),
            acquired_at: now,
            op: self.op,
            track: self.track,
        }
    }
}

impl Future for LockFuture {
    type Output = VLockGuard;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<VLockGuard> {
        let this = self.get_mut();
        if let Some(w) = &this.waiter {
            let granted = {
                let mut w = w.borrow_mut();
                if !w.granted {
                    w.waker = Some(cx.waker().clone());
                }
                w.granted
            };
            return if granted {
                let enq = w.borrow().enqueued_at;
                let wait = this.lock.sim.now().saturating_since(enq);
                if let Some(t) = &this.lock.trace {
                    t.tracer.end(
                        Layer::Core,
                        "lock_wait",
                        t.node,
                        this.track,
                        this.op,
                        0,
                        this.lock.sim.now(),
                    );
                }
                this.waiter = None;
                Poll::Ready(this.granted(wait))
            } else {
                Poll::Pending
            };
        }
        // First poll: take the lock immediately when free, else park.
        let now = this.lock.sim.now();
        let parked = {
            let mut st = this.lock.state.borrow_mut();
            if !st.locked {
                debug_assert!(st.queue.is_empty(), "unlocked VLock with waiters");
                st.locked = true;
                None
            } else {
                let ticket = st.next_ticket;
                st.next_ticket += 1;
                let w = Rc::new(RefCell::new(Waiter {
                    ticket,
                    granted: false,
                    enqueued_at: now,
                    waker: Some(cx.waker().clone()),
                }));
                st.queue.push_back(w.clone());
                Some(w)
            }
        };
        match parked {
            None => Poll::Ready(this.granted(SimDuration::ZERO)),
            Some(w) => {
                this.lock.meters.contended.inc();
                if let Some(t) = &this.lock.trace {
                    t.tracer.begin(
                        Layer::Core,
                        "lock_wait",
                        t.node,
                        this.track,
                        this.op,
                        0,
                        now,
                    );
                }
                this.waiter = Some(w);
                Poll::Pending
            }
        }
    }
}

impl Drop for LockFuture {
    fn drop(&mut self) {
        if self.done {
            return; // guard took over
        }
        let Some(w) = self.waiter.take() else {
            return; // never polled: no state to undo
        };
        if w.borrow().granted {
            // Granted but never observed: pass ownership on so the lock
            // does not leak held. The wait/hold never happened from the
            // caller's perspective, so only release bookkeeping runs.
            if let Some(t) = &self.lock.trace {
                t.tracer.end(
                    Layer::Core,
                    "lock_wait",
                    t.node,
                    self.track,
                    self.op,
                    0,
                    self.lock.sim.now(),
                );
            }
            let mut st = self.lock.state.borrow_mut();
            if let Some(next) = st.queue.pop_front() {
                let mut n = next.borrow_mut();
                n.granted = true;
                if let Some(wk) = n.waker.take() {
                    wk.wake();
                }
            } else {
                st.locked = false;
            }
        } else {
            let ticket = w.borrow().ticket;
            let mut st = self.lock.state.borrow_mut();
            st.queue.retain(|q| q.borrow().ticket != ticket);
            if let Some(t) = &self.lock.trace {
                t.tracer.end(
                    Layer::Core,
                    "lock_wait",
                    t.node,
                    self.track,
                    self.op,
                    0,
                    self.lock.sim.now(),
                );
            }
        }
    }
}

/// Exclusive access token; releases (with FIFO handoff) on drop.
struct VLockGuard {
    lock: Rc<VLock>,
    acquired_at: SimTime,
    op: u64,
    track: Track,
}

impl Drop for VLockGuard {
    fn drop(&mut self) {
        self.lock.release(self.acquired_at, self.op, self.track);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;

    fn sim() -> Sim {
        Sim::new(7)
    }

    #[test]
    fn uncontended_acquire_is_free() {
        let sim = sim();
        let lock = VLock::new(&sim, VLockMeters::default(), None);
        let s = sim.clone();
        let l = lock.clone();
        sim.block_on(async move {
            let t0 = s.now();
            for i in 0..10u64 {
                let g = l.lock(i, Track::Main).await;
                drop(g);
            }
            assert_eq!(s.now(), t0, "uncontended locking must cost zero time");
        });
        let st = lock.stats();
        assert_eq!(st.acquires, 10);
        assert_eq!(st.contended, 0);
        assert_eq!(st.wait_total, SimDuration::ZERO);
        assert_eq!(st.hold_total, SimDuration::ZERO);
    }

    #[test]
    fn contended_waiters_served_fifo() {
        let sim = sim();
        let lock = VLock::new(&sim, VLockMeters::default(), None);
        let order = Rc::new(RefCell::new(Vec::new()));
        // Task i arrives at t = i*10ns and holds for 100ns: all five
        // serialize, and the completion order must match arrival order.
        for i in 0..5u64 {
            let s = sim.clone();
            let l = lock.clone();
            let ord = order.clone();
            sim.spawn(async move {
                s.sleep(SimDuration::from_nanos(10 * i)).await;
                let g = l.lock(i, Track::Main).await;
                s.sleep(SimDuration::from_nanos(100)).await;
                drop(g);
                ord.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3, 4]);
        let st = lock.stats();
        assert_eq!(st.acquires, 5);
        assert_eq!(st.contended, 4);
        assert_eq!(st.hold_total, SimDuration::from_nanos(500));
        // Waits: task i acquires at i*100, arrived at i*10.
        let expect: u64 = (1..5).map(|i| i * 100 - i * 10).sum();
        assert_eq!(st.wait_total, SimDuration::from_nanos(expect));
    }

    #[test]
    fn supplied_meters_are_the_only_books() {
        let sim = sim();
        let reg = Metrics::new();
        let meters = VLockMeters {
            ops: reg.counter("mc.node0.shard0.ops"),
            lock_wait_ns: reg.counter("mc.node0.shard0.lock_wait_ns"),
            lock_hold_ns: reg.counter("mc.node0.shard0.lock_hold_ns"),
            contended: reg.counter("mc.node0.shard0.contended"),
        };
        let lock = VLock::new(&sim, meters, None);
        for _ in 0..2 {
            let s = sim.clone();
            let l = lock.clone();
            sim.spawn(async move {
                let g = l.lock(1, Track::Worker(0)).await;
                s.sleep(SimDuration::from_nanos(50)).await;
                drop(g);
            });
        }
        sim.run();
        assert_eq!(reg.counter_value("mc.node0.shard0.ops"), 2);
        assert_eq!(reg.counter_value("mc.node0.shard0.contended"), 1);
        assert_eq!(reg.counter_value("mc.node0.shard0.lock_hold_ns"), 100);
        assert_eq!(reg.counter_value("mc.node0.shard0.lock_wait_ns"), 50);
        assert_eq!(lock.stats().acquires, 2);
        // Resetting the registry resets the lock: there is no second copy.
        reg.reset_counters_and_histograms();
        assert_eq!(lock.stats(), VLockStats::default());
    }

    #[test]
    fn dropped_waiter_leaves_queue() {
        let sim = sim();
        let lock = VLock::new(&sim, VLockMeters::default(), None);
        let l = lock.clone();
        let s = sim.clone();
        sim.spawn(async move {
            let _g = l.lock(1, Track::Main).await;
            s.sleep(SimDuration::from_nanos(100)).await;
        });
        // A waiter that times out must not wedge the queue for later ones.
        let l2 = lock.clone();
        let s2 = sim.clone();
        sim.spawn(async move {
            s2.sleep(SimDuration::from_nanos(10)).await;
            let fut = l2.lock(2, Track::Main);
            let r = crate::sync::timeout(&s2, SimDuration::from_nanos(20), fut).await;
            assert!(r.is_err(), "timeout must fire while the lock is held");
        });
        let l3 = lock.clone();
        let s3 = sim.clone();
        let done = sim.spawn(async move {
            s3.sleep(SimDuration::from_nanos(20)).await;
            let g = l3.lock(3, Track::Main).await;
            let at = s3.now();
            drop(g);
            at
        });
        sim.run();
        let at = sim.block_on(done);
        assert_eq!(at.as_nanos(), 100, "lock hands off to the live waiter");
        let st = lock.state.borrow();
        assert!(st.queue.is_empty() && !st.locked);
    }

    #[test]
    fn tracer_spans_balance() {
        use crate::trace::{EventRecorder, Phase, Tracer};
        let sim = sim();
        let tracer = Tracer::new(&Rc::new(Metrics::new()));
        let rec = EventRecorder::new();
        tracer.add_sink(rec.clone());
        let trace = Some((tracer.clone(), NodeId(0)));
        let lock = VLock::new(&sim, VLockMeters::default(), trace);
        for i in 1..=3u64 {
            let s = sim.clone();
            let l = lock.clone();
            sim.spawn(async move {
                let g = l.lock(i, Track::Worker(0)).await;
                s.sleep(SimDuration::from_nanos(25)).await;
                drop(g);
            });
        }
        sim.run();
        let evs = rec.events();
        let count = |name: &str, ph: Phase| {
            evs.iter()
                .filter(|e| e.name == name && e.phase == ph)
                .count()
        };
        assert_eq!(count("lock_hold", Phase::Begin), 3);
        assert_eq!(count("lock_hold", Phase::End), 3);
        // Two of the three acquires waited.
        assert_eq!(count("lock_wait", Phase::Begin), 2);
        assert_eq!(count("lock_wait", Phase::End), 2);
    }
}
