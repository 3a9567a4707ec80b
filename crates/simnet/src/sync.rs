//! Synchronization primitives for simulation tasks.
//!
//! These mirror the shapes found in async runtimes (sleep, oneshot, mpsc,
//! notify, timeout) but suspend on *virtual* time: a task blocked here
//! consumes no simulated time until an event wakes it. All types are
//! single-threaded (`Rc`-based) and `Unpin`, so no unsafe pin projection is
//! needed anywhere in the workspace.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::engine::{Sim, TimerKey};
use crate::time::SimDuration;

// ---------------------------------------------------------------------------
// Sleep
// ---------------------------------------------------------------------------

/// Future returned by [`Sim::sleep`]. Completes after the requested span of
/// simulated time. The timer is armed when the `Sleep` is made, not when it
/// is first polled, and dropping a `Sleep` that has not completed cancels it:
/// the timer leaves the event queue and never executes.
pub struct Sleep {
    sim: Sim,
    timer: TimerKey,
}

impl Sleep {
    pub(crate) fn start(sim: &Sim, d: SimDuration) -> Sleep {
        Sleep {
            sim: sim.clone(),
            timer: sim.start_timer(sim.now() + d),
        }
    }
}

impl Future for Sleep {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        self.sim.poll_timer(self.timer, cx)
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        self.sim.cancel_timer(self.timer);
    }
}

// ---------------------------------------------------------------------------
// Oneshot
// ---------------------------------------------------------------------------

struct OneshotInner<T> {
    value: Option<T>,
    sender_gone: bool,
    receiver_gone: bool,
    waker: Option<Waker>,
}

/// Sending half of a oneshot channel.
pub struct OneSender<T> {
    inner: Rc<RefCell<OneshotInner<T>>>,
}

/// Receiving half of a oneshot channel; a future resolving to
/// `Result<T, Canceled>`.
pub struct OneReceiver<T> {
    inner: Rc<RefCell<OneshotInner<T>>>,
}

/// Error: the sender was dropped without sending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Canceled;

impl fmt::Display for Canceled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "oneshot sender dropped without sending")
    }
}
impl std::error::Error for Canceled {}

/// Creates a single-value channel. The receiver is a future.
pub fn oneshot<T>() -> (OneSender<T>, OneReceiver<T>) {
    let inner = Rc::new(RefCell::new(OneshotInner {
        value: None,
        sender_gone: false,
        receiver_gone: false,
        waker: None,
    }));
    (
        OneSender {
            inner: inner.clone(),
        },
        OneReceiver { inner },
    )
}

impl<T> OneSender<T> {
    /// Delivers `v`. Fails (returning the value) if the receiver is gone.
    pub fn send(self, v: T) -> Result<(), T> {
        let mut inner = self.inner.borrow_mut();
        if inner.receiver_gone {
            return Err(v);
        }
        inner.value = Some(v);
        if let Some(w) = inner.waker.take() {
            w.wake();
        }
        Ok(())
    }
}

impl<T> Drop for OneSender<T> {
    fn drop(&mut self) {
        let mut inner = self.inner.borrow_mut();
        inner.sender_gone = true;
        if let Some(w) = inner.waker.take() {
            w.wake();
        }
    }
}

impl<T> Future for OneReceiver<T> {
    type Output = Result<T, Canceled>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut inner = self.inner.borrow_mut();
        if let Some(v) = inner.value.take() {
            return Poll::Ready(Ok(v));
        }
        if inner.sender_gone {
            return Poll::Ready(Err(Canceled));
        }
        inner.waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

impl<T> Drop for OneReceiver<T> {
    fn drop(&mut self) {
        self.inner.borrow_mut().receiver_gone = true;
    }
}

// ---------------------------------------------------------------------------
// Unbounded mpsc
// ---------------------------------------------------------------------------

struct ChannelInner<T> {
    queue: VecDeque<T>,
    waker: Option<Waker>,
    senders: usize,
    receiver_gone: bool,
}

/// Sending half of an unbounded channel. Clonable.
pub struct Sender<T> {
    inner: Rc<RefCell<ChannelInner<T>>>,
}

/// Receiving half of an unbounded channel.
pub struct Receiver<T> {
    inner: Rc<RefCell<ChannelInner<T>>>,
}

/// Error: all senders were dropped and the queue is drained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disconnected;

impl fmt::Display for Disconnected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "channel disconnected")
    }
}
impl std::error::Error for Disconnected {}

/// Creates an unbounded multi-producer, single-consumer channel.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let inner = Rc::new(RefCell::new(ChannelInner {
        queue: VecDeque::new(),
        waker: None,
        senders: 1,
        receiver_gone: false,
    }));
    (
        Sender {
            inner: inner.clone(),
        },
        Receiver { inner },
    )
}

impl<T> Sender<T> {
    /// Enqueues `v`; fails if the receiver is gone.
    pub fn send(&self, v: T) -> Result<(), Disconnected> {
        let mut inner = self.inner.borrow_mut();
        if inner.receiver_gone {
            return Err(Disconnected);
        }
        inner.queue.push_back(v);
        if let Some(w) = inner.waker.take() {
            w.wake();
        }
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.inner.borrow_mut().senders += 1;
        Sender {
            inner: self.inner.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut inner = self.inner.borrow_mut();
        inner.senders -= 1;
        if inner.senders == 0 {
            if let Some(w) = inner.waker.take() {
                w.wake();
            }
        }
    }
}

/// Future returned by [`Receiver::recv`].
pub struct Recv<'a, T> {
    rx: &'a Receiver<T>,
}

impl<T> Receiver<T> {
    /// Awaits the next message; `Err(Disconnected)` once all senders are
    /// dropped and the queue is empty.
    pub fn recv(&self) -> Recv<'_, T> {
        Recv { rx: self }
    }

    /// Non-blocking pop.
    pub fn try_recv(&self) -> Option<T> {
        self.inner.borrow_mut().queue.pop_front()
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.inner.borrow().queue.len()
    }

    /// True when no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.inner.borrow_mut().receiver_gone = true;
    }
}

impl<T> Future for Recv<'_, T> {
    type Output = Result<T, Disconnected>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut inner = self.rx.inner.borrow_mut();
        if let Some(v) = inner.queue.pop_front() {
            return Poll::Ready(Ok(v));
        }
        if inner.senders == 0 {
            return Poll::Ready(Err(Disconnected));
        }
        inner.waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

// ---------------------------------------------------------------------------
// Notify — edge-triggered wakeups for condition-style waiting
// ---------------------------------------------------------------------------

/// A wait set: tasks park on it and are all released by
/// [`notify_all`](Notify::notify_all). Used with a predicate re-checked after
/// every wakeup (condition-variable style), e.g. by UCR counters.
#[derive(Default)]
pub struct Notify {
    waiters: RefCell<Waiters>,
}

/// Parked wakers in parking order. Nearly every wait set has one waiter (a
/// counter's requester, a queue's consumer), which lives inline; only a
/// second concurrent waiter allocates.
#[derive(Default)]
struct Waiters {
    first: Option<Waker>,
    rest: Vec<Waker>,
}

impl Waiters {
    /// Parks `waker` unless a parked waker already wakes the same task: a
    /// waiter re-polled before any notification stays parked once.
    fn park(&mut self, waker: &Waker) {
        if self
            .first
            .iter()
            .chain(&self.rest)
            .any(|w| w.will_wake(waker))
        {
            return;
        }
        // `rest` is only ever non-empty behind an occupied `first`.
        match self.first {
            None => self.first = Some(waker.clone()),
            Some(_) => self.rest.push(waker.clone()),
        }
    }
}

impl Notify {
    /// Creates an empty wait set.
    pub fn new() -> Notify {
        Notify::default()
    }

    /// Wakes every task currently parked on this set.
    pub fn notify_all(&self) {
        let mut waiters = self.waiters.borrow_mut();
        if let Some(w) = waiters.first.take() {
            w.wake();
        }
        for w in waiters.rest.drain(..) {
            w.wake();
        }
    }

    /// Number of currently parked waiters (diagnostics).
    pub fn waiters(&self) -> usize {
        let waiters = self.waiters.borrow();
        usize::from(waiters.first.is_some()) + waiters.rest.len()
    }

    /// Awaits until `pred()` returns true, re-checking after every
    /// notification. The predicate is checked immediately first, so a
    /// satisfied condition never blocks.
    pub fn wait_until<F: FnMut() -> bool>(&self, pred: F) -> WaitUntil<'_, F> {
        WaitUntil { notify: self, pred }
    }
}

/// Future returned by [`Notify::wait_until`].
pub struct WaitUntil<'a, F> {
    notify: &'a Notify,
    pred: F,
}

impl<F> Unpin for WaitUntil<'_, F> {}

impl<F: FnMut() -> bool> Future for WaitUntil<'_, F> {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        if (this.pred)() {
            return Poll::Ready(());
        }
        this.notify.waiters.borrow_mut().park(cx.waker());
        Poll::Pending
    }
}

// ---------------------------------------------------------------------------
// Timeout
// ---------------------------------------------------------------------------

/// Error: the inner future did not complete before the deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Elapsed;

impl fmt::Display for Elapsed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "simulated timeout elapsed")
    }
}
impl std::error::Error for Elapsed {}

/// Future returned by [`timeout`].
pub struct Timeout<F> {
    fut: F,
    sleep: Sleep,
}

/// Races `fut` against a simulated-time deadline. If the deadline fires
/// first the inner future is dropped and `Err(Elapsed)` is returned — the
/// shape UCR's "synchronization with timeouts" (paper §IV-A) needs so that a
/// Memcached client can decide a server has died.
pub fn timeout<F: Future + Unpin>(sim: &Sim, d: SimDuration, fut: F) -> Timeout<F> {
    Timeout {
        fut,
        sleep: sim.sleep(d),
    }
}

impl<F: Future + Unpin> Future for Timeout<F> {
    type Output = Result<F::Output, Elapsed>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        if let Poll::Ready(v) = Pin::new(&mut this.fut).poll(cx) {
            return Poll::Ready(Ok(v));
        }
        if Pin::new(&mut this.sleep).poll(cx).is_ready() {
            return Poll::Ready(Err(Elapsed));
        }
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn oneshot_delivers() {
        let sim = Sim::new(1);
        let (tx, rx) = oneshot::<u32>();
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(SimDuration::from_nanos(10)).await;
            tx.send(5).unwrap();
        });
        let got = sim.block_on(rx);
        assert_eq!(got, Ok(5));
    }

    #[test]
    fn oneshot_cancel_on_sender_drop() {
        let sim = Sim::new(1);
        let (tx, rx) = oneshot::<u32>();
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(SimDuration::from_nanos(10)).await;
            drop(tx);
        });
        let got = sim.block_on(rx);
        assert_eq!(got, Err(Canceled));
    }

    #[test]
    fn oneshot_send_after_receiver_drop_fails() {
        let (tx, rx) = oneshot::<u32>();
        drop(rx);
        assert_eq!(tx.send(1), Err(1));
    }

    #[test]
    fn channel_fifo_order() {
        let sim = Sim::new(1);
        let (tx, rx) = channel::<u32>();
        let s = sim.clone();
        sim.spawn(async move {
            for i in 0..5 {
                s.sleep(SimDuration::from_nanos(5)).await;
                tx.send(i).unwrap();
            }
        });
        let got = sim.block_on(async move {
            let mut out = Vec::new();
            while let Ok(v) = rx.recv().await {
                out.push(v);
            }
            out
        });
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn channel_disconnect_after_drain() {
        let sim = Sim::new(1);
        let (tx, rx) = channel::<u32>();
        tx.send(1).unwrap();
        drop(tx);
        let got = sim.block_on(async move {
            let first = rx.recv().await;
            let second = rx.recv().await;
            (first, second)
        });
        assert_eq!(got, (Ok(1), Err(Disconnected)));
    }

    #[test]
    fn channel_clone_senders_count() {
        let sim = Sim::new(1);
        let (tx, rx) = channel::<u32>();
        let tx2 = tx.clone();
        drop(tx);
        tx2.send(9).unwrap();
        drop(tx2);
        let got = sim.block_on(async move { (rx.recv().await, rx.recv().await) });
        assert_eq!(got, (Ok(9), Err(Disconnected)));
    }

    #[test]
    fn notify_wait_until() {
        use std::cell::Cell;
        let sim = Sim::new(1);
        let notify = Rc::new(Notify::new());
        let counter = Rc::new(Cell::new(0u64));

        let s = sim.clone();
        let n2 = notify.clone();
        let c2 = counter.clone();
        sim.spawn(async move {
            for _ in 0..3 {
                s.sleep(SimDuration::from_nanos(10)).await;
                c2.set(c2.get() + 1);
                n2.notify_all();
            }
        });

        let c3 = counter.clone();
        sim.block_on(async move {
            notify.wait_until(move || c3.get() >= 3).await;
        });
        assert_eq!(counter.get(), 3);
        assert_eq!(sim.now().as_nanos(), 30);
    }

    #[test]
    fn timeout_elapses() {
        let sim = Sim::new(1);
        let (_tx, rx) = oneshot::<u32>();
        let s = sim.clone();
        let got = sim.block_on(async move { timeout(&s, SimDuration::from_micros(5), rx).await });
        assert_eq!(got, Err(Elapsed));
        assert_eq!(sim.now().as_nanos(), 5_000);
    }

    #[test]
    fn timeout_inner_wins() {
        let sim = Sim::new(1);
        let (tx, rx) = oneshot::<u32>();
        let s = sim.clone();
        sim.spawn({
            let s = s.clone();
            async move {
                s.sleep(SimDuration::from_nanos(100)).await;
                tx.send(7).unwrap();
            }
        });
        let got = sim.block_on(async move { timeout(&s, SimDuration::from_micros(5), rx).await });
        assert_eq!(got, Ok(Ok(7)));
        assert_eq!(sim.now().as_nanos(), 100);
    }

    #[test]
    fn timeout_won_by_the_inner_future_leaves_the_queue() {
        let sim = Sim::new(1);
        sim.schedule(SimDuration::from_millis(1), || {});
        let before = sim.pending_events();
        let s = sim.clone();
        let got = sim.block_on(async move {
            let quick = s.sleep(SimDuration::from_micros(1));
            timeout(&s, SimDuration::from_millis(250), quick).await
        });
        assert_eq!(got, Ok(()));
        assert_eq!(sim.pending_events(), before);
        // The deadline never executes: the run ends with the last live event.
        assert_eq!(sim.run().as_nanos(), 1_000_000);
        assert_eq!(sim.events_executed(), 2);
    }

    #[test]
    fn sequential_timeouts_do_not_accumulate() {
        let sim = Sim::new(1);
        let s = sim.clone();
        sim.block_on(async move {
            for _ in 0..100_000 {
                let quick = s.sleep(SimDuration::from_micros(1));
                let won = timeout(&s, SimDuration::from_millis(250), quick).await;
                assert_eq!(won, Ok(()));
                assert!(s.pending_events() <= 4);
            }
        });
        assert_eq!(sim.pending_events(), 0);
        assert_eq!(sim.now().as_nanos(), 100_000 * 1_000);
    }

    #[test]
    fn notify_parks_a_repolled_waiter_once() {
        use std::cell::Cell;
        let sim = Sim::new(1);
        let notify = Rc::new(Notify::new());
        let flag = Rc::new(Cell::new(false));
        let (n, f) = (notify.clone(), flag.clone());
        sim.spawn(async move {
            let mut wait = n.wait_until(|| f.get());
            // Re-polled with no notification in between, as a task woken
            // for another reason re-polls everything it is waiting on.
            std::future::poll_fn(|cx| {
                for _ in 0..1_000 {
                    assert!(Pin::new(&mut wait).poll(cx).is_pending());
                }
                Poll::Ready(())
            })
            .await;
            wait.await;
        });
        sim.run();
        assert_eq!(notify.waiters(), 1);

        let polls = sim.task_polls();
        flag.set(true);
        notify.notify_all();
        sim.run();
        assert_eq!(sim.task_polls() - polls, 1);
        assert_eq!(sim.live_tasks(), 0);
    }

    #[test]
    fn notify_wakes_waiters_in_parking_order() {
        use std::cell::Cell;
        let sim = Sim::new(1);
        let notify = Rc::new(Notify::new());
        let flag = Rc::new(Cell::new(false));
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3u32 {
            let (n, f, order) = (notify.clone(), flag.clone(), order.clone());
            sim.spawn(async move {
                n.wait_until(|| f.get()).await;
                order.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(notify.waiters(), 3);
        flag.set(true);
        notify.notify_all();
        sim.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2]);
    }
}
