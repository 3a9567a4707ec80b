//! Completion queues.
//!
//! Work completions land here; consumers either poll (non-blocking, the
//! lowest-latency mode, §II-A1 of the paper) or await the next completion.
//! Awaiting charges the profile's poll overhead on the consuming task when
//! a completion is reaped, so a worker thread that dispatches N completions
//! is busy for N × poll-cost of simulated time — which is exactly how the
//! polling cost shows up in the real system's latency and throughput.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use simnet::sync::Notify;
use simnet::{Sim, SimDuration};

use crate::types::Wc;

pub(crate) struct CqInner {
    pub queue: RefCell<VecDeque<Wc>>,
    pub notify: Notify,
}

/// A completion queue. Clone freely; clones share the queue.
#[derive(Clone)]
pub struct Cq {
    pub(crate) inner: Rc<CqInner>,
    sim: Sim,
    poll_overhead: SimDuration,
}

impl Cq {
    pub(crate) fn new(sim: Sim, poll_overhead: SimDuration) -> Cq {
        Cq {
            inner: Rc::new(CqInner {
                queue: RefCell::new(VecDeque::new()),
                notify: Notify::new(),
            }),
            sim,
            poll_overhead,
        }
    }

    pub(crate) fn push(&self, wc: Wc) {
        self.inner.queue.borrow_mut().push_back(wc);
        self.inner.notify.notify_all();
    }

    /// Non-blocking poll: pops one completion if present. Does not charge
    /// CPU time (callers batching polls charge it themselves).
    pub fn poll(&self) -> Option<Wc> {
        self.inner.queue.borrow_mut().pop_front()
    }

    /// Number of completions waiting.
    pub fn backlog(&self) -> usize {
        self.inner.queue.borrow().len()
    }

    /// Awaits the next completion, charging the poll overhead once it is
    /// reaped (busy-polling model — the paper's design polls for lowest
    /// latency rather than sleeping on interrupts).
    pub async fn next(&self) -> Wc {
        loop {
            let popped = self.inner.queue.borrow_mut().pop_front();
            if let Some(wc) = popped {
                self.sim.sleep(self.poll_overhead).await;
                return wc;
            }
            let inner = &self.inner;
            inner
                .notify
                .wait_until(|| !inner.queue.borrow().is_empty())
                .await;
        }
    }
}
