//! Active-message counters (paper §IV-C).
//!
//! Counters are monotonically increasing objects used to track active-
//! message progress. Three roles exist:
//!
//! * **origin counter** — bumped at the origin when the message's buffers
//!   are reusable (local completion for eager; an internal message after
//!   the target's RDMA read for rendezvous);
//! * **target counter** — bumped at the target when the data has fully
//!   arrived and the completion handler has run;
//! * **completion counter** — bumped at the origin when the target's
//!   completion handler has finished (via an internal message).
//!
//! Any of the three may be omitted (NULL in the paper's C API; `None`
//! here), which suppresses the associated internal message. Waiting is
//! always **bounded by a timeout** — the data-center requirement (§IV-A)
//! that lets a Memcached client decide a server has died instead of
//! hanging the job, MPI-style.

use std::cell::Cell;
use std::rc::Rc;

use simnet::sync::{timeout, Notify};
use simnet::trace::{Layer, Track};
use simnet::{NodeId, Sim, SimDuration, Tracer};

use crate::UcrError;

pub(crate) struct CtrInner {
    pub id: u64,
    /// Private with `notify`: outside this file the value can be read
    /// ([`Counter::value`]) and bumped, nothing else.
    value: Cell<u64>,
    notify: Notify,
}

impl CtrInner {
    /// The one mutation: increment, then wake waiters. All bump paths
    /// (local and remote, see `RtInner::bump_counter`) go through here, so
    /// the value is monotonic and no waiter misses an increment.
    pub(crate) fn bump(&self) {
        self.value.set(self.value.get() + 1);
        self.notify.notify_all();
    }
}

/// A monotonically increasing progress counter.
#[derive(Clone)]
pub struct Counter {
    pub(crate) inner: Rc<CtrInner>,
    pub(crate) sim: Sim,
    pub(crate) tracer: Rc<Tracer>,
    pub(crate) node: NodeId,
}

impl Counter {
    pub(crate) fn new(id: u64, sim: Sim, tracer: Rc<Tracer>, node: NodeId) -> Counter {
        Counter {
            inner: Rc::new(CtrInner {
                id,
                value: Cell::new(0),
                notify: Notify::new(),
            }),
            sim,
            tracer,
            node,
        }
    }

    /// The runtime-unique identifier carried on the wire.
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.inner.value.get()
    }

    pub(crate) fn bump(&self) {
        self.inner.bump();
        self.tracer.instant(
            Layer::Ucr,
            "counter_bump",
            self.node,
            Track::Main,
            self.inner.id,
            0,
            self.sim.now(),
        );
    }

    /// Waits until the counter reaches at least `target`, or until
    /// `deadline` elapses. The blocking-with-timeout primitive Memcached
    /// uses after issuing a request (paper §V-B).
    pub async fn wait_for(&self, target: u64, deadline: SimDuration) -> Result<(), UcrError> {
        let inner = &self.inner;
        if inner.value.get() >= target {
            return Ok(());
        }
        let wait = inner.notify.wait_until(|| inner.value.get() >= target);
        match timeout(&self.sim, deadline, wait).await {
            Ok(()) => Ok(()),
            Err(_) => {
                // Sync timeout: dump the flight recorder so the failure
                // carries the event tail that led up to it.
                self.tracer.instant(
                    Layer::Ucr,
                    "counter_timeout",
                    self.node,
                    Track::Main,
                    self.inner.id,
                    0,
                    self.sim.now(),
                );
                self.tracer.fault(&format!(
                    "counter {} on {} timed out waiting for {} (value {})",
                    self.inner.id,
                    self.node,
                    target,
                    self.inner.value.get()
                ));
                Err(UcrError::Timeout)
            }
        }
    }

    /// Waits for the counter to advance by `n` from `from`.
    pub async fn wait_past(
        &self,
        from: u64,
        n: u64,
        deadline: SimDuration,
    ) -> Result<(), UcrError> {
        self.wait_for(from + n, deadline).await
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter(id={}, value={})", self.id(), self.value())
    }
}
