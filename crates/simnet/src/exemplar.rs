//! Tail-latency exemplars: bounded rings of "this exact request was the
//! tail" records.
//!
//! A p99 number says the tail exists; an exemplar says *which* request it
//! was — its op, key hash, payload size, and the span id that finds it on
//! the cross-layer trace timeline (and, once the op retires under a
//! profiler, its critical-path breakdown). Capture is
//! quantile-gated: a completed operation is recorded only when its
//! latency reaches the configured quantile of the histogram it feeds
//! (evaluated against the live distribution, so the gate adapts as the
//! run evolves). The ring is bounded and drops oldest, the same
//! discipline as the trace flight recorder. Everything is host-side
//! accounting: capture costs zero virtual time.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use crate::metrics::Histogram;
use crate::time::{SimDuration, SimTime};

/// Default ring capacity.
pub const EXEMPLAR_DEFAULT_CAPACITY: usize = 64;

/// Exemplar capture tuning.
#[derive(Clone, Copy, Debug)]
pub struct ExemplarConfig {
    /// Ring capacity (drop-oldest past this).
    pub capacity: usize,
    /// Latency quantile that gates capture: an op is an exemplar when
    /// its latency ≥ this quantile of its histogram.
    pub quantile: f64,
    /// Minimum histogram population before the gate arms (quantiles of
    /// a near-empty histogram are noise).
    pub min_samples: u64,
}

impl Default for ExemplarConfig {
    fn default() -> ExemplarConfig {
        ExemplarConfig {
            capacity: EXEMPLAR_DEFAULT_CAPACITY,
            quantile: 0.99,
            min_samples: 64,
        }
    }
}

/// One captured tail record.
#[derive(Clone, Debug)]
pub struct Exemplar {
    /// Operation label (`"get"`, `"set"`, `"e2e"`, …).
    pub op: &'static str,
    /// FNV-1a hash of the key (0 when the capture point has no key).
    pub key_hash: u64,
    /// Payload bytes moved by the op.
    pub bytes: u64,
    /// The latency that crossed the gate.
    pub latency: SimDuration,
    /// The quantile threshold in force at capture time.
    pub threshold: SimDuration,
    /// Virtual time of completion.
    pub at: SimTime,
    /// Correlation id (`req_id`): the `op` field of the matching tracer
    /// spans (`client_op`, `worker_service`).
    pub span_id: u64,
    /// Registry name of the histogram this record exemplifies.
    pub hist: String,
    /// The op's critical-path decomposition, filled in by an attached
    /// [`Profiler`](crate::profiler::Profiler) when the op retires
    /// (`None` when no profiler is running or the span id never
    /// completed as a `client_op`).
    pub path: Option<crate::profiler::CriticalPath>,
}

struct RingInner {
    ring: RefCell<VecDeque<Exemplar>>,
}

/// A bounded, shareable ring of [`Exemplar`]s.
pub struct ExemplarRing {
    cfg: ExemplarConfig,
    inner: RingInner,
    seen: Cell<u64>,
    captured: Cell<u64>,
    dropped: Cell<u64>,
}

impl ExemplarRing {
    /// An empty ring.
    pub fn new(cfg: ExemplarConfig) -> Rc<ExemplarRing> {
        Rc::new(ExemplarRing {
            cfg,
            inner: RingInner {
                ring: RefCell::new(VecDeque::new()),
            },
            seen: Cell::new(0),
            captured: Cell::new(0),
            dropped: Cell::new(0),
        })
    }

    /// The capture configuration.
    pub fn config(&self) -> ExemplarConfig {
        self.cfg
    }

    /// Applies the quantile gate for an op that just recorded `latency`
    /// into `hist` (record first, then gate — the sample is part of its
    /// own distribution). Captures and returns `true` when the gate
    /// passes; `hist_name` is rendered only then.
    #[allow(clippy::too_many_arguments)]
    pub fn offer(
        &self,
        hist: &Histogram,
        hist_name: impl std::fmt::Display,
        op: &'static str,
        key_hash: u64,
        bytes: u64,
        latency: SimDuration,
        span_id: u64,
        at: SimTime,
    ) -> bool {
        self.seen.set(self.seen.get() + 1);
        if hist.count() < self.cfg.min_samples {
            return false;
        }
        let threshold = hist.percentile(self.cfg.quantile);
        if latency < threshold {
            return false;
        }
        self.push(Exemplar {
            op,
            key_hash,
            bytes,
            latency,
            threshold,
            at,
            span_id,
            hist: hist_name.to_string(),
            path: None,
        });
        true
    }

    /// Attaches a critical-path decomposition to every held record whose
    /// span id matches (the profiler calls this as each op retires;
    /// capture happens before the op's `client_op` span closes, so the
    /// record is already in the ring). Pure host-side bookkeeping.
    pub fn annotate_path(&self, span_id: u64, path: &crate::profiler::CriticalPath) {
        for e in self.inner.ring.borrow_mut().iter_mut() {
            if e.span_id == span_id && e.path.is_none() {
                e.path = Some(path.clone());
            }
        }
    }

    /// Appends unconditionally (callers that gate themselves).
    pub fn push(&self, e: Exemplar) {
        let mut ring = self.inner.ring.borrow_mut();
        while ring.len() >= self.cfg.capacity.max(1) {
            ring.pop_front();
            self.dropped.set(self.dropped.get() + 1);
        }
        ring.push_back(e);
        self.captured.set(self.captured.get() + 1);
    }

    /// Completions offered to the gate.
    pub fn seen(&self) -> u64 {
        self.seen.get()
    }

    /// Records captured (including any since dropped).
    pub fn captured(&self) -> u64 {
        self.captured.get()
    }

    /// Records evicted by the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Records currently held, oldest first.
    pub fn len(&self) -> usize {
        self.inner.ring.borrow().len()
    }

    /// True when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the held records, oldest first.
    pub fn snapshot(&self) -> Vec<Exemplar> {
        self.inner.ring.borrow().iter().cloned().collect()
    }

    /// Clears the ring and counters (a `stats reset`).
    pub fn reset(&self) {
        self.inner.ring.borrow_mut().clear();
        self.seen.set(0);
        self.captured.set(0);
        self.dropped.set(0);
    }

    /// The held records rendered as one line each (the dump format the
    /// health monitor stores on a Degraded transition).
    pub fn render(&self) -> String {
        let ring = self.inner.ring.borrow();
        let mut out = String::new();
        for e in ring.iter() {
            out.push_str(&format!(
                "exemplar op={} hist={} span={} key=0x{:016x} bytes={} \
                 latency_us={:.3} threshold_us={:.3} at_us={:.3}",
                e.op,
                e.hist,
                e.span_id,
                e.key_hash,
                e.bytes,
                e.latency.as_micros_f64(),
                e.threshold.as_micros_f64(),
                e.at.as_micros_f64(),
            ));
            if let Some(p) = e.path.as_ref() {
                out.push_str(&format!(
                    " dominant={} signature={} residual_ns={}",
                    p.dominant_stage().label(),
                    p.signature(0.10),
                    p.residual_ns,
                ));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    #[test]
    fn gate_arms_after_min_samples_and_captures_tail() {
        let ring = ExemplarRing::new(ExemplarConfig {
            capacity: 8,
            quantile: 0.9,
            min_samples: 10,
        });
        let hist = Histogram::new();
        // Below min_samples: even a huge latency is not captured.
        hist.record(us(1000));
        assert!(!ring.offer(&hist, "h", "get", 1, 4, us(1000), 7, SimTime::ZERO));
        // Populate a tight distribution, then offer a tail sample.
        for _ in 0..20 {
            hist.record(us(10));
        }
        assert!(!ring.offer(&hist, "h", "get", 1, 4, us(9), 8, SimTime::ZERO));
        hist.record(us(500));
        assert!(ring.offer(&hist, "h", "get", 2, 4, us(500), 9, SimTime::from_nanos(5)));
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 1);
        assert!(snap[0].latency >= snap[0].threshold);
        assert_eq!(snap[0].span_id, 9);
        assert_eq!(ring.seen(), 3);
        assert_eq!(ring.captured(), 1);
    }

    #[test]
    fn ring_bounds_and_reset() {
        let ring = ExemplarRing::new(ExemplarConfig {
            capacity: 4,
            quantile: 0.5,
            min_samples: 0,
        });
        for i in 0..10u64 {
            ring.push(Exemplar {
                op: "get",
                key_hash: i,
                bytes: 0,
                latency: us(i),
                threshold: us(0),
                at: SimTime::ZERO,
                span_id: i,
                hist: "h".to_string(),
                path: None,
            });
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 6);
        assert_eq!(ring.snapshot()[0].span_id, 6, "oldest surviving record");
        assert!(ring.render().lines().count() == 4);
        ring.reset();
        assert!(ring.is_empty());
        assert_eq!(ring.captured(), 0);
    }
}
