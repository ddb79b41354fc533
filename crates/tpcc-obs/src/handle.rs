//! Pre-resolved metric handles: the hot-path answer to the recorder's
//! shared slot maps.
//!
//! `Obs::counter(..)` and friends look the `(name, label)` slot up in a
//! read-mostly `RwLock<HashMap>` on *every* call. That is fine for cold
//! paths, but the multi-threaded driver hits counters from every
//! terminal thread and the shared read lock becomes the bottleneck
//! (measured at ~+48% single-threaded, worse under contention — see
//! EXPERIMENTS.md). A handle resolves the slot **once** and afterwards
//! records straight into the shared atomic (or per-histogram mutex)
//! with no name hashing and no map lock.
//!
//! Each handle is an `Option` of its slot: resolved against a disabled
//! [`Obs`] it is `None`, and every call is an inert one-branch no-op.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::recorder::{Label, Obs};
use crate::sketch::QuantileSketch;
use crate::trace::TraceCollector;

/// A pre-resolved counter. `add` is one branch plus one relaxed
/// `fetch_add`.
#[derive(Clone, Default)]
pub struct CounterHandle {
    slot: Option<Arc<AtomicU64>>,
}

impl std::fmt::Debug for CounterHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CounterHandle")
            .field("enabled", &self.slot.is_some())
            .finish()
    }
}

impl CounterHandle {
    /// A handle that records nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Self { slot: None }
    }

    /// Adds `delta` to the counter.
    #[inline]
    pub fn add(&self, delta: u64) {
        if let Some(slot) = &self.slot {
            slot.fetch_add(delta, Ordering::Relaxed);
        }
    }
}

/// A pre-resolved gauge (f64 stored as bits in a shared atomic).
#[derive(Clone, Default)]
pub struct GaugeHandle {
    slot: Option<Arc<AtomicU64>>,
}

impl std::fmt::Debug for GaugeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GaugeHandle")
            .field("enabled", &self.slot.is_some())
            .finish()
    }
}

impl GaugeHandle {
    /// A handle that records nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Self { slot: None }
    }

    /// Sets the gauge to `value`.
    #[inline]
    pub fn set(&self, value: f64) {
        if let Some(slot) = &self.slot {
            slot.store(value.to_bits(), Ordering::Relaxed);
        }
    }
}

/// A pre-resolved histogram.
#[derive(Clone, Default)]
pub struct HistogramHandle {
    slot: Option<Arc<Mutex<QuantileSketch>>>,
}

impl std::fmt::Debug for HistogramHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistogramHandle")
            .field("enabled", &self.slot.is_some())
            .finish()
    }
}

impl HistogramHandle {
    /// A handle that records nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Self { slot: None }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(slot) = &self.slot {
            slot.lock().expect("obs hist lock").record(value);
        }
    }

    /// Merges a locally-accumulated sketch into this histogram in one
    /// lock acquisition — the per-thread-sketch hand-off.
    pub fn merge(&self, sketch: &QuantileSketch) {
        if let Some(slot) = &self.slot {
            slot.lock().expect("obs hist lock").merge(sketch);
        }
    }
}

/// A pre-resolved trace-event emitter for one category. Inert unless a
/// [`TraceCollector`] was installed on the recorder **before** the
/// handle was resolved.
#[derive(Clone, Default)]
pub struct TraceHandle {
    inner: Option<(Arc<TraceCollector>, &'static str)>,
}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceHandle")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

impl TraceHandle {
    /// A handle that records nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Whether events will actually be recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Reads the clock only when enabled — lets call sites guard the
    /// `Instant::now()` they need for [`TraceHandle::record`].
    #[inline]
    #[must_use]
    pub fn now(&self) -> Option<Instant> {
        self.inner.as_ref().map(|_| Instant::now())
    }

    /// Records a completed occurrence `start → now` on the calling
    /// thread's timeline.
    #[inline]
    pub fn record(&self, name: &'static str, start: Instant) {
        if let Some((tc, cat)) = &self.inner {
            tc.record(name, cat, start);
        }
    }

    /// Like [`TraceHandle::record`] with the `Option<Instant>` that
    /// [`TraceHandle::now`] produced; a `None` start is a no-op.
    #[inline]
    pub fn record_opt(&self, name: &'static str, start: Option<Instant>) {
        if let Some(start) = start {
            self.record(name, start);
        }
    }
}

impl Obs {
    /// Resolves a counter handle for `(name, label)`. Resolve once at
    /// attach time, then call [`CounterHandle::add`] on the hot path.
    #[must_use]
    pub fn counter_handle(&self, name: &'static str, label: Label) -> CounterHandle {
        CounterHandle {
            slot: self.recorder().map(|r| r.counter_slot(name, label)),
        }
    }

    /// Resolves a gauge handle for `(name, label)`.
    #[must_use]
    pub fn gauge_handle(&self, name: &'static str, label: Label) -> GaugeHandle {
        GaugeHandle {
            slot: self.recorder().map(|r| r.gauge_slot(name, label)),
        }
    }

    /// Resolves a histogram handle for `(name, label)`.
    #[must_use]
    pub fn histogram_handle(&self, name: &'static str, label: Label) -> HistogramHandle {
        HistogramHandle {
            slot: self.recorder().map(|r| r.histogram_slot(name, label)),
        }
    }

    /// Resolves a trace handle for category `cat`. Enabled only when
    /// the recorder carries an installed trace collector at resolve
    /// time (`MemoryRecorder::install_trace` first, then attach).
    #[must_use]
    pub fn trace_handle(&self, cat: &'static str) -> TraceHandle {
        TraceHandle {
            inner: self
                .recorder()
                .and_then(|r| r.trace_sink())
                .map(|tc| (tc, cat)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryRecorder;

    #[test]
    fn slot_handles_share_state_with_dynamic_calls() {
        let rec = Arc::new(MemoryRecorder::new());
        let obs = Obs::new(rec.clone());
        let h = obs.counter_handle("txn_total", Label::Name("payment"));
        h.add(2);
        obs.counter("txn_total", Label::Name("payment"), 3);
        h.add(1);
        assert_eq!(rec.counter_value("txn_total", Label::Name("payment")), 6);

        let g = obs.gauge_handle("pool", Label::None);
        g.set(17.0);
        assert_eq!(rec.gauge_value("pool", Label::None), Some(17.0));

        let hist = obs.histogram_handle("lat", Label::Idx(3));
        hist.record(100);
        obs.observe("lat", Label::Idx(3), 300);
        let snap = rec.histogram("lat", Label::Idx(3)).unwrap();
        assert_eq!(snap.count(), 2);
        assert_eq!(snap.max(), 300);
    }

    #[test]
    fn disabled_obs_yields_inert_handles() {
        let obs = Obs::disabled();
        let c = obs.counter_handle("c", Label::None);
        let g = obs.gauge_handle("g", Label::None);
        let h = obs.histogram_handle("h", Label::None);
        c.add(1);
        g.set(1.0);
        h.record(1);
        // nothing to assert beyond "did not panic / did not allocate a
        // recorder"; the Default impls must match disabled()
        CounterHandle::default().add(1);
        GaugeHandle::default().set(0.0);
        HistogramHandle::default().record(0);
    }
}
