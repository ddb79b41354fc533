//! The in-memory aggregating recorder and its snapshot type — the one
//! recorder every [`Obs`](crate::Obs) handle records into.
//!
//! [`MemoryRecorder`] keeps counters as shared atomics behind a
//! read-mostly map (the write lock is only taken the first time a new
//! `(metric, label)` pair appears), histogram **quantile sketches**
//! behind per-slot mutexes, and a running per-path aggregate of
//! completed spans. Taking a [`Snapshot`] never disturbs recording
//! threads beyond those same short locks. Hot multi-threaded paths
//! avoid even the per-slot mutex by keeping thread-local sketches and
//! handing them over through
//! [`HistogramHandle::merge`](crate::HistogramHandle::merge) at merge
//! points.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use crate::recorder::Label;
use crate::sketch::{HistSummary, QuantileSketch};
use crate::trace::TraceCollector;

/// Running aggregate for one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Occurrences recorded.
    pub count: u64,
    /// Total inclusive wall-clock nanoseconds.
    pub total_ns: u64,
    /// Longest single occurrence.
    pub max_ns: u64,
}

/// A read-mostly map from `(metric, label)` to a shared slot.
type SlotMap<V> = RwLock<HashMap<(&'static str, Label), V>>;

/// An aggregating, thread-safe recorder that holds everything in
/// memory until a [`Snapshot`] is taken.
#[derive(Default)]
pub struct MemoryRecorder {
    counters: SlotMap<Arc<AtomicU64>>,
    gauges: SlotMap<Arc<AtomicU64>>, // f64 bits
    hists: SlotMap<Arc<Mutex<QuantileSketch>>>,
    spans: Mutex<HashMap<String, SpanStat>>,
    index_names: RwLock<HashMap<u32, String>>,
    trace: RwLock<Option<Arc<TraceCollector>>>,
}

impl std::fmt::Debug for MemoryRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryRecorder").finish_non_exhaustive()
    }
}

/// Runs `f` against the slot for `key`, inserting it first if absent.
/// The steady-state path holds only the read lock and never clones the
/// slot's `Arc` — counters on the buffer-fault path go through here.
fn with_slot<V, R>(
    map: &SlotMap<V>,
    key: (&'static str, Label),
    mk: impl FnOnce() -> V,
    f: impl FnOnce(&V) -> R,
) -> R {
    if let Some(v) = map.read().expect("obs map lock").get(&key) {
        return f(v);
    }
    f(map
        .write()
        .expect("obs map lock")
        .entry(key)
        .or_insert_with(mk))
}

impl MemoryRecorder {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Current value of a counter (0 if never touched).
    #[must_use]
    pub fn counter_value(&self, name: &'static str, label: Label) -> u64 {
        self.counters
            .read()
            .expect("obs map lock")
            .get(&(name, label))
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Sum of a counter across **all** labels — e.g. total
    /// `buf_misses` over every per-relation `Idx` label. Used by the
    /// time-series flusher to compute window deltas of metrics that
    /// are naturally per-file.
    #[must_use]
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .read()
            .expect("obs map lock")
            .iter()
            .filter(|((n, _), _)| *n == name)
            .map(|(_, c)| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Installs (replacing any previous) a [`TraceCollector`] with the
    /// given per-thread ring capacity and returns it. Install **before**
    /// attaching the recorder to instrumented components: trace handles
    /// are resolved once, at attach time.
    pub fn install_trace(&self, per_thread_capacity: usize) -> Arc<TraceCollector> {
        let tc = Arc::new(TraceCollector::new(per_thread_capacity));
        *self.trace.write().expect("obs trace lock") = Some(Arc::clone(&tc));
        tc
    }

    /// Current value of a gauge, if ever set.
    #[must_use]
    pub fn gauge_value(&self, name: &'static str, label: Label) -> Option<f64> {
        self.gauges
            .read()
            .expect("obs map lock")
            .get(&(name, label))
            .map(|g| f64::from_bits(g.load(Ordering::Relaxed)))
    }

    /// A copy of the named histogram sketch, if the slot exists.
    #[must_use]
    pub fn histogram(&self, name: &'static str, label: Label) -> Option<QuantileSketch> {
        self.hists
            .read()
            .expect("obs map lock")
            .get(&(name, label))
            .map(|h| h.lock().expect("obs hist lock").clone())
    }

    /// Aggregate for one span path, if it ever completed.
    #[must_use]
    pub fn span_stat(&self, path: &str) -> Option<SpanStat> {
        self.spans.lock().expect("obs span lock").get(path).copied()
    }

    /// Renders a display key for a metric: `name` alone, or
    /// `name/label` with `Idx` labels resolved through the registered
    /// index names.
    fn render_key(&self, name: &str, label: Label) -> String {
        match label {
            Label::None => name.to_string(),
            Label::Name(l) => format!("{name}/{l}"),
            Label::Idx(i) => {
                let names = self.index_names.read().expect("obs map lock");
                match names.get(&i) {
                    Some(n) => format!("{name}/{n}"),
                    None => format!("{name}/file{i}"),
                }
            }
        }
    }

    /// Takes a consistent-enough point-in-time snapshot of every
    /// metric and span aggregate, with labels resolved and rows sorted
    /// by key.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let mut counters: Vec<(String, u64)> = self
            .counters
            .read()
            .expect("obs map lock")
            .iter()
            .map(|((n, l), v)| (self.render_key(n, *l), v.load(Ordering::Relaxed)))
            .collect();
        counters.sort();
        let mut gauges: Vec<(String, f64)> = self
            .gauges
            .read()
            .expect("obs map lock")
            .iter()
            .map(|((n, l), v)| {
                (
                    self.render_key(n, *l),
                    f64::from_bits(v.load(Ordering::Relaxed)),
                )
            })
            .collect();
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        let mut histograms: Vec<(String, HistSummary)> = self
            .hists
            .read()
            .expect("obs map lock")
            .iter()
            .map(|((n, l), h)| {
                (
                    self.render_key(n, *l),
                    HistSummary::of(&h.lock().expect("obs hist lock")),
                )
            })
            .collect();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        let mut spans: Vec<(String, SpanStat)> = self
            .spans
            .lock()
            .expect("obs span lock")
            .iter()
            .map(|(p, s)| (p.clone(), *s))
            .collect();
        spans.sort_by(|a, b| a.0.cmp(&b.0));
        Snapshot {
            counters,
            gauges,
            histograms,
            spans,
        }
    }
}

/// The recording side, reached through [`Obs`](crate::Obs) and the
/// pre-resolved handles.
impl MemoryRecorder {
    pub(crate) fn counter_add(&self, name: &'static str, label: Label, delta: u64) {
        with_slot(
            &self.counters,
            (name, label),
            || Arc::new(AtomicU64::new(0)),
            |c| c.fetch_add(delta, Ordering::Relaxed),
        );
    }

    pub(crate) fn gauge_set(&self, name: &'static str, label: Label, value: f64) {
        with_slot(
            &self.gauges,
            (name, label),
            || Arc::new(AtomicU64::new(0)),
            |g| g.store(value.to_bits(), Ordering::Relaxed),
        );
    }

    pub(crate) fn observe(&self, name: &'static str, label: Label, value: u64) {
        with_slot(
            &self.hists,
            (name, label),
            || Arc::new(Mutex::new(QuantileSketch::default())),
            |h| h.lock().expect("obs hist lock").record(value),
        );
    }

    /// Adds one occurrence to the aggregate of `path`, the
    /// `/`-separated chain of enclosing span names.
    pub(crate) fn span_record(&self, path: &str, nanos: u64) {
        let mut spans = self.spans.lock().expect("obs span lock");
        // get_mut first: the steady state touches an existing path and
        // must not pay `entry`'s unconditional key allocation
        match spans.get_mut(path) {
            Some(stat) => {
                stat.count += 1;
                stat.total_ns += nanos;
                stat.max_ns = stat.max_ns.max(nanos);
            }
            None => {
                spans.insert(
                    path.to_string(),
                    SpanStat {
                        count: 1,
                        total_ns: nanos,
                        max_ns: nanos,
                    },
                );
            }
        }
    }

    pub(crate) fn register_index(&self, idx: u32, name: &str) {
        self.index_names
            .write()
            .expect("obs map lock")
            .insert(idx, name.to_string());
    }

    pub(crate) fn counter_slot(&self, name: &'static str, label: Label) -> Arc<AtomicU64> {
        with_slot(
            &self.counters,
            (name, label),
            || Arc::new(AtomicU64::new(0)),
            Arc::clone,
        )
    }

    pub(crate) fn gauge_slot(&self, name: &'static str, label: Label) -> Arc<AtomicU64> {
        with_slot(
            &self.gauges,
            (name, label),
            || Arc::new(AtomicU64::new(0)),
            Arc::clone,
        )
    }

    pub(crate) fn histogram_slot(
        &self,
        name: &'static str,
        label: Label,
    ) -> Arc<Mutex<QuantileSketch>> {
        with_slot(
            &self.hists,
            (name, label),
            || Arc::new(Mutex::new(QuantileSketch::default())),
            Arc::clone,
        )
    }

    /// The installed trace collector, if any.
    pub(crate) fn trace_sink(&self) -> Option<Arc<TraceCollector>> {
        self.trace.read().expect("obs trace lock").clone()
    }
}

/// A point-in-time copy of everything a [`MemoryRecorder`] holds, with
/// labels resolved to display keys and rows sorted. This is the input
/// to both exporters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// `(key, value)` counter rows.
    pub counters: Vec<(String, u64)>,
    /// `(key, value)` gauge rows.
    pub gauges: Vec<(String, f64)>,
    /// `(key, summary)` histogram rows.
    pub histograms: Vec<(String, HistSummary)>,
    /// `(path, aggregate)` span rows, sorted by path — so children
    /// immediately follow their parents.
    pub spans: Vec<(String, SpanStat)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Obs;
    use std::sync::Arc;

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let rec = Arc::new(MemoryRecorder::new());
        let obs = Obs::new(rec.clone());
        obs.counter("txn_total", Label::Name("new_order"), 2);
        obs.counter("txn_total", Label::Name("new_order"), 3);
        obs.gauge("pool_pages", Label::None, 128.0);
        obs.observe("lat", Label::None, 100);
        obs.observe("lat", Label::None, 300);
        assert_eq!(rec.counter_value("txn_total", Label::Name("new_order")), 5);
        assert_eq!(rec.gauge_value("pool_pages", Label::None), Some(128.0));
        let h = rec.histogram("lat", Label::None).unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 300);
    }

    #[test]
    fn nested_spans_build_paths_and_sum() {
        let rec = Arc::new(MemoryRecorder::new());
        let obs = Obs::new(rec.clone());
        for _ in 0..3 {
            let _outer = obs.span("new_order");
            {
                let _inner = obs.span("btree_lookup");
            }
            {
                let _inner = obs.span("btree_lookup");
            }
        }
        let outer = rec.span_stat("new_order").unwrap();
        let inner = rec.span_stat("new_order/btree_lookup").unwrap();
        assert_eq!(outer.count, 3);
        assert_eq!(inner.count, 6);
        // the parent's inclusive time covers its children's
        assert!(outer.total_ns >= inner.total_ns);
        assert!(rec.span_stat("btree_lookup").is_none(), "path is nested");
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let obs = Obs::disabled();
        assert!(!obs.enabled());
        // none of these should panic or allocate recorder state; a
        // nested span on a disabled handle must leave the thread-local
        // stack untouched for later enabled spans on the same thread
        obs.counter("c", Label::None, 1);
        obs.gauge("g", Label::Idx(3), 1.0);
        obs.observe("h", Label::None, 42);
        {
            let _dead = obs.span("ghost");
            let rec = Arc::new(MemoryRecorder::new());
            let live = Obs::new(rec.clone());
            {
                let _g = live.span("real");
            }
            assert!(rec.span_stat("real").is_some());
            assert!(rec.span_stat("ghost/real").is_none());
        }
    }

    #[test]
    fn idx_labels_resolve_registered_names() {
        let rec = Arc::new(MemoryRecorder::new());
        let obs = Obs::new(rec.clone());
        obs.register_index(7, "stock");
        obs.counter("buf_hits", Label::Idx(7), 4);
        obs.counter("buf_hits", Label::Idx(9), 1);
        let snap = rec.snapshot();
        let keys: Vec<&str> = snap.counters.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["buf_hits/file9", "buf_hits/stock"]);
    }
}
