//! Observability for the TPC-C modeling suite: a lock-cheap metrics
//! registry, hierarchical tracing spans, mergeable quantile sketches
//! for latency, cross-thread trace timelines, and exporters.
//!
//! The design has three layers:
//!
//! - **Handle** — instrumented code holds an [`Obs`], a cloneable
//!   `Option<Arc<MemoryRecorder>>`. There is no global state: the
//!   handle is threaded through constructors/configs, and
//!   `Obs::disabled()` turns every call site into an inlined
//!   branch-on-`None` (measured overhead is reported in
//!   EXPERIMENTS.md). Hot paths pre-resolve
//!   [`CounterHandle`]/[`GaugeHandle`]/[`HistogramHandle`]/
//!   [`TraceHandle`] once at attach time.
//! - **One recorder** — [`MemoryRecorder`] aggregates counters
//!   (shared atomics), gauges, [`QuantileSketch`]es (bounded relative
//!   rank error, lossless merge — per-thread sketches hand off via
//!   [`HistogramHandle::merge`]), per-path span totals, and an optional
//!   [`TraceCollector`] of per-thread event rings.
//! - **Export** — [`Snapshot`] serializes as one JSON line
//!   ([`Snapshot::to_json_line`]) or renders as aligned text
//!   ([`Snapshot::render_table`], [`Snapshot::render_flame`]);
//!   [`TimeSeriesWriter`] emits one windowed telemetry point per
//!   flush; [`TraceCollector::export_chrome`] renders
//!   chrome://tracing JSON.
//!
//! ```
//! use std::sync::Arc;
//! use tpcc_obs::{Label, MemoryRecorder, Obs};
//!
//! let recorder = Arc::new(MemoryRecorder::new());
//! let obs = Obs::new(recorder.clone());
//! {
//!     let _txn = obs.span("new_order");
//!     let _lookup = obs.span("btree_lookup"); // path: new_order/btree_lookup
//!     obs.counter("node_visits", Label::None, 3);
//! }
//! obs.observe("latency_ns", Label::Name("new_order"), 12_345);
//! println!("{}", recorder.snapshot().render_table());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod handle;
mod memory;
mod recorder;
mod sketch;
mod timeseries;
mod trace;

pub use export::{JsonLines, JsonObject};
pub use handle::{CounterHandle, GaugeHandle, HistogramHandle, TraceHandle};
pub use memory::{MemoryRecorder, Snapshot, SpanStat};
pub use recorder::{Label, Obs, SpanGuard};
pub use sketch::{HistSummary, QuantileSketch, DEFAULT_SKETCH_ALPHA};
pub use timeseries::{SeriesStat, TimeSeriesPoint, TimeSeriesWriter};
pub use trace::{TraceCollector, TraceEvent, DEFAULT_TRACE_RING};
