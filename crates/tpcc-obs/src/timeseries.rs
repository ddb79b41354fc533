//! Windowed time-series telemetry: one JSON line per flush window, so
//! a run produces a *series* (`results/timeseries.jsonl`) instead of a
//! single end-of-run row — warmup transients, the I/O-bound knee, and
//! fault-retry storms become visible.
//!
//! The writer is schema-generic: the driving layer assembles a
//! [`TimeSeriesPoint`] per window (per-transaction-type sketch
//! quantiles, counter deltas, derived gauges) and the writer stamps it
//! with a monotonically increasing `seq` and a **run-relative
//! monotonic timestamp** `t_ms`, then appends one JSON line. It writes
//! through a [`JsonLines`] sink, which flushes on drop — including
//! during a panic unwind — so a crashed or fault-injected run keeps its
//! last complete window on disk.

use std::io::{self, Write};

use crate::export::{JsonLines, JsonObject};

/// Per-series (e.g. per transaction type) window statistics, taken
/// from a window-delta quantile sketch.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SeriesStat {
    /// Completions in the window.
    pub txns: u64,
    /// Completions per second over the window.
    pub tps: f64,
    /// Median latency in microseconds.
    pub p50_us: f64,
    /// 95th-percentile latency in microseconds.
    pub p95_us: f64,
    /// 99th-percentile latency in microseconds.
    pub p99_us: f64,
}

/// One flush window's payload, assembled by the driving layer.
#[derive(Debug, Clone, Default)]
pub struct TimeSeriesPoint {
    /// Window length in milliseconds (wall clock).
    pub window_ms: f64,
    /// Transactions completed in the window (all series).
    pub txns: u64,
    /// Per-series rows, e.g. one per transaction type.
    pub series: Vec<(&'static str, SeriesStat)>,
    /// Monotonic-counter deltas over the window (e.g. `buf_misses`,
    /// `wal_bytes`, `lock_wounds`).
    pub counters: Vec<(&'static str, u64)>,
    /// Derived instantaneous values (e.g. `miss_ppm`).
    pub gauges: Vec<(&'static str, f64)>,
}

/// Appends one JSON line per window, stamped with `seq` and the
/// run-relative monotonic `t_ms`.
#[derive(Debug)]
pub struct TimeSeriesWriter<W: Write>(JsonLines<W>);

impl<W: Write> TimeSeriesWriter<W> {
    /// A writer whose `t_ms` clock starts now.
    pub fn new(out: W) -> Self {
        Self(JsonLines::new(out))
    }

    /// Milliseconds since the writer's creation (the run-relative
    /// clock every emitted point is stamped with).
    #[must_use]
    pub fn t_ms(&self) -> f64 {
        self.0.t_ms()
    }

    /// Appends one point as a JSON line, stamping `seq` and `t_ms`.
    ///
    /// # Errors
    /// Propagates write errors from the underlying sink.
    pub fn emit(&mut self, point: &TimeSeriesPoint) -> io::Result<()> {
        let window_s = (point.window_ms / 1e3).max(f64::MIN_POSITIVE);
        let mut types = JsonObject::default();
        for (name, s) in &point.series {
            let mut o = JsonObject::default();
            o.uint("txns", s.txns).float("tps", s.tps);
            o.float("p50_us", s.p50_us).float("p95_us", s.p95_us);
            types.object(name, o.float("p99_us", s.p99_us));
        }
        let mut counters = JsonObject::default();
        for (name, v) in &point.counters {
            counters.uint(name, *v);
        }
        let mut gauges = JsonObject::default();
        for (name, v) in &point.gauges {
            gauges.float(name, *v);
        }
        let mut line = self.0.stamped();
        line.fixed("window_ms", point.window_ms, 3)
            .uint("txns", point.txns)
            .float("tps", point.txns as f64 / window_s)
            .object("types", &types)
            .object("counters", &counters)
            .object("gauges", &gauges);
        self.0.write(&line)
    }

    /// Points emitted so far.
    #[must_use]
    pub fn points_written(&self) -> u64 {
        self.0.lines_written()
    }

    /// Flushes the underlying sink.
    ///
    /// # Errors
    /// Propagates flush errors from the underlying sink.
    pub fn finish(&mut self) -> io::Result<()> {
        self.0.flush()
    }

    /// Consumes the writer, returning the underlying sink (flushed).
    pub fn into_inner(self) -> W {
        self.0.into_inner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_point() -> TimeSeriesPoint {
        TimeSeriesPoint {
            window_ms: 50.0,
            txns: 120,
            series: vec![(
                "new_order",
                SeriesStat {
                    txns: 50,
                    tps: 1000.0,
                    p50_us: 80.0,
                    p95_us: 410.0,
                    p99_us: 900.5,
                },
            )],
            counters: vec![("buf_misses", 17), ("wal_bytes", 4096)],
            gauges: vec![("miss_ppm", 1234.0)],
        }
    }

    #[test]
    fn emitted_lines_are_stamped_and_wellformed() {
        let mut w = TimeSeriesWriter::new(Vec::new());
        let t0 = w.t_ms();
        w.emit(&sample_point()).unwrap();
        w.emit(&sample_point()).unwrap();
        assert_eq!(w.points_written(), 2);
        assert!(w.t_ms() >= t0, "the run clock is monotonic");
        let out = String::from_utf8(w.into_inner()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"seq\":0,\"t_ms\":"));
        assert!(lines[1].starts_with("{\"seq\":1,\"t_ms\":"));
        for l in &lines {
            assert!(l.contains("\"window_ms\":50.000"));
            assert!(l.contains("\"tps\":2400"));
            assert!(l.contains("\"new_order\":{\"txns\":50,"));
            assert!(l.contains("\"p95_us\":410"));
            assert!(l.contains("\"buf_misses\":17"));
            assert!(l.contains("\"miss_ppm\":1234"));
            assert_eq!(l.matches('{').count(), l.matches('}').count());
        }
    }
}
