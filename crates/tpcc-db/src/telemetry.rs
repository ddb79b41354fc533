//! Windowed run telemetry: terminals accumulate into private
//! cumulative shards; a harvester diffs those shards (and the
//! recorder's counters) per flush window and emits one
//! [`TimeSeriesPoint`] JSON line — live p50/p95/p99 per transaction
//! type, throughput, buffer-miss ppm, lock wounds/waits, latch
//! contention, WAL bytes, and (under group commit) flushes, commits
//! per flush, and the window's p95 commit wait, all without funneling
//! per-sample traffic through shared slots.
//!
//! # Flush modes
//!
//! - **Every K transactions** (`every_txns > 0`): the terminal whose
//!   completion crosses a multiple of K performs the harvest inline.
//!   Deterministic window boundaries, good for seeded comparisons.
//! - **Every N milliseconds** (`every_ms > 0`): the parallel driver
//!   spawns a flusher thread that harvests on a timer. Uniform wall
//!   time per window, good for watching a live run.
//!
//! Both modes can be combined; each harvest emits the delta since the
//! previous one, whoever triggered it.
//!
//! # Why cumulative shards + diffing
//!
//! Each terminal owns an `Arc<Mutex<WindowAccum>>` that only grows; the
//! per-transaction cost is one uncontended mutex plus a sketch
//! increment. The harvester clones every shard, subtracts its previous
//! clone ([`QuantileSketch::delta_since`] is exact for counts and
//! quantiles), and merges the per-shard window deltas losslessly. No
//! terminal ever blocks on another terminal's telemetry, and nothing
//! is reset in place — a harvest racing a recording terminal just
//! attributes the straddling transaction to one window or the next.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::driver::TX_NAMES;
use tpcc_obs::{
    Label, MemoryRecorder, QuantileSketch, SeriesStat, TimeSeriesPoint, TimeSeriesWriter,
};

/// Counters whose per-window deltas are exported on every point
/// (summed across labels via [`MemoryRecorder::counter_total`]).
/// `wal_flushes` / `group_commits` stay zero unless the run enables
/// group commit, the four MVCC columns (`snapshot_reads`,
/// `versions_traversed`, `undo_bytes`, `aborts`) stay zero unless
/// `DbConfig::mvcc` is on, and the two CDC columns (`cdc_events`,
/// `cdc_batches`) stay zero unless a [`crate::views::CdcPipeline`]
/// polls during the run — the schema is additive over prior runs.
const WINDOW_COUNTERS: [&str; 14] = [
    "buf_hits",
    "buf_misses",
    "wal_bytes_appended",
    "lock_wounds",
    "lock_waits",
    "latch_contended",
    "wal_flushes",
    "group_commits",
    "snapshot_reads",
    "versions_traversed",
    "undo_bytes",
    "aborts",
    "cdc_events",
    "cdc_batches",
];

/// `WINDOW_COUNTERS` index of `wal_flushes`.
const IDX_WAL_FLUSHES: usize = 6;
/// `WINDOW_COUNTERS` index of `group_commits`.
const IDX_GROUP_COMMITS: usize = 7;

/// When to flush a window.
#[derive(Debug, Clone, Copy, Default)]
pub struct TelemetryConfig {
    /// Harvest every this many completed transactions (0 = off).
    pub every_txns: u64,
    /// Harvest every this many milliseconds (0 = off; parallel driver
    /// only — the serial driver has no flusher thread).
    pub every_ms: u64,
}

/// One terminal's cumulative telemetry state. Monotonic: the harvester
/// diffs clones, nothing is ever reset.
#[derive(Debug, Clone, Default)]
pub struct WindowAccum {
    executed: [u64; 5],
    retries: u64,
    lat: [QuantileSketch; 5],
}

impl WindowAccum {
    /// Records one completed transaction of type `t` with latency `ns`.
    pub fn record(&mut self, t: usize, ns: u64) {
        self.executed[t] += 1;
        self.lat[t].record(ns);
    }

    /// Records one wound-induced retry.
    pub fn record_retry(&mut self) {
        self.retries += 1;
    }
}

/// Harvester state: the previous harvest's shard clones and counter
/// totals, i.e. the baseline every window delta is computed against.
struct HarvestState {
    prev_shards: Vec<WindowAccum>,
    prev_counters: [u64; WINDOW_COUNTERS.len()],
    /// Previous snapshot of the group-commit wait histogram, so each
    /// window's `commit_wait_p95_us` covers only that window.
    prev_commit_wait: QuantileSketch,
    /// Previous snapshot of the CDC pre-poll lag histogram, so each
    /// window's `cdc_lag_p95` covers only that window's polls.
    prev_cdc_lag: QuantileSketch,
    last_flush: Instant,
}

/// The shared telemetry hub for one run: per-terminal shards, the
/// window harvester, and the JSON-lines writer.
pub struct Telemetry {
    shards: Vec<Arc<Mutex<WindowAccum>>>,
    recorder: Arc<MemoryRecorder>,
    writer: Mutex<TimeSeriesWriter<Box<dyn Write + Send>>>,
    harvest_state: Mutex<HarvestState>,
    cfg: TelemetryConfig,
    completed: AtomicU64,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("terminals", &self.shards.len())
            .field("cfg", &self.cfg)
            .finish()
    }
}

impl Telemetry {
    /// A hub for `terminals` terminals writing JSON lines to `out`.
    /// The run-relative `t_ms` clock starts now.
    #[must_use]
    pub fn new(
        recorder: Arc<MemoryRecorder>,
        out: Box<dyn Write + Send>,
        cfg: TelemetryConfig,
        terminals: usize,
    ) -> Arc<Self> {
        let terminals = terminals.max(1);
        Arc::new(Self {
            shards: (0..terminals)
                .map(|_| Arc::new(Mutex::new(WindowAccum::default())))
                .collect(),
            recorder,
            writer: Mutex::new(TimeSeriesWriter::new(out)),
            harvest_state: Mutex::new(HarvestState {
                prev_shards: vec![WindowAccum::default(); terminals],
                prev_counters: [0; WINDOW_COUNTERS.len()],
                prev_commit_wait: QuantileSketch::default(),
                prev_cdc_lag: QuantileSketch::default(),
                last_flush: Instant::now(),
            }),
            cfg,
            completed: AtomicU64::new(0),
        })
    }

    /// The flush configuration this hub was built with.
    #[must_use]
    pub fn config(&self) -> TelemetryConfig {
        self.cfg
    }

    /// Terminal `t`'s shard (terminals beyond the constructed count
    /// share the last shard rather than panic).
    #[must_use]
    pub fn shard(&self, t: usize) -> Arc<Mutex<WindowAccum>> {
        Arc::clone(&self.shards[t.min(self.shards.len() - 1)])
    }

    /// Notes one completed transaction; in every-K-transactions mode
    /// the completion that crosses a window boundary harvests inline.
    pub fn note_completion(&self) {
        let n = self.completed.fetch_add(1, Ordering::Relaxed) + 1;
        if self.cfg.every_txns > 0 && n.is_multiple_of(self.cfg.every_txns) {
            self.harvest();
        }
    }

    /// Takes one window: clones every shard, diffs against the
    /// previous harvest (shards and recorder counters), and emits one
    /// time-series point covering exactly the interval since the last
    /// harvest.
    pub fn harvest(&self) {
        let mut hs = self.harvest_state.lock().expect("telemetry harvest");
        let window_ms = hs.last_flush.elapsed().as_secs_f64() * 1e3;
        hs.last_flush = Instant::now();

        let cur: Vec<WindowAccum> = self
            .shards
            .iter()
            .map(|s| s.lock().expect("telemetry shard").clone())
            .collect();
        let mut executed = [0u64; 5];
        let mut retries = 0u64;
        let mut lat: [QuantileSketch; 5] = std::array::from_fn(|_| QuantileSketch::default());
        for (c, p) in cur.iter().zip(hs.prev_shards.iter()) {
            for t in 0..5 {
                executed[t] += c.executed[t] - p.executed[t];
                lat[t].merge(&c.lat[t].delta_since(&p.lat[t]));
            }
            retries += c.retries - p.retries;
        }
        hs.prev_shards = cur;

        let totals: [u64; WINDOW_COUNTERS.len()] =
            std::array::from_fn(|i| self.recorder.counter_total(WINDOW_COUNTERS[i]));
        let deltas: [u64; WINDOW_COUNTERS.len()] =
            std::array::from_fn(|i| totals[i].saturating_sub(hs.prev_counters[i]));
        hs.prev_counters = totals;

        let window_s = (window_ms / 1e3).max(f64::MIN_POSITIVE);
        let series: Vec<(&'static str, SeriesStat)> = (0..5)
            .map(|t| {
                (
                    TX_NAMES[t],
                    SeriesStat {
                        txns: executed[t],
                        tps: executed[t] as f64 / window_s,
                        p50_us: lat[t].quantile(0.50) / 1e3,
                        p95_us: lat[t].quantile(0.95) / 1e3,
                        p99_us: lat[t].quantile(0.99) / 1e3,
                    },
                )
            })
            .collect();
        let hits = deltas[0];
        let misses = deltas[1];
        let refs = hits + misses;
        let miss_ppm = if refs == 0 {
            0.0
        } else {
            misses as f64 / refs as f64 * 1e6
        };
        let mut counters: Vec<(&'static str, u64)> = WINDOW_COUNTERS
            .iter()
            .zip(deltas.iter())
            .map(|(&n, &d)| (n, d))
            .collect();
        counters.push(("txn_retries", retries));

        // group-commit window stats: flush batching factor and the
        // window-local p95 commit wait (zero unless group commit is on)
        let commit_wait = self
            .recorder
            .histogram("commit_wait_ns", Label::None)
            .unwrap_or_default();
        let wait_delta = commit_wait.delta_since(&hs.prev_commit_wait);
        hs.prev_commit_wait = commit_wait;
        let flushes = deltas[IDX_WAL_FLUSHES];
        let commits_per_flush = if flushes == 0 {
            0.0
        } else {
            deltas[IDX_GROUP_COMMITS] as f64 / flushes as f64
        };
        let commit_wait_p95_us = wait_delta.quantile(0.95) / 1e3;

        // CDC window stats: the p95 of the pre-poll subscriber lag
        // (WAL entries behind the durable committed prefix; zero
        // unless a pipeline polls during the run)
        let cdc_lag = self
            .recorder
            .histogram("cdc_lag_entries", Label::None)
            .unwrap_or_default();
        let cdc_lag_delta = cdc_lag.delta_since(&hs.prev_cdc_lag);
        hs.prev_cdc_lag = cdc_lag;
        let cdc_lag_p95 = cdc_lag_delta.quantile(0.95);

        let point = TimeSeriesPoint {
            window_ms,
            txns: executed.iter().sum(),
            series,
            counters,
            gauges: vec![
                ("miss_ppm", miss_ppm),
                ("commits_per_flush", commits_per_flush),
                ("commit_wait_p95_us", commit_wait_p95_us),
                ("cdc_lag_p95", cdc_lag_p95),
            ],
        };
        // hold the harvest lock across the emit so points are written
        // in window order
        self.writer
            .lock()
            .expect("telemetry writer")
            .emit(&point)
            .expect("telemetry emit");
    }

    /// Harvests the final partial window (if any transactions or
    /// counter traffic remain unflushed) and flushes the sink.
    pub fn finish(&self) {
        let pending = {
            let hs = self.harvest_state.lock().expect("telemetry harvest");
            let done: u64 = self
                .shards
                .iter()
                .map(|s| {
                    s.lock()
                        .expect("telemetry shard")
                        .executed
                        .iter()
                        .sum::<u64>()
                })
                .sum();
            let flushed: u64 = hs
                .prev_shards
                .iter()
                .map(|p| p.executed.iter().sum::<u64>())
                .sum();
            done > flushed
        };
        if pending || self.points_written() == 0 {
            self.harvest();
        }
        self.writer
            .lock()
            .expect("telemetry writer")
            .finish()
            .expect("telemetry flush");
    }

    /// Time-series points emitted so far.
    #[must_use]
    pub fn points_written(&self) -> u64 {
        self.writer
            .lock()
            .expect("telemetry writer")
            .points_written()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A Vec sink shareable with the test for post-run inspection.
    #[derive(Clone, Default)]
    struct SharedSink(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn txn_count_windows_emit_exact_deltas() {
        let rec = Arc::new(MemoryRecorder::new());
        let sink = SharedSink::default();
        let cfg = TelemetryConfig {
            every_txns: 10,
            ..TelemetryConfig::default()
        };
        let tel = Telemetry::new(rec, Box::new(sink.clone()), cfg, 2);
        let (s0, s1) = (tel.shard(0), tel.shard(1));
        for i in 0..25u64 {
            let shard = if i % 2 == 0 { &s0 } else { &s1 };
            shard.lock().unwrap().record(0, 1_000 + i * 100);
            tel.note_completion();
        }
        tel.finish();
        let out = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "two full windows + the final partial");
        assert!(lines[0].contains("\"txns\":10"));
        assert!(lines[1].contains("\"txns\":10"));
        assert!(lines[2].contains("\"txns\":5"));
        assert!(lines[0].contains("\"new_order\":{\"txns\":10,"));
        assert!(lines[0].contains("\"miss_ppm\":0"));
        for l in &lines {
            assert!(l.starts_with("{\"seq\":"));
            assert!(l.contains("\"t_ms\":"));
        }
    }

    #[test]
    fn counter_deltas_are_windowed_not_cumulative() {
        let rec = Arc::new(MemoryRecorder::new());
        let sink = SharedSink::default();
        let tel = Telemetry::new(
            Arc::clone(&rec),
            Box::new(sink.clone()),
            TelemetryConfig::default(),
            1,
        );
        let obs = tpcc_obs::Obs::new(rec.clone());
        obs.counter("buf_misses", tpcc_obs::Label::Idx(1), 30);
        obs.counter("buf_hits", tpcc_obs::Label::Idx(1), 70);
        tel.shard(0).lock().unwrap().record(1, 5_000);
        tel.harvest();
        obs.counter("buf_misses", tpcc_obs::Label::Idx(2), 10);
        obs.counter("buf_hits", tpcc_obs::Label::Idx(2), 90);
        tel.shard(0).lock().unwrap().record(1, 6_000);
        tel.harvest();
        let out = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"buf_misses\":30"), "{}", lines[0]);
        assert!(
            lines[0].contains("\"miss_ppm\":300000"),
            "30 misses in 100 refs: {}",
            lines[0]
        );
        assert!(lines[1].contains("\"buf_misses\":10"), "{}", lines[1]);
        assert!(
            lines[1].contains("\"miss_ppm\":100000"),
            "window-local, not cumulative: {}",
            lines[1]
        );
    }

    #[test]
    fn group_commit_columns_are_windowed() {
        let rec = Arc::new(MemoryRecorder::new());
        let sink = SharedSink::default();
        let tel = Telemetry::new(
            Arc::clone(&rec),
            Box::new(sink.clone()),
            TelemetryConfig::default(),
            1,
        );
        let obs = tpcc_obs::Obs::new(rec);
        let flushes = obs.counter_handle("wal_flushes", tpcc_obs::Label::None);
        let commits = obs.counter_handle("group_commits", tpcc_obs::Label::None);
        let wait = obs.histogram_handle("commit_wait_ns", tpcc_obs::Label::None);
        flushes.add(2);
        commits.add(10);
        for _ in 0..50 {
            wait.record(200_000); // 200 µs
        }
        tel.shard(0).lock().unwrap().record(0, 1_000);
        tel.harvest();
        // second window: different batching factor, different waits
        flushes.add(4);
        commits.add(4);
        for _ in 0..50 {
            wait.record(800_000); // 800 µs
        }
        tel.shard(0).lock().unwrap().record(0, 1_000);
        tel.harvest();
        let out = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"wal_flushes\":2"), "{}", lines[0]);
        assert!(lines[0].contains("\"commits_per_flush\":5"), "{}", lines[0]);
        assert!(lines[1].contains("\"wal_flushes\":4"), "{}", lines[1]);
        assert!(lines[1].contains("\"commits_per_flush\":1"), "{}", lines[1]);
        let p95 = |l: &str| {
            let j = l.find("\"commit_wait_p95_us\":").unwrap() + 21;
            let end = l[j..].find([',', '}']).unwrap() + j;
            l[j..end].parse::<f64>().unwrap()
        };
        let (a, b) = (p95(lines[0]), p95(lines[1]));
        assert!((a - 200.0).abs() / 200.0 < 0.05, "window 1 p95 {a}");
        assert!(
            (b - 800.0).abs() / 800.0 < 0.05,
            "window-local, not cumulative: {b}"
        );
    }

    #[test]
    fn mvcc_columns_are_windowed() {
        let rec = Arc::new(MemoryRecorder::new());
        let sink = SharedSink::default();
        let tel = Telemetry::new(
            Arc::clone(&rec),
            Box::new(sink.clone()),
            TelemetryConfig::default(),
            1,
        );
        let obs = tpcc_obs::Obs::new(rec);
        let reads = obs.counter_handle("snapshot_reads", tpcc_obs::Label::None);
        let hops = obs.counter_handle("versions_traversed", tpcc_obs::Label::None);
        let bytes = obs.counter_handle("undo_bytes", tpcc_obs::Label::None);
        let aborts = obs.counter_handle("aborts", tpcc_obs::Label::None);
        reads.add(40);
        hops.add(7);
        bytes.add(1_024);
        tel.shard(0).lock().unwrap().record(4, 1_000);
        tel.harvest();
        // second window: an abort fires, traversal picks up
        reads.add(10);
        hops.add(30);
        aborts.add(1);
        tel.shard(0).lock().unwrap().record(4, 1_000);
        tel.harvest();
        let out = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"snapshot_reads\":40"), "{}", lines[0]);
        assert!(
            lines[0].contains("\"versions_traversed\":7"),
            "{}",
            lines[0]
        );
        assert!(lines[0].contains("\"undo_bytes\":1024"), "{}", lines[0]);
        assert!(lines[0].contains("\"aborts\":0"), "{}", lines[0]);
        assert!(
            lines[1].contains("\"snapshot_reads\":10"),
            "window-local, not cumulative: {}",
            lines[1]
        );
        assert!(
            lines[1].contains("\"versions_traversed\":30"),
            "{}",
            lines[1]
        );
        assert!(lines[1].contains("\"undo_bytes\":0"), "{}", lines[1]);
        assert!(lines[1].contains("\"aborts\":1"), "{}", lines[1]);
    }

    #[test]
    fn window_quantiles_cover_only_the_window() {
        let rec = Arc::new(MemoryRecorder::new());
        let sink = SharedSink::default();
        let tel = Telemetry::new(rec, Box::new(sink.clone()), TelemetryConfig::default(), 1);
        let shard = tel.shard(0);
        for _ in 0..100 {
            shard.lock().unwrap().record(0, 1_000_000); // 1 ms
        }
        tel.harvest();
        for _ in 0..100 {
            shard.lock().unwrap().record(0, 9_000_000); // 9 ms
        }
        tel.harvest();
        let out = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        let p50 = |l: &str| {
            let i = l.find("\"new_order\":{").unwrap();
            let j = l[i..].find("\"p50_us\":").unwrap() + i + 9;
            let end = l[j..].find(',').unwrap() + j;
            l[j..end].parse::<f64>().unwrap()
        };
        let (a, b) = (p50(lines[0]), p50(lines[1]));
        assert!((a - 1_000.0).abs() / 1_000.0 < 0.011, "window 1 p50 {a}");
        assert!((b - 9_000.0).abs() / 9_000.0 < 0.011, "window 2 p50 {b}");
    }
}
