//! The one cell runner every executed sweep shares: what a cell *is*
//! ([`CellSpec`]), how it is loaded ([`CellSpec::load`]), and the
//! `discarded warm-up → mark → measured run → deltas` sequence
//! ([`Cell::run`], or [`Cell::counters`] and [`Counters::since`] around
//! a run the sweep drives itself). A time-series window is such a run:
//! one measured chunk, read as [`Counters::window`].
//!
//! Every cell carries a [`MemoryRecorder`], so a sweep reads its
//! counters as deltas over the measured phase only; a database reused
//! from cell to cell never leaks one cell's warm-up or predecessor
//! into the next cell's numbers.

use std::sync::Arc;
use std::time::Duration;

use tpcc_db::db::DbConfig;
use tpcc_db::driver::{DriverConfig, TX_NAMES};
use tpcc_db::{loader, ParallelDriver, ParallelReport, TpccDb};
use tpcc_obs::{Label, MemoryRecorder, Obs, QuantileSketch, SeriesStat, TimeSeriesPoint};

/// One cell of a sweep: the database it runs on and the load it gets.
#[derive(Debug, Clone, Copy)]
pub struct CellSpec {
    /// Scale, buffer pool, simulated devices, WAL / group commit / MVCC.
    pub db: DbConfig,
    /// Transaction mix and input rules for every terminal.
    pub driver: DriverConfig,
    /// Terminal threads.
    pub terminals: u64,
    /// Measured transactions, over all terminals.
    pub transactions: u64,
    /// Transactions run and discarded before the measured phase.
    pub warmup: u64,
}

impl CellSpec {
    /// One default-mix terminal on `db`; the run lengths are the
    /// sweep's to fill in.
    #[must_use]
    pub fn new(db: DbConfig) -> Self {
        Self {
            db,
            driver: DriverConfig::default(),
            terminals: 1,
            transactions: 0,
            warmup: 0,
        }
    }

    /// The sweeps' shared operating point, the paper's I/O-bound
    /// region: a pool of 256 frames per warehouse holds only part of
    /// the working set and every fault pays 100 µs of synchronous
    /// read-I/O, so one terminal is I/O-bound and further terminals
    /// overlap their waits (the closed model's MPL axis; latch crabbing
    /// is what makes the overlap real — a faulting thread sleeps
    /// holding one frame latch, not a whole index). The paper-faithful
    /// single LRU shard would serialize every page access, so the pool
    /// is split 8 ways: the curves then show lock contention, not
    /// buffer-latch contention.
    #[must_use]
    pub fn io_bound(warehouses: u64) -> Self {
        let mut db = DbConfig::small();
        db.warehouses = warehouses;
        db.buffer_frames = 256 * warehouses as usize;
        db.buffer_shards = 8;
        db.io_delay_us = 100;
        Self::new(db)
    }

    /// Loads the database and attaches a fresh recorder.
    #[must_use]
    pub fn load(&self, seed: u64) -> Cell {
        self.load_on(seed, Arc::new(MemoryRecorder::new()))
    }

    /// Loads the database and attaches `recorder` (one the caller has
    /// already set up, e.g. with a trace collector installed).
    #[must_use]
    pub fn load_on(&self, seed: u64, recorder: Arc<MemoryRecorder>) -> Cell {
        let mut db = loader::load(self.db, seed);
        db.set_obs(Obs::new(recorder.clone()));
        Cell { db, recorder }
    }
}

/// A loaded cell: the database and the recorder attached to it.
pub struct Cell {
    /// The database; sweeps that drive a run themselves use it directly.
    pub db: TpccDb,
    /// The recorder every layer of `db` reports to.
    pub recorder: Arc<MemoryRecorder>,
}

/// The recorder counters a cell reads, each summed over its labels.
/// The first [`WINDOW_COUNTERS`] are a time-series window's `counters`
/// columns, in the order [`Counters::window`] writes them.
const COUNTERS: [&str; 16] = [
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
    "txn_retries",
    "lock_acquires",
];

/// How many of [`COUNTERS`] a time-series window reports.
const WINDOW_COUNTERS: usize = 15;

/// A cell's counters: cumulative as [`Cell::counters`] reads them, or
/// over an interval as [`Counters::since`] subtracts them.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    recorded: [u64; COUNTERS.len()],
    /// Transactions executed per type (mix order).
    executed: [u64; 5],
    /// Transaction latency per type in nanoseconds.
    latency_ns: [QuantileSketch; 5],
    /// Commit waits in nanoseconds (empty without threaded group
    /// commit: no other schedule waits).
    pub commit_wait_ns: QuantileSketch,
    /// CDC subscriber lag before each poll, in WAL entries (empty
    /// unless a pipeline polls).
    cdc_lag_entries: QuantileSketch,
}

impl Counters {
    /// The recorder's counters.
    fn read(recorder: &MemoryRecorder) -> Self {
        let histogram = |name, label| recorder.histogram(name, label).unwrap_or_default();
        Counters {
            recorded: COUNTERS.map(|name| recorder.counter_total(name)),
            executed: TX_NAMES.map(|t| recorder.counter_value("txn_executed", Label::Name(t))),
            latency_ns: TX_NAMES.map(|t| histogram("txn_latency_ns", Label::Name(t))),
            commit_wait_ns: histogram("commit_wait_ns", Label::None),
            cdc_lag_entries: histogram("cdc_lag_entries", Label::None),
        }
    }

    /// Recorder counter `name`, summed over its labels.
    ///
    /// # Panics
    /// Panics if `name` is not one of the counters a cell reads.
    #[must_use]
    pub fn get(&self, name: &str) -> u64 {
        let at = COUNTERS.iter().position(|c| *c == name);
        self.recorded[at.expect("a counter the cell reads")]
    }

    /// Buffer misses over buffer references; NaN without references.
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        let misses = self.get("buf_misses");
        misses as f64 / (self.get("buf_hits") + misses) as f64
    }

    /// What happened since `mark` only: a warm-up's misses, flushes and
    /// commit waits are subtracted out.
    #[must_use]
    pub fn since(&self, mark: &Counters) -> Counters {
        Counters {
            recorded: std::array::from_fn(|i| self.recorded[i] - mark.recorded[i]),
            executed: std::array::from_fn(|t| self.executed[t] - mark.executed[t]),
            latency_ns: std::array::from_fn(|t| {
                self.latency_ns[t].delta_since(&mark.latency_ns[t])
            }),
            commit_wait_ns: self.commit_wait_ns.delta_since(&mark.commit_wait_ns),
            cdc_lag_entries: self.cdc_lag_entries.delta_since(&mark.cdc_lag_entries),
        }
    }

    /// One time-series window over these counters, read as a
    /// [`Counters::since`] interval that took `wall`: per-type
    /// throughput and p50/p95/p99 latency, the window counters, the
    /// buffer miss ppm, and the group-commit and CDC gauges (zero or
    /// `null` where the run has no group commit or no pipeline).
    #[must_use]
    pub fn window(&self, wall: Duration) -> TimeSeriesPoint {
        let window_s = wall.as_secs_f64().max(f64::MIN_POSITIVE);
        let series = TX_NAMES
            .iter()
            .zip(self.executed.iter().zip(&self.latency_ns))
            .map(|(&name, (&txns, lat))| {
                let stat = SeriesStat {
                    txns,
                    tps: txns as f64 / window_s,
                    p50_us: lat.quantile(0.50) / 1e3,
                    p95_us: lat.quantile(0.95) / 1e3,
                    p99_us: lat.quantile(0.99) / 1e3,
                };
                (name, stat)
            })
            .collect();
        // both numerators are 0 whenever their denominator is
        let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
        let misses = self.get("buf_misses");
        TimeSeriesPoint {
            window_ms: window_s * 1e3,
            txns: self.executed.iter().sum(),
            series,
            counters: COUNTERS[..WINDOW_COUNTERS]
                .iter()
                .copied()
                .zip(self.recorded)
                .collect(),
            gauges: vec![
                (
                    "miss_ppm",
                    ratio(misses, self.get("buf_hits") + misses) * 1e6,
                ),
                (
                    "commits_per_flush",
                    ratio(self.get("group_commits"), self.get("wal_flushes")),
                ),
                (
                    "commit_wait_p95_us",
                    self.commit_wait_ns.quantile(0.95) / 1e3,
                ),
                ("cdc_lag_p95", self.cdc_lag_entries.quantile(0.95)),
            ],
        }
    }
}

impl Cell {
    /// The cumulative counters as they stand now.
    #[must_use]
    pub fn counters(&self) -> Counters {
        Counters::read(&self.recorder)
    }

    /// Runs `spec`'s load on this cell: the warm-up (discarded: it
    /// faults the working set into the pool and lets the allocator
    /// settle), then the measured phase, with the log quiesced before
    /// the counters are read. `spec.db` is not consulted — the database
    /// is already loaded, and a sweep may reuse it for several cells.
    pub fn run(&mut self, spec: &CellSpec, driver_seed: u64) -> (ParallelReport, Counters) {
        let driver = ParallelDriver::new(spec.driver, spec.terminals, driver_seed);
        if spec.warmup > 0 {
            driver.run(&self.db, spec.warmup);
        }
        self.db.reset_stats();
        let mark = self.counters();
        let report = driver.run(&self.db, spec.transactions);
        self.db.flush_log();
        (report, self.counters().since(&mark))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A window column by name.
    fn gauge(p: &TimeSeriesPoint, name: &str) -> f64 {
        p.gauges.iter().find(|(n, _)| *n == name).expect(name).1
    }

    fn counter(p: &TimeSeriesPoint, name: &str) -> u64 {
        p.counters.iter().find(|(n, _)| *n == name).expect(name).1
    }

    fn close(got: f64, want: f64, tolerance: f64) -> bool {
        (got - want).abs() / want < tolerance
    }

    /// A case: what it shows, its window count, what window `w`
    /// records into the recorder, and the checks over its points.
    type Case = (&'static str, usize, fn(&Obs, usize), fn(&[TimeSeriesPoint]));

    /// One transaction of type `t` taking `ns`, as a terminal records it.
    fn txn(obs: &Obs, t: usize, ns: u64) {
        let label = Label::Name(TX_NAMES[t]);
        obs.counter("txn_executed", label, 1);
        obs.observe("txn_latency_ns", label, ns);
    }

    /// Each case records into a fresh recorder window by window and
    /// checks the points [`Counters::window`] makes of the readings
    /// before and after each window: every column covers its window
    /// only, never the run so far.
    #[test]
    fn windows_cover_only_their_chunk() {
        let cases: [Case; 5] = [
            (
                "per-window and per-type txns are exact",
                3,
                |obs, w| {
                    for i in 0..[10, 10, 5][w] {
                        txn(obs, 0, 1_000 + i * 100);
                    }
                    txn(obs, 4, 2_000);
                },
                |points| {
                    let txns: Vec<u64> = points.iter().map(|p| p.txns).collect();
                    assert_eq!(txns, [11, 11, 6]);
                    for p in points {
                        let per_type: Vec<u64> = p.series.iter().map(|(_, s)| s.txns).collect();
                        assert_eq!(per_type[1..4], [0, 0, 0]);
                        assert_eq!(per_type[4], 1, "stock_level");
                        assert_eq!(p.series[0].1.txns + 1, p.txns, "new_order");
                        assert!(p.series[1].1.p50_us.is_nan(), "no payment, no quantile");
                        assert_eq!(gauge(p, "miss_ppm"), 0.0);
                    }
                },
            ),
            (
                "buffer misses and miss ppm are windowed",
                2,
                |obs, w| {
                    let (misses, hits) = [(30, 70), (10, 90)][w];
                    obs.counter("buf_misses", Label::Idx(w as u32 + 1), misses);
                    obs.counter("buf_hits", Label::Idx(w as u32 + 1), hits);
                    txn(obs, 1, 5_000);
                },
                |points| {
                    assert_eq!(counter(&points[0], "buf_misses"), 30);
                    assert_eq!(gauge(&points[0], "miss_ppm"), 300_000.0);
                    assert_eq!(counter(&points[1], "buf_misses"), 10);
                    assert_eq!(gauge(&points[1], "miss_ppm"), 100_000.0, "not cumulative");
                },
            ),
            (
                "group-commit columns are windowed",
                2,
                |obs, w| {
                    let (flushes, commits, wait_ns) = [(2, 10, 200_000), (4, 4, 800_000)][w];
                    obs.counter("wal_flushes", Label::None, flushes);
                    obs.counter("group_commits", Label::None, commits);
                    for _ in 0..50 {
                        obs.observe("commit_wait_ns", Label::None, wait_ns);
                    }
                    txn(obs, 0, 1_000);
                },
                |points| {
                    assert_eq!(counter(&points[0], "wal_flushes"), 2);
                    assert_eq!(gauge(&points[0], "commits_per_flush"), 5.0);
                    assert_eq!(counter(&points[1], "wal_flushes"), 4);
                    assert_eq!(gauge(&points[1], "commits_per_flush"), 1.0);
                    let p95 = |p| gauge(p, "commit_wait_p95_us");
                    assert!(close(p95(&points[0]), 200.0, 0.05), "{}", p95(&points[0]));
                    assert!(close(p95(&points[1]), 800.0, 0.05), "not cumulative");
                },
            ),
            (
                "MVCC columns are windowed",
                2,
                |obs, w| {
                    let [reads, hops, bytes, aborts] = [[40, 7, 1_024, 0], [10, 30, 0, 1]][w];
                    obs.counter("snapshot_reads", Label::None, reads);
                    obs.counter("versions_traversed", Label::None, hops);
                    obs.counter("undo_bytes", Label::None, bytes);
                    obs.counter("aborts", Label::None, aborts);
                    txn(obs, 4, 1_000);
                },
                |points| {
                    let columns = [
                        "snapshot_reads",
                        "versions_traversed",
                        "undo_bytes",
                        "aborts",
                    ];
                    let of = |p| columns.map(|c| counter(p, c));
                    assert_eq!(of(&points[0]), [40, 7, 1_024, 0]);
                    assert_eq!(of(&points[1]), [10, 30, 0, 1], "not cumulative");
                },
            ),
            (
                "per-type p50 comes from the window only",
                2,
                |obs, w| {
                    for _ in 0..100 {
                        txn(obs, 0, [1_000_000, 9_000_000][w]);
                    }
                },
                |points| {
                    let p50 = |p: &TimeSeriesPoint| p.series[0].1.p50_us;
                    assert!(
                        close(p50(&points[0]), 1_000.0, 0.011),
                        "{}",
                        p50(&points[0])
                    );
                    assert!(
                        close(p50(&points[1]), 9_000.0, 0.011),
                        "{}",
                        p50(&points[1])
                    );
                },
            ),
        ];
        for (case, windows, record, check) in cases {
            let recorder = Arc::new(MemoryRecorder::new());
            let obs = Obs::new(recorder.clone());
            let mut mark = Counters::read(&recorder);
            let points: Vec<TimeSeriesPoint> = (0..windows)
                .map(|w| {
                    record(&obs, w);
                    let now = Counters::read(&recorder);
                    let point = now.since(&mark).window(Duration::from_millis(10));
                    mark = now;
                    point
                })
                .collect();
            for p in &points {
                assert_eq!(p.window_ms, 10.0, "{case}");
                let columns: Vec<&str> = p.counters.iter().map(|(n, _)| *n).collect();
                assert_eq!(columns, COUNTERS[..WINDOW_COUNTERS], "{case}");
            }
            check(&points);
        }
    }
}
