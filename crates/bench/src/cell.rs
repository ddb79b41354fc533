//! The one cell runner every executed sweep shares: what a cell *is*
//! ([`CellSpec`]), how it is loaded ([`CellSpec::load`]), and the
//! `discarded warm-up → mark → measured run → deltas` sequence
//! ([`Cell::run`], or [`Cell::counters`] and [`Counters::since`] around
//! a run the sweep drives itself).
//!
//! Every cell carries a [`MemoryRecorder`], so a sweep reads its
//! counters as deltas over the measured phase only; a database reused
//! from cell to cell never leaks one cell's warm-up or predecessor
//! into the next cell's numbers.

use std::sync::Arc;

use tpcc_db::db::DbConfig;
use tpcc_db::driver::DriverConfig;
use tpcc_db::{loader, GroupCommitStats, ParallelDriver, ParallelReport, TpccDb};
use tpcc_obs::{MemoryRecorder, Obs, QuantileSketch};

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

/// The recorder counters a cell reads.
const COUNTERS: [&str; 9] = [
    "buf_hits",
    "buf_misses",
    "wal_bytes_appended",
    "lock_acquires",
    "lock_waits",
    "snapshot_reads",
    "versions_traversed",
    "undo_bytes",
    "aborts",
];

/// A cell's counters: cumulative as [`Cell::counters`] reads them, or
/// over an interval as [`Counters::since`] subtracts them.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    recorded: [u64; COUNTERS.len()],
    /// Group-commit pipeline counters (0 under synchronous durability).
    pub gc: GroupCommitStats,
    /// Commit waits in nanoseconds (empty under synchronous durability).
    pub commit_wait_ns: QuantileSketch,
}

impl Counters {
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
            gc: GroupCommitStats {
                flushes: self.gc.flushes - mark.gc.flushes,
                commits_flushed: self.gc.commits_flushed - mark.gc.commits_flushed,
                cap_flushes: self.gc.cap_flushes - mark.gc.cap_flushes,
                entries_flushed: self.gc.entries_flushed - mark.gc.entries_flushed,
            },
            commit_wait_ns: self.commit_wait_ns.delta_since(&mark.commit_wait_ns),
        }
    }
}

impl Cell {
    /// The cumulative counters as they stand now.
    #[must_use]
    pub fn counters(&self) -> Counters {
        Counters {
            recorded: COUNTERS.map(|name| self.recorder.counter_total(name)),
            gc: self.db.group_commit_stats().unwrap_or_default(),
            commit_wait_ns: self.db.commit_wait_sketch().unwrap_or_default(),
        }
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
