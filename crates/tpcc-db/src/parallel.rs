//! A multi-terminal driver: N threads execute the paper's transaction
//! mix concurrently against one shared [`TpccDb`], made serializable by
//! strict two-phase locking through a [`LockManager`].
//!
//! Each thread is one `terminal::Terminal` on the single-node
//! placement — the executor, its locksets and its wound-retry loop are
//! documented there. A one-terminal run with seed `s` consumes the
//! exact random stream of a serial [`Driver`](crate::Driver) run with
//! seed `s`, and the tests assert the resulting database images are
//! byte-identical.

use std::time::Duration;

use crate::db::TpccDb;
use crate::driver::DriverConfig;
use crate::terminal::{even_seats, lock_manager, run_terminals, OneNode, Seat, Tally};
use tpcc_lock::LockManager;
use tpcc_obs::QuantileSketch;

pub use crate::terminal::terminal_seed;

/// Multi-terminal run summary.
#[derive(Debug, Clone, Default)]
pub struct ParallelReport {
    /// Transactions completed per type (mix order).
    pub executed: [u64; 5],
    /// New orders placed.
    pub new_orders: u64,
    /// Orders delivered.
    pub deliveries: u64,
    /// New-Orders that rolled back on an unused item (clause 2.4.1.4).
    pub rollbacks: u64,
    /// Wound-induced retries per type (a transaction may retry more
    /// than once; each attempt after the first counts).
    pub retries: [u64; 5],
    /// Per-type transaction latency in nanoseconds (lock acquisition
    /// through commit, retries included in the attempt that succeeds).
    /// Each terminal records into its private sketch; merging here is
    /// lossless, so the report is bit-identical to single-sketch
    /// recording.
    pub latency_ns: [QuantileSketch; 5],
    /// Wall-clock time of the threaded run.
    pub elapsed: Duration,
}

impl ParallelReport {
    /// Total transactions completed.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.executed.iter().sum()
    }

    /// Completed transactions per second.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        self.total() as f64 / self.elapsed.as_secs_f64().max(f64::MIN_POSITIVE)
    }

    /// Fraction of attempts that were wounded and retried:
    /// `retries / (completed + retries)`.
    #[must_use]
    pub fn abort_rate(&self) -> f64 {
        let retries: u64 = self.retries.iter().sum();
        let attempts = self.total() + retries;
        if attempts == 0 {
            0.0
        } else {
            retries as f64 / attempts as f64
        }
    }

    fn merged(tallies: &[Tally], elapsed: Duration) -> Self {
        let mut report = ParallelReport {
            elapsed,
            ..ParallelReport::default()
        };
        for tally in tallies {
            for t in 0..5 {
                report.executed[t] += tally.executed[t];
                report.retries[t] += tally.retries[t];
            }
            tally.merge_latency(&mut report.latency_ns);
            report.new_orders += tally.new_orders;
            report.deliveries += tally.deliveries;
            report.rollbacks += tally.rollbacks;
        }
        report
    }
}

/// Drives a shared database from N terminal threads.
pub struct ParallelDriver {
    cfg: DriverConfig,
    threads: u64,
    seed: u64,
}

impl ParallelDriver {
    /// A driver for `threads` terminals (clamped to ≥ 1).
    #[must_use]
    pub fn new(cfg: DriverConfig, threads: u64, seed: u64) -> Self {
        Self {
            cfg,
            threads: threads.max(1),
            seed,
        }
    }

    /// Executes `transactions` total transactions (split as evenly as
    /// possible across terminals) with an internally-created lock
    /// manager.
    pub fn run(&self, db: &TpccDb, transactions: u64) -> ParallelReport {
        self.run_on(db, &lock_manager(db.obs()), transactions)
    }

    /// Like [`ParallelDriver::run`] but against a caller-owned lock
    /// manager, so tests can snapshot its wait-for graph while the run
    /// is in flight.
    pub fn run_on(&self, db: &TpccDb, lm: &LockManager, transactions: u64) -> ParallelReport {
        let seats = even_seats(self.cfg, self.threads, transactions, self.seed);
        let (tallies, elapsed) = run_terminals(&OneNode { db, lm: Some(lm) }, &seats);
        ParallelReport::merged(&tallies, elapsed)
    }
}

/// One homogeneous slice of a heterogeneous run: `terminals` threads
/// all drawing from `cfg`'s transaction mix. Used by
/// [`ParallelDriver::run_mixed`] to pin dedicated reader terminals
/// against a scaled writer population (the `snapshot_scaling` bench).
#[derive(Debug, Clone, Copy)]
pub struct TerminalGroup {
    /// The mix and knobs this group's terminals draw inputs from.
    pub cfg: DriverConfig,
    /// Threads in the group.
    pub terminals: u64,
    /// Transactions each thread executes.
    pub transactions_per_terminal: u64,
    /// Sleep between transactions (µs), outside the timed window — the
    /// spec's keying/think time (§5.2.5.7), collapsed to a constant.
    /// Keeps a sweep below CPU saturation so latency measures data
    /// contention, not run-queue depth. 0 = closed loop at full speed.
    pub think_us: u64,
}

impl ParallelDriver {
    /// Runs heterogeneous terminal groups concurrently against one
    /// database and lock manager, returning one merged report **per
    /// group** (group reports share the run's wall-clock `elapsed`).
    /// Terminal seeds are global across groups
    /// ([`terminal_seed`]`(seed, t)` for the t-th thread overall), so
    /// reshaping group sizes reshuffles streams deterministically.
    pub fn run_mixed(db: &TpccDb, groups: &[TerminalGroup], seed: u64) -> Vec<ParallelReport> {
        let lm = lock_manager(db.obs());
        let seats: Vec<Seat> = groups
            .iter()
            .flat_map(|group| (0..group.terminals).map(move |_| group))
            .zip(0..)
            .map(|(group, t)| Seat {
                cfg: group.cfg,
                seed: terminal_seed(seed, t),
                transactions: group.transactions_per_terminal,
                think_us: group.think_us,
            })
            .collect();
        let (tallies, elapsed) = run_terminals(&OneNode { db, lm: Some(&lm) }, &seats);
        let mut rest = tallies.as_slice();
        groups
            .iter()
            .map(|group| {
                let (mine, others) = rest.split_at(group.terminals as usize);
                rest = others;
                ParallelReport::merged(mine, elapsed)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::DbConfig;
    use crate::loader;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    fn four_warehouse_cfg() -> DbConfig {
        let mut cfg = DbConfig::small();
        cfg.warehouses = 4;
        cfg.buffer_frames = 2048;
        cfg
    }

    #[test]
    fn terminal_zero_keeps_the_driver_seed() {
        assert_eq!(terminal_seed(42, 0), 42);
        assert_ne!(terminal_seed(42, 1), 42);
        assert_ne!(terminal_seed(42, 1), terminal_seed(42, 2));
    }

    /// The ISSUE's acceptance run: 8 terminals over 4 warehouses, all
    /// consistency checks pass afterwards, and a monitor thread
    /// cross-checks that wound-wait never leaves a wait-for cycle.
    #[test]
    fn eight_terminals_over_four_warehouses_stay_consistent_and_acyclic() {
        let db = loader::load(four_warehouse_cfg(), 61);
        let lm = lock_manager(db.obs());
        let driver = ParallelDriver::new(DriverConfig::default(), 8, 62);

        let done = AtomicBool::new(false);
        let report = std::thread::scope(|scope| {
            let monitor = scope.spawn(|| {
                let mut checks = 0u64;
                while !done.load(Ordering::Acquire) {
                    let graph = lm.wait_for_snapshot();
                    assert!(
                        graph.find_cycle().is_none(),
                        "deadlock cycle under wound-wait: {:?}",
                        graph.find_cycle()
                    );
                    checks += 1;
                    std::thread::yield_now();
                }
                checks
            });
            let report = driver.run_on(&db, &lm, 2000);
            done.store(true, Ordering::Release);
            assert!(monitor.join().expect("monitor") > 0);
            report
        });

        assert_eq!(report.total(), 2000);
        assert!(lm.wait_for_snapshot().is_empty(), "all locks released");
        let consistency = db.verify_consistency();
        assert!(consistency.is_consistent(), "{consistency:?}");
    }

    #[test]
    fn concurrent_terminals_make_progress_on_one_warehouse() {
        // maximum contention: every terminal hammers the same districts
        let db = loader::load(DbConfig::small(), 71);
        let report = ParallelDriver::new(DriverConfig::default(), 4, 72).run(&db, 800);
        assert_eq!(report.total(), 800);
        assert!(report.throughput() > 0.0);
        assert!(report.abort_rate() < 1.0);
        let consistency = db.verify_consistency();
        assert!(consistency.is_consistent(), "{consistency:?}");
    }

    /// Group-commit liveness and durability property, seeded: eight
    /// terminals commit through a tight flush window and a small
    /// `max_batch` (constant cap pressure), and afterwards
    ///
    /// - the run completed — no waiter starved under batch pressure
    ///   (a starved terminal would hang the scoped join);
    /// - the quiesced durable watermark covers every appended entry
    ///   and commit — a woken terminal's commit is always inside the
    ///   durably flushed prefix, never the volatile tail;
    /// - the leaders flushed exactly the commits the terminals logged
    ///   (each exactly once), and every commit contributed one wait
    ///   sample — everyone who enqueued was woken.
    #[test]
    fn group_commit_wakes_only_durable_commits_and_starves_no_terminal() {
        let mut cfg = four_warehouse_cfg();
        cfg.enable_wal = true;
        cfg.group_commit = Some(tpcc_storage::GroupCommitConfig::new(150, 4, 30));
        let rec = Arc::new(tpcc_obs::MemoryRecorder::new());
        let mut db = loader::load(cfg, 81);
        db.set_obs(tpcc_obs::Obs::new(rec.clone()));
        let report = ParallelDriver::new(DriverConfig::default(), 8, 82).run(&db, 1200);
        assert_eq!(report.total(), 1200);
        db.flush_log();

        let (entries, _, commits) = db.wal_stats().expect("WAL on");
        let (durable_len, durable_commits) = db
            .with_wal(|w| (w.durable_len(), w.durable_commits()))
            .expect("WAL on");
        assert_eq!(durable_len, entries, "quiesced: no volatile tail");
        assert_eq!(durable_commits, commits, "every commit is durable");

        let stats = db.group_commit_stats().expect("group commit on");
        assert_eq!(stats.commits_flushed, commits, "flushed exactly once each");
        assert!(stats.flushes > 0);
        assert!(
            stats.commits_per_flush() >= 1.0,
            "a flush never covers zero commits: {stats:?}"
        );

        let waits = rec
            .histogram("commit_wait_ns", tpcc_obs::Label::None)
            .expect("group commit on");
        assert_eq!(
            waits.count(),
            commits,
            "every enqueued committer was woken exactly once"
        );

        let consistency = db.verify_consistency();
        assert!(consistency.is_consistent(), "{consistency:?}");
    }

    /// Regression (defect 1 of PR 11): `crash_recovery_check` under
    /// threaded group commit re-arms a fresh log whose commit count —
    /// the ticket source — restarts at 0. With the pipeline's
    /// watermarks left at the old high-water mark, the second run's
    /// commits skipped the batcher (nothing flushed) and dropping the
    /// database hung on a batcher that could never drain.
    #[test]
    fn group_commit_survives_a_recovery_check_between_runs() {
        let mut cfg = DbConfig::small();
        cfg.enable_wal = true;
        cfg.group_commit = Some(tpcc_storage::GroupCommitConfig::new(150, 4, 30));
        let mut db = loader::load(cfg, 83);
        let driver = ParallelDriver::new(DriverConfig::default(), 2, 84);

        assert_eq!(driver.run(&db, 300).total(), 300);
        assert!(db.crash_recovery_check(), "first run recovers");
        let flushed_before = db.group_commit_stats().expect("gc on").commits_flushed;

        assert_eq!(driver.run(&db, 300).total(), 300);
        db.flush_log();
        let second_run_commits = db.wal_stats().expect("WAL on").2;
        let flushed = db.group_commit_stats().expect("gc on").commits_flushed - flushed_before;
        let recovers = db.crash_recovery_check();

        // drop on a helper thread: the defect's last symptom is a hang
        let (done, dropped) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            drop(db);
            done.send(()).expect("test thread waits");
        });
        let dropped = dropped.recv_timeout(std::time::Duration::from_secs(20));

        assert!(second_run_commits > 0);
        assert_eq!(
            flushed, second_run_commits,
            "every commit of the second run went through a batcher flush"
        );
        assert!(recovers, "second run recovers");
        assert!(dropped.is_ok(), "dropping the database hung on the batcher");
    }

    fn mvcc_cfg() -> DbConfig {
        DbConfig {
            mvcc: true,
            ..DbConfig::small()
        }
    }

    /// Clause 2.4.1.4 rollbacks are a property of the seeded input
    /// streams, not of thread interleaving: two identical multi-
    /// terminal runs abort exactly the same transactions.
    #[test]
    fn mvcc_rollbacks_are_deterministic_across_identical_runs() {
        let cfg = DbConfig {
            warehouses: 2,
            buffer_frames: 2048,
            ..mvcc_cfg()
        };
        let dcfg = DriverConfig::default().with_spec_rollbacks();
        let run = || {
            let db = loader::load(cfg, 33);
            let report = ParallelDriver::new(dcfg, 4, 34).run(&db, 1200);
            let consistency = db.verify_consistency();
            assert!(consistency.is_consistent(), "{consistency:?}");
            report.rollbacks
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "rollback draws live in the seeded input streams");
        assert!(a > 0, "1% of ~500 New-Orders fires at this seed");
    }

    /// The acceptance criterion, asserted structurally: with MVCC on,
    /// a pure read-only workload drives the lock manager not at all.
    #[test]
    fn mvcc_read_only_terminals_acquire_zero_locks() {
        let rec = Arc::new(tpcc_obs::MemoryRecorder::new());
        let mut db = loader::load(mvcc_cfg(), 91);
        db.set_obs(tpcc_obs::Obs::new(rec.clone()));
        let dcfg = DriverConfig {
            mix: [0.0, 0.0, 0.5, 0.0, 0.5], // Order-Status + Stock-Level
            ..DriverConfig::default()
        };
        let report = ParallelDriver::new(dcfg, 4, 92).run(&db, 400);
        assert_eq!(report.total(), 400);
        assert_eq!(
            report.executed[0] + report.executed[1] + report.executed[3],
            0,
            "readers only"
        );
        assert_eq!(
            rec.counter_total("lock_acquires"),
            0,
            "snapshot readers never touch the lock manager"
        );
        assert_eq!(rec.counter_total("lock_waits"), 0);
        assert_eq!(rec.counter_total("lock_wounds"), 0);
        assert!(
            rec.counter_total("snapshot_reads") > 0,
            "reads resolved through the version chains"
        );
    }

    /// Snapshot reads repeat exactly while a writer churns the same
    /// rows — the isolation the S-lock path bought with blocking, now
    /// lock-free.
    #[test]
    fn mvcc_snapshot_reads_repeat_under_a_concurrent_writer() {
        let db = loader::load(mvcc_cfg(), 13);
        let db = &db;
        let done = &AtomicBool::new(false);
        std::thread::scope(|scope| {
            let writer = scope.spawn(move || {
                for n in 0..400u64 {
                    db.new_order(
                        0,
                        n % 10,
                        n % 90,
                        &[crate::txns::OrderLineReq {
                            item: n % 300,
                            supply_warehouse: 0,
                            quantity: 5,
                        }],
                    );
                    if n % 7 == 0 {
                        db.payment(
                            0,
                            n % 10,
                            0,
                            n % 10,
                            crate::txns::CustomerSelector::ById(n % 90),
                            1.5,
                        );
                    }
                }
                done.store(true, Ordering::Release);
            });
            for _ in 0..3 {
                scope.spawn(move || {
                    while !done.load(Ordering::Acquire) {
                        let snap = db.snapshot();
                        let a = db.stock_level_at(&snap, 0, 3, 50);
                        let b = db.stock_level_at(&snap, 0, 3, 50);
                        assert_eq!(a.low_stock, b.low_stock, "repeatable join");
                        assert_eq!(a.lines_scanned, b.lines_scanned);
                        let s1 =
                            db.order_status_at(&snap, 0, 5, crate::txns::CustomerSelector::ById(5));
                        let s2 =
                            db.order_status_at(&snap, 0, 5, crate::txns::CustomerSelector::ById(5));
                        assert_eq!(s1.o_id, s2.o_id, "repeatable last-order");
                        assert_eq!(s1.lines, s2.lines);
                    }
                });
            }
            writer.join().expect("writer");
        });
        let consistency = db.verify_consistency();
        assert!(consistency.is_consistent(), "{consistency:?}");
    }

    /// `run_mixed` pins reader terminals against writer terminals and
    /// reports them separately; the reader group's latency sketches
    /// contain only read-only samples.
    #[test]
    fn mixed_groups_separate_reader_and_writer_reports() {
        let cfg = DbConfig {
            warehouses: 2,
            buffer_frames: 2048,
            ..mvcc_cfg()
        };
        let db = loader::load(cfg, 55);
        let writer = DriverConfig {
            mix: [0.47, 0.48, 0.0, 0.05, 0.0],
            ..DriverConfig::default()
        };
        let reader = DriverConfig {
            mix: [0.0, 0.0, 0.5, 0.0, 0.5],
            ..DriverConfig::default()
        };
        let reports = ParallelDriver::run_mixed(
            &db,
            &[
                TerminalGroup {
                    cfg: writer,
                    terminals: 2,
                    transactions_per_terminal: 300,
                    think_us: 0,
                },
                TerminalGroup {
                    cfg: reader,
                    terminals: 2,
                    transactions_per_terminal: 300,
                    think_us: 0,
                },
            ],
            56,
        );
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].total(), 600);
        assert_eq!(reports[1].total(), 600);
        assert_eq!(
            reports[1].executed[0] + reports[1].executed[1] + reports[1].executed[3],
            0,
            "reader group ran only read-only types"
        );
        assert_eq!(
            reports[1].latency_ns[2].count() + reports[1].latency_ns[4].count(),
            600,
            "every reader sample lands in the reader group's sketches"
        );
        assert_eq!(reports[1].retries, [0; 5], "lock-free readers never retry");
        let consistency = db.verify_consistency();
        assert!(consistency.is_consistent(), "{consistency:?}");
    }

    /// Release-mode stress variant (CI runs `--ignored stress` with a
    /// seed matrix via `TPCC_STRESS_SEED`).
    #[test]
    #[ignore = "stress: run with --ignored, seeded via TPCC_STRESS_SEED"]
    fn stress_parallel_driver_consistency() {
        let seed = std::env::var("TPCC_STRESS_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(42u64);
        let db = loader::load(four_warehouse_cfg(), seed);
        let lm = lock_manager(db.obs());
        let driver = ParallelDriver::new(DriverConfig::default().with_spec_rollbacks(), 8, seed);

        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let monitor = scope.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    assert!(lm.wait_for_snapshot().find_cycle().is_none());
                    std::thread::yield_now();
                }
            });
            let report = driver.run_on(&db, &lm, 20_000);
            done.store(true, Ordering::Release);
            monitor.join().expect("monitor");
            assert_eq!(report.total(), 20_000);
        });
        let consistency = db.verify_consistency();
        assert!(consistency.is_consistent(), "{consistency:?}");
    }

    /// Release-mode 8-thread scaling smoke: the scaling bench's shape
    /// (warmup run, then a measured run on the warmed database) must
    /// complete, populate the per-type latency histograms, and leave a
    /// consistent database. No throughput assertion — CI core counts
    /// vary; the scaling *curve* is checked by the bench's recorded
    /// results, not here.
    #[test]
    #[ignore = "stress: run with --ignored, seeded via TPCC_STRESS_SEED"]
    fn stress_scaling_smoke_eight_threads() {
        let seed = std::env::var("TPCC_STRESS_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(42u64);
        let mut cfg = four_warehouse_cfg();
        cfg.buffer_shards = 8;
        let db = loader::load(cfg, seed);
        let driver = ParallelDriver::new(DriverConfig::default(), 8, seed + 8);
        driver.run(&db, 2_000); // warmup, discarded
        let report = driver.run(&db, 20_000);
        assert_eq!(report.total(), 20_000);
        assert!(report.throughput() > 0.0);
        for t in 0..5 {
            assert_eq!(
                report.latency_ns[t].count(),
                report.executed[t],
                "every completed transaction contributes one latency sample"
            );
        }
        let consistency = db.verify_consistency();
        assert!(consistency.is_consistent(), "{consistency:?}");
    }
}
