//! The log manager: the one owner of the live redo log and the one
//! place that decides when a record is durable.
//!
//! The paper's §5 log-disk model prices durability per *flush*: a log
//! device with service time `log_io_delay_us` saturates at `1 / delay`
//! flushes per second, and throughput beyond that needs more than one
//! commit per flush. The engine keeps one rule: a record is durable
//! once a [`Wal::flush`] covers it. The manager holds the [`Wal`]
//! behind its mutex, and every flush — a commit's, a 2PC force
//! ([`LogManager::force`]) or a quiesce point's
//! ([`LogManager::flush_now`]) — goes through its one flush routine.
//! That routine releases the mutex for the `log_io_delay_us` sleep (the
//! simulated device write), then advances the durable watermark over
//! the whole tail; it is a
//! [`FaultSite::WalFlush`](crate::fault::FaultSite::WalFlush) site, so a
//! crash between an append and the next flush loses the tail, never a
//! flushed commit.
//!
//! A committing terminal appends its `Commit` record under the WAL
//! mutex and receives a **commit ticket** — the number of commit
//! records appended so far. The schedule then decides who flushes:
//!
//! - no [`GroupCommitConfig`] (`DbConfig::group_commit = None`): each
//!   commit forces its own flush before it returns — the inline
//!   schedule with a batch of one. It never waits;
//! - [`GroupCommitConfig::inline_every`]: the committer whose ticket is
//!   a multiple of `max_batch` flushes the tail itself. It never waits
//!   either, so a serial workload's fault-site numbering is the same
//!   run to run, which the crashpoint sweeps need;
//! - [`GroupCommitConfig::new`] (leader-follower): the terminal waits,
//!   still under the mutex, for its ticket. If no flush is in progress
//!   it becomes the **leader**: it waits on the condvar (which releases
//!   the mutex) up to `flush_window_us` for more commits, or until
//!   `max_batch` are pending, then flushes and wakes every waiter.
//!   Otherwise it is a **follower** and waits on the same condvar. Once
//!   the WAL's fault hook has crashed ([`Wal::crashed`]) waiters drain
//!   without durability.
//!
//! # Ticket protocol invariant
//!
//! Tickets are assigned under the WAL mutex, *after* the append, as the
//! running commit count — so ticket order equals log order, and
//! `durable_commits() >= ticket` is exactly "my commit record is inside
//! the durable prefix". A flush always covers the whole tail, so the
//! durable commit count never skips a ticket. Both counts are the
//! `Wal`'s own ([`Wal::commits`], [`Wal::durable_commits`]), so a
//! re-armed log restarts the tickets with its counts.
//!
//! # Lock order
//!
//! The manager has one mutex, the WAL's, and its condvar is paired
//! with it. Nothing here touches a buffer-pool shard mutex or frame
//! latch — the log manager sits strictly *below* the pool in the
//! `shard → wal → disk` hierarchy (see `bufmgr`'s module docs and
//! DESIGN.md §10).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use tpcc_obs::{CounterHandle, HistogramHandle, Label, Obs, TraceHandle};

use crate::wal::{Wal, WalEntry};

/// Knobs for the group-commit pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupCommitConfig {
    /// How long a leader waits for more commits before flushing a
    /// non-full group, in microseconds. 0 flushes as soon as a
    /// committer finds no flush in progress.
    pub flush_window_us: u64,
    /// Flush immediately once this many commits are pending, regardless
    /// of the window. Also the inline-mode flush period.
    pub max_batch: usize,
    /// Simulated log-device service time per flush, in microseconds —
    /// the log-disk sibling of the buffer pool's `io_delay_us`.
    pub log_io_delay_us: u64,
    /// Deterministic inline mode: no waiting, the committer flushes
    /// every `max_batch` commits itself (crashpoint sweeps).
    pub inline: bool,
}

impl GroupCommitConfig {
    /// Leader-follower group commit with these window/batch/device knobs.
    #[must_use]
    pub fn new(flush_window_us: u64, max_batch: usize, log_io_delay_us: u64) -> Self {
        Self {
            flush_window_us,
            max_batch: max_batch.max(1),
            log_io_delay_us,
            inline: false,
        }
    }

    /// Deterministic inline mode: flush every `max_batch` commits on
    /// the committing thread, no waiting, no device latency.
    #[must_use]
    pub fn inline_every(max_batch: usize) -> Self {
        Self {
            flush_window_us: 0,
            max_batch: max_batch.max(1),
            log_io_delay_us: 0,
            inline: true,
        }
    }
}

/// What one commit observed on its way out — the property the wakeup
/// test asserts: `durable_at_wake >= ticket` for every commit whose
/// schedule flushed it.
#[derive(Debug, Clone, Copy)]
pub struct CommitReceipt {
    /// This commit's ticket: the commit count including it (0 when a
    /// crash dropped the record).
    pub ticket: u64,
    /// Durable commit count when the committer returned (0 when a
    /// threaded waiter was released by a crash).
    pub durable_at_wake: u64,
}

/// Counter snapshot of the pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupCommitStats {
    /// Flushes performed (watermark advances).
    pub flushes: u64,
    /// Commit records those flushes made durable.
    pub commits_flushed: u64,
}

impl GroupCommitStats {
    /// Mean commits per flush (0 when nothing flushed).
    #[must_use]
    pub fn commits_per_flush(&self) -> f64 {
        if self.flushes == 0 {
            0.0
        } else {
            self.commits_flushed as f64 / self.flushes as f64
        }
    }
}

/// Observability handles, re-resolved when the recorder changes.
#[derive(Debug, Default)]
struct GcObs {
    flushes: CounterHandle,
    group_commits: CounterHandle,
    commit_wait: HistogramHandle,
    flush_trace: TraceHandle,
}

type WalGuard<'a> = MutexGuard<'a, Wal>;

/// The live log and its commit pipeline: ticket assignment on the commit
/// path, and the one flush routine that every commit, 2PC force and
/// quiesce point shares.
#[derive(Debug)]
pub struct LogManager {
    cfg: GroupCommitConfig,
    wal: Mutex<Wal>,
    /// Paired with the WAL mutex: followers wait here for the durable
    /// watermark, a leader for its group to fill. Inline schedules
    /// never wait on it.
    commit_cv: Condvar,
    /// A leader holds the flush. Only read or written under the WAL
    /// mutex, which orders it; atomic only so the manager is `Sync`.
    flushing: AtomicBool,
    flushes: AtomicU64,
    commits_flushed: AtomicU64,
    obs: GcObs,
}

impl LogManager {
    /// Takes over `wal` and commits under `group_commit`'s schedule;
    /// `None` makes each commit force its own flush (see the module
    /// docs).
    #[must_use]
    pub fn new(group_commit: Option<GroupCommitConfig>, wal: Wal) -> Self {
        Self {
            cfg: group_commit.unwrap_or(GroupCommitConfig::inline_every(1)),
            wal: Mutex::new(wal),
            commit_cv: Condvar::new(),
            flushing: AtomicBool::new(false),
            flushes: AtomicU64::new(0),
            commits_flushed: AtomicU64::new(0),
            obs: GcObs::default(),
        }
    }

    /// Resolves observability handles against `obs` (call again after
    /// the recorder changes): `wal_flushes` / `group_commits` counters,
    /// the `commit_wait_ns` histogram of threaded waits, and
    /// `log`-category flush trace events.
    pub fn set_obs(&mut self, obs: &Obs) {
        self.obs = GcObs {
            flushes: obs.counter_handle("wal_flushes", Label::None),
            group_commits: obs.counter_handle("group_commits", Label::None),
            commit_wait: obs.histogram_handle("commit_wait_ns", Label::None),
            flush_trace: obs.trace_handle("log"),
        };
    }

    /// Locks the log: appends made through the guard are volatile
    /// until a flush of this manager covers them.
    pub(crate) fn lock(&self) -> WalGuard<'_> {
        self.wal.lock().expect("wal lock")
    }

    /// Gives up the log (its volatile tail included).
    #[must_use]
    pub fn into_wal(self) -> Wal {
        self.wal.into_inner().expect("wal lock")
    }

    /// Appends the commit record for `txn` and applies the schedule:
    /// flushes it at once (no group commit), flushes every
    /// `max_batch`-th commit (inline), or blocks until a leader's
    /// flush covers it (threaded). Never blocks after a crash.
    pub fn commit(&self, txn: u64) -> CommitReceipt {
        let mut wal = self.lock();
        let before = wal.commits();
        wal.append(WalEntry::Commit { txn });
        let ticket = wal.commits();
        if ticket == before {
            // the crash dropped the record: no ticket, and waiters
            // (a leader gathering its group included) must drain
            drop(wal);
            self.commit_cv.notify_all();
            return CommitReceipt {
                ticket: 0,
                durable_at_wake: 0,
            };
        }
        let max_batch = self.cfg.max_batch as u64;
        if self.cfg.inline {
            if ticket.is_multiple_of(max_batch) {
                wal = self.flush(wal);
            }
            return CommitReceipt {
                ticket,
                durable_at_wake: wal.durable_commits(),
            };
        }
        let start = Instant::now();
        if self.flushing.load(Ordering::Relaxed) && ticket - wal.durable_commits() == max_batch {
            // this commit fills the group: release a leader in its window
            self.commit_cv.notify_all();
        }
        let durable_at_wake = loop {
            if wal.durable_commits() >= ticket {
                break wal.durable_commits();
            }
            if wal.crashed() {
                break 0;
            }
            if self.flushing.load(Ordering::Relaxed) {
                wal = self.commit_cv.wait(wal).expect("wal lock");
            } else {
                self.flushing.store(true, Ordering::Relaxed);
                wal = self.lead(wal);
                self.flushing.store(false, Ordering::Relaxed);
            }
        };
        drop(wal);
        let wait_ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        self.obs.commit_wait.record(wait_ns);
        CommitReceipt {
            ticket,
            durable_at_wake,
        }
    }

    /// The leader's turn: gather a group until `max_batch` commits are
    /// pending, the window expires or a crash freezes the log, then
    /// flush it.
    fn lead<'a>(&'a self, mut wal: WalGuard<'a>) -> WalGuard<'a> {
        let deadline = Instant::now() + Duration::from_micros(self.cfg.flush_window_us);
        loop {
            let full = wal.commits() - wal.durable_commits() >= self.cfg.max_batch as u64;
            let now = Instant::now();
            if full || wal.crashed() || now >= deadline {
                return self.flush(wal);
            }
            wal = self
                .commit_cv
                .wait_timeout(wal, deadline - now)
                .expect("wal lock")
                .0;
        }
    }

    /// Appends `entry` and flushes at once, whatever the schedule: a
    /// 2PC vote or decision is a durable promise, so it cannot wait for
    /// a group. Returns `true` when the record is inside the durable
    /// prefix (false after an injected crash).
    pub fn force(&self, entry: WalEntry) -> bool {
        let mut wal = self.lock();
        let at = wal.len();
        wal.append(entry);
        let landed = wal.len() > at;
        landed && self.flush(wal).durable_len() > at
    }

    /// The one flush routine: simulated device latency (with the WAL
    /// mutex released), watermark advance over the whole tail, stats,
    /// and — under leader-follower commit, the only schedule that
    /// waits — a wakeup for every waiter.
    fn flush<'a>(&'a self, mut wal: WalGuard<'a>) -> WalGuard<'a> {
        if self.cfg.log_io_delay_us > 0 {
            drop(wal);
            std::thread::sleep(Duration::from_micros(self.cfg.log_io_delay_us));
            wal = self.lock();
        }
        let trace_start = self.obs.flush_trace.now();
        let (entries, commits) = (wal.durable_len(), wal.durable_commits());
        // an already-durable tail is not a flush: don't let quiesce
        // calls dilute the commits-per-flush batching statistics
        if wal.flush() && wal.durable_len() > entries {
            let commits = wal.durable_commits() - commits;
            self.flushes.fetch_add(1, Ordering::Relaxed);
            self.commits_flushed.fetch_add(commits, Ordering::Relaxed);
            self.obs.flushes.add(1);
            self.obs.group_commits.add(commits);
            self.obs.flush_trace.record_opt("wal_flush", trace_start);
        }
        if !self.cfg.inline {
            self.commit_cv.notify_all();
        }
        wal
    }

    /// Forces a flush of whatever is pending (quiesce points). No-op
    /// when the tail is empty.
    pub fn flush_now(&self) {
        drop(self.flush(self.lock()));
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> GroupCommitStats {
        GroupCommitStats {
            flushes: self.flushes.load(Ordering::Relaxed),
            commits_flushed: self.commits_flushed.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::fault::{FaultHook, FaultPlan, FaultSite};
    use std::sync::{mpsc, Arc, Barrier};
    use tpcc_obs::MemoryRecorder;

    fn manager(group_commit: Option<GroupCommitConfig>) -> LogManager {
        LogManager::new(group_commit, Wal::new())
    }

    /// `threads` terminals × `commits` commits each through `lm`, all
    /// released at once; every receipt, in no particular order.
    fn commit_concurrently(lm: &Arc<LogManager>, threads: u64, commits: u64) -> Vec<CommitReceipt> {
        let start = Arc::new(Barrier::new(threads as usize));
        let terminals: Vec<_> = (0..threads)
            .map(|t| {
                let (lm, start) = (Arc::clone(lm), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    (0..commits)
                        .map(|i| lm.commit(t * 1000 + i))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        terminals
            .into_iter()
            .flat_map(|t| t.join().expect("terminal"))
            .collect()
    }

    /// One threaded group-commit run that crashes at fault site `seq`:
    /// 4 terminals × 25 commits through `GroupCommitConfig::new(50, 4,
    /// 20)`. Asserts that every terminal returns within a timeout and
    /// that no receipt claims durability the frozen log does not have;
    /// returns the site class the crash landed on.
    fn threaded_crash_run(seed: u64, seq: u64) -> FaultSite {
        let hook = Arc::new(FaultHook::new(FaultPlan {
            record_sites: true,
            ..FaultPlan::crash_at(seed, seq)
        }));
        let mut wal = Wal::new();
        wal.set_fault_hook(Arc::clone(&hook));
        let lm = Arc::new(LogManager::new(
            Some(GroupCommitConfig::new(50, 4, 20)),
            wal,
        ));
        let (done, finished) = mpsc::channel();
        let start = Arc::new(Barrier::new(4));
        let terminals: Vec<_> = (0..4u64)
            .map(|t| {
                let (lm, done, start) = (Arc::clone(&lm), done.clone(), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    // the seed perturbs which terminal reaches the WAL first
                    for _ in 0..(seed ^ t) % 5 {
                        std::thread::yield_now();
                    }
                    let receipts: Vec<_> = (0..25u64).map(|i| lm.commit(t * 100 + i)).collect();
                    done.send(receipts).expect("test thread waits");
                })
            })
            .collect();
        drop(done);
        let deadline = Instant::now() + Duration::from_secs(20);
        let receipts: Vec<CommitReceipt> = (0..4)
            .flat_map(|_| {
                let left = deadline.saturating_duration_since(Instant::now());
                finished.recv_timeout(left).unwrap_or_else(|_| {
                    panic!("a terminal hung or panicked after a crash at site {seq}")
                })
            })
            .collect();
        for t in terminals {
            t.join().expect("terminal");
        }

        assert!(hook.crashed(), "site {seq} lies inside the run");
        let frozen = lm.lock().durable_commits();
        for r in &receipts {
            if r.durable_at_wake > 0 {
                assert!(
                    r.ticket <= frozen,
                    "{r:?} beyond frozen {frozen} (site {seq})"
                );
                assert!(r.durable_at_wake >= r.ticket, "{r:?} (site {seq})");
            } else {
                assert!(
                    r.ticket == 0 || r.ticket > frozen,
                    "{r:?} lost (site {seq})"
                );
            }
        }
        assert!(
            receipts.iter().any(|r| r.ticket == 0),
            "commits issued after the crash get no ticket (site {seq})"
        );
        hook.take_records()
            .iter()
            .find(|rec| rec.seq == seq)
            .expect("the crash site is recorded")
            .site
    }

    #[test]
    fn threaded_commit_blocks_until_its_ticket_is_durable() {
        let lm = manager(Some(GroupCommitConfig::new(50, 4, 0)));
        for txn in 1..=10u64 {
            let r = lm.commit(txn);
            assert_eq!(r.ticket, txn);
            assert!(
                r.durable_at_wake >= r.ticket,
                "woken commit must be durable (ticket {}, durable {})",
                r.ticket,
                r.durable_at_wake
            );
        }
        assert_eq!(lm.lock().durable_commits(), 10);
    }

    #[test]
    fn max_batch_pressure_short_circuits_the_window() {
        // an hour-long window: only a full group can release a flush
        let lm = manager(Some(GroupCommitConfig::new(3_600_000_000, 1, 0)));
        let r = lm.commit(1);
        assert_eq!(r.durable_at_wake, 1, "cap of 1: every commit flushes");
        assert_eq!(lm.stats().flushes, 1);
    }

    #[test]
    fn inline_mode_flushes_every_max_batch_commits() {
        let lm = manager(Some(GroupCommitConfig::inline_every(3)));
        for txn in 1..=7u64 {
            lm.commit(txn);
        }
        let stats = lm.stats();
        assert_eq!(stats.flushes, 2, "7 commits at period 3 → flushes at 3, 6");
        assert_eq!(stats.commits_flushed, 6);
        assert_eq!(
            lm.lock().durable_commits(),
            6,
            "the 7th commit is still volatile"
        );
        lm.flush_now();
        assert_eq!(lm.stats().commits_flushed, 7);
    }

    #[test]
    fn flush_now_drains_the_pending_tail() {
        let lm = manager(Some(GroupCommitConfig::inline_every(100)));
        lm.commit(1);
        assert_eq!(lm.lock().durable_commits(), 0);
        lm.flush_now();
        assert_eq!(lm.lock().durable_commits(), 1);
    }

    /// Without group commit every commit forces its own flush on its
    /// own thread: no terminal waits, each returns durable, and the
    /// flush count is the commit count.
    #[test]
    fn synchronous_commits_each_flush_their_own_record_without_waiting() {
        let recorder = Arc::new(MemoryRecorder::new());
        let mut lm = manager(None);
        lm.set_obs(&Obs::new(Arc::clone(&recorder)));
        let lm = Arc::new(lm);
        let receipts = commit_concurrently(&lm, 4, 50);
        for r in &receipts {
            assert!(r.durable_at_wake >= r.ticket, "{r:?} returned volatile");
        }
        assert_eq!(recorder.counter_total("wal_flushes"), 200);
        assert_eq!(recorder.counter_total("group_commits"), 200);
        assert_eq!(lm.stats().flushes, 200);
        assert_eq!(
            recorder
                .histogram("commit_wait_ns", Label::None)
                .map_or(0, |h| h.count()),
            0,
            "a synchronous commit never waits"
        );
        let wal = lm.lock();
        assert_eq!((wal.durable_commits(), wal.durable_len()), (200, 200));
    }

    #[test]
    fn force_makes_its_record_durable_under_any_schedule() {
        for group_commit in [None, Some(GroupCommitConfig::inline_every(100))] {
            let lm = manager(group_commit);
            lm.lock().append(WalEntry::CreateFile {
                file: crate::disk::FileId(0),
            });
            assert!(lm.force(WalEntry::Prepare { txn: 9 }));
            assert_eq!(lm.lock().durable_len(), 2, "the force covers the tail");
            assert_eq!(lm.lock().in_doubt(), vec![9]);
        }
    }

    #[test]
    fn commits_per_flush_exceeds_one_under_concurrency() {
        let lm = Arc::new(manager(Some(GroupCommitConfig::new(200, 64, 50))));
        for r in commit_concurrently(&lm, 8, 25) {
            assert!(r.durable_at_wake >= r.ticket);
        }
        let stats = lm.stats();
        assert_eq!(stats.commits_flushed, 200);
        assert!(
            stats.commits_per_flush() > 1.0,
            "8 concurrent terminals with a 50µs device must batch: {stats:?}"
        );
    }

    #[test]
    fn threaded_group_commit_survives_a_leader_crashing_mid_flush() {
        // sites interleave across terminals: walk them until the crash
        // lands on a flush (the first flush is at most a few sites in)
        assert!(
            (1..64).any(|seq| threaded_crash_run(42, seq) == FaultSite::WalFlush),
            "no crash landed on a wal_flush site"
        );
    }

    /// Release-mode sweep of the scenario above over the first 64 fault
    /// sites (CI runs `--ignored stress` with a seed matrix via
    /// `TPCC_STRESS_SEED`).
    #[test]
    #[ignore = "stress: run with --ignored, seeded via TPCC_STRESS_SEED"]
    fn stress_group_commit_threaded_crash_sweep() {
        let seed = std::env::var("TPCC_STRESS_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(42);
        for seq in 0..64 {
            threaded_crash_run(seed, seq);
        }
    }

    #[test]
    fn a_rearmed_log_restarts_the_tickets_on_its_own() {
        let lm = manager(Some(GroupCommitConfig::new(50, 4, 0)));
        for txn in 1..=10u64 {
            lm.commit(txn);
        }
        let flushed = lm.stats().commits_flushed;
        assert_eq!(flushed, 10);

        // re-arm: the new log's commit count — the ticket source — is 0
        *lm.lock() = Wal::new();
        for txn in 1..=6u64 {
            let r = lm.commit(100 + txn);
            assert_eq!(r.ticket, txn);
            assert!(r.durable_at_wake >= r.ticket, "{r:?} skipped its flush");
        }
        assert_eq!(lm.stats().commits_flushed, flushed + 6);
    }
}
