//! Group-commit log manager: asynchronous durable WAL with a flush
//! pipeline.
//!
//! The paper's §5 log-disk model prices durability per *flush*, not per
//! commit: a log device with service time `log_io_delay_us` saturates
//! at `1 / delay` flushes per second, and throughput beyond that is
//! only possible when each flush carries more than one commit. The
//! synchronous WAL (every append immediately durable) makes that cost
//! invisible. This module inserts the pipeline stage that makes it
//! real:
//!
//! 1. A committing terminal appends its `Commit` record under the WAL
//!    mutex and receives a **commit ticket** — the total number of
//!    commit records appended so far, which is also the count that must
//!    become durable before the terminal may report success.
//! 2. The terminal blocks on the ticket. A background **batcher**
//!    thread wakes, waits up to `flush_window_us` for more commits to
//!    pile in (short-circuiting as soon as `max_batch` are pending),
//!    then performs one flush: it sleeps `log_io_delay_us` (the
//!    simulated device write), advances the WAL's durable watermark
//!    over everything appended so far ([`Wal::flush`]), and wakes every
//!    waiter whose ticket falls inside the flushed prefix.
//! 3. Recovery replays the committed prefix of the **durable
//!    watermark**: a crash between an append and the next flush loses
//!    the volatile tail, never a flushed commit. Each flush is a
//!    [`FaultSite::WalFlush`](crate::fault::FaultSite::WalFlush) fault
//!    site, so the crashpoint sweep proves convergence at every flush
//!    boundary.
//!
//! # Ticket protocol invariant
//!
//! Tickets are assigned under the WAL mutex, *after* the append, as the
//! running commit count — so ticket order equals log order, and
//! `durable_commits() >= ticket` is exactly "my commit record is inside
//! the durable prefix". A flush always covers the whole tail, so the
//! durable commit count never skips a ticket: wakeups cannot reorder a
//! waiter past its own record.
//!
//! # Deterministic inline mode
//!
//! [`GroupCommitConfig::inline_every`] runs without the batcher thread:
//! the committing thread itself flushes once every `max_batch` commits.
//! On a serial workload the fault-site numbering is then identical run
//! to run, which is what the crashpoint sweep needs to enumerate
//! `wal_flush` sites reproducibly. Inline commits never block (the
//! committer is the flusher), so the mode is a durability *schedule*,
//! not a wait protocol.
//!
//! # Lock order
//!
//! Both the commit path and the batcher acquire `wal → state`, never
//! the reverse, and neither touches a buffer-pool shard mutex or frame
//! latch — the batcher sits strictly *below* the pool in the existing
//! `shard → wal → disk` hierarchy (see `bufmgr`'s module docs and
//! DESIGN.md §10).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tpcc_obs::{CounterHandle, HistogramHandle, Label, Obs, QuantileSketch, TraceHandle};

use crate::wal::{Wal, WalEntry};

/// Knobs for the group-commit pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupCommitConfig {
    /// How long the batcher waits for more commits before flushing a
    /// non-full group, in microseconds. 0 flushes as soon as the
    /// batcher sees any pending commit.
    pub flush_window_us: u64,
    /// Flush immediately once this many commits are pending, regardless
    /// of the window. Also the inline-mode flush period.
    pub max_batch: usize,
    /// Simulated log-device service time per flush, in microseconds —
    /// the log-disk sibling of the buffer pool's `io_delay_us`.
    pub log_io_delay_us: u64,
    /// Deterministic inline mode: no batcher thread, the committer
    /// flushes every `max_batch` commits itself (crashpoint sweeps).
    pub inline: bool,
}

impl GroupCommitConfig {
    /// Threaded batcher with the given window/batch/device knobs.
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
    /// the committing thread, no batcher, no device latency.
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

impl Default for GroupCommitConfig {
    fn default() -> Self {
        Self::new(100, 32, 100)
    }
}

/// What one durable commit observed on its way out — the property the
/// wakeup test asserts: `durable_at_wake >= ticket` for every commit.
#[derive(Debug, Clone, Copy)]
pub struct CommitReceipt {
    /// This commit's ticket: the commit count including it.
    pub ticket: u64,
    /// Durable commit count when the waiter was released (0 when the
    /// run crashed or shut down before durability).
    pub durable_at_wake: u64,
    /// Nanoseconds spent blocked on the ticket (0 in inline mode).
    pub wait_ns: u64,
}

/// Counter snapshot of the pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupCommitStats {
    /// Flushes performed (watermark advances).
    pub flushes: u64,
    /// Commit records those flushes made durable.
    pub commits_flushed: u64,
    /// Flushes triggered by `max_batch` pressure rather than the window
    /// timer.
    pub cap_flushes: u64,
    /// WAL entries (all record types) made durable by flushes.
    pub entries_flushed: u64,
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

/// Waiter/batcher shared state, guarded by one mutex. `appended` and
/// `durable` are commit *counts* (tickets), not entry indexes.
#[derive(Debug, Default)]
struct GcState {
    /// Commit tickets issued (commit records appended).
    appended: u64,
    /// Tickets durably flushed.
    durable: u64,
    /// Inline mode: commits since the last inline flush.
    since_flush: u64,
    /// The fault hook tripped; waiters drain without durability.
    crashed: bool,
    /// Batcher asked to exit (manager drop).
    shutdown: bool,
}

/// Observability handles, re-resolvable when the recorder changes
/// (`set_obs` after enabling group commit).
#[derive(Debug, Default)]
struct GcObs {
    flushes: CounterHandle,
    group_commits: CounterHandle,
    commit_wait: HistogramHandle,
    flush_trace: TraceHandle,
}

#[derive(Debug)]
struct GcShared {
    cfg: GroupCommitConfig,
    wal: Arc<Mutex<Option<Wal>>>,
    state: Mutex<GcState>,
    /// Terminals wait here for `durable >= ticket`.
    commit_cv: Condvar,
    /// The batcher waits here for pending commits.
    work_cv: Condvar,
    flushes: AtomicU64,
    commits_flushed: AtomicU64,
    cap_flushes: AtomicU64,
    entries_flushed: AtomicU64,
    /// Cumulative commit-wait sketch (nanoseconds), mergeable into
    /// window deltas by telemetry readers.
    wait_ns: Mutex<QuantileSketch>,
    obs: Mutex<GcObs>,
}

impl GcShared {
    /// One flush: simulated device latency, watermark advance, waiter
    /// wakeup. `cap` records whether `max_batch` pressure (rather than
    /// the window timer) forced it.
    fn do_flush(&self, cap: bool) {
        if self.cfg.log_io_delay_us > 0 {
            std::thread::sleep(Duration::from_micros(self.cfg.log_io_delay_us));
        }
        let trace_start = self.obs.lock().expect("gc obs").flush_trace.now();
        let flushed = {
            let mut wal = self.wal.lock().expect("wal lock");
            let Some(wal) = wal.as_mut() else {
                return; // WAL detached (quiesced take_wal): nothing to flush
            };
            let before_entries = wal.durable_len();
            let before_commits = wal.durable_commits();
            wal.flush().then(|| {
                (
                    wal.durable_commits(),
                    wal.durable_commits() - before_commits,
                    (wal.durable_len() - before_entries) as u64,
                )
            })
        };
        let mut st = self.state.lock().expect("gc state");
        // a durable commit was necessarily appended: a committer that
        // has released the WAL lock but not yet taken the state lock
        // may lag `st.appended` behind the log, so catch it up here
        // rather than let `appended - durable` underflow
        if let Some((durable, _, _)) = flushed {
            st.appended = st.appended.max(durable);
        }
        match flushed {
            // an already-durable tail is not a flush: don't let quiesce
            // calls dilute the commits-per-flush batching statistics
            Some((durable, 0, 0)) => st.durable = durable,
            Some((durable, commits, entries)) => {
                st.durable = durable;
                self.flushes.fetch_add(1, Ordering::Relaxed);
                self.commits_flushed.fetch_add(commits, Ordering::Relaxed);
                self.entries_flushed.fetch_add(entries, Ordering::Relaxed);
                if cap {
                    self.cap_flushes.fetch_add(1, Ordering::Relaxed);
                }
                let obs = self.obs.lock().expect("gc obs");
                obs.flushes.add(1);
                obs.group_commits.add(commits);
                obs.flush_trace.record_opt("wal_flush", trace_start);
            }
            None => st.crashed = true, // the crash froze the watermark
        }
        drop(st);
        self.commit_cv.notify_all();
    }

    fn batcher_loop(&self) {
        let mut st = self.state.lock().expect("gc state");
        loop {
            // park until there is work (and the run is still live)
            while st.appended == st.durable || st.crashed {
                if st.shutdown {
                    return;
                }
                st = self.work_cv.wait(st).expect("gc state");
            }
            if !st.shutdown && self.cfg.flush_window_us > 0 {
                // group window: gather commits until the cap fills,
                // the window expires, or shutdown asks for a last flush
                let deadline = Instant::now() + Duration::from_micros(self.cfg.flush_window_us);
                while (st.appended - st.durable) < self.cfg.max_batch as u64
                    && !st.shutdown
                    && !st.crashed
                {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    let (guard, _timeout) = self
                        .work_cv
                        .wait_timeout(st, deadline - now)
                        .expect("gc state");
                    st = guard;
                }
            }
            if st.crashed {
                continue;
            }
            let cap = (st.appended - st.durable) >= self.cfg.max_batch as u64;
            let leaving = st.shutdown;
            drop(st);
            self.do_flush(cap);
            st = self.state.lock().expect("gc state");
            if leaving && st.appended == st.durable {
                return;
            }
        }
    }
}

/// The group-commit pipeline: ticket issue on the commit path, plus
/// (in threaded mode) the batcher thread it owns. Dropping the manager
/// shuts the batcher down after a final flush of any pending commits.
#[derive(Debug)]
pub struct LogManager {
    shared: Arc<GcShared>,
    batcher: Option<JoinHandle<()>>,
}

impl LogManager {
    /// Builds the pipeline over the shared WAL slot. The WAL must
    /// already be in deferred-durability mode ([`Wal::set_deferred`]) —
    /// `BufferManager::enable_group_commit` arranges both.
    #[must_use]
    pub fn new(cfg: GroupCommitConfig, wal: Arc<Mutex<Option<Wal>>>) -> Self {
        let shared = Arc::new(GcShared {
            cfg,
            wal,
            state: Mutex::new(GcState::default()),
            commit_cv: Condvar::new(),
            work_cv: Condvar::new(),
            flushes: AtomicU64::new(0),
            commits_flushed: AtomicU64::new(0),
            cap_flushes: AtomicU64::new(0),
            entries_flushed: AtomicU64::new(0),
            wait_ns: Mutex::new(QuantileSketch::default()),
            obs: Mutex::new(GcObs::default()),
        });
        let batcher = (!cfg.inline).then(|| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("wal-batcher".into())
                .spawn(move || shared.batcher_loop())
                .expect("spawn wal-batcher")
        });
        Self { shared, batcher }
    }

    /// The configured knobs.
    #[must_use]
    pub fn config(&self) -> GroupCommitConfig {
        self.shared.cfg
    }

    /// Resolves observability handles against `obs` (call again after
    /// the recorder changes): `wal_flushes` / `group_commits` counters,
    /// the `commit_wait_ns` histogram, and `log`-category flush trace
    /// events.
    pub fn set_obs(&self, obs: &Obs) {
        let mut h = self.shared.obs.lock().expect("gc obs");
        h.flushes = obs.counter_handle("wal_flushes", Label::None);
        h.group_commits = obs.counter_handle("group_commits", Label::None);
        h.commit_wait = obs.histogram_handle("commit_wait_ns", Label::None);
        h.flush_trace = obs.trace_handle("log");
    }

    /// Appends the commit record for `txn` and blocks until it is in
    /// the durably flushed prefix (threaded mode) or applies the inline
    /// flush schedule (inline mode). Never blocks after a crash or
    /// shutdown — waiters drain with `durable_at_wake = 0`.
    pub fn commit(&self, txn: u64) -> CommitReceipt {
        let ticket = {
            let mut wal = self.shared.wal.lock().expect("wal lock");
            let Some(wal) = wal.as_mut() else {
                return CommitReceipt {
                    ticket: 0,
                    durable_at_wake: 0,
                    wait_ns: 0,
                };
            };
            let before = wal.commits();
            wal.append(WalEntry::Commit { txn });
            if wal.commits() == before {
                // the crash dropped the record: no ticket, no waiting
                let mut st = self.shared.state.lock().expect("gc state");
                st.crashed = true;
                drop(st);
                self.shared.commit_cv.notify_all();
                self.shared.work_cv.notify_all();
                return CommitReceipt {
                    ticket: 0,
                    durable_at_wake: 0,
                    wait_ns: 0,
                };
            }
            wal.commits()
        };
        if self.shared.cfg.inline {
            let flush = {
                let mut st = self.shared.state.lock().expect("gc state");
                st.appended = st.appended.max(ticket);
                st.since_flush += 1;
                let due = st.since_flush >= self.shared.cfg.max_batch as u64;
                if due {
                    st.since_flush = 0;
                }
                due
            };
            if flush {
                self.shared.do_flush(true);
            }
            let durable = self.shared.state.lock().expect("gc state").durable;
            return CommitReceipt {
                ticket,
                durable_at_wake: durable,
                wait_ns: 0,
            };
        }
        let start = Instant::now();
        let mut st = self.shared.state.lock().expect("gc state");
        st.appended = st.appended.max(ticket);
        self.shared.work_cv.notify_one();
        while st.durable < ticket && !st.crashed && !st.shutdown {
            st = self.shared.commit_cv.wait(st).expect("gc state");
        }
        let durable_at_wake = if st.durable >= ticket { st.durable } else { 0 };
        drop(st);
        let wait_ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        self.shared
            .wait_ns
            .lock()
            .expect("gc wait sketch")
            .record(wait_ns);
        self.shared
            .obs
            .lock()
            .expect("gc obs")
            .commit_wait
            .record(wait_ns);
        CommitReceipt {
            ticket,
            durable_at_wake,
            wait_ns,
        }
    }

    /// Restarts the ticket watermarks at 0 for a freshly armed (empty)
    /// log, whose commit count — the ticket source — restarts there
    /// too. Left at the old log's high-water mark, every later commit
    /// would find `durable >= ticket` and return without waiting for a
    /// flush, and the batcher could never again see `appended ==
    /// durable` to park or exit on. The cumulative
    /// [`GroupCommitStats`] and the commit-wait sketch carry on. Call
    /// only while quiesced (no committer in flight).
    pub fn restart_tickets(&self) {
        let mut st = self.shared.state.lock().expect("gc state");
        st.appended = 0;
        st.durable = 0;
        st.since_flush = 0;
    }

    /// Forces a flush of whatever is pending (quiesce points: sweeps,
    /// benchmarks, shutdown). No-op when the tail is empty.
    pub fn flush_now(&self) {
        self.shared.do_flush(false);
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> GroupCommitStats {
        GroupCommitStats {
            flushes: self.shared.flushes.load(Ordering::Relaxed),
            commits_flushed: self.shared.commits_flushed.load(Ordering::Relaxed),
            cap_flushes: self.shared.cap_flushes.load(Ordering::Relaxed),
            entries_flushed: self.shared.entries_flushed.load(Ordering::Relaxed),
        }
    }

    /// Clone of the cumulative commit-wait sketch (nanoseconds;
    /// threaded mode only — inline commits never wait).
    #[must_use]
    pub fn commit_wait_sketch(&self) -> QuantileSketch {
        self.shared.wait_ns.lock().expect("gc wait sketch").clone()
    }
}

impl Drop for LogManager {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("gc state");
            st.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        self.shared.commit_cv.notify_all();
        if let Some(batcher) = self.batcher.take() {
            let _ = batcher.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared_wal(deferred: bool) -> Arc<Mutex<Option<Wal>>> {
        let mut wal = Wal::new();
        wal.set_deferred(deferred);
        Arc::new(Mutex::new(Some(wal)))
    }

    #[test]
    fn threaded_commit_blocks_until_its_ticket_is_durable() {
        let wal = shared_wal(true);
        let lm = LogManager::new(GroupCommitConfig::new(50, 4, 0), Arc::clone(&wal));
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
        let w = wal.lock().expect("wal");
        let w = w.as_ref().expect("present");
        assert_eq!(w.durable_commits(), 10);
        drop(lm);
    }

    #[test]
    fn max_batch_pressure_short_circuits_the_window() {
        let wal = shared_wal(true);
        // an hour-long window: only cap pressure can release a flush
        let lm = LogManager::new(
            GroupCommitConfig::new(3_600_000_000, 1, 0),
            Arc::clone(&wal),
        );
        let r = lm.commit(1);
        assert_eq!(r.durable_at_wake, 1, "cap of 1: every commit flushes");
        let stats = lm.stats();
        assert_eq!(stats.flushes, 1);
        assert_eq!(stats.cap_flushes, 1);
        drop(lm);
    }

    #[test]
    fn inline_mode_flushes_every_max_batch_commits() {
        let wal = shared_wal(true);
        let lm = LogManager::new(GroupCommitConfig::inline_every(3), Arc::clone(&wal));
        for txn in 1..=7u64 {
            lm.commit(txn);
        }
        let stats = lm.stats();
        assert_eq!(stats.flushes, 2, "7 commits at period 3 → flushes at 3, 6");
        assert_eq!(stats.commits_flushed, 6);
        assert_eq!(
            wal.lock()
                .expect("wal")
                .as_ref()
                .expect("present")
                .durable_commits(),
            6,
            "the 7th commit is still volatile"
        );
        lm.flush_now();
        assert_eq!(lm.stats().commits_flushed, 7);
    }

    #[test]
    fn flush_now_drains_the_pending_tail() {
        let wal = shared_wal(true);
        let lm = LogManager::new(GroupCommitConfig::inline_every(100), Arc::clone(&wal));
        lm.commit(1);
        assert_eq!(
            wal.lock()
                .expect("wal")
                .as_ref()
                .expect("present")
                .durable_commits(),
            0
        );
        lm.flush_now();
        assert_eq!(
            wal.lock()
                .expect("wal")
                .as_ref()
                .expect("present")
                .durable_commits(),
            1
        );
    }

    #[test]
    fn commits_per_flush_exceeds_one_under_concurrency() {
        let wal = shared_wal(true);
        let lm = Arc::new(LogManager::new(
            GroupCommitConfig::new(200, 64, 50),
            Arc::clone(&wal),
        ));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let lm = Arc::clone(&lm);
                std::thread::spawn(move || {
                    for i in 0..25u64 {
                        let r = lm.commit(t * 1000 + i);
                        assert!(r.durable_at_wake >= r.ticket);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("terminal");
        }
        let stats = lm.stats();
        assert_eq!(stats.commits_flushed, 200);
        assert!(
            stats.commits_per_flush() > 1.0,
            "8 concurrent terminals with a 50µs device must batch: {stats:?}"
        );
    }
}
