//! Deterministic fault injection: every durability-relevant action in
//! the storage engine is a numbered **fault site**, and a seeded
//! [`FaultPlan`] can trip a simulated crash or a soft I/O fault at any
//! of them.
//!
//! # Site taxonomy
//!
//! | site | fires at | crash consequence |
//! |------|----------|-------------------|
//! | [`FaultSite::WalAppend`] | top of [`Wal::append`], before the record lands | the in-flight record is lost |
//! | [`FaultSite::PageFree`]  | [`DiskManager::free_page`] on the live disk | the following `FreePage` record is lost |
//! | [`FaultSite::WriteBack`] | each dirty-page write-back (eviction or flush) | the log freezes mid-flush |
//! | [`FaultSite::MissLoad`]  | each buffer-pool miss, before the disk read | the log freezes mid-read |
//! | [`FaultSite::WalFlush`]  | top of [`Wal::flush`], before the device write | the whole unflushed tail is lost |
//! | [`FaultSite::UndoAppend`] | [`UndoStore::record`], before the pre-image lands | none durable — undo chains are volatile; the site sweeps the instants *between* a writer's page mutations |
//! | [`FaultSite::TwoPcPrepare`] | a 2PC `Prepare` record is about to land ([`Wal::append`]) | the participant never prepared — presumed abort |
//! | [`FaultSite::TwoPcDecide`]  | a 2PC `Decide` record is about to land ([`Wal::append`]) | the decision is lost; a durable `Prepare` with no decision is **in doubt** until recovery asks the coordinator |
//! | [`FaultSite::CdcCheckpoint`] | a CDC subscriber is about to persist its cursor checkpoint | the checkpoint is lost; the view must rebuild from the previous surviving checkpoint + WAL replay |
//!
//! [`UndoStore::record`]: crate::undo::UndoStore::record
//!
//! # Crash model
//!
//! Recovery in this engine is redo-only over a checkpoint snapshot: it
//! replays the committed prefix of the WAL and **never reads the
//! crashed disk image**. The only durable state a crash can influence
//! is therefore *how much of the WAL survived*. Tripping a crash does
//! not unwind the process (that would poison every mutex in the pool);
//! instead the hook latches a `crashed` flag and [`Wal::append`]
//! silently drops every later record — the durable log is frozen at
//! the crash instant while the in-memory run continues harmlessly.
//! `take_wal` afterwards yields exactly the log a real crash at that
//! site would have left behind.
//!
//! # Determinism
//!
//! Sites fire in execution order and receive consecutive global
//! sequence numbers from one atomic counter; on a serial workload the
//! numbering is identical run to run, so `FaultPlan::crash_at(seed, k)`
//! reproduces the *k*-th site of a recording run exactly. Soft faults
//! are keyed off the per-site ordinal and a `splitmix64` of the plan
//! seed — no wall clock, no OS randomness.
//!
//! With no hook installed every site is a single `Option` check —
//! measured at well under 1% of workload throughput (see
//! `EXPERIMENTS.md`).
//!
//! [`Wal::append`]: crate::wal::Wal::append
//! [`Wal::flush`]: crate::wal::Wal::flush
//! [`DiskManager::free_page`]: crate::disk::DiskManager::free_page

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// One class of fault site (see the module-level taxonomy table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A WAL record is about to be appended.
    WalAppend,
    /// A page is about to be returned to its file's free set.
    PageFree,
    /// A dirty page is about to be written back to the device.
    WriteBack,
    /// A buffer-pool miss is about to read a page from the device.
    MissLoad,
    /// A flush is about to push the WAL tail to the log device
    /// ([`Wal::flush`](crate::wal::Wal::flush)): once per commit without
    /// group commit, once per group with it, and once per 2PC force.
    WalFlush,
    /// A writer is about to stamp a pre-image into the MVCC undo store
    /// ([`crate::undo::UndoStore::record`]) — one site per versioned
    /// write, firing between a transaction's page mutations. Undo
    /// chains are volatile, so a crash here loses no durable state;
    /// the site exists to *enumerate* mid-transaction crash instants
    /// on the MVCC write path.
    UndoAppend,
    /// A two-phase-commit `Prepare` record is about to be appended to
    /// a participant's WAL. A crash here means the participant never
    /// prepared: presumed abort, the coordinator aborts the global
    /// transaction.
    TwoPcPrepare,
    /// A two-phase-commit `Decide` record is about to be appended
    /// (coordinator decision or participant acknowledgement). A crash
    /// here leaves any durable `Prepare` without a decision — the
    /// in-doubt window recovery must resolve through the coordinator.
    TwoPcDecide,
    /// A CDC subscriber is about to persist a cursor checkpoint
    /// ([`crate::cdc::CdcSubscriber::checkpoint`]). Checkpoints carry
    /// no base-table state, so a crash here loses nothing durable —
    /// the derived view simply rebuilds from the previous surviving
    /// checkpoint plus WAL replay, which the crashpoint sweep proves.
    CdcCheckpoint,
}

/// Number of distinct fault-site classes ([`FaultSite::ALL`] length).
pub const FAULT_SITES: usize = 9;

impl FaultSite {
    /// Every site class, in display order.
    pub const ALL: [FaultSite; FAULT_SITES] = [
        FaultSite::WalAppend,
        FaultSite::PageFree,
        FaultSite::WriteBack,
        FaultSite::MissLoad,
        FaultSite::WalFlush,
        FaultSite::UndoAppend,
        FaultSite::TwoPcPrepare,
        FaultSite::TwoPcDecide,
        FaultSite::CdcCheckpoint,
    ];

    /// Dense index (for per-site counter arrays).
    #[must_use]
    pub fn idx(self) -> usize {
        match self {
            FaultSite::WalAppend => 0,
            FaultSite::PageFree => 1,
            FaultSite::WriteBack => 2,
            FaultSite::MissLoad => 3,
            FaultSite::WalFlush => 4,
            FaultSite::UndoAppend => 5,
            FaultSite::TwoPcPrepare => 6,
            FaultSite::TwoPcDecide => 7,
            FaultSite::CdcCheckpoint => 8,
        }
    }

    /// Stable lower-snake name (for JSON output).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::WalAppend => "wal_append",
            FaultSite::PageFree => "page_free",
            FaultSite::WriteBack => "write_back",
            FaultSite::MissLoad => "miss_load",
            FaultSite::WalFlush => "wal_flush",
            FaultSite::UndoAppend => "undo_append",
            FaultSite::TwoPcPrepare => "twopc_prepare",
            FaultSite::TwoPcDecide => "twopc_decide",
            FaultSite::CdcCheckpoint => "cdc_checkpoint",
        }
    }
}

/// A soft (recoverable) write-back fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SoftFault {
    /// The write failed transiently; nothing reached the device.
    IoError,
    /// The write tore: only the first `valid` bytes (a multiple of 64)
    /// reached the device.
    Torn {
        /// Bytes that made it to the device before the tear.
        valid: usize,
    },
}

/// What a seeded run should inject. Install with
/// `BufferManager::install_fault_hook` (or `TpccDb::install_fault_plan`
/// one layer up).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for every pseudo-random choice the plan makes.
    pub seed: u64,
    /// Trip a simulated crash when the global site counter reaches this
    /// value (`None` = never).
    pub crash_at: Option<u64>,
    /// Fail every n-th write-back transiently (0 = never). The failure
    /// clears within [`FaultPlan::max_retries`] attempts.
    pub io_error_every: u64,
    /// Tear every n-th write-back at a 64-byte boundary (0 = never);
    /// successive tears march through every boundary of the page.
    pub torn_write_every: u64,
    /// Upper bound on retries a transient fault may consume before the
    /// write succeeds.
    pub max_retries: u32,
    /// Record every site firing (sequence, class, durable WAL length) —
    /// the enumeration pass of the crash-point sweep.
    pub record_sites: bool,
}

impl FaultPlan {
    /// Pure enumeration: no faults, every site recorded.
    #[must_use]
    pub fn observe(seed: u64) -> Self {
        Self {
            seed,
            crash_at: None,
            io_error_every: 0,
            torn_write_every: 0,
            max_retries: 4,
            record_sites: true,
        }
    }

    /// Simulated crash at global site `seq` (numbering from a prior
    /// [`FaultPlan::observe`] run of the same workload).
    #[must_use]
    pub fn crash_at(seed: u64, seq: u64) -> Self {
        Self {
            seed,
            crash_at: Some(seq),
            io_error_every: 0,
            torn_write_every: 0,
            max_retries: 4,
            record_sites: false,
        }
    }

    /// Soft faults only: transient I/O errors every `io_error_every`-th
    /// write-back and torn writes every `torn_write_every`-th (0
    /// disables either).
    #[must_use]
    pub fn soft(seed: u64, io_error_every: u64, torn_write_every: u64) -> Self {
        Self {
            seed,
            crash_at: None,
            io_error_every,
            torn_write_every,
            max_retries: 4,
            record_sites: false,
        }
    }
}

/// One site firing observed by a recording run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteRecord {
    /// Global site sequence number (0-based, execution order).
    pub seq: u64,
    /// Site class.
    pub site: FaultSite,
    /// Durable WAL length (entries) at the instant the site fired — the
    /// log a crash tripped here would leave behind.
    pub wal_len: usize,
}

/// Result of consulting the hook at one site.
#[derive(Debug, Clone, Copy)]
pub struct SiteOutcome {
    /// True when the run is (now) crashed: the caller's durable effect
    /// must not happen.
    pub crash: bool,
    /// Global sequence number assigned to this firing (`u64::MAX` when
    /// the run had already crashed and the site was not numbered).
    pub seq: u64,
    /// Per-class ordinal of this firing (`u64::MAX` after a crash).
    pub nth: u64,
}

/// Counter snapshot of everything a hook observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultStats {
    /// Firings per site class, indexed by [`FaultSite::idx`].
    pub fired: [u64; FAULT_SITES],
    /// Global sequence number the crash tripped at, if one did.
    pub crashed_at: Option<u64>,
    /// Transient write-back failures injected.
    pub io_errors: u64,
    /// Torn write-backs injected.
    pub torn_writes: u64,
    /// Retry attempts the buffer manager spent clearing soft faults.
    pub retries: u64,
}

impl FaultStats {
    /// Total site firings across all classes.
    #[must_use]
    pub fn sites_total(&self) -> u64 {
        self.fired.iter().sum()
    }
}

const NO_CRASH: u64 = u64::MAX;

/// The shared injection state threaded through `DiskManager`,
/// `BufferManager` and `Wal` (one `Arc<FaultHook>` per database).
#[derive(Debug)]
pub struct FaultHook {
    plan: FaultPlan,
    seq: AtomicU64,
    fired: [AtomicU64; FAULT_SITES],
    crashed: AtomicBool,
    crashed_at: AtomicU64,
    /// Durable WAL length — maintained by `Wal::flush`, the only thing
    /// that moves it, so non-WAL sites can capture it without touching
    /// the WAL mutex (which would invert the wal → disk lock order).
    wal_len: AtomicU64,
    io_errors: AtomicU64,
    torn_writes: AtomicU64,
    retries: AtomicU64,
    records: Mutex<Vec<SiteRecord>>,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl FaultHook {
    /// A hook executing `plan`.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            seq: AtomicU64::new(0),
            fired: std::array::from_fn(|_| AtomicU64::new(0)),
            crashed: AtomicBool::new(false),
            crashed_at: AtomicU64::new(NO_CRASH),
            wal_len: AtomicU64::new(0),
            io_errors: AtomicU64::new(0),
            torn_writes: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            records: Mutex::new(Vec::new()),
        }
    }

    /// The plan this hook executes.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Fires one site: numbers it, counts it, records it when the plan
    /// asks, and trips the crash when the plan says so. Storage-layer
    /// call sites consult the returned [`SiteOutcome::crash`] to decide
    /// whether their durable effect may proceed.
    pub fn fire(&self, site: FaultSite) -> SiteOutcome {
        if self.crashed.load(Ordering::Acquire) {
            return SiteOutcome {
                crash: true,
                seq: u64::MAX,
                nth: u64::MAX,
            };
        }
        let seq = self.seq.fetch_add(1, Ordering::AcqRel);
        let nth = self.fired[site.idx()].fetch_add(1, Ordering::AcqRel);
        if self.plan.record_sites {
            let wal_len = self.wal_len.load(Ordering::Acquire) as usize;
            self.records
                .lock()
                .expect("fault records")
                .push(SiteRecord { seq, site, wal_len });
        }
        let crash = self.plan.crash_at == Some(seq);
        if crash {
            self.crashed_at.store(seq, Ordering::Release);
            self.crashed.store(true, Ordering::Release);
        }
        SiteOutcome { crash, seq, nth }
    }

    /// True once a crash has tripped (the durable log is frozen).
    #[must_use]
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::Acquire)
    }

    /// Called by `Wal::flush` after a flush advances the durable
    /// watermark: the durable length jumps to the flushed prefix in one
    /// step.
    pub(crate) fn note_durable_flush(&self, len: usize) {
        self.wal_len.store(len as u64, Ordering::Release);
    }

    /// Called by the buffer manager for each retry a soft fault costs.
    pub(crate) fn note_retry(&self) {
        self.retries.fetch_add(1, Ordering::AcqRel);
    }

    /// Retry bound the buffer manager must respect.
    #[must_use]
    pub fn max_retries(&self) -> u32 {
        self.plan.max_retries
    }

    /// Decides whether write-back number `nth` (per-class ordinal from
    /// [`FaultHook::fire`]) fails on `attempt` (0-based). Deterministic
    /// in `(seed, nth, attempt)`; always returns `None` within
    /// [`FaultPlan::max_retries`]` + 1` attempts, so a bounded retry
    /// loop always converges.
    #[must_use]
    pub fn writeback_fault(&self, nth: u64, attempt: u32, page_size: usize) -> Option<SoftFault> {
        let p = &self.plan;
        let torn_now = p.torn_write_every != 0 && nth.is_multiple_of(p.torn_write_every);
        if attempt == 0 && torn_now {
            self.torn_writes.fetch_add(1, Ordering::AcqRel);
            let boundaries = (page_size / 64).max(1) as u64;
            // march through every 64-byte boundary of the page, phase
            // shifted by the seed, so a long run tears at all of them
            let k = (splitmix64(p.seed) + nth / p.torn_write_every) % boundaries;
            return Some(SoftFault::Torn {
                valid: (k * 64) as usize,
            });
        }
        if p.io_error_every != 0 && nth.is_multiple_of(p.io_error_every) {
            // fail for a seeded number of attempts in 1..=max_retries
            // (after any tear), then let the write through
            let span = u64::from(p.max_retries.max(1));
            let fails = 1 + (splitmix64(p.seed ^ nth.rotate_left(17)) % span) as u32;
            if attempt < fails + u32::from(torn_now) {
                self.io_errors.fetch_add(1, Ordering::AcqRel);
                return Some(SoftFault::IoError);
            }
        }
        None
    }

    /// Drains the recorded site firings (enumeration pass).
    #[must_use]
    pub fn take_records(&self) -> Vec<SiteRecord> {
        std::mem::take(&mut *self.records.lock().expect("fault records"))
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> FaultStats {
        let crashed_at = self.crashed_at.load(Ordering::Acquire);
        FaultStats {
            fired: std::array::from_fn(|i| self.fired[i].load(Ordering::Acquire)),
            crashed_at: (crashed_at != NO_CRASH).then_some(crashed_at),
            io_errors: self.io_errors.load(Ordering::Acquire),
            torn_writes: self.torn_writes.load(Ordering::Acquire),
            retries: self.retries.load(Ordering::Acquire),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sites_number_in_execution_order_and_record() {
        let h = FaultHook::new(FaultPlan::observe(7));
        let a = h.fire(FaultSite::WalAppend);
        let b = h.fire(FaultSite::MissLoad);
        let c = h.fire(FaultSite::WalAppend);
        assert_eq!((a.seq, b.seq, c.seq), (0, 1, 2));
        assert_eq!((a.nth, c.nth), (0, 1), "per-class ordinals are dense");
        assert!(!a.crash && !b.crash && !c.crash);
        let recs = h.take_records();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[1].site, FaultSite::MissLoad);
        assert_eq!(h.stats().sites_total(), 3);
    }

    #[test]
    fn crash_trips_exactly_once_and_latches() {
        let h = FaultHook::new(FaultPlan::crash_at(7, 1));
        assert!(!h.fire(FaultSite::WalAppend).crash);
        let o = h.fire(FaultSite::WriteBack);
        assert!(o.crash, "site 1 trips the crash");
        assert!(h.crashed());
        let later = h.fire(FaultSite::WalAppend);
        assert!(later.crash, "every later site sees the crashed state");
        assert_eq!(later.seq, u64::MAX, "post-crash sites are not numbered");
        assert_eq!(h.stats().crashed_at, Some(1));
        assert_eq!(h.stats().sites_total(), 2);
    }

    #[test]
    fn writeback_faults_are_deterministic_and_bounded() {
        let plan = FaultPlan::soft(42, 3, 5);
        let h = FaultHook::new(plan);
        let g = FaultHook::new(plan);
        for nth in 0..40u64 {
            let mut attempts = 0u32;
            loop {
                let a = h.writeback_fault(nth, attempts, 256);
                let b = g.writeback_fault(nth, attempts, 256);
                assert_eq!(a, b, "same plan, same decisions");
                if a.is_none() {
                    break;
                }
                if let Some(SoftFault::Torn { valid }) = a {
                    assert_eq!(valid % 64, 0, "tears land on 64-byte boundaries");
                    assert!(valid < 256);
                }
                attempts += 1;
                assert!(attempts <= plan.max_retries + 1, "faults must clear");
            }
        }
        assert!(h.stats().io_errors > 0);
        assert!(h.stats().torn_writes > 0);
    }

    #[test]
    fn torn_writes_march_through_every_boundary() {
        let h = FaultHook::new(FaultPlan::soft(9, 0, 1));
        let mut seen = std::collections::BTreeSet::new();
        for nth in 0..8u64 {
            match h.writeback_fault(nth, 0, 256) {
                Some(SoftFault::Torn { valid }) => {
                    seen.insert(valid);
                }
                other => panic!("every write tears under torn_write_every=1, got {other:?}"),
            }
        }
        assert_eq!(
            seen.into_iter().collect::<Vec<_>>(),
            vec![0, 64, 128, 192],
            "all four boundaries of a 256-byte page get exercised"
        );
    }
}
