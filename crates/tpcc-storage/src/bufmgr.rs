//! The buffer manager: a fixed pool of frames over the simulated disk
//! with LRU replacement (as the paper assumes), dirty-page write-back
//! and hit/miss accounting per file.
//!
//! # Fix / latch protocol
//!
//! Every frame carries an embedded reader-writer **latch** plus a pin
//! count. [`BufferManager::fix_shared`] / [`BufferManager::fix_exclusive`]
//! return RAII guards ([`PageReadGuard`] / [`PageWriteGuard`]) that hold
//! the frame pinned (safe from replacement) and latched (safe from
//! concurrent mutation) for the guard's lifetime. This is the substrate
//! for latch *crabbing* in the B+Tree and heap layers: a caller may hold
//! one page guard while fixing another (parent → child, leaf → next
//! leaf), which the closure-scoped API of earlier revisions forbade.
//! The closure API (`with_page` / `with_page_mut`) survives as a thin
//! wrapper over single-page guards.
//!
//! # Concurrency and latch ordering
//!
//! Frame *mapping* and replacement state is partitioned into **shards**,
//! each guarded by its own mutex; the frames themselves live outside the
//! shard mutexes so page content is protected only by the per-frame
//! latch. The ordering rules that keep the hierarchy deadlock-free:
//!
//! * shard mutex → frame latch: **try-only** (victim search skips
//!   latched or pinned frames, never blocks);
//! * frame latch → shard mutex / WAL mutex / disk mutex: may block —
//!   safe because shard/WAL/disk holders never block on a frame latch;
//! * shard mutex → WAL mutex (page deallocation unmaps, frees and logs
//!   atomically) — safe because no WAL holder ever takes a shard mutex;
//! * WAL mutex → disk mutex (allocation logging), never the reverse;
//! * group commit adds no mutex: `logmgr` leaders and followers wait
//!   on a condvar paired with the WAL mutex and never touch a shard
//!   mutex or a frame latch (see DESIGN.md §10).
//!
//! Page-level ordering (who may hold two frame latches at once) is the
//! caller's contract: the B+Tree acquires top-down / left-to-right and
//! the heap holds at most one page latch, so frame-latch cycles cannot
//! form (see DESIGN.md §8).
//!
//! [`BufferManager::new`] builds a **single** shard, which preserves
//! the exact global LRU behaviour the paper's miss-ratio figures
//! depend on — uncontended victim choice is identical to a serial pool.
//! Parallel callers use [`BufferManager::new_sharded`].

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError};

use crate::disk::{DiskManager, FileId};
use crate::fault::{FaultHook, FaultPlan, FaultSite, SoftFault};
use crate::logmgr::{GroupCommitConfig, LogManager};
use crate::wal::{page_deltas, redo_leaf_record, Wal, WalEntry};
use tpcc_buffer::fxhash::FxHashMap;
use tpcc_obs::{CounterHandle, Label, Obs, TraceHandle};

/// Replacement policy for the frame pool. The pool only runs LRU; the
/// policy ablation (Clock, FIFO, LRU-2) runs on `tpcc-buffer`'s
/// simulator. The enum survives only because the repo benchmark's probes
/// pass it to [`BufferManager::new`]; it goes when that call drops the
/// argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replacement {
    /// Exact least-recently-used (the paper's assumption).
    Lru,
}

/// Buffer traffic counters for one file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Accesses served from the pool.
    pub hits: u64,
    /// Accesses that had to read from disk.
    pub misses: u64,
    /// Pages of this file evicted to make room.
    pub evictions: u64,
    /// Dirty pages of this file written back to disk (eviction or
    /// [`BufferManager::flush_all`]).
    pub writebacks: u64,
}

impl BufferStats {
    /// Miss ratio; NaN when nothing was accessed — an undefined ratio
    /// must not masquerade as a perfect hit rate. Render it as "n/a".
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            f64::NAN
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Component-wise sum.
    #[must_use]
    pub fn merged(self, other: BufferStats) -> BufferStats {
        BufferStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
            writebacks: self.writebacks + other.writebacks,
        }
    }
}

/// Frame-latch traffic across the pool (see
/// [`BufferManager::latch_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatchStats {
    /// Frame latches taken (shared + exclusive).
    pub acquisitions: u64,
    /// Acquisitions that found the latch held and had to wait.
    pub contended: u64,
}

/// Page content and persistence state, protected by the frame latch.
#[derive(Debug)]
struct FrameData {
    key: Option<(FileId, u32)>,
    bytes: Box<[u8]>,
    dirty: bool,
}

/// One buffer frame: latched content plus a pin count. The pin count
/// is written under the owning shard's mutex (fix / victim search) and
/// read there too; guard drop decrements it without the shard mutex,
/// which can only delay an eviction, never corrupt one.
#[derive(Debug)]
struct FrameCell {
    data: RwLock<FrameData>,
    pins: AtomicU64,
}

/// Pre-resolved per-file counter handles, cached per shard (indexed by
/// dense [`FileId`]) so the fault path never touches the recorder's
/// shared slot map — and never hashes a key either.
#[derive(Debug, Clone, Default)]
struct FileCounters {
    hits: CounterHandle,
    misses: CounterHandle,
    evictions: CounterHandle,
    writebacks: CounterHandle,
}

/// Replacement metadata for one frame, owned by its shard.
#[derive(Debug, Clone, Copy, Default)]
struct FrameMeta {
    key: Option<(FileId, u32)>,
    /// LRU timestamp (monotone counter, per shard).
    last_used: u64,
}

#[derive(Debug)]
struct Shard {
    /// Global index of this shard's first frame.
    base: usize,
    meta: Vec<FrameMeta>,
    table: FxHashMap<(FileId, u32), u32>,
    tick: u64,
    /// Per-file traffic, indexed by `FileId.0` (file ids are dense).
    per_file: Vec<BufferStats>,
    counters: Vec<Option<FileCounters>>,
}

impl Shard {
    fn stat_mut(&mut self, file: FileId) -> &mut BufferStats {
        let i = file.0 as usize;
        if i >= self.per_file.len() {
            self.per_file.resize(i + 1, BufferStats::default());
        }
        &mut self.per_file[i]
    }

    fn counters_for(&mut self, obs: &Obs, file: FileId) -> &FileCounters {
        let i = file.0 as usize;
        if i >= self.counters.len() {
            self.counters.resize_with(i + 1, || None);
        }
        self.counters[i].get_or_insert_with(|| {
            if obs.enabled() {
                FileCounters {
                    hits: obs.counter_handle("buf_hits", Label::Idx(file.0)),
                    misses: obs.counter_handle("buf_misses", Label::Idx(file.0)),
                    evictions: obs.counter_handle("buf_evictions", Label::Idx(file.0)),
                    writebacks: obs.counter_handle("buf_writebacks", Label::Idx(file.0)),
                }
            } else {
                FileCounters::default()
            }
        })
    }
}

thread_local! {
    /// Reusable before-image buffers for WAL delta computation, so an
    /// exclusive fix with logging enabled does not allocate per call.
    static WAL_SCRATCH: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

fn scratch_copy(src: &[u8]) -> Vec<u8> {
    let mut buf = WAL_SCRATCH
        .with(|pool| pool.borrow_mut().pop())
        .unwrap_or_default();
    buf.clear();
    buf.extend_from_slice(src);
    buf
}

fn scratch_return(buf: Vec<u8>) {
    WAL_SCRATCH.with(|pool| {
        let mut pool = pool.borrow_mut();
        if pool.len() < 8 {
            pool.push(buf);
        }
    });
}

/// Outcome of mapping `(file, page)` to a resident frame.
enum Fixed<'a> {
    /// The page was resident; the frame is pinned but not yet latched.
    Hit(usize),
    /// The page was loaded by this call; the loader still holds the
    /// frame's write latch from the victim claim.
    Loaded(usize, RwLockWriteGuard<'a, FrameData>),
}

/// The frame pool.
#[derive(Debug)]
pub struct BufferManager {
    page_size: usize,
    disk: Mutex<DiskManager>,
    /// All frames, outside the shard mutexes so page guards can borrow
    /// them directly. Shard `i` owns the contiguous range recorded in
    /// its `base`/`meta.len()`.
    frames: Box<[FrameCell]>,
    shards: Box<[Mutex<Shard>]>,
    /// The redo log, behind an `Arc` so the group-commit pipeline
    /// (when enabled) can share it with the pool.
    wal: Arc<Mutex<Option<Wal>>>,
    wal_on: AtomicBool,
    /// Group-commit pipeline; `None` (the default) keeps every commit
    /// synchronously durable — see [`BufferManager::enable_group_commit`].
    logmgr: Option<LogManager>,
    /// Installed fault hook; `None` (the default) keeps every fault
    /// site a single branch — see [`BufferManager::install_fault_hook`].
    fault: Option<Arc<FaultHook>>,
    obs: Obs,
    wal_bytes: CounterHandle,
    wal_records: CounterHandle,
    latch_acquisitions: AtomicU64,
    latch_contended: AtomicU64,
    latch_acq_h: CounterHandle,
    latch_cont_h: CounterHandle,
    pages_freed_h: CounterHandle,
    pages_reused_h: CounterHandle,
    io_trace: TraceHandle,
    /// Simulated read-I/O service time in microseconds (0 = off). The
    /// faulting thread sleeps *after* releasing the disk mutex, holding
    /// only the target frame's latch — so independent faults overlap,
    /// the way the paper's closed model overlaps terminal I/O waits.
    /// Write-back is not delayed (modeled as background flushing).
    io_delay_us: AtomicU64,
}

impl BufferManager {
    /// Creates a pool of `capacity` frames over `disk`, as a single
    /// shard — exact global LRU, identical to a serial pool.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(disk: DiskManager, capacity: usize, _policy: Replacement) -> Self {
        Self::new_sharded(disk, capacity, 1)
    }

    /// Creates a pool of `capacity` frames split over `shards` latches
    /// (clamped to `1..=capacity`). More shards means less mapping
    /// contention but per-shard (approximate) replacement.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new_sharded(disk: DiskManager, capacity: usize, shards: usize) -> Self {
        assert!(capacity > 0, "need at least one frame");
        let page_size = disk.page_size();
        let n = shards.clamp(1, capacity);
        let frames = (0..capacity)
            .map(|_| FrameCell {
                data: RwLock::new(FrameData {
                    key: None,
                    bytes: vec![0u8; page_size].into_boxed_slice(),
                    dirty: false,
                }),
                pins: AtomicU64::new(0),
            })
            .collect();
        let mut base = 0usize;
        let shards = (0..n)
            .map(|i| {
                let len = capacity / n + usize::from(i < capacity % n);
                let shard = Mutex::new(Shard {
                    base,
                    meta: vec![FrameMeta::default(); len],
                    table: FxHashMap::default(),
                    tick: 0,
                    per_file: Vec::new(),
                    counters: Vec::new(),
                });
                base += len;
                shard
            })
            .collect();
        Self {
            page_size,
            disk: Mutex::new(disk),
            frames,
            shards,
            wal: Arc::new(Mutex::new(None)),
            wal_on: AtomicBool::new(false),
            logmgr: None,
            fault: None,
            obs: Obs::disabled(),
            wal_bytes: CounterHandle::disabled(),
            wal_records: CounterHandle::disabled(),
            latch_acquisitions: AtomicU64::new(0),
            latch_contended: AtomicU64::new(0),
            latch_acq_h: CounterHandle::disabled(),
            latch_cont_h: CounterHandle::disabled(),
            pages_freed_h: CounterHandle::disabled(),
            pages_reused_h: CounterHandle::disabled(),
            io_trace: TraceHandle::disabled(),
            io_delay_us: AtomicU64::new(0),
        }
    }

    /// Sets the simulated read-I/O service time (microseconds per page
    /// fault; 0 disables). Lets the benchmarks reproduce the paper's
    /// I/O-bound operating region on an in-memory "disk": a faulting
    /// terminal blocks for the service time while others keep the CPU.
    pub fn set_io_delay_us(&self, us: u64) {
        self.io_delay_us.store(us, Ordering::Relaxed);
    }

    #[inline]
    fn shard_for(&self, file: FileId, page: u32) -> &Mutex<Shard> {
        if self.shards.len() == 1 {
            return &self.shards[0];
        }
        let h = (u64::from(file.0) << 32 | u64::from(page)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(h >> 33) as usize % self.shards.len()]
    }

    /// Attaches an observability handle; buffer traffic, WAL volume,
    /// frame-latch contention and B+Tree structure events are recorded
    /// through it (per file, labelled by [`FileId`] — register display
    /// names on the recorder to get relation names in exports).
    pub fn set_obs(&mut self, obs: Obs) {
        self.wal_bytes = obs.counter_handle("wal_bytes_appended", Label::None);
        self.wal_records = obs.counter_handle("wal_records", Label::None);
        self.latch_acq_h = obs.counter_handle("latch_acquisitions", Label::None);
        self.latch_cont_h = obs.counter_handle("latch_contended", Label::None);
        self.pages_freed_h = obs.counter_handle("pages_freed", Label::None);
        self.pages_reused_h = obs.counter_handle("pages_reused", Label::None);
        self.io_trace = obs.trace_handle("io");
        // drop any handles resolved against the previous recorder
        for shard in self.shards.iter_mut() {
            shard.get_mut().expect("shard latch").counters.clear();
        }
        if let Some(lm) = &self.logmgr {
            lm.set_obs(&obs);
        }
        self.obs = obs;
    }

    /// The attached observability handle (disabled by default).
    #[must_use]
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Turns on redo logging: from now on every page mutation, file
    /// creation and page allocation is recorded, upholding the WAL
    /// protocol (the delta is logged while the dirty page is still
    /// latched in the pool, before it can reach disk).
    pub fn enable_wal(&mut self) {
        let mut wal = self.wal.lock().expect("wal lock");
        let wal = wal.get_or_insert_with(Wal::new);
        if let Some(hook) = &self.fault {
            // a re-enabled WAL (e.g. after try_crash_recovery_check
            // detached the old one) keeps the installed fault hook
            wal.set_fault_hook(Arc::clone(hook));
        }
        if self.logmgr.is_some() {
            // a re-enabled WAL under group commit stays on deferred
            // (flushed-prefix) durability; its tickets restart with its
            // own commit count
            wal.set_deferred(true);
        }
        self.wal_on.store(true, Ordering::Release);
    }

    /// Turns on group commit: the WAL switches to deferred
    /// (flushed-prefix) durability and every [`BufferManager::log_commit`]
    /// goes through the [`LogManager`] ticket pipeline — blocking until
    /// a leader's flush covers the commit (threaded mode) or following
    /// the inline flush schedule (deterministic sweeps). Enables the
    /// WAL if it was not already on. Replaces any previous pipeline.
    pub fn enable_group_commit(&mut self, cfg: GroupCommitConfig) {
        self.enable_wal();
        if let Some(wal) = self.wal.lock().expect("wal lock").as_mut() {
            wal.set_deferred(true);
        }
        let lm = LogManager::new(cfg, Arc::clone(&self.wal));
        lm.set_obs(&self.obs);
        self.logmgr = Some(lm);
    }

    /// The group-commit pipeline, when enabled.
    #[must_use]
    pub fn group_commit(&self) -> Option<&LogManager> {
        self.logmgr.as_ref()
    }

    /// Flushes any pending WAL tail through the group-commit pipeline
    /// (no-op when group commit is off — synchronous durability never
    /// has a tail). Quiesce points call this so the durable prefix
    /// catches up with the log end.
    pub fn flush_log(&self) {
        if let Some(lm) = &self.logmgr {
            lm.flush_now();
        }
    }

    /// Installs a fault plan: builds a [`FaultHook`] and threads it
    /// through the disk, the WAL and the pool's write-back / miss-load
    /// paths, turning every durability-relevant action into a numbered
    /// fault site (see the `fault` module). Returns the hook for
    /// inspection; installing replaces any previous hook.
    pub fn install_fault_hook(&mut self, plan: FaultPlan) -> Arc<FaultHook> {
        let hook = Arc::new(FaultHook::new(plan));
        self.disk
            .get_mut()
            .expect("disk lock")
            .set_fault_hook(Arc::clone(&hook));
        if let Some(wal) = self.wal.lock().expect("wal lock").as_mut() {
            wal.set_fault_hook(Arc::clone(&hook));
        }
        self.fault = Some(Arc::clone(&hook));
        hook
    }

    /// The installed fault hook, if any.
    #[must_use]
    pub fn fault_hook(&self) -> Option<&Arc<FaultHook>> {
        self.fault.as_ref()
    }

    /// Runs `f` on the live log; `None` when logging is disabled.
    pub fn with_wal<R>(&self, f: impl FnOnce(&Wal) -> R) -> Option<R> {
        self.wal.lock().expect("wal lock").as_ref().map(f)
    }

    /// Detaches and returns the log (e.g. to run recovery).
    pub fn take_wal(&mut self) -> Option<Wal> {
        self.wal_on.store(false, Ordering::Release);
        self.wal.lock().expect("wal lock").take()
    }

    /// Appends a commit marker for logical transaction `txn` and, under
    /// group commit, blocks until the marker is in the durably flushed
    /// prefix. Returns the nanoseconds spent waiting on the commit
    /// ticket (0 under synchronous durability or inline group commit).
    pub fn log_commit(&self, txn: u64) -> u64 {
        if !self.wal_on.load(Ordering::Acquire) {
            return 0;
        }
        if let Some(lm) = &self.logmgr {
            return lm.commit(txn).wait_ns;
        }
        if let Some(wal) = self.wal.lock().expect("wal lock").as_mut() {
            wal.append(WalEntry::Commit { txn });
        }
        0
    }

    /// Appends a 2PC `Prepare` record for global transaction `txn` and
    /// forces it durable — the prepare acknowledgement a participant
    /// sends its coordinator is a durable promise, so it cannot ride a
    /// deferred group-commit batch. Returns `true` when the record is
    /// in the durable prefix (false after an injected crash), which is
    /// exactly the vote the participant may send.
    pub fn log_prepare(&self, txn: u64) -> bool {
        if !self.wal_on.load(Ordering::Acquire) {
            return true; // no WAL: nothing can be lost
        }
        if let Some(wal) = self.wal.lock().expect("wal lock").as_mut() {
            wal.append(WalEntry::Prepare { txn });
            if wal.is_deferred() && !wal.flush() {
                return false;
            }
            return wal.entries()[..wal.durable_len()]
                .iter()
                .rev()
                .any(|e| matches!(e, WalEntry::Prepare { txn: t } if *t == txn));
        }
        true
    }

    /// Appends a 2PC `Decide` record for global transaction `txn`. On
    /// the coordinator this is the global commit point, so like
    /// [`BufferManager::log_prepare`] it is flushed immediately rather
    /// than deferred to a group-commit batch. Returns `true` when the
    /// decision is durable.
    pub fn log_decide(&self, txn: u64, commit: bool) -> bool {
        if !self.wal_on.load(Ordering::Acquire) {
            return true;
        }
        if let Some(wal) = self.wal.lock().expect("wal lock").as_mut() {
            wal.append(WalEntry::Decide { txn, commit });
            if wal.is_deferred() && !wal.flush() {
                return false;
            }
            return wal.durable_decision(txn) == Some(commit);
        }
        true
    }

    /// Creates an empty file, logging the event when the WAL is on so
    /// recovery can recreate it.
    pub fn create_file(&self) -> FileId {
        // wal → disk so concurrent creations log in allocation order
        let mut wal = self.wal.lock().expect("wal lock");
        let file = self.disk.lock().expect("disk lock").create_file();
        if let Some(wal) = wal.as_mut() {
            wal.append(WalEntry::CreateFile { file });
        }
        file
    }

    /// Page size in bytes.
    #[must_use]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of pages currently in `file`.
    ///
    /// # Panics
    /// Panics on an unknown file.
    #[must_use]
    pub fn file_pages(&self, file: FileId) -> u32 {
        self.disk.lock().expect("disk lock").pages(file)
    }

    /// Runs `f` against the underlying disk, read-only.
    pub fn with_disk<R>(&self, f: impl FnOnce(&DiskManager) -> R) -> R {
        f(&self.disk.lock().expect("disk lock"))
    }

    /// The disk's current contents as a copy-on-write checkpoint image:
    /// it shares every page with the live disk until one side writes it
    /// (see [`DiskManager::snapshot`]). Call [`BufferManager::flush_all`]
    /// first if the pool may hold dirty frames that should be part of
    /// the image.
    #[must_use]
    pub fn disk_snapshot(&self) -> DiskManager {
        self.disk.lock().expect("disk lock").snapshot()
    }

    /// Frame capacity across all shards.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.frames.len()
    }

    /// Number of mapping shards the pool was built with.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Buffer statistics for one file, summed over shards.
    #[must_use]
    pub fn stats(&self, file: FileId) -> BufferStats {
        self.shards.iter().fold(BufferStats::default(), |acc, s| {
            let shard = s.lock().expect("shard latch");
            acc.merged(
                shard
                    .per_file
                    .get(file.0 as usize)
                    .copied()
                    .unwrap_or_default(),
            )
        })
    }

    /// Aggregate statistics over all files and shards.
    #[must_use]
    pub fn total_stats(&self) -> BufferStats {
        self.shards.iter().fold(BufferStats::default(), |acc, s| {
            let shard = s.lock().expect("shard latch");
            shard.per_file.iter().fold(acc, |a, stats| a.merged(*stats))
        })
    }

    /// Frame-latch acquisition / contention counters since creation.
    #[must_use]
    pub fn latch_stats(&self) -> LatchStats {
        LatchStats {
            acquisitions: self.latch_acquisitions.load(Ordering::Relaxed),
            contended: self.latch_contended.load(Ordering::Relaxed),
        }
    }

    /// Clears hit/miss counters (keeps pool contents — useful between
    /// warm-up and measurement).
    pub fn reset_stats(&self) {
        for s in self.shards.iter() {
            s.lock().expect("shard latch").per_file.clear();
        }
        self.latch_acquisitions.store(0, Ordering::Relaxed);
        self.latch_contended.store(0, Ordering::Relaxed);
    }

    /// Fixes `(file, page)` shared: pins the frame and takes its latch
    /// in read mode. Hold the guard only as long as the page is needed;
    /// holding guards on two pages is allowed when the caller follows a
    /// global acquisition order (see module docs).
    pub fn fix_shared(&self, file: FileId, page: u32) -> PageReadGuard<'_> {
        let idx = match self.fix(file, page) {
            Fixed::Hit(idx) => idx,
            Fixed::Loaded(idx, loading) => {
                // downgrade: the pin keeps the frame ours across the gap
                drop(loading);
                idx
            }
        };
        let guard = match self.frames[idx].data.try_read() {
            Ok(g) => g,
            Err(TryLockError::WouldBlock) => {
                self.note_contended();
                self.frames[idx].data.read().expect("frame latch")
            }
            Err(TryLockError::Poisoned(_)) => panic!("frame latch poisoned"),
        };
        self.note_acquired();
        PageReadGuard {
            bm: self,
            idx,
            guard: Some(guard),
        }
    }

    /// Fixes `(file, page)` exclusive: pins the frame, takes its latch
    /// in write mode and marks the page dirty. With logging enabled the
    /// byte-range delta of the mutation (or the record the guard was
    /// marked with) is appended to the WAL when the guard drops.
    pub fn fix_exclusive(&self, file: FileId, page: u32) -> PageWriteGuard<'_> {
        let (idx, mut guard) = match self.fix(file, page) {
            Fixed::Loaded(idx, g) => (idx, g),
            Fixed::Hit(idx) => {
                let g = match self.frames[idx].data.try_write() {
                    Ok(g) => g,
                    Err(TryLockError::WouldBlock) => {
                        self.note_contended();
                        self.frames[idx].data.write().expect("frame latch")
                    }
                    Err(TryLockError::Poisoned(_)) => panic!("frame latch poisoned"),
                };
                (idx, g)
            }
        };
        self.note_acquired();
        guard.dirty = true;
        let before = self
            .wal_on
            .load(Ordering::Acquire)
            .then(|| scratch_copy(&guard.bytes));
        PageWriteGuard {
            bm: self,
            file,
            page,
            idx,
            before,
            record: None,
            guard: Some(guard),
        }
    }

    /// Reads page `(file, page)` through the pool.
    pub fn with_page<R>(&self, file: FileId, page: u32, f: impl FnOnce(&[u8]) -> R) -> R {
        f(&self.fix_shared(file, page))
    }

    /// Reads and modifies page `(file, page)`, marking it dirty. With
    /// logging enabled, the byte-range delta of the mutation is
    /// appended to the WAL.
    pub fn with_page_mut<R>(&self, file: FileId, page: u32, f: impl FnOnce(&mut [u8]) -> R) -> R {
        f(&mut self.fix_exclusive(file, page))
    }

    /// Allocates a fresh page in `file` and returns it fixed exclusive
    /// (zeroed, resident, dirty). The crabbing split path uses this to
    /// keep a new sibling latched until it is linked into the tree.
    pub fn allocate_fixed(&self, file: FileId) -> (u32, PageWriteGuard<'_>) {
        let page = {
            // wal → disk so concurrent allocations log in page order
            let mut wal = self.wal.lock().expect("wal lock");
            let mut disk = self.disk.lock().expect("disk lock");
            let extent = disk.pages(file);
            let page = disk.allocate_page(file);
            drop(disk);
            if page < extent {
                // served from the free set, not extent growth
                self.pages_reused_h.add(1);
            }
            if let Some(wal) = wal.as_mut() {
                wal.append(WalEntry::AllocPage { file, page });
            }
            page
        };
        (page, self.fix_exclusive(file, page))
    }

    /// Deallocates the page covered by `guard`: unmaps the frame,
    /// returns the page (zeroed) to its file's free set for reuse by
    /// [`BufferManager::allocate_fixed`], and logs a
    /// [`WalEntry::FreePage`] record. Consumes the guard; any captured
    /// before-image is discarded — the zeroing supersedes the
    /// mutation, so no delta is logged for the dying page.
    ///
    /// The unmap, disk free and WAL append all happen under the page's
    /// shard mutex, so a concurrent `fix` of the same page either maps
    /// the pre-free frame (and blocks on our exclusive latch) or
    /// faults in the already-zeroed disk image — it can never read the
    /// stale pre-free bytes from disk. (New lock edge: shard → WAL,
    /// safe because no WAL holder ever takes a shard mutex.)
    pub fn free_fixed(&self, mut guard: PageWriteGuard<'_>) {
        let (file, page, idx) = (guard.file, guard.page, guard.idx);
        if let Some(before) = guard.before.take() {
            scratch_return(before);
        }
        {
            // zero the frame too: a racing latch-waiter that pinned the
            // frame before the unmap sees the same empty image a
            // post-free fault would
            let fd = guard.guard.as_mut().expect("guard live");
            fd.bytes.fill(0);
            fd.dirty = false;
            fd.key = None;
        }
        let shard_mutex = self.shard_for(file, page);
        {
            let mut shard = shard_mutex.lock().expect("shard latch");
            let local = idx - shard.base;
            shard.table.remove(&(file, page));
            shard.meta[local].key = None;
            let mut wal = self.wal.lock().expect("wal lock");
            self.disk.lock().expect("disk lock").free_page(file, page);
            if let Some(wal) = wal.as_mut() {
                wal.append(WalEntry::FreePage { file, page });
            }
        }
        self.pages_freed_h.add(1);
        drop(guard);
    }

    /// Live (allocated, not freed) pages in `file`.
    ///
    /// # Panics
    /// Panics on an unknown file.
    #[must_use]
    pub fn allocated_pages(&self, file: FileId) -> u32 {
        self.disk.lock().expect("disk lock").allocated_pages(file)
    }

    /// Live pages summed across every file on the disk.
    #[must_use]
    pub fn total_allocated_pages(&self) -> u64 {
        self.disk.lock().expect("disk lock").total_allocated_pages()
    }

    /// Pages deallocated through the pool over the disk's lifetime.
    #[must_use]
    pub fn pages_freed(&self) -> u64 {
        self.disk.lock().expect("disk lock").pages_freed()
    }

    /// Allocations served from a free set instead of extent growth.
    #[must_use]
    pub fn pages_reused(&self) -> u64 {
        self.disk.lock().expect("disk lock").pages_reused()
    }

    /// Allocates a fresh page in `file` and runs `f` on its (zeroed,
    /// resident, dirty) bytes; returns the page number and `f`'s result.
    pub fn allocate_page<R>(&self, file: FileId, f: impl FnOnce(&mut [u8]) -> R) -> (u32, R) {
        let (page, mut guard) = self.allocate_fixed(file);
        let r = f(&mut guard);
        drop(guard);
        (page, r)
    }

    /// Writes every dirty frame back to disk. Latches each frame in
    /// turn (frame → shard / disk order, which never deadlocks because
    /// shard holders only *try* frame latches).
    pub fn flush_all(&self) {
        for s in self.shards.iter() {
            let (base, len) = {
                let shard = s.lock().expect("shard latch");
                (shard.base, shard.meta.len())
            };
            for idx in base..base + len {
                let mut fd = self.frames[idx].data.write().expect("frame latch");
                if fd.dirty {
                    if let Some((file, page)) = fd.key {
                        self.write_back(file, page, &fd.bytes);
                        let mut shard = s.lock().expect("shard latch");
                        shard.stat_mut(file).writebacks += 1;
                        shard.counters_for(&self.obs, file).writebacks.add(1);
                    }
                    fd.dirty = false;
                }
            }
        }
    }

    /// Writes one page image back to the device. With no fault hook
    /// this is exactly one `write_page`; with a hook it is a
    /// [`FaultSite::WriteBack`] site and any injected soft fault
    /// (transient I/O error, torn write) is driven through a bounded
    /// retry loop. The backoff is a spin hint, never a sleep — callers
    /// may hold a shard mutex, and the simulated device clears
    /// transient faults deterministically within
    /// [`FaultHook::max_retries`] attempts.
    fn write_back(&self, file: FileId, page: u32, bytes: &[u8]) {
        let io_start = self.io_trace.now();
        self.write_back_inner(file, page, bytes);
        self.io_trace.record_opt("write_back", io_start);
    }

    fn write_back_inner(&self, file: FileId, page: u32, bytes: &[u8]) {
        let mut disk = self.disk.lock().expect("disk lock");
        let Some(hook) = &self.fault else {
            disk.write_page(file, page, bytes);
            return;
        };
        let site = hook.fire(FaultSite::WriteBack);
        if site.crash {
            // recovery replays the frozen WAL over a pre-workload
            // checkpoint and never reads this device image, so the
            // write may complete and the in-memory run continues
            disk.write_page(file, page, bytes);
            return;
        }
        let mut attempt = 0u32;
        loop {
            match hook.writeback_fault(site.nth, attempt, bytes.len()) {
                None => {
                    disk.write_page(file, page, bytes);
                    return;
                }
                Some(SoftFault::IoError) => {} // nothing reached the device
                Some(SoftFault::Torn { valid }) => {
                    disk.write_page_prefix(file, page, bytes, valid);
                }
            }
            attempt += 1;
            assert!(
                attempt <= hook.max_retries() + 1,
                "write-back fault on {file:?} page {page} persisted past the retry bound"
            );
            hook.note_retry();
            std::hint::spin_loop();
        }
    }

    /// Appends one page guard's redo records under a single WAL lock
    /// hold, counting each record's [`WalEntry::redo_bytes`].
    /// Appends one [`WalEntry::PageDelta`] per `(offset, data)` segment
    /// of `(file, page)`; nothing for no segments.
    fn log_deltas(&self, file: FileId, page: u32, segments: Vec<(u32, Vec<u8>)>) {
        if segments.is_empty() {
            return;
        }
        self.log_page_records(
            segments
                .into_iter()
                .map(|(offset, data)| WalEntry::PageDelta {
                    file,
                    page,
                    offset,
                    data,
                }),
        );
    }

    fn log_page_records(&self, records: impl IntoIterator<Item = WalEntry>) {
        let mut wal = self.wal.lock().expect("wal lock");
        for entry in records {
            self.wal_bytes.add(entry.redo_bytes());
            self.wal_records.add(1);
            if let Some(wal) = wal.as_mut() {
                wal.append(entry);
            }
        }
    }

    #[inline]
    fn note_acquired(&self) {
        self.latch_acquisitions.fetch_add(1, Ordering::Relaxed);
        self.latch_acq_h.add(1);
    }

    #[inline]
    fn note_contended(&self) {
        self.latch_contended.fetch_add(1, Ordering::Relaxed);
        self.latch_cont_h.add(1);
    }

    /// Maps `(file, page)` to a pinned frame, faulting it in from disk
    /// on a miss. On a hit the frame is pinned but not latched; on a
    /// miss the returned write guard (held since the victim claim)
    /// covers the load, so concurrent fixers of the same page block on
    /// the latch until the content is valid.
    fn fix(&self, file: FileId, page: u32) -> Fixed<'_> {
        let shard_mutex = self.shard_for(file, page);
        let mut attempts = 0u32;
        loop {
            let mut shard = shard_mutex.lock().expect("shard latch");
            shard.tick += 1;
            let tick = shard.tick;
            if let Some(&idx) = shard.table.get(&(file, page)) {
                let idx = idx as usize;
                let local = idx - shard.base;
                shard.meta[local].last_used = tick;
                shard.stat_mut(file).hits += 1;
                shard.counters_for(&self.obs, file).hits.add(1);
                self.frames[idx].pins.fetch_add(1, Ordering::AcqRel);
                return Fixed::Hit(idx);
            }
            if let Some((idx, mut fd)) = self.claim_victim(&shard) {
                let local = idx - shard.base;
                shard.stat_mut(file).misses += 1;
                shard.counters_for(&self.obs, file).misses.add(1);
                // write back and unmap the old occupant while the shard
                // is still locked, so a concurrent re-fault of the old
                // page cannot read a stale disk image
                if let Some(old) = shard.meta[local].key.take() {
                    if fd.dirty {
                        self.write_back(old.0, old.1, &fd.bytes);
                        shard.stat_mut(old.0).writebacks += 1;
                        shard.counters_for(&self.obs, old.0).writebacks.add(1);
                    }
                    shard.table.remove(&old);
                    shard.stat_mut(old.0).evictions += 1;
                    shard.counters_for(&self.obs, old.0).evictions.add(1);
                }
                shard.table.insert((file, page), idx as u32);
                shard.meta[local].key = Some((file, page));
                shard.meta[local].last_used = tick;
                self.frames[idx].pins.fetch_add(1, Ordering::AcqRel);
                drop(shard);
                if let Some(hook) = &self.fault {
                    // the load proceeds either way: a crash here only
                    // freezes the WAL, the in-memory run continues
                    let _ = hook.fire(FaultSite::MissLoad);
                }
                let io_start = self.io_trace.now();
                self.disk
                    .lock()
                    .expect("disk lock")
                    .read_page(file, page, &mut fd.bytes);
                let delay = self.io_delay_us.load(Ordering::Relaxed);
                if delay > 0 {
                    // simulated I/O wait: only this frame's latch is
                    // held, so other terminals' faults and hits proceed
                    std::thread::sleep(std::time::Duration::from_micros(delay));
                }
                self.io_trace.record_opt("miss_load", io_start);
                fd.key = Some((file, page));
                fd.dirty = false;
                return Fixed::Loaded(idx, fd);
            }
            // every frame in the shard is pinned or latched: release the
            // shard and let the holders finish
            drop(shard);
            attempts += 1;
            assert!(
                attempts < 1_000_000,
                "buffer pool exhausted: all frames of a shard stayed pinned \
                 (pool too small for the number of concurrently held page guards)"
            );
            std::thread::yield_now();
        }
    }

    /// Picks and claims a replacement victim: an unpinned frame whose
    /// latch can be taken without blocking. Runs under the shard mutex;
    /// uncontended (no pins, free latches) the choice is exactly the
    /// serial LRU victim.
    fn claim_victim<'a>(
        &'a self,
        shard: &Shard,
    ) -> Option<(usize, RwLockWriteGuard<'a, FrameData>)> {
        let n = shard.meta.len();
        let claim = |local: usize| -> Option<(usize, RwLockWriteGuard<'a, FrameData>)> {
            let idx = shard.base + local;
            if self.frames[idx].pins.load(Ordering::Acquire) != 0 {
                return None;
            }
            match self.frames[idx].data.try_write() {
                Ok(g) => Some((idx, g)),
                Err(_) => None,
            }
        };
        // prefer an empty frame
        if shard.table.len() < n {
            if let Some(found) = (0..n)
                .filter(|&l| shard.meta[l].key.is_none())
                .find_map(claim)
            {
                return Some(found);
            }
        }
        // fast path: the exact LRU frame
        if let Some(best) = (0..n).min_by_key(|&l| shard.meta[l].last_used) {
            if let Some(found) = claim(best) {
                return Some(found);
            }
        }
        // contended: oldest claimable frame
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&l| shard.meta[l].last_used);
        order.into_iter().find_map(claim)
    }
}

/// Shared (read-latched, pinned) access to one page's bytes.
/// Dereferences to `&[u8]`; unpins and unlatches on drop.
pub struct PageReadGuard<'a> {
    bm: &'a BufferManager,
    idx: usize,
    guard: Option<RwLockReadGuard<'a, FrameData>>,
}

impl Deref for PageReadGuard<'_> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.guard.as_ref().expect("guard live").bytes
    }
}

impl std::fmt::Debug for PageReadGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageReadGuard")
            .field("frame", &self.idx)
            .finish()
    }
}

impl Drop for PageReadGuard<'_> {
    fn drop(&mut self) {
        // release the latch before publishing the unpin so a victim
        // search seeing pins == 0 also sees a free latch
        drop(self.guard.take());
        self.bm.frames[self.idx]
            .pins
            .fetch_sub(1, Ordering::Release);
    }
}

/// Exclusive (write-latched, pinned) access to one page's bytes.
/// Dereferences to `&mut [u8]`. The page is marked dirty at fix time;
/// with logging enabled the guard captured a before-image and appends
/// the byte-range delta to the WAL on drop — while still holding the
/// latch, so the delta is logged before the page can reach disk. A
/// B+Tree leaf insert or remove that shifts entries marks its guard
/// with the one record that stands for it (`log_as`), which the guard
/// appends instead of the delta.
pub struct PageWriteGuard<'a> {
    bm: &'a BufferManager,
    file: FileId,
    page: u32,
    idx: usize,
    before: Option<Vec<u8>>,
    /// The record that stands for this guard's whole mutation, logged
    /// on drop in place of the byte diff.
    record: Option<WalEntry>,
    guard: Option<RwLockWriteGuard<'a, FrameData>>,
}

impl PageWriteGuard<'_> {
    /// The page number this guard covers.
    #[must_use]
    pub fn page(&self) -> u32 {
        self.page
    }

    /// Marks `record` as this guard's whole mutation: on drop it is
    /// logged instead of the byte diff. The caller must have made
    /// exactly the change that redo of `record` makes to the
    /// before-image (debug builds assert it). A no-op with logging off.
    pub(crate) fn log_as(&mut self, record: WalEntry) {
        if self.before.is_some() {
            self.record = Some(record);
        }
    }

    /// Logs the mutation made so far as its byte-range deltas now, as
    /// dropping the guard here would, and takes the current image as the
    /// new before-image: later changes log as deltas of their own. A
    /// heap page run logs each row's update this way, exactly as one
    /// fix per row would. A no-op with logging off.
    pub(crate) fn log_delta(&mut self) {
        debug_assert!(self.record.is_none(), "a marked guard logs its record");
        let Some(before) = self.before.as_mut() else {
            return;
        };
        let after = &self.guard.as_ref().expect("guard live").bytes;
        let segments = page_deltas(before, after);
        for (offset, data) in &segments {
            let at = *offset as usize;
            before[at..at + data.len()].copy_from_slice(data);
        }
        self.bm.log_deltas(self.file, self.page, segments);
    }
}

impl Deref for PageWriteGuard<'_> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.guard.as_ref().expect("guard live").bytes
    }
}

impl DerefMut for PageWriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.guard.as_mut().expect("guard live").bytes
    }
}

impl std::fmt::Debug for PageWriteGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageWriteGuard")
            .field("file", &self.file)
            .field("page", &self.page)
            .field("frame", &self.idx)
            .finish()
    }
}

impl Drop for PageWriteGuard<'_> {
    fn drop(&mut self) {
        if let Some(before) = self.before.take() {
            let fd = self.guard.as_ref().expect("guard live");
            if let Some(record) = self.record.take() {
                debug_assert!(
                    redo_reproduces(self.file, self.page, &before, &fd.bytes, &record),
                    "{record:?} does not redo the mutation of {:?} page {}",
                    self.file,
                    self.page
                );
                self.bm.log_page_records([record]);
            } else {
                self.bm
                    .log_deltas(self.file, self.page, page_deltas(&before, &fd.bytes));
            }
            scratch_return(before);
        }
        drop(self.guard.take());
        self.bm.frames[self.idx]
            .pins
            .fetch_sub(1, Ordering::Release);
    }
}

/// True when `record` names `(file, page)` and its redo over `before`
/// yields `after` — the check a guard marked with
/// [`PageWriteGuard::log_as`] makes in debug builds.
fn redo_reproduces(
    file: FileId,
    page: u32,
    before: &[u8],
    after: &[u8],
    record: &WalEntry,
) -> bool {
    let names_page = matches!(
        *record,
        WalEntry::LeafInsert { file: f, page: p, .. } | WalEntry::LeafRemove { file: f, page: p, .. }
            if (f, p) == (file, page)
    );
    let mut redo = before.to_vec();
    names_page && redo_leaf_record(&mut redo, record).is_ok() && redo == after
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manager(frames: usize) -> (BufferManager, FileId) {
        let mut disk = DiskManager::new(128);
        let f = disk.create_file();
        for _ in 0..16 {
            disk.allocate_page(f);
        }
        (BufferManager::new(disk, frames, Replacement::Lru), f)
    }

    #[test]
    fn hit_after_miss() {
        let (bm, f) = manager(4);
        bm.with_page(f, 0, |_| ());
        bm.with_page(f, 0, |_| ());
        let s = bm.stats(f);
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
        assert!((s.miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn writes_survive_eviction() {
        let (bm, f) = manager(2);
        bm.with_page_mut(f, 0, |d| d[10] = 42);
        // evict page 0 by touching 2 others
        bm.with_page(f, 1, |_| ());
        bm.with_page(f, 2, |_| ());
        // fault it back in
        let v = bm.with_page(f, 0, |d| d[10]);
        assert_eq!(v, 42, "dirty page must be written back before eviction");
    }

    #[test]
    fn lru_evicts_oldest() {
        let (bm, f) = manager(2);
        bm.with_page(f, 0, |_| ());
        bm.with_page(f, 1, |_| ());
        bm.with_page(f, 0, |_| ()); // 1 is now LRU
        bm.with_page(f, 2, |_| ()); // evicts 1
        bm.with_page(f, 0, |_| ()); // should still be resident
        let s = bm.stats(f);
        assert_eq!(s.misses, 3, "0, 1, 2 faulted once each");
    }

    #[test]
    fn flush_all_persists_dirty_pages() {
        let (bm, f) = manager(4);
        bm.with_page_mut(f, 3, |d| d[0] = 9);
        bm.flush_all();
        let mut buf = vec![0u8; 128];
        bm.with_disk(|d| d.read_page(f, 3, &mut buf));
        assert_eq!(buf[0], 9);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let (bm, f) = manager(4);
        bm.with_page(f, 0, |_| ());
        bm.reset_stats();
        bm.with_page(f, 0, |_| ());
        let s = bm.stats(f);
        assert_eq!(s.misses, 0, "page stayed resident through reset");
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn allocate_page_is_resident_and_dirty() {
        let (bm, f) = manager(4);
        let (page, ()) = bm.allocate_page(f, |d| d[0] = 5);
        let v = bm.with_page(f, page, |d| d[0]);
        assert_eq!(v, 5);
    }

    #[test]
    fn guards_allow_concurrent_readers_and_crabbing() {
        let (bm, f) = manager(4);
        bm.with_page_mut(f, 0, |d| d[0] = 1);
        bm.with_page_mut(f, 1, |d| d[0] = 2);
        // two shared guards on the same page coexist
        let a = bm.fix_shared(f, 0);
        let b = bm.fix_shared(f, 0);
        assert_eq!((a[0], b[0]), (1, 1));
        // crabbing: hold page 0 while fixing page 1
        let c = bm.fix_shared(f, 1);
        assert_eq!(c[0], 2);
        drop(a);
        drop(b);
        drop(c);
        // a pinned frame is never chosen as a victim
        let held = bm.fix_shared(f, 0);
        for p in 1..10u32 {
            bm.with_page(f, p, |_| ());
        }
        assert_eq!(held[0], 1, "pinned page survived heavy fault traffic");
        drop(held);
        let s = bm.latch_stats();
        assert!(s.acquisitions > 0);
    }

    #[test]
    fn exclusive_guard_blocks_writers_not_stats() {
        let (bm, f) = manager(4);
        {
            let mut g = bm.fix_exclusive(f, 0);
            g[0] = 77;
            assert_eq!(g.page(), 0);
            // stats remain reachable while a guard is held
            let _ = bm.stats(f);
        }
        assert_eq!(bm.with_page(f, 0, |d| d[0]), 77);
    }

    #[test]
    fn free_fixed_returns_pages_for_reuse() {
        let (bm, f) = manager(4);
        let extent = bm.file_pages(f);
        bm.with_page_mut(f, 3, |d| d[0] = 9);
        let g = bm.fix_exclusive(f, 3);
        bm.free_fixed(g);
        assert_eq!(bm.allocated_pages(f), extent - 1);
        assert_eq!(bm.pages_freed(), 1);

        // next allocation reuses page 3, zeroed
        let (page, g) = bm.allocate_fixed(f);
        assert_eq!(page, 3);
        assert!(g.iter().all(|&b| b == 0), "reused page starts zeroed");
        drop(g);
        assert_eq!(bm.pages_reused(), 1);
        assert_eq!(bm.file_pages(f), extent, "extent unchanged by the cycle");
    }

    #[test]
    fn free_fixed_logs_a_replayable_dealloc() {
        let mut disk = DiskManager::new(128);
        let f = disk.create_file();
        for _ in 0..3 {
            disk.allocate_page(f);
        }
        let checkpoint = disk.snapshot();

        let mut bm = BufferManager::new(disk, 4, Replacement::Lru);
        bm.enable_wal();
        bm.with_page_mut(f, 1, |d| d[0] = 7);
        let g = bm.fix_exclusive(f, 1);
        bm.free_fixed(g);
        let (p, ()) = bm.allocate_page(f, |d| d[5] = 8);
        assert_eq!(p, 1, "allocation reuses the freed page");
        bm.log_commit(1);
        bm.flush_all();

        let wal = bm.take_wal().expect("enabled");
        let clean = bm.disk_snapshot();
        let recovered = wal.try_recover(checkpoint).expect("log applies");
        assert!(
            recovered.contents_equal(&clean),
            "replayed free + realloc equals the clean image"
        );
    }

    #[test]
    fn freed_page_delta_is_not_logged() {
        let (mut bm, f) = manager(4);
        bm.enable_wal();
        let mut g = bm.fix_exclusive(f, 2);
        g[0] = 55; // mutation that would normally produce a delta
        bm.free_fixed(g);
        let wal = bm.take_wal().expect("enabled");
        let deltas = wal
            .entries()
            .iter()
            .filter(|e| matches!(e, WalEntry::PageDelta { .. }))
            .count();
        assert_eq!(deltas, 0, "the dying page's delta is superseded");
        let frees = wal
            .entries()
            .iter()
            .filter(|e| matches!(e, WalEntry::FreePage { .. }))
            .count();
        assert_eq!(frees, 1);
    }

    #[test]
    fn wal_crash_recovery_reproduces_flushed_state() {
        // timeline: checkpoint, then logged mutations, then "crash"
        // (drop the pool without flushing). Recovery over the
        // checkpoint must equal what a clean flush would have produced.
        let mut disk = DiskManager::new(128);
        let f = disk.create_file();
        for _ in 0..4 {
            disk.allocate_page(f);
        }
        let checkpoint = disk.snapshot();

        let mut bm = BufferManager::new(disk, 2, Replacement::Lru);
        bm.enable_wal();
        bm.with_page_mut(f, 0, |d| d[7] = 1);
        bm.with_page_mut(f, 3, |d| d[9] = 2);
        let (p4, ()) = bm.allocate_page(f, |d| d[0] = 3);
        bm.with_page_mut(f, 0, |d| d[8] = 4);
        bm.log_commit(1);

        let wal = bm.take_wal().expect("enabled");
        // crash: bm dropped here WITHOUT flush_all
        let some_dirty_lost = {
            let mut probe = vec![0u8; 128];
            let crashed = bm;
            crashed.with_disk(|d| d.read_page(f, 0, &mut probe));
            // page 0 was re-dirtied and (depending on eviction) may not
            // be on disk; recovery must not depend on that
            drop(crashed);
            probe[8] != 4
        };
        let _ = some_dirty_lost;

        let recovered = wal.try_recover(checkpoint).expect("log applies");
        let mut buf = vec![0u8; 128];
        recovered.read_page(f, 0, &mut buf);
        assert_eq!((buf[7], buf[8]), (1, 4));
        recovered.read_page(f, 3, &mut buf);
        assert_eq!(buf[9], 2);
        recovered.read_page(f, p4, &mut buf);
        assert_eq!(buf[0], 3);
        assert_eq!(wal.commits(), 1);
    }

    #[test]
    fn wal_skips_noop_mutations() {
        let (mut bm, f) = manager(4);
        bm.enable_wal();
        bm.with_page_mut(f, 0, |_| ()); // touches nothing
        bm.with_page_mut(f, 1, |d| d[0] = 9);
        let wal = bm.take_wal().expect("enabled");
        let deltas = wal
            .entries()
            .iter()
            .filter(|e| matches!(e, crate::wal::WalEntry::PageDelta { .. }))
            .count();
        assert_eq!(deltas, 1, "no-op mutation must not be logged");
    }

    #[test]
    fn wal_recovery_stops_at_last_commit() {
        // a crash mid-transaction: the trailing uncommitted delta must
        // not reach the recovered image
        let mut disk = DiskManager::new(128);
        let f = disk.create_file();
        disk.allocate_page(f);
        let checkpoint = disk.snapshot();

        let mut bm = BufferManager::new(disk, 2, Replacement::Lru);
        bm.enable_wal();
        bm.with_page_mut(f, 0, |d| d[1] = 11);
        bm.log_commit(1);
        bm.with_page_mut(f, 0, |d| d[2] = 22); // in-flight at the crash
        let wal = bm.take_wal().expect("enabled");

        let recovered = wal.try_recover(checkpoint).expect("log applies");
        let mut buf = vec![0u8; 128];
        recovered.read_page(f, 0, &mut buf);
        assert_eq!(buf[1], 11, "committed write replayed");
        assert_eq!(buf[2], 0, "uncommitted write discarded");
    }

    #[test]
    fn sharded_pool_partitions_frames_and_counts_globally() {
        let mut disk = DiskManager::new(128);
        let f = disk.create_file();
        for _ in 0..32 {
            disk.allocate_page(f);
        }
        let bm = BufferManager::new_sharded(disk, 10, 4);
        assert_eq!(bm.shard_count(), 4);
        assert_eq!(bm.capacity(), 10, "frames distributed, none lost");
        for p in 0..32u32 {
            bm.with_page_mut(f, p, |d| d[0] = p as u8);
        }
        for p in 0..32u32 {
            let v = bm.with_page(f, p, |d| d[0]);
            assert_eq!(v, p as u8);
        }
        let s = bm.stats(f);
        assert_eq!(s.hits + s.misses, 64);
        assert!(s.misses >= 32, "cold misses at least");
        bm.flush_all();
        let mut buf = vec![0u8; 128];
        bm.with_disk(|d| d.read_page(f, 31, &mut buf));
        assert_eq!(buf[0], 31);
    }

    #[test]
    fn concurrent_access_is_safe_and_consistent() {
        let mut disk = DiskManager::new(128);
        let f = disk.create_file();
        for _ in 0..64 {
            disk.allocate_page(f);
        }
        let bm = BufferManager::new_sharded(disk, 16, 8);
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let bm = &bm;
                scope.spawn(move || {
                    // threads own disjoint pages: writes must never be lost
                    for round in 0..200u32 {
                        let p = t * 16 + round % 16;
                        bm.with_page_mut(f, p, |d| {
                            let v = u32::from_le_bytes(d[0..4].try_into().unwrap());
                            d[0..4].copy_from_slice(&(v + 1).to_le_bytes());
                        });
                    }
                });
            }
        });
        let mut total = 0u32;
        for p in 0..64u32 {
            total += bm.with_page(f, p, |d| u32::from_le_bytes(d[0..4].try_into().unwrap()));
        }
        assert_eq!(total, 4 * 200, "no lost updates under the frame latches");
    }

    #[test]
    fn soft_writeback_faults_retry_to_the_same_disk_image() {
        // twin pools over the same initial disk, same access pattern:
        // one with transient I/O errors and torn writes on every few
        // write-backs, one clean — the retry loop must converge them
        let run = |plan: Option<FaultPlan>| {
            let (mut bm, f) = manager(2);
            let hook = plan.map(|p| bm.install_fault_hook(p));
            for round in 0..6u32 {
                for p in 0..8u32 {
                    bm.with_page_mut(f, p, |d| d[0] = (round * 8 + p) as u8);
                }
            }
            bm.flush_all();
            (bm, hook)
        };
        let (clean, _) = run(None);
        let (faulty, hook) = run(Some(FaultPlan::soft(42, 2, 3)));
        let hook = hook.expect("installed");
        let stats = hook.stats();
        assert!(stats.io_errors > 0, "transient failures were injected");
        assert!(stats.torn_writes > 0, "torn writes were injected");
        assert!(stats.retries > 0, "the pool paid retries to clear them");
        assert!(stats.fired[FaultSite::WriteBack.idx()] > 0);
        assert!(stats.fired[FaultSite::MissLoad.idx()] > 0);
        let equal = clean.with_disk(|cd| faulty.with_disk(|fd| cd.contents_equal(fd)));
        assert!(equal, "soft faults retried away: identical final disks");
    }

    #[test]
    fn crash_mid_run_freezes_the_wal_at_the_site() {
        // record pass: count sites and capture the full log
        let (mut bm, f) = manager(2);
        bm.enable_wal();
        let hook = bm.install_fault_hook(FaultPlan::observe(7));
        let workload = |bm: &BufferManager| {
            for p in 0..6u32 {
                bm.with_page_mut(f, p, |d| d[1] = p as u8 + 1);
                bm.log_commit(u64::from(p) + 1);
            }
            bm.flush_all();
        };
        workload(&bm);
        let records = hook.take_records();
        let full = bm.take_wal().expect("enabled");
        assert!(records.len() > 6, "appends, write-backs and misses fired");

        // crash pass at a mid-run site: the surviving log must be
        // byte-identical to the recorded durable prefix
        let pick = &records[records.len() / 2];
        let (mut bm, f2) = manager(2);
        assert_eq!(f, f2);
        bm.enable_wal();
        let hook = bm.install_fault_hook(FaultPlan::crash_at(7, pick.seq));
        workload(&bm);
        assert!(hook.crashed());
        let frozen = bm.take_wal().expect("enabled");
        assert_eq!(
            frozen.entries(),
            &full.entries()[..pick.wal_len],
            "the frozen log is exactly the prefix durable at the site"
        );
    }

    #[test]
    fn concurrent_shared_fixes_do_not_contend_on_content() {
        let (bm, f) = manager(8);
        bm.with_page_mut(f, 0, |d| d[0] = 123);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let bm = &bm;
                scope.spawn(move || {
                    for _ in 0..100 {
                        let g = bm.fix_shared(f, 0);
                        assert_eq!(g[0], 123);
                    }
                });
            }
        });
    }
}
