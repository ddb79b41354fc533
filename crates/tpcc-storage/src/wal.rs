//! Redo-only write-ahead logging and crash recovery.
//!
//! The paper assumes durability away ("we assume that there is a
//! separate log disk"); the engine can actually provide it. The buffer
//! manager, when logging is enabled, records every page mutation
//! *before* the dirty page can reach disk — the WAL protocol — plus
//! file-creation and page-allocation events. A mutation is logged as
//! the byte-range deltas of the page, except that a B+Tree leaf insert
//! or remove that shifts entries is logged as one physiological record
//! ([`WalEntry::LeafInsert`] / [`WalEntry::LeafRemove`]) naming the
//! page and slot. Recovery replays the log in order over a checkpoint
//! snapshot of the disk and reconstructs the exact post-crash committed
//! state: a leaf record reruns the tree's own byte operation on the
//! same page image it ran on live, so it need not be idempotent.
//!
//! Redo-only (no undo) is sound for this workload because every
//! transaction is validate-then-apply: no transaction writes a page
//! unless it is certain to commit (see `tpcc-db`'s New-Order rollback,
//! which aborts before its first write).

use std::fmt;
use std::sync::Arc;

use crate::btree;
use crate::disk::{DiskManager, FileId};
use crate::fault::{FaultHook, FaultSite};

/// Why a log failed to apply to a checkpoint image.
///
/// A torn or short log (crash mid-write), or a log paired with the
/// wrong checkpoint, surfaces here as a typed error instead of a panic,
/// so callers can refuse the recovery rather than die inside it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryError {
    /// A `CreateFile` replayed onto a different file id than logged.
    FileIdMismatch {
        /// Id in the log.
        logged: FileId,
        /// Id the checkpoint handed out.
        created: FileId,
    },
    /// An `AllocPage` replayed onto a different page number than
    /// logged (checkpoint extent or free set diverges from the log).
    PageMismatch {
        /// File being grown.
        file: FileId,
        /// Page number in the log.
        logged: u32,
        /// Page number the checkpoint handed out.
        allocated: u32,
    },
    /// An entry names a file the checkpoint does not have.
    UnknownFile {
        /// The missing file.
        file: FileId,
    },
    /// An entry names a page past its file's extent.
    UnknownPage {
        /// File the page should live in.
        file: FileId,
        /// The out-of-range page number.
        page: u32,
    },
    /// A `PageDelta` extends past the end of its page.
    DeltaOutOfBounds {
        /// File containing the page.
        file: FileId,
        /// Page number.
        page: u32,
        /// First byte of the delta.
        offset: u32,
        /// Delta length in bytes.
        len: usize,
    },
    /// A `FreePage` names a page that is already free.
    DoubleFree {
        /// File owning the page.
        file: FileId,
        /// The already-free page.
        page: u32,
    },
    /// A `LeafInsert` / `LeafRemove` does not fit the page it names:
    /// the page is not a B+Tree leaf, the slot is out of range, or an
    /// insert targets a full leaf.
    BadLeafRecord {
        /// File containing the page.
        file: FileId,
        /// Page number.
        page: u32,
        /// The logged slot.
        slot: u16,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::FileIdMismatch { logged, created } => write!(
                f,
                "log/checkpoint divergence: file id mismatch (logged {}, created {})",
                logged.0, created.0
            ),
            Self::PageMismatch {
                file,
                logged,
                allocated,
            } => write!(
                f,
                "log/checkpoint divergence: page number mismatch \
                 (file {}, logged {logged}, allocated {allocated})",
                file.0
            ),
            Self::UnknownFile { file } => {
                write!(f, "log names unknown file {}", file.0)
            }
            Self::UnknownPage { file, page } => {
                write!(f, "log names unknown page {page} in file {}", file.0)
            }
            Self::DeltaOutOfBounds {
                file,
                page,
                offset,
                len,
            } => write!(
                f,
                "delta out of bounds: file {} page {page} offset {offset} len {len}",
                file.0
            ),
            Self::DoubleFree { file, page } => {
                write!(f, "double free of page {page} in file {}", file.0)
            }
            Self::BadLeafRecord { file, page, slot } => write!(
                f,
                "leaf record does not fit: file {} page {page} slot {slot}",
                file.0
            ),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// One logged event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalEntry {
    /// A file came into existence (`create_file`).
    CreateFile {
        /// The id the file received.
        file: FileId,
    },
    /// A zeroed page was appended to a file.
    AllocPage {
        /// File grown.
        file: FileId,
        /// The page number it received.
        page: u32,
    },
    /// A page was deallocated (leaf merge, emptied heap page) and
    /// returned to its file's free set. Replay re-frees it, so a
    /// recovered disk reuses the same page numbers a clean run would.
    FreePage {
        /// File owning the page.
        file: FileId,
        /// The page number returned to the free set.
        page: u32,
    },
    /// Bytes `offset .. offset + data.len()` of a page changed.
    PageDelta {
        /// File containing the page.
        file: FileId,
        /// Page number.
        page: u32,
        /// First changed byte.
        offset: u32,
        /// The new bytes.
        data: Vec<u8>,
    },
    /// `(key, val)` was inserted into a B+Tree leaf at `slot`, shifting
    /// the entries from `slot` on up one place. Logged instead of the
    /// shifted bytes; redo runs the same insert on the page image.
    LeafInsert {
        /// Index file containing the leaf.
        file: FileId,
        /// Leaf page number.
        page: u32,
        /// Entry position the new entry takes.
        slot: u16,
        /// The inserted key.
        key: u64,
        /// The inserted value.
        val: u64,
    },
    /// The entry at `slot` of a B+Tree leaf was removed, shifting the
    /// entries after it down one place. Logged instead of the shifted
    /// bytes; redo runs the same removal on the page image.
    LeafRemove {
        /// Index file containing the leaf.
        file: FileId,
        /// Leaf page number.
        page: u32,
        /// Position of the removed entry.
        slot: u16,
    },
    /// A transaction committed. Recovery replays the log only up to
    /// (and including) the **last** commit marker: anything after it
    /// belongs to a transaction that was still in flight at the crash
    /// and is discarded.
    Commit {
        /// Logical transaction timestamp.
        txn: u64,
    },
    /// Two-phase commit, phase one: this node durably promises it can
    /// commit global transaction `txn` (its deltas precede this record
    /// in the log). A durable `Prepare` with no later [`WalEntry::Decide`]
    /// is **in doubt**: plain recovery excludes it (presumed abort),
    /// and [`Wal::try_recover_resolved`] consults the coordinator's
    /// decision to replay or discard it.
    Prepare {
        /// Global (coordinator-issued) transaction timestamp.
        txn: u64,
    },
    /// Two-phase commit, phase two: the decision for global transaction
    /// `txn`. On the coordinator this record *is* the commit point; on
    /// a participant it closes the in-doubt window. `commit == false`
    /// is still a valid replay boundary — an aborting node logs its
    /// compensating deltas *before* the decision, so replaying up to it
    /// nets the transaction out to a no-op (compensation by redo).
    Decide {
        /// Global transaction timestamp.
        txn: u64,
        /// True to commit, false to abort.
        commit: bool,
    },
}

impl WalEntry {
    /// Serialized size of this record under the log's framing model:
    /// an 8-byte header (type tag, payload length, checksum) followed
    /// by the fixed fields and any delta payload. The log lives in
    /// memory, but the torn-tail sweep enumerates crash points in this
    /// byte space — a prefix that ends inside a record loses it (the
    /// length/checksum check fails on read-back), so every byte offset
    /// maps to a whole number of surviving records.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        const HEADER: usize = 8;
        HEADER
            + match self {
                WalEntry::CreateFile { .. } => 4,
                WalEntry::AllocPage { .. } | WalEntry::FreePage { .. } => 8,
                WalEntry::PageDelta { data, .. } => 12 + data.len(),
                WalEntry::LeafInsert { .. } => 26,
                WalEntry::LeafRemove { .. } => 10,
                WalEntry::Commit { .. } | WalEntry::Prepare { .. } => 8,
                WalEntry::Decide { .. } => 9,
            }
    }

    /// Bytes this record logs to redo a page mutation — the figure
    /// [`Wal::redo_bytes`] and the buffer manager's
    /// `wal_bytes_appended` counter sum. A `PageDelta` counts its
    /// changed bytes; a leaf record counts its whole fixed payload
    /// (file, page, slot, and key and value where present), so it is
    /// charged its addressing that a delta's count leaves out. Records
    /// that mutate no page bytes count 0.
    #[must_use]
    pub fn redo_bytes(&self) -> u64 {
        match self {
            WalEntry::PageDelta { data, .. } => data.len() as u64,
            WalEntry::LeafInsert { .. } | WalEntry::LeafRemove { .. } => {
                (self.encoded_len() - 8) as u64
            }
            WalEntry::CreateFile { .. }
            | WalEntry::AllocPage { .. }
            | WalEntry::FreePage { .. }
            | WalEntry::Commit { .. }
            | WalEntry::Prepare { .. }
            | WalEntry::Decide { .. } => 0,
        }
    }

    /// True for a record that commits a transaction: a `Commit`, or a
    /// `Decide` that decided commit.
    fn counts_as_commit(&self) -> bool {
        match self {
            WalEntry::Commit { .. } | WalEntry::Decide { commit: true, .. } => true,
            WalEntry::Decide { commit: false, .. }
            | WalEntry::CreateFile { .. }
            | WalEntry::AllocPage { .. }
            | WalEntry::FreePage { .. }
            | WalEntry::PageDelta { .. }
            | WalEntry::LeafInsert { .. }
            | WalEntry::LeafRemove { .. }
            | WalEntry::Prepare { .. } => false,
        }
    }
}

/// An in-memory redo log.
///
/// # Durability modes
///
/// In the default **synchronous** mode every append is immediately
/// durable — the historical behaviour, where `committed_len()` is the
/// last commit marker *in memory*. Under **deferred** durability
/// ([`Wal::set_deferred`], the group-commit regime) appends land only
/// in the volatile tail; [`Wal::flush`] pushes the whole tail through
/// the simulated log device and advances the **durable watermark**
/// ([`Wal::durable_len`]). Recovery then replays only the committed
/// prefix *of the durable watermark*: a crash between an append and the
/// next flush loses the tail, never a flushed commit.
#[derive(Debug, Clone, Default)]
pub struct Wal {
    entries: Vec<WalEntry>,
    redo_bytes: u64,
    commit_count: u64,
    /// Deferred durability (group commit) on?
    deferred: bool,
    /// Durable watermark: entries `[..durable_len]` survived the last
    /// flush. Synchronous mode keeps it pinned to `entries.len()`.
    durable_len: usize,
    /// Commit markers inside the durable watermark.
    durable_commits: u64,
    hook: Option<Arc<FaultHook>>,
}

impl Wal {
    /// Empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a fault hook: every append becomes a
    /// [`FaultSite::WalAppend`] fault site (and under deferred
    /// durability every flush a [`FaultSite::WalFlush`] site), and once
    /// the hook's crash trips, appends are silently dropped and flushes
    /// stop advancing the watermark — the durable log is frozen at the
    /// crash instant (see the `fault` module's crash model).
    pub fn set_fault_hook(&mut self, hook: Arc<FaultHook>) {
        self.hook = Some(hook);
    }

    /// True once the attached fault hook's crash has tripped: appends
    /// are dropped and flushes no longer move the durable watermark.
    #[must_use]
    pub fn crashed(&self) -> bool {
        self.hook.as_ref().is_some_and(|h| h.crashed())
    }

    /// Switches between synchronous (`false`, the default) and deferred
    /// (`true`, group-commit) durability. Leaving deferred mode
    /// promotes the current tail to durable in one step — callers
    /// should [`Wal::flush`] first if they want the promotion counted
    /// as a flush.
    pub fn set_deferred(&mut self, deferred: bool) {
        self.deferred = deferred;
        if !deferred {
            self.durable_len = self.entries.len();
            self.durable_commits = self.commit_count;
        }
    }

    /// True when running under deferred (group-commit) durability.
    #[must_use]
    pub fn is_deferred(&self) -> bool {
        self.deferred
    }

    /// Appends an entry. 2PC records fire their own fault sites
    /// ([`FaultSite::TwoPcPrepare`] / [`FaultSite::TwoPcDecide`]) so a
    /// crash sweep can target the prepare/decide instants by class;
    /// every other entry fires [`FaultSite::WalAppend`].
    pub fn append(&mut self, entry: WalEntry) {
        if let Some(hook) = &self.hook {
            let site = match &entry {
                WalEntry::Prepare { .. } => FaultSite::TwoPcPrepare,
                WalEntry::Decide { .. } => FaultSite::TwoPcDecide,
                _ => FaultSite::WalAppend,
            };
            if hook.fire(site).crash {
                return; // the record never reached the durable log
            }
        }
        self.redo_bytes += entry.redo_bytes();
        self.commit_count += u64::from(entry.counts_as_commit());
        self.entries.push(entry);
        if self.deferred {
            return; // volatile tail: durable only after the next flush
        }
        self.durable_len = self.entries.len();
        self.durable_commits = self.commit_count;
        if let Some(hook) = &self.hook {
            hook.note_durable_append();
        }
    }

    /// Pushes the volatile tail to the log device, advancing the
    /// durable watermark to the current end of the log. Fires a
    /// [`FaultSite::WalFlush`] fault site *before* the device write: a
    /// crash tripped there loses the whole unflushed tail. Returns
    /// `false` when the crash (this one or an earlier one) kept the
    /// watermark where it was. A flush with nothing pending is a no-op
    /// (no fault site, returns `true`).
    pub fn flush(&mut self) -> bool {
        if self.durable_len == self.entries.len() {
            return true;
        }
        if let Some(hook) = &self.hook {
            if hook.fire(FaultSite::WalFlush).crash {
                return false; // tail lost: watermark frozen
            }
        }
        self.durable_len = self.entries.len();
        self.durable_commits = self.commit_count;
        if let Some(hook) = &self.hook {
            hook.note_durable_flush(self.durable_len);
        }
        true
    }

    /// Durable watermark: number of entries that survived the last
    /// flush (equals [`Wal::len`] under synchronous durability).
    #[must_use]
    pub fn durable_len(&self) -> usize {
        self.durable_len
    }

    /// Commit markers inside the durable watermark (equals
    /// [`Wal::commits`] under synchronous durability).
    #[must_use]
    pub fn durable_commits(&self) -> u64 {
        self.durable_commits
    }

    /// Entries appended but not yet flushed (always 0 under synchronous
    /// durability).
    #[must_use]
    pub fn unflushed(&self) -> usize {
        self.entries.len() - self.durable_len
    }

    /// Entries logged.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been logged.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total [`WalEntry::redo_bytes`] across the log: the changed bytes
    /// of every page delta plus the fixed payload of every leaf record.
    #[must_use]
    pub fn redo_bytes(&self) -> u64 {
        self.redo_bytes
    }

    /// Commit markers logged (maintained counter — O(1), the
    /// fault-injection oracle polls it per transaction).
    #[must_use]
    pub fn commits(&self) -> u64 {
        self.commit_count
    }

    /// The raw entries (for inspection / tests).
    #[must_use]
    pub fn entries(&self) -> &[WalEntry] {
        &self.entries
    }

    /// Discards every entry past the first `keep` (crash injection for
    /// atomicity tests: a log truncated mid-transaction must recover
    /// to the last complete commit, never a partial one).
    ///
    /// `keep > len` is a caller bug — a crash cannot preserve records
    /// that were never written. It debug-asserts, and clamps to the
    /// full log (a no-op) in release builds.
    pub fn truncate(&mut self, keep: usize) {
        debug_assert!(
            keep <= self.entries.len(),
            "Wal::truncate past the end (keep {keep} > len {})",
            self.entries.len()
        );
        if keep >= self.entries.len() {
            return;
        }
        for entry in &self.entries[keep..] {
            self.redo_bytes -= entry.redo_bytes();
            self.commit_count -= u64::from(entry.counts_as_commit());
        }
        self.entries.truncate(keep);
        if !self.deferred || self.durable_len > keep {
            // sync mode pins the watermark to the log end; deferred mode
            // only pulls it back when the cut removed durable entries
            self.durable_len = keep;
            self.durable_commits = self.commit_count;
        }
    }

    /// Length of the committed prefix: the index just past the last
    /// [`WalEntry::Commit`] or [`WalEntry::Decide`] marker inside the
    /// **durable watermark** (0 when no transaction durably committed).
    /// Recovery replays exactly `entries()[..committed_len()]`. Under
    /// synchronous durability the watermark is the whole log, so this
    /// is the historical "last commit marker in memory"; under deferred
    /// durability commits in the unflushed tail do not count.
    ///
    /// A `Decide` is a boundary whichever way it went: an abort logs
    /// its compensating deltas before the decision, so the prefix nets
    /// out. A durable [`WalEntry::Prepare`] past the last decision is
    /// **not** a boundary here — presumed abort; use
    /// [`Wal::committed_len_resolved`] to include prepares the
    /// coordinator durably decided to commit.
    #[must_use]
    pub fn committed_len(&self) -> usize {
        self.entries[..self.durable_len]
            .iter()
            .rposition(|e| matches!(e, WalEntry::Commit { .. } | WalEntry::Decide { .. }))
            .map_or(0, |i| i + 1)
    }

    /// Like [`Wal::committed_len`], but an in-doubt
    /// [`WalEntry::Prepare`] extends the replay boundary past itself
    /// when `resolver(txn)` reports the coordinator durably decided
    /// **commit** for that global transaction. An unresolved or
    /// aborted prepare stays outside the boundary (presumed abort).
    #[must_use]
    pub fn committed_len_resolved(&self, resolver: impl Fn(u64) -> bool) -> usize {
        let mut boundary = 0;
        for (i, entry) in self.entries[..self.durable_len].iter().enumerate() {
            match entry {
                WalEntry::Commit { .. } | WalEntry::Decide { .. } => boundary = i + 1,
                WalEntry::Prepare { txn } if resolver(*txn) => boundary = i + 1,
                _ => {}
            }
        }
        boundary
    }

    /// Global transactions this log durably prepared but never durably
    /// decided — the in-doubt set a recovering participant must resolve
    /// through its coordinators before opening for business.
    #[must_use]
    pub fn in_doubt(&self) -> Vec<u64> {
        let mut open = Vec::new();
        for entry in &self.entries[..self.durable_len] {
            match entry {
                WalEntry::Prepare { txn } => open.push(*txn),
                WalEntry::Decide { txn, .. } => open.retain(|t| t != txn),
                _ => {}
            }
        }
        open
    }

    /// The durable 2PC decision for global transaction `txn`, if this
    /// log (the coordinator's) carries one: `Some(true)` commit,
    /// `Some(false)` abort, `None` when no decision survived — in
    /// which case presumed abort applies.
    #[must_use]
    pub fn durable_decision(&self, txn: u64) -> Option<bool> {
        self.entries[..self.durable_len]
            .iter()
            .rev()
            .find_map(|e| match e {
                WalEntry::Decide { txn: t, commit } if *t == txn => Some(*commit),
                _ => None,
            })
    }

    /// Replays the log over a checkpoint image of the disk, producing
    /// the crash-recovered state.
    ///
    /// Only the **committed prefix** ([`Wal::committed_len`]) is
    /// replayed: entries after the last [`WalEntry::Commit`] marker
    /// belong to a transaction that never committed, and redo-only
    /// recovery must not apply them (a log with no commit marker at all
    /// replays nothing). Every entry is validated against the evolving
    /// checkpoint *before* it mutates anything, so a torn or mismatched
    /// log is rejected cleanly instead of silently corrupting the image.
    ///
    /// # Errors
    /// Returns a [`RecoveryError`] when an entry names an unknown file
    /// or page, a delta overruns its page, a leaf record does not fit
    /// its page, an allocation lands on a different page number than
    /// logged, or a free is a double free.
    pub fn try_recover(&self, checkpoint: DiskManager) -> Result<DiskManager, RecoveryError> {
        // no prepare resolves to commit, so the boundary is exactly
        // `committed_len()`: the last durable Commit/Decide
        self.try_recover_resolved(checkpoint, |_| false)
    }

    /// [`Wal::try_recover`] with 2PC in-doubt resolution: replays up to
    /// [`Wal::committed_len_resolved`]`(resolver)`, so a durable
    /// `Prepare` whose coordinator durably decided commit is applied,
    /// and every other in-doubt tail is discarded (presumed abort).
    ///
    /// # Errors
    /// The same [`RecoveryError`]s as [`Wal::try_recover`].
    pub fn try_recover_resolved(
        &self,
        mut checkpoint: DiskManager,
        resolver: impl Fn(u64) -> bool,
    ) -> Result<DiskManager, RecoveryError> {
        for entry in &self.entries[..self.committed_len_resolved(resolver)] {
            apply_entry(&mut checkpoint, entry)?;
        }
        Ok(checkpoint)
    }

    /// Serialized size of the whole log under the framing model of
    /// [`WalEntry::encoded_len`] — the byte space a torn-tail sweep
    /// enumerates.
    #[must_use]
    pub fn encoded_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.encoded_len() as u64).sum()
    }

    /// Number of *complete* records inside the first `bytes` bytes of
    /// the serialized log. A record torn mid-encoding fails its length
    /// / checksum check on read-back and is discarded along with
    /// everything after it, so a crash after `bytes` durable log bytes
    /// recovers exactly the first `records_within(bytes)` entries.
    #[must_use]
    pub fn records_within(&self, bytes: u64) -> usize {
        let mut used = 0u64;
        for (i, entry) in self.entries.iter().enumerate() {
            used += entry.encoded_len() as u64;
            if used > bytes {
                return i;
            }
        }
        self.entries.len()
    }
}

/// Applies one log entry to an evolving checkpoint image — the single
/// replay step shared by [`Wal::try_recover`] and the fault-injection
/// harness's incremental prefix verifier (`tpcc-db`'s `inject` module),
/// so both replay paths cannot drift apart. Every entry is validated
/// against the image *before* it mutates anything.
///
/// A page record patches the image in place. A page the image still
/// shares with another snapshot (the live disk, a stored checkpoint)
/// is copied at its first patch, so replay copies only the pages the
/// log touches.
///
/// # Errors
/// The same [`RecoveryError`]s as [`Wal::try_recover`], whose replay
/// loop is exactly this function folded over the committed prefix.
pub fn apply_entry(checkpoint: &mut DiskManager, entry: &WalEntry) -> Result<(), RecoveryError> {
    match entry {
        WalEntry::CreateFile { file } => {
            let created = checkpoint.create_file();
            if created != *file {
                return Err(RecoveryError::FileIdMismatch {
                    logged: *file,
                    created,
                });
            }
        }
        WalEntry::AllocPage { file, page } => {
            if file.0 >= checkpoint.file_count() {
                return Err(RecoveryError::UnknownFile { file: *file });
            }
            let allocated = checkpoint.allocate_page(*file);
            if allocated != *page {
                return Err(RecoveryError::PageMismatch {
                    file: *file,
                    logged: *page,
                    allocated,
                });
            }
        }
        WalEntry::FreePage { file, page } => {
            check_page(checkpoint, *file, *page)?;
            if checkpoint.is_free(*file, *page) {
                return Err(RecoveryError::DoubleFree {
                    file: *file,
                    page: *page,
                });
            }
            checkpoint.free_page(*file, *page);
        }
        WalEntry::PageDelta {
            file,
            page,
            offset,
            data,
        } => {
            check_page(checkpoint, *file, *page)?;
            let start = *offset as usize;
            if start + data.len() > checkpoint.page_size() {
                return Err(RecoveryError::DeltaOutOfBounds {
                    file: *file,
                    page: *page,
                    offset: *offset,
                    len: data.len(),
                });
            }
            checkpoint.page_mut(*file, *page)[start..start + data.len()].copy_from_slice(data);
        }
        WalEntry::LeafInsert { file, page, .. } | WalEntry::LeafRemove { file, page, .. } => {
            check_page(checkpoint, *file, *page)?;
            redo_leaf_record(checkpoint.page_mut(*file, *page), entry)?;
        }
        WalEntry::Commit { .. } | WalEntry::Prepare { .. } | WalEntry::Decide { .. } => {}
    }
    Ok(())
}

/// `Ok` when the image has file `file` and page `page` within its
/// extent.
fn check_page(checkpoint: &DiskManager, file: FileId, page: u32) -> Result<(), RecoveryError> {
    if file.0 >= checkpoint.file_count() {
        return Err(RecoveryError::UnknownFile { file });
    }
    if page >= checkpoint.pages(file) {
        return Err(RecoveryError::UnknownPage { file, page });
    }
    Ok(())
}

/// Runs a [`WalEntry::LeafInsert`] / [`WalEntry::LeafRemove`] on one
/// page image with the B+Tree's own leaf operation, after checking
/// that it fits: the page is a leaf, the slot is in range, and an
/// insert has room. A record that does not fit leaves `image`
/// untouched.
///
/// # Panics
/// On any other kind of entry (callers dispatch only leaf records).
pub(crate) fn redo_leaf_record(image: &mut [u8], entry: &WalEntry) -> Result<(), RecoveryError> {
    match *entry {
        WalEntry::LeafInsert { slot, key, val, .. }
            if btree::leaf_insert_fits(image, usize::from(slot)) =>
        {
            btree::leaf_insert_at(image, usize::from(slot), key, val);
        }
        WalEntry::LeafRemove { slot, .. } if btree::leaf_remove_fits(image, usize::from(slot)) => {
            btree::leaf_remove_at(image, usize::from(slot));
        }
        WalEntry::LeafInsert {
            file, page, slot, ..
        }
        | WalEntry::LeafRemove { file, page, slot } => {
            return Err(RecoveryError::BadLeafRecord { file, page, slot });
        }
        ref other => unreachable!("not a leaf record: {other:?}"),
    }
    Ok(())
}

/// Minimum run of unchanged bytes that splits one page mutation into
/// two `PageDelta` records. A record costs 20 bytes of framing, so
/// carrying an unchanged gap shorter than this inline is cheaper than
/// a second record.
pub const DELTA_SPLIT_GAP: usize = 32;

/// Computes the changed byte ranges between two page images as
/// `(offset, bytes)` segments, splitting wherever at least
/// [`DELTA_SPLIT_GAP`] unchanged bytes separate two changes. A slotted
/// page mutates its slot directory near the front and the record bytes
/// near the back; a single spanning delta would log the untouched
/// middle of the page — on TPC-C heaps that dead weight is an order of
/// magnitude over the live bytes. Empty when the images are identical.
#[must_use]
pub fn page_deltas(before: &[u8], after: &[u8]) -> Vec<(u32, Vec<u8>)> {
    debug_assert_eq!(before.len(), after.len());
    let n = before.len();
    let mut segments = Vec::new();
    let mut start = first_difference(before, after, 0);
    while start < n {
        // a changed run starts here; absorb unchanged gaps shorter
        // than the split threshold, stop at a long gap or page end
        let mut end = start + 1;
        let next = loop {
            while end < n && before[end] != after[end] {
                end += 1;
            }
            let next = first_difference(before, after, end);
            if next == n || next - end >= DELTA_SPLIT_GAP {
                break next;
            }
            end = next + 1;
        };
        segments.push((start as u32, after[start..end].to_vec()));
        start = next;
    }
    segments
}

/// First index at or after `from` where the two images differ, or their
/// length when the rest is identical. Nearly all of a page is unchanged
/// by one mutation, so equal bytes are skipped 32 at a time (a slice
/// compare the compiler vectorises), then a word at a time (XOR, and
/// the lowest set bit names the byte), then singly for the tail.
fn first_difference(before: &[u8], after: &[u8], from: usize) -> usize {
    let n = before.len();
    let mut i = from;
    while i + 32 <= n && before[i..i + 32] == after[i..i + 32] {
        i += 32;
    }
    while i + 8 <= n {
        let a = u64::from_le_bytes(before[i..i + 8].try_into().expect("8 bytes"));
        let b = u64::from_le_bytes(after[i..i + 8].try_into().expect("8 bytes"));
        if a != b {
            return i + ((a ^ b).trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < n && before[i] == after[i] {
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop [`page_deltas`] replaced, kept as the
    /// reference its segments are compared against.
    fn page_deltas_bytewise(before: &[u8], after: &[u8]) -> Vec<(u32, Vec<u8>)> {
        debug_assert_eq!(before.len(), after.len());
        let n = before.len();
        let mut segments = Vec::new();
        let mut i = 0;
        while i < n {
            if before[i] == after[i] {
                i += 1;
                continue;
            }
            // a changed run starts here; absorb unchanged gaps shorter
            // than the split threshold, stop at a long gap or page end
            let start = i;
            let mut end = i + 1;
            let mut j = i + 1;
            while j < n {
                if before[j] != after[j] {
                    j += 1;
                    end = j;
                } else {
                    let gap_start = j;
                    while j < n && before[j] == after[j] {
                        j += 1;
                        if j - gap_start >= DELTA_SPLIT_GAP {
                            break;
                        }
                    }
                    if j - gap_start >= DELTA_SPLIT_GAP || j == n {
                        break;
                    }
                }
            }
            segments.push((start as u32, after[start..end].to_vec()));
            i = j;
        }
        segments
    }

    #[test]
    fn page_deltas_match_the_bytewise_reference() {
        use tpcc_rand::Xoshiro256;
        const LENS: [usize; 5] = [37, 128, 256, 4093, 4096];
        const EDIT_LENS: [usize; 4] = [1, 4, 16, 600];
        const FOLLOW_GAPS: [usize; 6] = [0, 1, 31, 32, 33, 64];
        let mut rng = Xoshiro256::seed_from_u64(0x00D1_FFED);
        let mut pick = |hi: usize| rng.uniform_inclusive(0, hi as u64) as usize;
        const CASES: usize = 12_000;
        let mut segments = 0;
        for case in 0..CASES {
            let n = LENS[case % LENS.len()];
            let before: Vec<u8> = (0..n).map(|_| pick(255) as u8).collect();
            let mut after = before.clone();
            // every sixth case is left identical
            let edits = if case % 6 == 0 { 0 } else { pick(6) };
            for edit in 0..edits {
                let len = match EDIT_LENS[pick(3)] {
                    600 => 1 + pick(599),
                    fixed => fixed,
                }
                .min(n);
                // the first two edits of some cases pin the page ends
                let at = match (edit, case % 4) {
                    (0, 1) => 0,
                    (1, 1) | (0, 2) => n - len,
                    _ => pick(n - len),
                };
                // interior bytes may keep their value (mask 0); the
                // ends always change so the follow-up gap is exact
                for b in &mut after[at..at + len] {
                    *b ^= pick(255) as u8;
                }
                after[at] = !before[at];
                after[at + len - 1] = !before[at + len - 1];
                let follow = at + len + FOLLOW_GAPS[pick(5)];
                if follow < n && pick(1) == 0 {
                    after[follow] = !after[follow];
                }
            }
            let got = page_deltas(&before, &after);
            assert_eq!(
                got,
                page_deltas_bytewise(&before, &after),
                "case {case}, page length {n}"
            );
            assert_eq!(got.is_empty(), before == after, "case {case}");
            segments += got.len();
        }
        assert!(
            segments > CASES,
            "the generator produced {segments} segments"
        );
    }

    #[test]
    fn page_deltas_split_on_long_gaps_only() {
        let before = vec![0u8; 512];

        // two changes separated by less than the split gap: one segment
        let mut after = before.clone();
        after[10] = 1;
        after[10 + DELTA_SPLIT_GAP] = 2;
        let segs = page_deltas(&before, &after);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].0, 10);
        assert_eq!(segs[0].1.len(), DELTA_SPLIT_GAP + 1);

        // slot directory at the front, record at the back: two segments
        // that skip the untouched middle
        let mut after = before.clone();
        after[4..8].fill(7);
        after[400..460].fill(9);
        let segs = page_deltas(&before, &after);
        assert_eq!(segs.len(), 2);
        assert_eq!((segs[0].0, segs[0].1.len()), (4, 4));
        assert_eq!((segs[1].0, segs[1].1.len()), (400, 60));

        // replaying the segments reconstructs the after-image
        let mut replayed = before.clone();
        for (off, data) in &segs {
            replayed[*off as usize..*off as usize + data.len()].copy_from_slice(data);
        }
        assert_eq!(replayed, after);

        assert!(page_deltas(&before, &before).is_empty());

        // change running to the page end terminates cleanly
        let mut after = before.clone();
        after[508..].fill(3);
        let segs = page_deltas(&before, &after);
        assert_eq!(segs.len(), 1);
        assert_eq!((segs[0].0, segs[0].1.len()), (508, 4));
    }

    #[test]
    fn replay_reconstructs_pages() {
        let mut disk = DiskManager::new(64);
        let mut wal = Wal::new();

        // checkpoint first: an empty disk. Everything after is logged.
        let checkpoint = disk.snapshot();

        let f = disk.create_file();
        wal.append(WalEntry::CreateFile { file: f });
        let p = disk.allocate_page(f);
        wal.append(WalEntry::AllocPage { file: f, page: p });
        let mut buf = vec![0u8; 64];
        buf[5] = 42;
        disk.write_page(f, p, &buf);
        wal.append(WalEntry::PageDelta {
            file: f,
            page: p,
            offset: 5,
            data: vec![42],
        });
        wal.append(WalEntry::Commit { txn: 1 });

        let recovered = wal.try_recover(checkpoint).expect("log applies");
        let mut out = vec![0u8; 64];
        recovered.read_page(f, p, &mut out);
        assert_eq!(out[5], 42);
        assert_eq!(wal.commits(), 1);
        assert_eq!(wal.redo_bytes(), 1);
    }

    #[test]
    fn recovery_ignores_entries_after_the_last_commit() {
        let mut disk = DiskManager::new(64);
        let f = disk.create_file();
        let p = disk.allocate_page(f);
        let checkpoint = disk.snapshot();

        let mut wal = Wal::new();
        wal.append(WalEntry::PageDelta {
            file: f,
            page: p,
            offset: 0,
            data: vec![1],
        });
        wal.append(WalEntry::Commit { txn: 1 });
        // a second transaction crashes mid-flight: delta logged, no commit
        wal.append(WalEntry::PageDelta {
            file: f,
            page: p,
            offset: 1,
            data: vec![2],
        });
        wal.append(WalEntry::AllocPage { file: f, page: 1 });

        let recovered = wal.try_recover(checkpoint).expect("log applies");
        let mut buf = vec![0u8; 64];
        recovered.read_page(f, p, &mut buf);
        assert_eq!(buf[0], 1, "committed transaction replayed");
        assert_eq!(buf[1], 0, "uncommitted delta discarded");
        assert_eq!(recovered.pages(f), 1, "uncommitted allocation discarded");
    }

    #[test]
    fn log_with_no_commit_replays_nothing() {
        let mut disk = DiskManager::new(64);
        let f = disk.create_file();
        let p = disk.allocate_page(f);
        let checkpoint = disk.snapshot();

        let mut wal = Wal::new();
        wal.append(WalEntry::PageDelta {
            file: f,
            page: p,
            offset: 0,
            data: vec![9],
        });
        let recovered = wal.try_recover(checkpoint).expect("log applies");
        let mut buf = vec![0u8; 64];
        recovered.read_page(f, p, &mut buf);
        assert_eq!(buf[0], 0, "no commit marker, nothing applies");
    }

    #[test]
    fn free_and_realloc_replay_deterministically() {
        let mut disk = DiskManager::new(64);
        let mut wal = Wal::new();
        let checkpoint = disk.snapshot();

        let f = disk.create_file();
        wal.append(WalEntry::CreateFile { file: f });
        for i in 0..3 {
            let p = disk.allocate_page(f);
            assert_eq!(p, i);
            wal.append(WalEntry::AllocPage { file: f, page: p });
        }
        disk.write_page(f, 1, &[5u8; 64]);
        wal.append(WalEntry::PageDelta {
            file: f,
            page: 1,
            offset: 0,
            data: vec![5u8; 64],
        });
        disk.free_page(f, 1);
        wal.append(WalEntry::FreePage { file: f, page: 1 });
        // reallocation lands on the freed page, and replay must agree
        let p = disk.allocate_page(f);
        assert_eq!(p, 1, "allocation reuses the freed page");
        wal.append(WalEntry::AllocPage { file: f, page: p });
        wal.append(WalEntry::Commit { txn: 1 });

        let recovered = wal.try_recover(checkpoint).expect("log applies");
        assert!(
            recovered.contents_equal(&disk.snapshot()),
            "replayed free/realloc converges to the live disk"
        );
    }

    #[test]
    fn try_recover_rejects_torn_logs_without_panicking() {
        let checkpoint = DiskManager::new(64);

        // unknown file
        let mut wal = Wal::new();
        wal.append(WalEntry::AllocPage {
            file: FileId(3),
            page: 0,
        });
        wal.append(WalEntry::Commit { txn: 1 });
        assert_eq!(
            wal.try_recover(checkpoint.snapshot()).unwrap_err(),
            RecoveryError::UnknownFile { file: FileId(3) }
        );

        // delta past the end of the page
        let mut wal = Wal::new();
        wal.append(WalEntry::CreateFile { file: FileId(0) });
        wal.append(WalEntry::AllocPage {
            file: FileId(0),
            page: 0,
        });
        wal.append(WalEntry::PageDelta {
            file: FileId(0),
            page: 0,
            offset: 60,
            data: vec![0u8; 8],
        });
        wal.append(WalEntry::Commit { txn: 1 });
        let err = wal.try_recover(checkpoint.snapshot()).unwrap_err();
        assert!(matches!(err, RecoveryError::DeltaOutOfBounds { .. }));

        // double free
        let mut wal = Wal::new();
        wal.append(WalEntry::CreateFile { file: FileId(0) });
        wal.append(WalEntry::AllocPage {
            file: FileId(0),
            page: 0,
        });
        wal.append(WalEntry::FreePage {
            file: FileId(0),
            page: 0,
        });
        wal.append(WalEntry::FreePage {
            file: FileId(0),
            page: 0,
        });
        wal.append(WalEntry::Commit { txn: 1 });
        assert_eq!(
            wal.try_recover(checkpoint.snapshot()).unwrap_err(),
            RecoveryError::DoubleFree {
                file: FileId(0),
                page: 0
            }
        );
    }

    #[test]
    fn truncate_simulates_a_torn_log_tail() {
        let mut wal = Wal::new();
        wal.append(WalEntry::PageDelta {
            file: FileId(0),
            page: 0,
            offset: 0,
            data: vec![1, 2, 3],
        });
        wal.append(WalEntry::Commit { txn: 1 });
        wal.append(WalEntry::PageDelta {
            file: FileId(0),
            page: 0,
            offset: 4,
            data: vec![4, 5],
        });
        assert_eq!(wal.redo_bytes(), 5);
        wal.truncate(2);
        assert_eq!(wal.len(), 2);
        assert_eq!(wal.redo_bytes(), 3, "accounting follows the truncation");
        assert_eq!(wal.commits(), 1);
    }

    fn two_entry_log() -> Wal {
        let mut wal = Wal::new();
        wal.append(WalEntry::PageDelta {
            file: FileId(0),
            page: 0,
            offset: 0,
            data: vec![1, 2, 3],
        });
        wal.append(WalEntry::Commit { txn: 1 });
        wal
    }

    #[test]
    fn truncate_at_exact_len_is_a_noop() {
        let mut wal = two_entry_log();
        wal.truncate(2); // keep == len: the boundary is legal
        assert_eq!(wal.len(), 2);
        assert_eq!(wal.redo_bytes(), 3);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "truncate past the end")]
    fn truncate_past_len_debug_asserts() {
        let mut wal = two_entry_log();
        wal.truncate(3);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn truncate_past_len_clamps_in_release() {
        let mut wal = two_entry_log();
        wal.truncate(usize::MAX);
        assert_eq!(wal.len(), 2, "clamped to the full log");
        assert_eq!(wal.redo_bytes(), 3, "accounting untouched");
    }

    #[test]
    fn committed_len_tracks_the_last_marker() {
        let mut wal = Wal::new();
        assert_eq!(wal.committed_len(), 0);
        wal.append(WalEntry::CreateFile { file: FileId(0) });
        assert_eq!(wal.committed_len(), 0, "no commit yet");
        wal.append(WalEntry::Commit { txn: 1 });
        assert_eq!(wal.committed_len(), 2);
        wal.append(WalEntry::AllocPage {
            file: FileId(0),
            page: 0,
        });
        assert_eq!(wal.committed_len(), 2, "in-flight tail excluded");
    }

    // --- one unit per RecoveryError variant, each from the minimal
    // --- hand-built corrupt log, asserting the exact variant

    #[test]
    fn recovery_error_file_id_mismatch() {
        // checkpoint already owns file 0, so the logged CreateFile
        // replays onto id 1
        let mut checkpoint = DiskManager::new(64);
        checkpoint.create_file();
        let mut wal = Wal::new();
        wal.append(WalEntry::CreateFile { file: FileId(0) });
        wal.append(WalEntry::Commit { txn: 1 });
        assert_eq!(
            wal.try_recover(checkpoint).unwrap_err(),
            RecoveryError::FileIdMismatch {
                logged: FileId(0),
                created: FileId(1),
            }
        );
    }

    #[test]
    fn recovery_error_page_mismatch() {
        // checkpoint's file already has a page: replay allocates 1, log says 0
        let mut checkpoint = DiskManager::new(64);
        let f = checkpoint.create_file();
        checkpoint.allocate_page(f);
        let mut wal = Wal::new();
        wal.append(WalEntry::AllocPage { file: f, page: 0 });
        wal.append(WalEntry::Commit { txn: 1 });
        assert_eq!(
            wal.try_recover(checkpoint).unwrap_err(),
            RecoveryError::PageMismatch {
                file: f,
                logged: 0,
                allocated: 1,
            }
        );
    }

    #[test]
    fn recovery_error_unknown_file() {
        let mut wal = Wal::new();
        wal.append(WalEntry::FreePage {
            file: FileId(5),
            page: 0,
        });
        wal.append(WalEntry::Commit { txn: 1 });
        assert_eq!(
            wal.try_recover(DiskManager::new(64)).unwrap_err(),
            RecoveryError::UnknownFile { file: FileId(5) }
        );
    }

    #[test]
    fn recovery_error_unknown_page() {
        let mut checkpoint = DiskManager::new(64);
        let f = checkpoint.create_file();
        let mut wal = Wal::new();
        wal.append(WalEntry::PageDelta {
            file: f,
            page: 9,
            offset: 0,
            data: vec![1],
        });
        wal.append(WalEntry::Commit { txn: 1 });
        assert_eq!(
            wal.try_recover(checkpoint).unwrap_err(),
            RecoveryError::UnknownPage { file: f, page: 9 }
        );
    }

    #[test]
    fn recovery_error_delta_out_of_bounds() {
        let mut checkpoint = DiskManager::new(64);
        let f = checkpoint.create_file();
        checkpoint.allocate_page(f);
        let mut wal = Wal::new();
        wal.append(WalEntry::PageDelta {
            file: f,
            page: 0,
            offset: 60,
            data: vec![0u8; 8],
        });
        wal.append(WalEntry::Commit { txn: 1 });
        assert_eq!(
            wal.try_recover(checkpoint).unwrap_err(),
            RecoveryError::DeltaOutOfBounds {
                file: f,
                page: 0,
                offset: 60,
                len: 8,
            }
        );
    }

    #[test]
    fn recovery_error_double_free() {
        let mut checkpoint = DiskManager::new(64);
        let f = checkpoint.create_file();
        checkpoint.allocate_page(f);
        let mut wal = Wal::new();
        wal.append(WalEntry::FreePage { file: f, page: 0 });
        wal.append(WalEntry::FreePage { file: f, page: 0 });
        wal.append(WalEntry::Commit { txn: 1 });
        assert_eq!(
            wal.try_recover(checkpoint).unwrap_err(),
            RecoveryError::DoubleFree { file: f, page: 0 }
        );
    }

    #[test]
    fn crashed_hook_freezes_the_log() {
        use crate::fault::{FaultHook, FaultPlan};

        let mut wal = Wal::new();
        let hook = Arc::new(FaultHook::new(FaultPlan::crash_at(7, 1)));
        wal.set_fault_hook(Arc::clone(&hook));
        wal.append(WalEntry::CreateFile { file: FileId(0) }); // site 0: survives
        wal.append(WalEntry::Commit { txn: 1 }); // site 1: the crash, dropped
        wal.append(WalEntry::Commit { txn: 2 }); // post-crash, dropped
        assert_eq!(wal.len(), 1, "log frozen at the crash instant");
        assert_eq!(wal.commits(), 0);
        assert!(hook.crashed());
        assert_eq!(hook.stats().crashed_at, Some(1));
    }

    #[test]
    fn deferred_durability_gates_committed_len_on_flush() {
        let mut wal = Wal::new();
        wal.set_deferred(true);
        wal.append(WalEntry::CreateFile { file: FileId(0) });
        wal.append(WalEntry::Commit { txn: 1 });
        assert_eq!(wal.len(), 2);
        assert_eq!(wal.durable_len(), 0, "nothing flushed yet");
        assert_eq!(wal.unflushed(), 2);
        assert_eq!(
            wal.committed_len(),
            0,
            "a commit in the volatile tail is not recoverable"
        );
        assert!(wal.flush());
        assert_eq!(wal.durable_len(), 2);
        assert_eq!(wal.durable_commits(), 1);
        assert_eq!(wal.committed_len(), 2, "flushed commit is recoverable");
        // a second transaction stays volatile until the next flush
        wal.append(WalEntry::Commit { txn: 2 });
        assert_eq!(wal.committed_len(), 2);
        assert!(wal.flush());
        assert_eq!(wal.committed_len(), 3);
        assert!(wal.flush(), "empty flush is a no-op");
    }

    #[test]
    fn crash_at_flush_loses_the_tail_never_a_flushed_commit() {
        use crate::fault::{FaultHook, FaultPlan};

        let mut wal = Wal::new();
        wal.set_deferred(true);
        // sites: 0,1 appends · 2 flush · 3,4 appends · 5 flush (crash)
        let hook = Arc::new(FaultHook::new(FaultPlan::crash_at(7, 5)));
        wal.set_fault_hook(Arc::clone(&hook));
        wal.append(WalEntry::CreateFile { file: FileId(0) });
        wal.append(WalEntry::Commit { txn: 1 });
        assert!(wal.flush(), "first flush survives");
        wal.append(WalEntry::AllocPage {
            file: FileId(0),
            page: 0,
        });
        wal.append(WalEntry::Commit { txn: 2 });
        assert!(!wal.flush(), "second flush trips the crash");
        assert!(hook.crashed());
        assert_eq!(wal.durable_len(), 2, "watermark frozen at the last flush");
        assert_eq!(wal.durable_commits(), 1, "txn 2's commit is lost");
        assert_eq!(wal.committed_len(), 2);
        // post-crash traffic changes nothing durable
        wal.append(WalEntry::Commit { txn: 3 });
        assert!(!wal.flush());
        assert_eq!(wal.durable_len(), 2);
        assert_eq!(hook.stats().fired[FaultSite::WalFlush.idx()], 2);
    }

    #[test]
    fn deferred_truncate_clamps_the_watermark() {
        let mut wal = Wal::new();
        wal.set_deferred(true);
        wal.append(WalEntry::Commit { txn: 1 });
        wal.flush();
        wal.append(WalEntry::Commit { txn: 2 });
        wal.append(WalEntry::Commit { txn: 3 });
        // cut inside the volatile tail: watermark untouched
        wal.truncate(2);
        assert_eq!(wal.durable_len(), 1);
        assert_eq!(wal.durable_commits(), 1);
        // cut below the watermark: watermark follows
        wal.truncate(0);
        assert_eq!(wal.durable_len(), 0);
        assert_eq!(wal.durable_commits(), 0);
    }

    #[test]
    fn prepare_is_not_a_replay_boundary_but_decide_is() {
        let mut wal = Wal::new();
        wal.append(WalEntry::PageDelta {
            file: FileId(0),
            page: 0,
            offset: 0,
            data: vec![1],
        });
        wal.append(WalEntry::Commit { txn: 1 });
        // a distributed participant: deltas + prepare, crash before decide
        wal.append(WalEntry::PageDelta {
            file: FileId(0),
            page: 0,
            offset: 1,
            data: vec![2],
        });
        wal.append(WalEntry::Prepare { txn: 9 });
        assert_eq!(wal.committed_len(), 2, "in-doubt tail excluded");
        assert_eq!(wal.in_doubt(), vec![9]);
        // coordinator says commit: the tail replays through the prepare
        assert_eq!(wal.committed_len_resolved(|t| t == 9), 4);
        // coordinator says abort (or no decision survived): presumed abort
        assert_eq!(wal.committed_len_resolved(|_| false), 2);
        // the decision closes the in-doubt window either way
        wal.append(WalEntry::Decide {
            txn: 9,
            commit: true,
        });
        assert_eq!(wal.committed_len(), 5);
        assert!(wal.in_doubt().is_empty());
        assert_eq!(wal.durable_decision(9), Some(true));
        assert_eq!(wal.durable_decision(1), None, "plain commits are not 2PC");
        assert_eq!(wal.commits(), 2, "Decide{{commit}} counts as a commit");
    }

    #[test]
    fn abort_decide_bounds_compensated_prefixes() {
        let mut disk = DiskManager::new(64);
        let f = disk.create_file();
        let p = disk.allocate_page(f);
        let checkpoint = disk.snapshot();

        let mut wal = Wal::new();
        // forward delta, prepare, then compensation + abort decision
        wal.append(WalEntry::PageDelta {
            file: f,
            page: p,
            offset: 0,
            data: vec![7],
        });
        wal.append(WalEntry::Prepare { txn: 4 });
        wal.append(WalEntry::PageDelta {
            file: f,
            page: p,
            offset: 0,
            data: vec![0],
        });
        wal.append(WalEntry::Decide {
            txn: 4,
            commit: false,
        });
        assert_eq!(wal.committed_len(), 4, "abort decision is a boundary");
        assert_eq!(wal.commits(), 0, "an abort is not a commit");
        let recovered = wal.try_recover(checkpoint).expect("log applies");
        let mut buf = vec![0u8; 64];
        recovered.read_page(f, p, &mut buf);
        assert_eq!(buf[0], 0, "compensation nets the abort to a no-op");
    }

    #[test]
    fn try_recover_resolved_replays_a_committed_in_doubt_tail() {
        let mut disk = DiskManager::new(64);
        let f = disk.create_file();
        let p = disk.allocate_page(f);
        let checkpoint = disk.snapshot();

        let mut wal = Wal::new();
        wal.append(WalEntry::PageDelta {
            file: f,
            page: p,
            offset: 3,
            data: vec![42],
        });
        wal.append(WalEntry::Prepare { txn: 11 });
        // crash here: durable prepare, no decision on this node

        let committed = wal
            .try_recover_resolved(checkpoint.snapshot(), |t| t == 11)
            .expect("applies");
        let mut buf = vec![0u8; 64];
        committed.read_page(f, p, &mut buf);
        assert_eq!(buf[3], 42, "coordinator-committed prepare replayed");

        let aborted = wal
            .try_recover_resolved(checkpoint.snapshot(), |_| false)
            .expect("applies");
        aborted.read_page(f, p, &mut buf);
        assert_eq!(buf[3], 0, "presumed abort discards the tail");
    }

    #[test]
    fn twopc_records_fire_their_own_fault_sites() {
        use crate::fault::{FaultHook, FaultPlan, FaultSite};

        let mut wal = Wal::new();
        let hook = Arc::new(FaultHook::new(FaultPlan::observe(7)));
        wal.set_fault_hook(Arc::clone(&hook));
        wal.append(WalEntry::Prepare { txn: 1 });
        wal.append(WalEntry::Decide {
            txn: 1,
            commit: true,
        });
        wal.append(WalEntry::Commit { txn: 2 });
        let stats = hook.stats();
        assert_eq!(stats.fired[FaultSite::TwoPcPrepare.idx()], 1);
        assert_eq!(stats.fired[FaultSite::TwoPcDecide.idx()], 1);
        assert_eq!(stats.fired[FaultSite::WalAppend.idx()], 1);

        // a crash at the decide site loses the decision, leaving the
        // prepare in doubt
        let mut wal = Wal::new();
        let hook = Arc::new(FaultHook::new(FaultPlan::crash_at(7, 1)));
        wal.set_fault_hook(hook);
        wal.append(WalEntry::Prepare { txn: 5 }); // site 0: survives
        wal.append(WalEntry::Decide {
            txn: 5,
            commit: true,
        }); // site 1: dropped
        assert_eq!(wal.in_doubt(), vec![5]);
        assert_eq!(wal.durable_decision(5), None);
    }

    #[test]
    fn byte_framing_maps_offsets_to_whole_records() {
        let mut wal = Wal::new();
        wal.append(WalEntry::CreateFile { file: FileId(0) }); // 12 bytes
        wal.append(WalEntry::PageDelta {
            file: FileId(0),
            page: 0,
            offset: 0,
            data: vec![7; 10],
        }); // 30 bytes
        wal.append(WalEntry::Commit { txn: 1 }); // 16 bytes
        assert_eq!(wal.encoded_bytes(), 12 + 30 + 16);
        assert_eq!(wal.records_within(0), 0);
        assert_eq!(wal.records_within(11), 0, "torn inside the first record");
        assert_eq!(wal.records_within(12), 1);
        assert_eq!(wal.records_within(41), 1, "torn inside the delta");
        assert_eq!(wal.records_within(42), 2);
        assert_eq!(wal.records_within(57), 2, "torn inside the commit");
        assert_eq!(wal.records_within(58), 3);
        assert_eq!(wal.records_within(u64::MAX), 3);
    }

    /// A node image: `kind` byte, entry count `n`, no next leaf, and
    /// `0xAB` filler for the entries and the unused tail.
    fn node_image(page_size: usize, kind: u8, n: u16) -> Vec<u8> {
        let mut image = vec![0xAB; page_size];
        image[0] = kind;
        image[1] = 0;
        image[2..4].copy_from_slice(&n.to_le_bytes());
        image[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        image
    }

    #[test]
    fn apply_entry_rejects_leaf_records_that_do_not_fit() {
        const PAGE: usize = 256; // 15 leaf entries
        let mut disk = DiskManager::new(PAGE);
        let f = disk.create_file();
        let images = [
            node_image(PAGE, 0, 3),  // page 0: a leaf with three entries
            node_image(PAGE, 0, 15), // page 1: a full leaf
            node_image(PAGE, 1, 3),  // page 2: an internal node
        ];
        for image in &images {
            let p = disk.allocate_page(f);
            disk.write_page(f, p, image);
        }
        let rejected = [
            (
                0,
                WalEntry::LeafRemove {
                    file: f,
                    page: 0,
                    slot: 3,
                },
            ),
            (
                0,
                WalEntry::LeafInsert {
                    file: f,
                    page: 0,
                    slot: 4,
                    key: 1,
                    val: 2,
                },
            ),
            (
                1,
                WalEntry::LeafInsert {
                    file: f,
                    page: 1,
                    slot: 0,
                    key: 1,
                    val: 2,
                },
            ),
            (
                2,
                WalEntry::LeafInsert {
                    file: f,
                    page: 2,
                    slot: 0,
                    key: 1,
                    val: 2,
                },
            ),
            (
                2,
                WalEntry::LeafRemove {
                    file: f,
                    page: 2,
                    slot: 0,
                },
            ),
        ];
        for (page, record) in &rejected {
            let untouched = disk.snapshot();
            let slot = match *record {
                WalEntry::LeafInsert { slot, .. } | WalEntry::LeafRemove { slot, .. } => slot,
                _ => unreachable!(),
            };
            assert_eq!(
                apply_entry(&mut disk, record),
                Err(RecoveryError::BadLeafRecord {
                    file: f,
                    page: *page,
                    slot
                }),
                "{record:?}"
            );
            assert!(disk.contents_equal(&untouched), "{record:?} left a mark");
        }

        // through recovery too, and the unknown file and page checks
        let mut wal = Wal::new();
        wal.append(rejected[2].1.clone());
        wal.append(WalEntry::Commit { txn: 1 });
        assert!(matches!(
            wal.try_recover(disk.snapshot()),
            Err(RecoveryError::BadLeafRecord {
                page: 1,
                slot: 0,
                ..
            })
        ));
        let far = WalEntry::LeafRemove {
            file: f,
            page: 9,
            slot: 0,
        };
        assert_eq!(
            apply_entry(&mut disk, &far),
            Err(RecoveryError::UnknownPage { file: f, page: 9 })
        );
        let nowhere = WalEntry::LeafRemove {
            file: FileId(4),
            page: 0,
            slot: 0,
        };
        assert_eq!(
            apply_entry(&mut disk, &nowhere),
            Err(RecoveryError::UnknownFile { file: FileId(4) })
        );

        // the records that do fit apply: the last slot of a leaf with
        // room, and the last entry of a full one
        let fits = [
            WalEntry::LeafInsert {
                file: f,
                page: 0,
                slot: 3,
                key: 1,
                val: 2,
            },
            WalEntry::LeafRemove {
                file: f,
                page: 1,
                slot: 14,
            },
        ];
        for record in &fits {
            apply_entry(&mut disk, record).expect("fits");
        }
        let mut out = vec![0u8; PAGE];
        disk.read_page(f, 0, &mut out);
        assert_eq!(u16::from_le_bytes([out[2], out[3]]), 4);
        disk.read_page(f, 1, &mut out);
        assert_eq!(u16::from_le_bytes([out[2], out[3]]), 14);
    }

    #[test]
    fn framing_covers_every_variant_torn_at_every_byte() {
        let f = FileId(0);
        let log = [
            (WalEntry::CreateFile { file: f }, 12, 0),
            (WalEntry::AllocPage { file: f, page: 0 }, 16, 0),
            (
                WalEntry::PageDelta {
                    file: f,
                    page: 0,
                    offset: 8,
                    data: vec![1; 5],
                },
                25,
                5,
            ),
            (
                WalEntry::LeafInsert {
                    file: f,
                    page: 0,
                    slot: 2,
                    key: 7,
                    val: 9,
                },
                34,
                26,
            ),
            (
                WalEntry::LeafRemove {
                    file: f,
                    page: 0,
                    slot: 0,
                },
                18,
                10,
            ),
            (WalEntry::Prepare { txn: 3 }, 16, 0),
            (
                WalEntry::Decide {
                    txn: 3,
                    commit: true,
                },
                17,
                0,
            ),
            (WalEntry::FreePage { file: f, page: 0 }, 16, 0),
            (WalEntry::Commit { txn: 4 }, 16, 0),
        ];
        let mut wal = Wal::new();
        for (entry, encoded, redo) in &log {
            assert_eq!(entry.encoded_len(), *encoded, "{entry:?}");
            assert_eq!(entry.redo_bytes(), *redo, "{entry:?}");
            wal.append(entry.clone());
        }
        let total: usize = log.iter().map(|(_, encoded, _)| encoded).sum();
        assert_eq!(wal.encoded_bytes(), total as u64);
        assert_eq!(wal.redo_bytes(), 41);
        assert_eq!(wal.commits(), 2);
        for torn in 0..=total as u64 + 1 {
            // whole records only: every record ending at or before the tear
            let mut end = 0u64;
            let whole = log
                .iter()
                .take_while(|(_, encoded, _)| {
                    end += *encoded as u64;
                    end <= torn
                })
                .count();
            assert_eq!(wal.records_within(torn), whole, "torn at byte {torn}");
            let mut cut = wal.clone();
            cut.truncate(whole);
            let prefix = &log[..whole];
            assert_eq!(
                cut.redo_bytes(),
                prefix.iter().map(|(_, _, redo)| redo).sum::<u64>(),
                "torn at byte {torn}"
            );
            assert_eq!(
                cut.commits(),
                prefix
                    .iter()
                    .filter(|(e, _, _)| matches!(
                        e,
                        WalEntry::Commit { .. } | WalEntry::Decide { commit: true, .. }
                    ))
                    .count() as u64,
                "torn at byte {torn}"
            );
        }
    }
}
