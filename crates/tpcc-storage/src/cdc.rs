//! Change-data-capture over the redo log: a subscription API that
//! turns the WAL's durable committed prefix into a stream of typed
//! **row changes** (insert / update / delete with full before/after
//! images), decoded from physical page-delta records.
//!
//! # How decoding works
//!
//! A [`CdcSubscriber`] owns a **shadow disk**: a checkpoint image
//! advanced by the same [`apply_entry`] replay step recovery uses, so
//! the decoder and crash recovery cannot drift apart. Page deltas are
//! *physical* (a logical insert writes the slot directory and the
//! record bytes as separate segmented deltas), so the subscriber never
//! diffs per delta. Instead it copies each watched page's before image
//! at first touch after a commit boundary and, only when the next
//! [`WalEntry::Commit`] / [`WalEntry::Decide`] marker lands, walks the
//! before and after **slot directories** side by side, slot by slot:
//! O(slots) per touched page, no map built, and nothing allocated
//! except the rows it emits. The per-marker diffs telescope:
//! their composition over any WAL prefix equals the total change of
//! that prefix, which is what the replay-equivalence tests assert.
//!
//! # Consistency gates
//!
//! * **Group commit** — the subscriber consumes only
//!   `entries[cursor .. committed_len())`, and [`Wal::committed_len`]
//!   is computed within the *durable watermark*: an unflushed tail is
//!   invisible, so no event is ever emitted for a commit that a crash
//!   could still lose.
//! * **MVCC rollbacks** — an abort replays its undo images through
//!   ordinary logged page writes (compensation by redo), so a rolled-
//!   back transaction's forward and compensating deltas both precede
//!   the next marker and its page diffs net to zero: no events.
//! * **2PC** — a durable [`WalEntry::Prepare`] is not a boundary:
//!   prepared-but-undecided deltas stay pending until a
//!   [`WalEntry::Decide`] lands in the same log, so an in-doubt
//!   transaction emits nothing (presumed abort, the recovery rule
//!   without a resolver). An abort decision is preceded by
//!   compensating deltas, so its batch is empty.
//!
//! # Backpressure and checkpoints
//!
//! A bounded-lag subscriber gets a typed [`CdcLag`] error when the
//! committed prefix runs more than `max_lag` entries ahead of its
//! cursor; the cursor does not move, so it can always resume without
//! missing events (the log is retained). A [`CdcCheckpoint`] is a
//! (cursor, shadow-disk) pair: re-attaching to any WAL whose prefix
//! contains that cursor resumes the stream exactly. Taking one fires
//! the [`FaultSite::CdcCheckpoint`] fault site so the crashpoint
//! harness can enumerate checkpoint loss.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::disk::{DiskManager, FileId};
use crate::fault::{FaultHook, FaultSite};
use crate::page::slots;
use crate::wal::{apply_entry, Wal, WalEntry};

/// One row-level change, attributed to a slot of a watched page file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowChange {
    /// Page file the row lives in.
    pub file: FileId,
    /// Page number.
    pub page: u32,
    /// Slot within the page (stable across in-page compaction).
    pub slot: u16,
    /// What happened to the row.
    pub op: RowOp,
}

/// The change kind, with full record images.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RowOp {
    /// The slot went live.
    Insert {
        /// Record bytes after the change.
        after: Vec<u8>,
    },
    /// The slot stayed live but its bytes changed.
    Update {
        /// Record bytes before the change.
        before: Vec<u8>,
        /// Record bytes after the change.
        after: Vec<u8>,
    },
    /// The slot went dead (or its page was freed).
    Delete {
        /// Record bytes before the change.
        before: Vec<u8>,
    },
}

impl RowOp {
    /// Stable lower-snake name (for JSON export).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            RowOp::Insert { .. } => "insert",
            RowOp::Update { .. } => "update",
            RowOp::Delete { .. } => "delete",
        }
    }
}

/// All row changes between two consecutive durable commit boundaries.
///
/// On a serial workload this is exactly one transaction's write set;
/// under a concurrent workload markers interleave with other
/// transactions' deltas, so a batch is the *physical* change between
/// boundaries — the composition over a prefix is identical either way.
#[derive(Debug, Clone, PartialEq)]
pub struct ChangeBatch {
    /// Logical transaction timestamp of the boundary marker.
    pub txn: u64,
    /// False when the boundary is an abort [`WalEntry::Decide`]
    /// (whose compensated batch is empty on a serial workload).
    pub committed: bool,
    /// WAL index one past the boundary marker — the subscriber's
    /// cursor after consuming this batch.
    pub upto: usize,
    /// Row changes, ordered by (file, page, slot).
    pub changes: Vec<RowChange>,
}

/// Typed backpressure error: the subscriber's cursor lags the durable
/// committed prefix by more than its configured bound. The cursor has
/// **not** moved — a later poll (or [`CdcSubscriber::poll_unbounded`])
/// resumes from it with no events missed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CdcLag {
    /// The subscriber's cursor (WAL entries already consumed).
    pub cursor: usize,
    /// The durable committed prefix it failed to keep up with.
    pub committed_len: usize,
    /// The configured bound the lag exceeded.
    pub max_lag: usize,
}

impl std::fmt::Display for CdcLag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cdc subscriber lagging: cursor {} is {} entries behind committed prefix {} (bound {})",
            self.cursor,
            self.committed_len - self.cursor,
            self.committed_len,
            self.max_lag
        )
    }
}

impl std::error::Error for CdcLag {}

/// A durable resume point: the cursor plus the shadow disk at that
/// cursor. [`CdcSubscriber::resume`] rebuilds a subscriber that
/// continues the stream exactly where this checkpoint stopped.
#[derive(Debug)]
pub struct CdcCheckpoint {
    /// WAL entries consumed when the checkpoint was taken.
    pub cursor: usize,
    /// Shadow disk image at `cursor`.
    pub disk: DiskManager,
}

impl CdcCheckpoint {
    /// A copy that shares the stored shadow's pages (see
    /// [`DiskManager::snapshot`]), so one stored checkpoint can seed
    /// many resumed subscribers (the crashpoint sweep rebuilds from the
    /// same checkpoint once per verified prefix).
    #[must_use]
    pub fn snapshot(&self) -> Self {
        Self {
            cursor: self.cursor,
            disk: self.disk.snapshot(),
        }
    }
}

/// Counters a subscriber accumulates (throughput telemetry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CdcStats {
    /// WAL entries consumed.
    pub entries_consumed: u64,
    /// Change batches emitted.
    pub batches: u64,
    /// Row-change events emitted.
    pub events: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
}

/// A change-stream subscriber over one database's WAL.
pub struct CdcSubscriber {
    shadow: DiskManager,
    cursor: usize,
    watched: Vec<FileId>,
    max_lag: Option<usize>,
    hook: Option<Arc<FaultHook>>,
    stats: CdcStats,
}

impl std::fmt::Debug for CdcSubscriber {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CdcSubscriber")
            .field("cursor", &self.cursor)
            .field("watched", &self.watched)
            .field("max_lag", &self.max_lag)
            .field("stats", &self.stats)
            .finish()
    }
}

impl CdcSubscriber {
    /// A subscriber whose shadow starts from `base` — the same
    /// checkpoint image recovery replays over (cursor 0).
    #[must_use]
    pub fn new(base: DiskManager) -> Self {
        Self {
            shadow: base,
            cursor: 0,
            watched: Vec::new(),
            max_lag: None,
            hook: None,
            stats: CdcStats::default(),
        }
    }

    /// Resumes from a checkpoint: the stream continues at
    /// `checkpoint.cursor` as if never detached.
    #[must_use]
    pub fn resume(checkpoint: CdcCheckpoint) -> Self {
        let mut s = Self::new(checkpoint.disk);
        s.cursor = checkpoint.cursor;
        s
    }

    /// Subscribes to row changes of one page file (a heap). Deltas to
    /// unwatched files still advance the shadow but emit nothing.
    pub fn watch(&mut self, file: FileId) {
        if !self.watched.contains(&file) {
            self.watched.push(file);
        }
    }

    /// Bounds the lag [`CdcSubscriber::poll`] tolerates (`None` =
    /// unbounded, the default).
    pub fn set_max_lag(&mut self, max_lag: Option<usize>) {
        self.max_lag = max_lag;
    }

    /// Routes checkpoint-taking through a fault hook
    /// ([`FaultSite::CdcCheckpoint`]).
    pub fn set_fault_hook(&mut self, hook: Arc<FaultHook>) {
        self.hook = Some(hook);
    }

    /// WAL entries consumed so far.
    #[must_use]
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> CdcStats {
        self.stats
    }

    /// Entries the durable committed prefix is ahead of this cursor.
    #[must_use]
    pub fn lag(&self, wal: &Wal) -> usize {
        wal.committed_len().saturating_sub(self.cursor)
    }

    /// Read-only access to the shadow disk (the materialized-view
    /// layer scans it to seed initial view state at the cursor).
    #[must_use]
    pub fn shadow(&self) -> &DiskManager {
        &self.shadow
    }

    /// Takes a checkpoint of the current cursor. Fires the
    /// [`FaultSite::CdcCheckpoint`] site first; under a crash plan the
    /// checkpoint is lost (`None`) — exactly what a crash between
    /// "decide to checkpoint" and "checkpoint durable" leaves behind.
    #[must_use]
    pub fn checkpoint(&mut self) -> Option<CdcCheckpoint> {
        if let Some(hook) = &self.hook {
            if hook.fire(FaultSite::CdcCheckpoint).crash {
                return None;
            }
        }
        self.stats.checkpoints += 1;
        Some(CdcCheckpoint {
            cursor: self.cursor,
            disk: self.shadow.snapshot(),
        })
    }

    /// Consumes every change batch in the durable committed prefix,
    /// enforcing the configured lag bound *before* consuming anything.
    ///
    /// # Errors
    /// [`CdcLag`] when the committed prefix is more than `max_lag`
    /// entries ahead of the cursor; the cursor does not move.
    pub fn poll(&mut self, wal: &Wal) -> Result<Vec<ChangeBatch>, CdcLag> {
        let committed_len = wal.committed_len();
        if let Some(max_lag) = self.max_lag {
            let lag = committed_len.saturating_sub(self.cursor);
            if lag > max_lag {
                return Err(CdcLag {
                    cursor: self.cursor,
                    committed_len,
                    max_lag,
                });
            }
        }
        Ok(self.decode_to(wal, committed_len))
    }

    /// [`CdcSubscriber::poll`] ignoring the lag bound — the catch-up
    /// path after a [`CdcLag`] error.
    pub fn poll_unbounded(&mut self, wal: &Wal) -> Vec<ChangeBatch> {
        self.decode_to(wal, wal.committed_len())
    }

    /// Consumes entries up to `upto`, which must be a committed batch
    /// boundary at or before the durable committed prefix. This is the
    /// crashpoint-sweep rebuild path: it replays "the WAL as frozen at
    /// a crash" without cloning and truncating the log.
    pub fn poll_upto(&mut self, wal: &Wal, upto: usize) -> Vec<ChangeBatch> {
        debug_assert!(
            upto <= wal.committed_len(),
            "poll_upto past the durable committed prefix"
        );
        self.decode_to(wal, upto)
    }

    /// Replays `entries[cursor..upto]` into the shadow, diffing watched
    /// pages at each Commit/Decide marker. `upto` always lands on such
    /// a boundary (it comes from `committed_len`), so no before-image
    /// is left dangling.
    fn decode_to(&mut self, wal: &Wal, upto: usize) -> Vec<ChangeBatch> {
        let entries = wal.entries();
        let upto = upto.min(entries.len());
        if upto <= self.cursor {
            return Vec::new();
        }
        let mut batches = Vec::new();
        // watched pages touched since the last boundary → before image
        let mut pending: BTreeMap<(FileId, u32), Vec<u8>> = BTreeMap::new();
        for (i, entry) in entries.iter().enumerate().take(upto).skip(self.cursor) {
            // every variant that mutates page bytes is named, so a new
            // one cannot slip past the first-touch capture
            match entry {
                WalEntry::PageDelta { file, page, .. }
                | WalEntry::LeafInsert { file, page, .. }
                | WalEntry::LeafRemove { file, page, .. }
                | WalEntry::FreePage { file, page } => {
                    if self.watched.contains(file) {
                        pending
                            .entry((*file, *page))
                            .or_insert_with(|| self.shadow.page(*file, *page).to_vec());
                    }
                }
                WalEntry::CreateFile { .. }
                | WalEntry::AllocPage { .. }
                | WalEntry::Commit { .. }
                | WalEntry::Prepare { .. }
                | WalEntry::Decide { .. } => {}
            }
            apply_entry(&mut self.shadow, entry)
                .expect("a durable committed prefix must replay cleanly");
            let boundary = match entry {
                WalEntry::Commit { txn } | WalEntry::Decide { txn, .. } => Some(*txn),
                _ => None,
            };
            if let Some(txn) = boundary {
                let committed = !matches!(entry, WalEntry::Decide { commit: false, .. });
                let changes = self.diff_pending(&mut pending);
                self.stats.batches += 1;
                self.stats.events += changes.len() as u64;
                batches.push(ChangeBatch {
                    txn,
                    committed,
                    upto: i + 1,
                    changes,
                });
            }
        }
        debug_assert!(
            pending.is_empty(),
            "committed_len ends on a marker, so no before-image dangles"
        );
        self.stats.entries_consumed += (upto - self.cursor) as u64;
        self.cursor = upto;
        batches
    }

    /// Diffs each pending page's before image against its current
    /// shadow image and drains the map. Each page costs one walk of
    /// its two slot directories ([`diff_page`]); `pending` is ordered
    /// by (file, page) and a walk emits in slot order, so the output
    /// is in (file, page, slot) order with no sort.
    fn diff_pending(&self, pending: &mut BTreeMap<(FileId, u32), Vec<u8>>) -> Vec<RowChange> {
        let mut changes = Vec::new();
        for ((file, page), before_img) in std::mem::take(pending) {
            diff_page(
                file,
                page,
                &before_img,
                self.shadow.page(file, page),
                &mut changes,
            );
        }
        debug_assert!(
            changes
                .windows(2)
                .all(|w| (w[0].file, w[0].page, w[0].slot) < (w[1].file, w[1].page, w[1].slot)),
            "row changes out of (file, page, slot) order"
        );
        changes
    }
}

/// Appends the row changes between two images of one slotted page,
/// in slot order, by walking both slot directories together: a slot
/// live on both sides with different bytes is an update, live only
/// before a delete, live only after an insert. The shorter directory
/// reads as dead slots beyond its end, and an unformatted image (a
/// fresh page, or a freed one that reads back as zeros) as an empty
/// directory, so freeing a page deletes every row it held.
fn diff_page(
    file: FileId,
    page: u32,
    before_img: &[u8],
    after_img: &[u8],
    out: &mut Vec<RowChange>,
) {
    let (mut before, mut after) = (slots(before_img), slots(after_img));
    // a u16 slot id never wraps: a 64 KiB page holds < 16 384 entries
    for slot in 0u16.. {
        let (b, a) = match (before.next(), after.next()) {
            (None, None) => return,
            (b, a) => (b.flatten(), a.flatten()),
        };
        let b = b.map(|(off, len)| &before_img[off..off + len]);
        let a = a.map(|(off, len)| &after_img[off..off + len]);
        let op = match (b, a) {
            (Some(b), Some(a)) if a != b => RowOp::Update {
                before: b.to_vec(),
                after: a.to_vec(),
            },
            (Some(b), None) => RowOp::Delete { before: b.to_vec() },
            (None, Some(a)) => RowOp::Insert { after: a.to_vec() },
            _ => continue,
        };
        out.push(RowChange {
            file,
            page,
            slot,
            op,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::page::SlottedPage;

    /// The live-slot-map diff [`diff_page`] replaced, kept as the
    /// reference its walk is compared against: a map of every live
    /// slot on each side, deletes and updates in before order, then
    /// inserts, then a sort. It parses the directory itself, so a
    /// fault in [`slots`] cannot hide in both paths.
    fn diff_page_by_maps(
        file: FileId,
        page: u32,
        before_img: &[u8],
        after_img: &[u8],
    ) -> Vec<RowChange> {
        fn live_slots(data: &[u8]) -> BTreeMap<u16, (usize, usize)> {
            if data.len() < 6 || !SlottedPage::is_formatted(data) {
                return BTreeMap::new();
            }
            let n = u16::from_le_bytes([data[0], data[1]]) as usize;
            (0..n)
                .filter_map(|i| {
                    let e = &data[6 + 4 * i..];
                    let off = u16::from_le_bytes([e[0], e[1]]);
                    let len = u16::from_le_bytes([e[2], e[3]]);
                    (off != u16::MAX).then_some((i as u16, (off as usize, len as usize)))
                })
                .collect()
        }
        let before = live_slots(before_img);
        let after = live_slots(after_img);
        let mut changes = Vec::new();
        for (&slot, &(boff, blen)) in &before {
            let b = &before_img[boff..boff + blen];
            let op = match after.get(&slot) {
                Some(&(aoff, alen)) => {
                    let a = &after_img[aoff..aoff + alen];
                    if a == b {
                        continue;
                    }
                    RowOp::Update {
                        before: b.to_vec(),
                        after: a.to_vec(),
                    }
                }
                None => RowOp::Delete { before: b.to_vec() },
            };
            changes.push(RowChange {
                file,
                page,
                slot,
                op,
            });
        }
        for (&slot, &(aoff, alen)) in &after {
            if !before.contains_key(&slot) {
                changes.push(RowChange {
                    file,
                    page,
                    slot,
                    op: RowOp::Insert {
                        after: after_img[aoff..aoff + alen].to_vec(),
                    },
                });
            }
        }
        changes.sort_by_key(|c| (c.file, c.page, c.slot));
        changes
    }

    /// `steps` seeded inserts (1–40 B), same-length updates (possibly
    /// to the same bytes), deletes and compactions on a formatted page.
    fn churn(buf: &mut [u8], steps: u64, pick: &mut impl FnMut(u64) -> u64) {
        let mut p = SlottedPage::attach(buf);
        for _ in 0..steps {
            let slot = pick(23) as u16;
            match pick(9) {
                0..=3 => {
                    let len = 1 + pick(39) as usize;
                    let _ = p.insert(&vec![pick(3) as u8; len]);
                }
                4..=6 => {
                    if let Some(len) = p.get(slot).map(<[u8]>::len) {
                        assert!(p.update(slot, &vec![pick(3) as u8; len]));
                    }
                }
                7 | 8 => {
                    let _ = p.delete(slot);
                }
                _ => p.compact(),
            }
        }
    }

    /// The directory walk emits exactly the reference map diff's
    /// changes, in the same order, over seeded before/after pairs of
    /// one churned page: slot reuse, directory growth (and, with the
    /// pair swapped, a before directory longer than the after one),
    /// compaction, identical rewrites, and an unformatted image on
    /// either side (a fresh page, or a freed page that reads back as
    /// zeros).
    #[test]
    fn directory_walk_matches_live_slot_map_diff() {
        use tpcc_rand::Xoshiro256;
        const CASES: usize = 6_000;
        let mut rng = Xoshiro256::seed_from_u64(0x0CDC_D1FF);
        let mut pick = |hi: u64| rng.uniform_inclusive(0, hi);
        let (mut events, mut ragged) = (0, 0);
        for case in 0..CASES {
            let (file, page) = (FileId(pick(3) as u32), pick(1000) as u32);
            let mut before = vec![0u8; 512];
            let fresh = case % 8 == 0;
            if !fresh {
                SlottedPage::init(&mut before);
                let steps = pick(120);
                churn(&mut before, steps, &mut pick);
            }
            let mut after = before.clone();
            match case % 8 {
                // a fresh page formatted and filled
                0 => {
                    SlottedPage::init(&mut after);
                    let steps = pick(40);
                    churn(&mut after, steps, &mut pick);
                }
                // a freed page: all zeros
                1 => after.fill(0),
                _ => {
                    let steps = 1 + pick(12);
                    churn(&mut after, steps, &mut pick);
                }
            }
            if case % 8 == 3 {
                std::mem::swap(&mut before, &mut after);
            }
            let mut got = Vec::new();
            diff_page(file, page, &before, &after, &mut got);
            assert_eq!(
                got,
                diff_page_by_maps(file, page, &before, &after),
                "case {case}"
            );
            events += got.len();
            let (nb, na) = (slots(&before).count(), slots(&after).count());
            let longer = if nb > na { &before } else { &after };
            ragged += usize::from(slots(longer).skip(nb.min(na)).any(|e| e.is_some()));
        }
        assert!(events > CASES, "the generator produced {events} events");
        assert!(
            ragged > CASES / 8,
            "only {ragged} pairs had a live slot past the shorter directory"
        );
    }

    /// A tiny WAL-producing fixture: one file, one page, logical
    /// inserts/updates/deletes logged as whole-page deltas.
    struct Fixture {
        disk: DiskManager,
        wal: Wal,
        file: FileId,
        txn: u64,
    }

    impl Fixture {
        fn new() -> Self {
            let mut disk = DiskManager::new(256);
            let mut wal = Wal::new();
            let file = disk.create_file();
            wal.append(WalEntry::CreateFile { file });
            let page = disk.allocate_page(file);
            wal.append(WalEntry::AllocPage { file, page });
            let mut buf = vec![0u8; 256];
            SlottedPage::init(&mut buf);
            Self::log_page(&mut disk, &mut wal, file, page, &buf);
            let mut fx = Self {
                disk,
                wal,
                file,
                txn: 0,
            };
            fx.commit();
            fx
        }

        fn log_page(disk: &mut DiskManager, wal: &mut Wal, file: FileId, page: u32, after: &[u8]) {
            let mut before = vec![0u8; after.len()];
            disk.read_page(file, page, &mut before);
            for (offset, data) in crate::wal::page_deltas(&before, after) {
                wal.append(WalEntry::PageDelta {
                    file,
                    page,
                    offset,
                    data,
                });
            }
            disk.write_page(file, page, after);
        }

        fn mutate(&mut self, f: impl FnOnce(&mut SlottedPage<'_>)) {
            let mut buf = vec![0u8; 256];
            self.disk.read_page(self.file, 0, &mut buf);
            {
                let mut page = SlottedPage::attach(&mut buf);
                f(&mut page);
            }
            Self::log_page(&mut self.disk, &mut self.wal, self.file, 0, &buf);
        }

        fn commit(&mut self) {
            self.txn += 1;
            self.wal.append(WalEntry::Commit { txn: self.txn });
        }

        fn subscriber(&self) -> CdcSubscriber {
            // base = empty disk with the same page size (cursor 0
            // replays file creation itself)
            let mut s = CdcSubscriber::new(DiskManager::new(256));
            s.watch(self.file);
            s
        }
    }

    #[test]
    fn insert_update_delete_decode_as_typed_row_changes() {
        let mut fx = Fixture::new();
        fx.mutate(|p| {
            p.insert(b"alpha").unwrap();
        });
        fx.commit();
        fx.mutate(|p| {
            p.update(0, b"beta!");
        });
        fx.commit();
        fx.mutate(|p| {
            p.delete(0);
        });
        fx.commit();

        let mut sub = fx.subscriber();
        let batches = sub.poll(&fx.wal).unwrap();
        assert_eq!(batches.len(), 4, "init + three mutations");
        assert!(batches[0].changes.is_empty(), "formatting is not a row");
        assert_eq!(
            batches[1].changes,
            vec![RowChange {
                file: fx.file,
                page: 0,
                slot: 0,
                op: RowOp::Insert {
                    after: b"alpha".to_vec()
                },
            }]
        );
        assert_eq!(
            batches[2].changes[0].op,
            RowOp::Update {
                before: b"alpha".to_vec(),
                after: b"beta!".to_vec()
            }
        );
        assert_eq!(
            batches[3].changes[0].op,
            RowOp::Delete {
                before: b"beta!".to_vec()
            },
            "delete carries the pre-delete image"
        );
        assert_eq!(sub.cursor(), fx.wal.len());
        assert_eq!(sub.stats().events, 3);
    }

    #[test]
    fn delete_carries_last_committed_image() {
        let mut fx = Fixture::new();
        fx.mutate(|p| {
            p.insert(b"gamma").unwrap();
        });
        fx.commit();
        fx.mutate(|p| {
            p.delete(0);
        });
        fx.commit();
        let mut sub = fx.subscriber();
        let batches = sub.poll(&fx.wal).unwrap();
        let last = batches.last().unwrap();
        assert_eq!(
            last.changes[0].op,
            RowOp::Delete {
                before: b"gamma".to_vec()
            }
        );
    }

    #[test]
    fn uncommitted_tail_is_invisible_until_its_marker() {
        let mut fx = Fixture::new();
        fx.mutate(|p| {
            p.insert(b"tail!").unwrap();
        });
        // no commit yet
        let mut sub = fx.subscriber();
        let batches = sub.poll(&fx.wal).unwrap();
        assert_eq!(batches.len(), 1, "only the init commit");
        let cursor_before = sub.cursor();
        fx.commit();
        let batches = sub.poll(&fx.wal).unwrap();
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].changes[0].op.name(), "insert");
        assert!(sub.cursor() > cursor_before);
    }

    #[test]
    fn compensated_mutations_net_to_zero_events() {
        // forward insert + compensating delete inside one boundary —
        // the shape an MVCC rollback leaves in the log
        let mut fx = Fixture::new();
        fx.mutate(|p| {
            p.insert(b"undo!").unwrap();
        });
        fx.mutate(|p| {
            p.delete(0);
        });
        fx.wal.append(WalEntry::Decide {
            txn: 99,
            commit: false,
        });
        let mut sub = fx.subscriber();
        let batches = sub.poll(&fx.wal).unwrap();
        let abort = batches.last().unwrap();
        assert!(!abort.committed);
        assert!(
            abort.changes.is_empty(),
            "compensated batch must emit nothing: {:?}",
            abort.changes
        );
    }

    #[test]
    fn prepare_gates_emission_until_decide() {
        let mut fx = Fixture::new();
        fx.mutate(|p| {
            p.insert(b"two-pc").unwrap();
        });
        fx.wal.append(WalEntry::Prepare { txn: 7 });
        let mut sub = fx.subscriber();
        let batches = sub.poll(&fx.wal).unwrap();
        assert_eq!(batches.len(), 1, "prepare is not a boundary");
        assert!(batches[0].changes.is_empty());

        fx.wal.append(WalEntry::Decide {
            txn: 7,
            commit: true,
        });
        let batches = sub.poll(&fx.wal).unwrap();
        assert_eq!(batches.len(), 1, "decide releases the prepared batch");
        assert!(batches[0].committed);
        assert_eq!(batches[0].changes[0].op.name(), "insert");
    }

    #[test]
    fn lag_bound_returns_typed_error_and_resumes_without_loss() {
        let mut fx = Fixture::new();
        let mut sub = fx.subscriber();
        sub.set_max_lag(Some(4));
        let _ = sub.poll(&fx.wal).unwrap();
        for i in 0..6u8 {
            fx.mutate(|p| {
                p.insert(&[b'x', i]).unwrap();
            });
            fx.commit();
        }
        let err = sub.poll(&fx.wal).expect_err("lag bound exceeded");
        assert_eq!(err.max_lag, 4);
        assert!(err.committed_len - err.cursor > 4);
        assert_eq!(
            sub.cursor(),
            err.cursor,
            "the cursor must not move on a lag error"
        );
        // catch-up drains everything a never-lagging subscriber saw
        let drained = sub.poll_unbounded(&fx.wal);
        let mut fresh = fx.subscriber();
        let all = fresh.poll(&fx.wal).unwrap();
        let tail: Vec<_> = all
            .iter()
            .filter(|b| b.upto > err.cursor)
            .cloned()
            .collect();
        assert_eq!(drained, tail, "no events silently missed");
    }

    #[test]
    fn checkpoint_resume_continues_the_stream_exactly() {
        let mut fx = Fixture::new();
        fx.mutate(|p| {
            p.insert(b"one..").unwrap();
        });
        fx.commit();
        let mut sub = fx.subscriber();
        let first = sub.poll(&fx.wal).unwrap();
        let ckpt = sub.checkpoint().expect("no fault hook");
        fx.mutate(|p| {
            p.update(0, b"two..");
        });
        fx.commit();
        let live_rest = sub.poll(&fx.wal).unwrap();

        let mut resumed = CdcSubscriber::resume(ckpt);
        resumed.watch(fx.file);
        let resumed_rest = resumed.poll(&fx.wal).unwrap();
        assert_eq!(resumed_rest, live_rest, "resume = exact continuation");
        assert!(!first.is_empty());
    }

    #[test]
    fn checkpoint_fires_fault_site_and_crash_loses_it() {
        let fx = Fixture::new();
        let mut sub = fx.subscriber();
        let hook = Arc::new(FaultHook::new(FaultPlan::crash_at(1, 1)));
        sub.set_fault_hook(Arc::clone(&hook));
        assert!(sub.checkpoint().is_some(), "site 0: no crash yet");
        assert!(
            sub.checkpoint().is_none(),
            "site 1 trips the crash: the checkpoint is lost"
        );
        assert_eq!(hook.stats().fired[FaultSite::CdcCheckpoint.idx()], 2);
        assert_eq!(sub.stats().checkpoints, 1);
    }
}
