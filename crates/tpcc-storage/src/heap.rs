//! Heap files: unordered record storage over slotted pages.
//!
//! Inserts fill the most recent page and, via a free-space map, pages
//! that deletes have opened up — so a steady-state insert/delete
//! workload (TPC-C's New-Order relation) keeps a bounded file instead
//! of leaking one page per churn cycle. A delete that drains a page's
//! last live record hands the whole page back to the buffer manager's
//! free list (instead of parking it in the free-space map forever), so
//! the file's live footprint shrinks too. Reads, updates and deletes
//! address records by [`RecordId`].
//!
//! The free-space map is an in-memory side structure (a real engine
//! would persist an FSM fork alongside the file); it is conservative —
//! a page listed there may turn out full, in which case the insert
//! falls through to allocation.
//!
//! # Concurrency
//!
//! All operations take `&self`. Record-level integrity comes from the
//! buffer manager's per-page latches (each operation holds exactly one
//! page latch, so heap accesses can never form a latch cycle). The side
//! structures are latched independently: the free-space map behind a
//! mutex held only around map reads/updates (taken *after* a page
//! latch on the delete path, which is safe because no free-map holder
//! ever blocks on a page latch), an **atomic append cursor** tracking the newest page so
//! concurrent inserts race to distinct pages instead of queueing on a
//! table lock, and a grow mutex so only one thread extends the file at
//! a time while late arrivals retry the page it just added.

use crate::bufmgr::BufferManager;
use crate::disk::FileId;
use crate::page::SlottedPage;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

/// Physical record address: page number and slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId {
    /// Page within the heap file.
    pub page: u32,
    /// Slot within the page.
    pub slot: u16,
}

impl RecordId {
    /// Packs into a `u64` (for storage as a B+Tree value).
    #[must_use]
    pub fn to_u64(self) -> u64 {
        (u64::from(self.page) << 16) | u64::from(self.slot)
    }

    /// Unpacks from [`RecordId::to_u64`].
    #[must_use]
    pub fn from_u64(v: u64) -> Self {
        Self {
            page: (v >> 16) as u32,
            slot: (v & 0xFFFF) as u16,
        }
    }
}

/// How many free-map candidates one insert probes before giving up and
/// appending (bounds the worst-case insert cost).
const FSM_PROBES: usize = 4;

/// A heap file with a free-space map.
#[derive(Debug)]
pub struct HeapFile {
    file: FileId,
    /// Pages believed to have room (conservative).
    free: Mutex<BTreeSet<u32>>,
    /// The newest page — the append target. Kept out of the disk mutex
    /// so the hot insert path reads one atomic instead of locking the
    /// disk for a page count.
    last_page: AtomicU32,
    /// Serializes file growth; a thread that lost the race re-probes
    /// the winner's fresh page before allocating another.
    grow: Mutex<()>,
}

impl HeapFile {
    /// Creates a new heap file with one empty page.
    pub fn create(bm: &BufferManager) -> Self {
        let file = bm.create_file();
        let (page, ()) = bm.allocate_page(file, |data| {
            SlottedPage::init(data);
        });
        Self {
            file,
            free: Mutex::new(BTreeSet::new()),
            last_page: AtomicU32::new(page),
            grow: Mutex::new(()),
        }
    }

    /// The underlying file id (for buffer statistics).
    #[must_use]
    pub fn file(&self) -> FileId {
        self.file
    }

    /// Inserts a record, preferring pages the free-space map knows have
    /// room, then the newest page, then a fresh allocation.
    pub fn insert(&self, bm: &BufferManager, record: &[u8]) -> RecordId {
        // 1. free-map candidates (deletes happened there)
        let candidates: Vec<u32> = {
            let free = self.free.lock().expect("free map");
            free.iter().take(FSM_PROBES).copied().collect()
        };
        for page in candidates {
            if let Some(slot) = self.try_insert(bm, page, record) {
                return RecordId { page, slot };
            }
            // candidate turned out too full for this record
            self.free.lock().expect("free map").remove(&page);
        }
        // 2. the append page
        let last = self.last_page.load(Ordering::Acquire);
        if let Some(slot) = self.try_insert(bm, last, record) {
            return RecordId { page: last, slot };
        }
        // 3. grow the file — one thread at a time; losers of the race
        // retry the page the winner just added before growing again
        let _grow = self.grow.lock().expect("grow latch");
        let current = self.last_page.load(Ordering::Acquire);
        if current != last {
            if let Some(slot) = self.try_insert(bm, current, record) {
                return RecordId {
                    page: current,
                    slot,
                };
            }
        }
        let (page, slot) = bm.allocate_page(self.file, |data| {
            SlottedPage::init(data)
                .insert(record)
                .expect("record fits an empty page")
        });
        self.last_page.store(page, Ordering::Release);
        RecordId { page, slot }
    }

    fn try_insert(&self, bm: &BufferManager, page: u32, record: &[u8]) -> Option<u16> {
        bm.with_page_mut(self.file, page, |data| {
            // a stale free-map candidate may have been deallocated (and
            // zeroed) out from under us — never insert into one
            if !SlottedPage::is_formatted(data) {
                return None;
            }
            SlottedPage::attach(data).insert(record)
        })
    }

    /// Reads a record into an owned buffer; `None` for a dead record.
    pub fn get(&self, bm: &BufferManager, rid: RecordId) -> Option<Vec<u8>> {
        bm.with_page(self.file, rid.page, |data| {
            read_slot(data, rid.slot).map(<[u8]>::to_vec)
        })
    }

    /// Reads a record and passes it to `f` without copying the page.
    pub fn read_with<R>(
        &self,
        bm: &BufferManager,
        rid: RecordId,
        f: impl FnOnce(Option<&[u8]>) -> R,
    ) -> R {
        bm.with_page(self.file, rid.page, |data| f(read_slot(data, rid.slot)))
    }

    /// Reads the records at `rids` in order, passing each rid and its
    /// bytes (`None` for a dead record) to `f`. Consecutive rids on one
    /// page share a single shared fix.
    pub fn read_each(
        &self,
        bm: &BufferManager,
        rids: &[RecordId],
        mut f: impl FnMut(RecordId, Option<&[u8]>),
    ) {
        for run in rids.chunk_by(|a, b| a.page == b.page) {
            let data = bm.fix_shared(self.file, run[0].page);
            for &rid in run {
                f(rid, read_slot(&data, rid.slot));
            }
        }
    }

    /// Modifies the record at `rid` in place: `f` gets its bytes
    /// (`None` for a dead record) and must keep their length.
    pub fn modify_with<R>(
        &self,
        bm: &BufferManager,
        rid: RecordId,
        f: impl FnOnce(Option<&mut [u8]>) -> R,
    ) -> R {
        bm.with_page_mut(self.file, rid.page, |data| {
            f(slot_range(data, rid.slot).map(|r| &mut data[r]))
        })
    }

    /// [`HeapFile::modify_with`] over `rids`, in order: consecutive rids
    /// on one page share a single exclusive fix, and each record's
    /// change is logged as its own deltas, exactly as one fix per
    /// record would log it.
    pub fn modify_each(
        &self,
        bm: &BufferManager,
        rids: &[RecordId],
        mut f: impl FnMut(RecordId, Option<&mut [u8]>),
    ) {
        for run in rids.chunk_by(|a, b| a.page == b.page) {
            let mut guard = bm.fix_exclusive(self.file, run[0].page);
            for &rid in run {
                let range = slot_range(&guard, rid.slot);
                f(rid, range.map(|r| &mut guard[r]));
                guard.log_delta();
            }
        }
    }

    /// Updates a record in place (same length); `false` if dead.
    pub fn update(&self, bm: &BufferManager, rid: RecordId, record: &[u8]) -> bool {
        bm.with_page_mut(self.file, rid.page, |data| {
            SlottedPage::attach(data).update(rid.slot, record)
        })
    }

    /// Deletes a record; `false` if already dead.
    ///
    /// A page still holding live records is remembered in the
    /// free-space map for reuse; a page drained of its *last* live
    /// record is deallocated outright through
    /// [`BufferManager::free_fixed`] (unless it is the current append
    /// target), so drained pages return to the file's free list
    /// instead of idling half-claimed in the map forever.
    pub fn delete(&self, bm: &BufferManager, rid: RecordId) -> bool {
        let mut guard = bm.fix_exclusive(self.file, rid.page);
        let (deleted, emptied) = {
            let mut page = SlottedPage::attach(&mut guard);
            let deleted = page.delete(rid.slot);
            (deleted, deleted && page.live_records() == 0)
        };
        if !deleted {
            return false;
        }
        if emptied && rid.page != self.last_page.load(Ordering::Acquire) {
            // unlist before the page vanishes so a concurrent insert
            // cannot re-probe it (and the formatted-page check catches
            // any candidate captured before this line)
            self.free.lock().expect("free map").remove(&rid.page);
            bm.free_fixed(guard);
        } else {
            drop(guard);
            self.free.lock().expect("free map").insert(rid.page);
        }
        true
    }

    /// Number of pages in the file's extent (high-water mark).
    #[must_use]
    pub fn pages(&self, bm: &BufferManager) -> u32 {
        bm.file_pages(self.file)
    }

    /// Live pages of the file (extent minus pages freed by drain
    /// deletes) — the footprint the soak tests assert on.
    #[must_use]
    pub fn allocated_pages(&self, bm: &BufferManager) -> u32 {
        bm.allocated_pages(self.file)
    }

    /// Pages currently tracked as having free space.
    #[must_use]
    pub fn free_map_len(&self) -> usize {
        self.free.lock().expect("free map").len()
    }
}

/// Reads one slot from an immutable page image.
fn read_slot(data: &[u8], slot: u16) -> Option<&[u8]> {
    slot_range(data, slot).map(|r| &data[r])
}

/// The byte range of a live slot's record; `None` when the slot is
/// dead or past the directory.
fn slot_range(data: &[u8], slot: u16) -> Option<std::ops::Range<usize>> {
    let n = u16::from_le_bytes([data[0], data[1]]) as usize;
    let i = slot as usize;
    if i >= n {
        return None;
    }
    let base = 6 + i * 4;
    let off = u16::from_le_bytes([data[base], data[base + 1]]);
    let len = u16::from_le_bytes([data[base + 2], data[base + 3]]);
    if off == u16::MAX {
        return None;
    }
    Some(off as usize..off as usize + len as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bufmgr::Replacement;
    use crate::disk::DiskManager;

    fn setup() -> (BufferManager, HeapFile) {
        let disk = DiskManager::new(256);
        let bm = BufferManager::new(disk, 8, Replacement::Lru);
        let heap = HeapFile::create(&bm);
        (bm, heap)
    }

    #[test]
    fn record_id_round_trips() {
        let rid = RecordId {
            page: 123_456,
            slot: 789,
        };
        assert_eq!(RecordId::from_u64(rid.to_u64()), rid);
    }

    #[test]
    fn insert_spills_to_new_pages() {
        let (bm, heap) = setup();
        let rids: Vec<RecordId> = (0..40u8).map(|i| heap.insert(&bm, &[i; 30])).collect();
        assert!(heap.pages(&bm) > 1, "records spill past one 256B page");
        for (i, rid) in rids.iter().enumerate() {
            let rec = heap.get(&bm, *rid).expect("live");
            assert_eq!(rec, vec![i as u8; 30]);
        }
    }

    #[test]
    fn update_and_delete() {
        let (bm, heap) = setup();
        let rid = heap.insert(&bm, &[1u8; 16]);
        assert!(heap.update(&bm, rid, &[2u8; 16]));
        assert_eq!(heap.get(&bm, rid).expect("live"), vec![2u8; 16]);
        assert!(heap.delete(&bm, rid));
        assert!(heap.get(&bm, rid).is_none());
        assert!(!heap.update(&bm, rid, &[3u8; 16]));
    }

    #[test]
    fn read_with_avoids_copy_semantics() {
        let (bm, heap) = setup();
        let rid = heap.insert(&bm, b"zero-copy read");
        let len = heap.read_with(&bm, rid, |r| r.map(<[u8]>::len));
        assert_eq!(len, Some(14));
        let dead = RecordId { page: 0, slot: 99 };
        assert!(heap.read_with(&bm, dead, |r| r.is_none()));
    }

    #[test]
    fn records_survive_buffer_pressure() {
        let disk = DiskManager::new(256);
        let bm = BufferManager::new(disk, 2, Replacement::Lru);
        let heap = HeapFile::create(&bm);
        let rids: Vec<RecordId> = (0..60u8).map(|i| heap.insert(&bm, &[i; 30])).collect();
        for (i, rid) in rids.iter().enumerate() {
            assert_eq!(
                heap.get(&bm, *rid).expect("live"),
                vec![i as u8; 30],
                "record {i} lost under eviction"
            );
        }
    }

    #[test]
    fn deleted_space_is_reused() {
        let (bm, heap) = setup();
        // fill a few pages
        let rids: Vec<RecordId> = (0..30u8).map(|i| heap.insert(&bm, &[i; 30])).collect();
        let pages_before = heap.pages(&bm);
        // delete everything, then insert the same volume again
        for rid in rids {
            assert!(heap.delete(&bm, rid));
        }
        assert!(heap.free_map_len() > 0);
        for i in 0..30u8 {
            heap.insert(&bm, &[i; 30]);
        }
        assert_eq!(
            heap.pages(&bm),
            pages_before,
            "reinserting into freed space must not grow the file"
        );
    }

    #[test]
    fn fifo_churn_keeps_file_bounded() {
        // the New-Order pattern: insert at the tail, delete the oldest
        let (bm, heap) = setup();
        let mut queue = std::collections::VecDeque::new();
        for i in 0..2000u32 {
            queue.push_back(heap.insert(&bm, &(i.to_le_bytes().repeat(5))));
            if queue.len() > 20 {
                let old = queue.pop_front().expect("nonempty");
                assert!(heap.delete(&bm, old));
            }
        }
        // 20 live × 20 bytes fits in a handful of 256-byte pages; without
        // the free-space map this would be ~200 pages
        assert!(
            heap.pages(&bm) < 20,
            "file leaked to {} pages under churn",
            heap.pages(&bm)
        );
        // all queued records still readable
        for rid in queue {
            assert!(heap.get(&bm, rid).is_some());
        }
    }

    #[test]
    fn drained_pages_are_deallocated_and_reused() {
        let (bm, heap) = setup();
        let rids: Vec<RecordId> = (0..30u8).map(|i| heap.insert(&bm, &[i; 30])).collect();
        let extent = heap.pages(&bm);
        assert!(extent > 2);
        for rid in rids {
            assert!(heap.delete(&bm, rid));
        }
        // every page except the append target was drained and freed
        assert!(
            heap.allocated_pages(&bm) <= 2,
            "drained pages still allocated: {}",
            heap.allocated_pages(&bm)
        );
        assert!(bm.pages_freed() > 0);
        // reinsertion reuses the freed pages without growing the extent
        for i in 0..30u8 {
            let rid = heap.insert(&bm, &[i; 30]);
            assert_eq!(heap.get(&bm, rid).expect("live"), vec![i; 30]);
        }
        assert_eq!(heap.pages(&bm), extent, "extent unchanged by the cycle");
    }

    #[test]
    fn fifo_churn_keeps_live_footprint_flat() {
        // the Delivery pattern with footprint accounting: live pages
        // must plateau, not just the extent
        let (bm, heap) = setup();
        let mut queue = std::collections::VecDeque::new();
        let mut plateau = Vec::new();
        for i in 0..3000u32 {
            queue.push_back(heap.insert(&bm, &(i.to_le_bytes().repeat(5))));
            if queue.len() > 20 {
                let old = queue.pop_front().expect("nonempty");
                assert!(heap.delete(&bm, old));
            }
            if i >= 1000 && i % 200 == 0 {
                plateau.push(heap.allocated_pages(&bm));
            }
        }
        let (lo, hi) = (
            *plateau.iter().min().expect("samples"),
            *plateau.iter().max().expect("samples"),
        );
        assert!(hi - lo <= 1, "live pages must be flat: {plateau:?}");
        for rid in queue {
            assert!(heap.get(&bm, rid).is_some());
        }
    }

    #[test]
    fn full_free_candidates_are_pruned() {
        let (bm, heap) = setup();
        let rid = heap.insert(&bm, &[1u8; 8]);
        heap.delete(&bm, rid);
        assert_eq!(heap.free_map_len(), 1);
        // an oversized record cannot reuse the freed slot's page if the
        // page lacks room; map self-heals by pruning the candidate
        for i in 0..40u8 {
            heap.insert(&bm, &[i; 60]);
        }
        // no stale full pages accumulate beyond the probe window
        assert!(heap.free_map_len() <= FSM_PROBES + 1);
    }

    #[test]
    fn concurrent_inserts_land_without_loss() {
        let disk = DiskManager::new(256);
        let bm = BufferManager::new_sharded(disk, 64, 8);
        let heap = HeapFile::create(&bm);
        let rids: Vec<Vec<RecordId>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4u8)
                .map(|t| {
                    let (heap, bm) = (&heap, &bm);
                    scope.spawn(move || {
                        (0..200u8)
                            .map(|i| heap.insert(bm, &[t.wrapping_mul(200).wrapping_add(i); 24]))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // every record readable, all rids distinct
        let mut all: Vec<RecordId> = rids.iter().flatten().copied().collect();
        all.sort_unstable();
        let before = all.len();
        all.dedup();
        assert_eq!(all.len(), before, "two inserts returned the same rid");
        for (t, per_thread) in rids.iter().enumerate() {
            for (i, rid) in per_thread.iter().enumerate() {
                let expect = (t as u8).wrapping_mul(200).wrapping_add(i as u8);
                assert_eq!(heap.get(&bm, *rid).expect("live"), vec![expect; 24]);
            }
        }
    }

    #[test]
    fn page_runs_match_per_record_access_and_fix_each_run_once() {
        use tpcc_rand::Xoshiro256;
        // twin logged heaps: one takes rid lists through `read_each` /
        // `modify_each`, the other one `get` / `update` per rid
        let twin = || {
            let mut bm = BufferManager::new(DiskManager::new(256), 64, Replacement::Lru);
            bm.enable_wal();
            let heap = HeapFile::create(&bm);
            let rids: Vec<RecordId> = (0..120u8).map(|i| heap.insert(&bm, &[i; 30])).collect();
            for rid in rids.iter().step_by(7) {
                heap.delete(&bm, *rid);
            }
            (bm, heap, rids)
        };
        let (bm_a, a, rids) = twin();
        let (bm_b, b, _) = twin();
        assert!(a.pages(&bm_a) > 10);
        let mut rng = Xoshiro256::seed_from_u64(3);
        let mut runs_seen = 0;
        for round in 0..200 {
            // runs of neighbouring rids crossing page boundaries, dead
            // slots and repeats included, in no global order
            let mut list = Vec::new();
            while list.len() < 24 {
                let at = rng.uniform_inclusive(0, rids.len() as u64 - 1) as usize;
                let len = rng.uniform_inclusive(1, 12) as usize;
                list.extend(rids[at..rids.len().min(at + len)].iter().copied());
            }
            let runs = list.chunk_by(|x, y| x.page == y.page).count();
            runs_seen += runs;

            bm_a.reset_stats();
            let mut read = Vec::new();
            a.read_each(&bm_a, &list, |rid, row| {
                read.push((rid, row.map(<[u8]>::to_vec)))
            });
            let want: Vec<_> = list.iter().map(|&rid| (rid, b.get(&bm_b, rid))).collect();
            assert_eq!(read, want, "round {round}: read_each");
            let fixes = bm_a.stats(a.file());
            assert_eq!(
                fixes.hits + fixes.misses,
                runs as u64,
                "one fix per page run"
            );

            let salt = round as u8;
            a.modify_each(&bm_a, &list, |rid, row| {
                if let Some(row) = row {
                    row[usize::from(rid.slot) % 30] ^= salt | 1;
                    row[29] = salt;
                }
            });
            for &rid in &list {
                if let Some(mut row) = b.get(&bm_b, rid) {
                    row[usize::from(rid.slot) % 30] ^= salt | 1;
                    row[29] = salt;
                    assert!(b.update(&bm_b, rid, &row));
                }
            }
        }
        assert!(runs_seen > 1_000, "{runs_seen} page runs");
        let wal = |bm: &BufferManager| bm.with_wal(|w| w.entries().to_vec()).expect("on");
        assert!(
            wal(&bm_a) == wal(&bm_b),
            "modify_each logs what update logs"
        );
        bm_a.flush_all();
        bm_b.flush_all();
        assert!(bm_a.with_disk(|da| bm_b.with_disk(|db| da.contents_equal(db))));
        let one = rids[3];
        let len = a.modify_with(&bm_a, one, |row| row.map(|r| r.len()));
        assert_eq!(len, Some(30));
        assert!(a.modify_with(&bm_a, rids[0], |row| row.is_none()), "dead");
    }
}
