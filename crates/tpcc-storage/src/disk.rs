//! The simulated disk: page files held in memory, standing in for the
//! 25 ms-per-I/O device of the paper's throughput model.
//!
//! Page images are copy-on-write. Each page is an `Arc<[u8]>`, so a
//! [`DiskManager::snapshot`] (a checkpoint, a CDC shadow) shares every
//! page with the disk it was taken from, and the first write on either
//! side gives the writer its own copy. A fresh or freed page shares the
//! disk's one zeroed image until it is written.

use std::collections::BTreeSet;
use std::sync::Arc;

use crate::fault::{FaultHook, FaultSite};

/// Identifies one page file (one relation or index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u32);

/// An in-memory collection of page files.
///
/// Each file keeps a free set of deallocated page numbers; allocation
/// reuses the lowest free page before growing the extent, so the file
/// footprint (`allocated_pages`) can shrink back to steady state under
/// delete-heavy workloads even though the extent (`pages`) never does.
#[derive(Debug)]
pub struct DiskManager {
    page_size: usize,
    files: Vec<Vec<Arc<[u8]>>>,
    free: Vec<BTreeSet<u32>>,
    /// The zeroed image every fresh or freed page shares until its
    /// first write. This handle keeps its count above one, so no write
    /// ever lands on it in place.
    zero: Arc<[u8]>,
    pages_freed: u64,
    pages_reused: u64,
    /// Fault hook for the *live* disk only — [`DiskManager::snapshot`]
    /// drops it, so replaying a log over a checkpoint image never fires
    /// fault sites.
    fault: Option<Arc<FaultHook>>,
}

impl DiskManager {
    /// Creates a disk with the given page size.
    ///
    /// # Panics
    /// Panics if `page_size < 64`.
    #[must_use]
    pub fn new(page_size: usize) -> Self {
        assert!(page_size >= 64, "page size too small");
        Self {
            page_size,
            files: Vec::new(),
            free: Vec::new(),
            zero: vec![0u8; page_size].into(),
            pages_freed: 0,
            pages_reused: 0,
            fault: None,
        }
    }

    /// Attaches a fault hook: every [`DiskManager::free_page`] becomes
    /// a [`FaultSite::PageFree`] fault site.
    pub fn set_fault_hook(&mut self, hook: Arc<FaultHook>) {
        self.fault = Some(hook);
    }

    /// Page size in bytes.
    #[must_use]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Creates an empty file.
    pub fn create_file(&mut self) -> FileId {
        self.files.push(Vec::new());
        self.free.push(BTreeSet::new());
        FileId((self.files.len() - 1) as u32)
    }

    /// Number of files created.
    #[must_use]
    pub fn file_count(&self) -> u32 {
        self.files.len() as u32
    }

    /// Allocates a page in `file`: reuses the lowest-numbered free page
    /// if the file has one, otherwise appends a zeroed page. Returns the
    /// page number. The page shares the zeroed image until its first
    /// write, so allocation itself copies nothing.
    ///
    /// Reuse-lowest-first keeps allocation deterministic, which WAL
    /// replay depends on: `AllocPage` records assert the replayed
    /// allocation lands on the logged page number.
    ///
    /// # Panics
    /// Panics on an unknown file.
    pub fn allocate_page(&mut self, file: FileId) -> u32 {
        if let Some(page) = self.free[file.0 as usize].pop_first() {
            self.pages_reused += 1;
            return page;
        }
        let f = &mut self.files[file.0 as usize];
        f.push(Arc::clone(&self.zero));
        (f.len() - 1) as u32
    }

    /// Returns `page` of `file` to the free set, zeroing its contents
    /// (so recovered and clean-run disks compare byte-identical, and a
    /// stale read of a freed page cannot see ghost records).
    ///
    /// # Panics
    /// Panics on an unknown file/page or a double free.
    pub fn free_page(&mut self, file: FileId, page: u32) {
        if let Some(hook) = &self.fault {
            // the in-memory free always proceeds; on a crash the hook
            // has frozen the WAL, so the matching FreePage record is
            // what gets lost
            let _ = hook.fire(FaultSite::PageFree);
        }
        let f = &mut self.files[file.0 as usize];
        assert!((page as usize) < f.len(), "freeing unallocated page");
        f[page as usize] = Arc::clone(&self.zero);
        let inserted = self.free[file.0 as usize].insert(page);
        assert!(inserted, "double free of page {page} in file {}", file.0);
        self.pages_freed += 1;
    }

    /// True when `page` of `file` sits on the free set.
    ///
    /// # Panics
    /// Panics on an unknown file.
    #[must_use]
    pub fn is_free(&self, file: FileId, page: u32) -> bool {
        self.free[file.0 as usize].contains(&page)
    }

    /// Number of pages in `file`'s extent (high-water mark; never
    /// shrinks, includes freed pages).
    ///
    /// # Panics
    /// Panics on an unknown file.
    #[must_use]
    pub fn pages(&self, file: FileId) -> u32 {
        self.files[file.0 as usize].len() as u32
    }

    /// Number of live (allocated, not freed) pages in `file`.
    ///
    /// # Panics
    /// Panics on an unknown file.
    #[must_use]
    pub fn allocated_pages(&self, file: FileId) -> u32 {
        self.pages(file) - self.free[file.0 as usize].len() as u32
    }

    /// Live pages summed across all files.
    #[must_use]
    pub fn total_allocated_pages(&self) -> u64 {
        (0..self.files.len() as u32)
            .map(|f| u64::from(self.allocated_pages(FileId(f))))
            .sum()
    }

    /// Pages handed to `free_page` over this disk's lifetime.
    #[must_use]
    pub fn pages_freed(&self) -> u64 {
        self.pages_freed
    }

    /// Allocations served from the free set instead of extent growth.
    #[must_use]
    pub fn pages_reused(&self) -> u64 {
        self.pages_reused
    }

    /// The current image of a page, by reference (a freed page reads
    /// as zeros).
    ///
    /// # Panics
    /// Panics on an unknown file/page.
    #[must_use]
    pub fn page(&self, file: FileId, page: u32) -> &[u8] {
        &self.files[file.0 as usize][page as usize]
    }

    /// A page's image for patching in place. A page still shared with
    /// a snapshot (or the zeroed image) is copied first, so the write
    /// stays on this disk.
    ///
    /// # Panics
    /// Panics on an unknown file/page.
    pub fn page_mut(&mut self, file: FileId, page: u32) -> &mut [u8] {
        Arc::make_mut(&mut self.files[file.0 as usize][page as usize])
    }

    /// Reads a page into `buf`.
    ///
    /// # Panics
    /// Panics on unknown file/page or a wrong-sized buffer.
    pub fn read_page(&self, file: FileId, page: u32, buf: &mut [u8]) {
        assert_eq!(buf.len(), self.page_size, "buffer size mismatch");
        buf.copy_from_slice(self.page(file, page));
    }

    /// Writes a page from `buf`: in place when no snapshot shares the
    /// page, otherwise as a new image (the shared one is never copied
    /// first, since every byte is overwritten).
    ///
    /// # Panics
    /// Panics on unknown file/page or a wrong-sized buffer.
    pub fn write_page(&mut self, file: FileId, page: u32, buf: &[u8]) {
        assert_eq!(buf.len(), self.page_size, "buffer size mismatch");
        let slot = &mut self.files[file.0 as usize][page as usize];
        match Arc::get_mut(slot) {
            Some(bytes) => bytes.copy_from_slice(buf),
            None => *slot = Arc::from(buf),
        }
    }

    /// A torn write: only the first `valid` bytes of `buf` reach the
    /// page; the tail keeps its previous contents. Used by the
    /// fault-injection layer to model a write interrupted at a 64-byte
    /// boundary; the buffer manager's retry loop re-issues the full
    /// write afterwards.
    ///
    /// # Panics
    /// Panics on unknown file/page, a wrong-sized buffer, or
    /// `valid > page_size`.
    pub fn write_page_prefix(&mut self, file: FileId, page: u32, buf: &[u8], valid: usize) {
        assert_eq!(buf.len(), self.page_size, "buffer size mismatch");
        assert!(valid <= self.page_size, "torn prefix exceeds the page");
        self.page_mut(file, page)[..valid].copy_from_slice(&buf[..valid]);
    }

    /// The disk's current contents as a copy-on-write image — the
    /// checkpoint recovery replays the WAL over, or a CDC shadow. It
    /// shares every page with this disk (one reference-count increment
    /// each); a later write on either side copies only that page.
    #[must_use]
    pub fn snapshot(&self) -> DiskManager {
        DiskManager {
            page_size: self.page_size,
            files: self.files.clone(),
            free: self.free.clone(),
            zero: Arc::clone(&self.zero),
            pages_freed: 0,
            pages_reused: 0,
            // never carried into a snapshot: recovery replay over a
            // checkpoint image must not fire fault sites
            fault: None,
        }
    }

    /// True when both disks hold byte-identical files *and* identical
    /// free sets (test helper for recovery equivalence — a page that is
    /// zeroed-but-allocated on one disk and free on the other would
    /// diverge on the next allocation). A page both disks still share
    /// compares equal without reading its bytes.
    #[must_use]
    pub fn contents_equal(&self, other: &DiskManager) -> bool {
        self.page_size == other.page_size && self.files == other.files && self.free == other.free
    }

    /// True when `page` of `file` is the same allocation on both disks.
    #[cfg(test)]
    fn shares_page(&self, other: &DiskManager, file: FileId, page: u32) -> bool {
        Arc::ptr_eq(
            &self.files[file.0 as usize][page as usize],
            &other.files[file.0 as usize][page as usize],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpcc_rand::Xoshiro256;

    #[test]
    fn create_allocate_read_write() {
        let mut d = DiskManager::new(256);
        let f = d.create_file();
        let p0 = d.allocate_page(f);
        assert_eq!(p0, 0);
        assert_eq!(d.allocate_page(f), 1);
        assert_eq!(d.pages(f), 2);

        let mut buf = vec![7u8; 256];
        d.write_page(f, 0, &buf);
        buf.fill(0);
        d.read_page(f, 0, &mut buf);
        assert!(buf.iter().all(|&b| b == 7));
        assert_eq!(d.page(f, 0), &buf[..]);
    }

    #[test]
    fn files_are_independent() {
        let mut d = DiskManager::new(128);
        let a = d.create_file();
        let b = d.create_file();
        d.allocate_page(a);
        d.allocate_page(b);
        d.write_page(a, 0, &[1u8; 128]);
        let mut buf = vec![9u8; 128];
        d.read_page(b, 0, &mut buf);
        assert!(buf.iter().all(|&x| x == 0), "file b untouched");
    }

    #[test]
    fn freed_pages_are_reused_lowest_first() {
        let mut d = DiskManager::new(128);
        let f = d.create_file();
        for _ in 0..4 {
            d.allocate_page(f);
        }
        d.write_page(f, 2, &[7u8; 128]);
        d.free_page(f, 2);
        d.free_page(f, 1);
        assert_eq!(d.pages(f), 4, "extent never shrinks");
        assert_eq!(d.allocated_pages(f), 2);
        assert!(d.is_free(f, 1) && d.is_free(f, 2));

        // reuse lowest first, then grow once the free set is empty
        assert_eq!(d.allocate_page(f), 1);
        assert_eq!(d.allocate_page(f), 2);
        assert_eq!(d.allocate_page(f), 4);
        assert_eq!(d.pages_freed(), 2);
        assert_eq!(d.pages_reused(), 2);

        // the freed-then-reused page came back zeroed
        let mut buf = vec![1u8; 128];
        d.read_page(f, 2, &mut buf);
        assert!(buf.iter().all(|&b| b == 0), "freed page was zeroed");
    }

    #[test]
    fn torn_write_leaves_the_tail_intact() {
        let mut d = DiskManager::new(128);
        let f = d.create_file();
        d.allocate_page(f);
        d.write_page(f, 0, &[1u8; 128]);
        d.write_page_prefix(f, 0, &[2u8; 128], 64);
        let mut buf = vec![0u8; 128];
        d.read_page(f, 0, &mut buf);
        assert!(buf[..64].iter().all(|&b| b == 2), "prefix reached the page");
        assert!(buf[64..].iter().all(|&b| b == 1), "tail kept old contents");
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut d = DiskManager::new(128);
        let f = d.create_file();
        d.allocate_page(f);
        d.free_page(f, 0);
        d.free_page(f, 0);
    }

    #[test]
    fn snapshot_carries_the_free_set() {
        let mut d = DiskManager::new(128);
        let f = d.create_file();
        d.allocate_page(f);
        d.allocate_page(f);
        d.free_page(f, 0);
        let mut snap = d.snapshot();
        assert!(d.contents_equal(&snap));
        assert_eq!(
            snap.allocate_page(f),
            0,
            "snapshot reuses like the original"
        );
        assert!(
            !d.contents_equal(&snap),
            "free sets now differ even though bytes match"
        );
    }

    #[test]
    #[should_panic]
    fn out_of_range_page_panics() {
        let mut d = DiskManager::new(128);
        let f = d.create_file();
        let mut buf = vec![0u8; 128];
        d.read_page(f, 3, &mut buf);
    }

    #[test]
    #[should_panic]
    fn out_of_range_page_ref_panics() {
        let mut d = DiskManager::new(128);
        let f = d.create_file();
        d.allocate_page(f);
        let _ = d.page(f, 1);
    }

    /// The reference model of one disk: deep-copied page bytes, the
    /// free sets, and per page a version id that changes on every
    /// write (0 = the zeroed image a fresh or freed page shares).
    #[derive(Clone)]
    struct Model {
        pages: Vec<Vec<Vec<u8>>>,
        free: Vec<BTreeSet<u32>>,
        versions: Vec<Vec<u64>>,
    }

    impl Model {
        fn same_contents(&self, other: &Model) -> bool {
            self.pages == other.pages && self.free == other.free
        }

        fn live_page(&self, rng: &mut Xoshiro256, file: usize) -> Option<u32> {
            let live: Vec<u32> = (0..self.pages[file].len() as u32)
                .filter(|p| !self.free[file].contains(p))
                .collect();
            (!live.is_empty())
                .then(|| live[rng.uniform_inclusive(0, live.len() as u64 - 1) as usize])
        }
    }

    /// Random interleavings of allocate, free, full and torn writes,
    /// in-place patches and snapshots on a disk and two generations of
    /// snapshots, each checked against a deep-copied reference model:
    /// every side sees only its own writes, free sets and
    /// `contents_equal` agree with the model, and two sides share a
    /// page's allocation exactly when neither wrote it since the
    /// snapshot that linked them.
    #[test]
    fn copy_on_write_matches_a_deep_copy_model() {
        const PAGE: usize = 64;
        const FILES: usize = 2;
        for seed in [1u64, 7, 21, 42] {
            let mut rng = Xoshiro256::seed_from_u64(seed);
            let mut disk = DiskManager::new(PAGE);
            for _ in 0..FILES {
                disk.create_file();
            }
            let mut sides = [disk.snapshot(), disk.snapshot(), disk];
            let empty = Model {
                pages: vec![Vec::new(); FILES],
                free: vec![BTreeSet::new(); FILES],
                versions: vec![Vec::new(); FILES],
            };
            let mut models = [empty.clone(), empty.clone(), empty];
            let mut next_version = 1u64;
            for step in 0..3000 {
                let s = rng.uniform_inclusive(0, 2) as usize;
                let file = rng.uniform_inclusive(0, FILES as u64 - 1) as usize;
                let fid = FileId(file as u32);
                let (side, model) = (&mut sides[s], &mut models[s]);
                match rng.uniform_inclusive(0, 9) {
                    0 | 1 => {
                        let page = side.allocate_page(fid);
                        let expect = match model.free[file].pop_first() {
                            Some(p) => p,
                            None => {
                                model.pages[file].push(vec![0; PAGE]);
                                model.versions[file].push(0);
                                model.pages[file].len() as u32 - 1
                            }
                        };
                        assert_eq!(page, expect, "seed {seed} step {step}: allocation");
                    }
                    2 => {
                        if let Some(p) = model.live_page(&mut rng, file) {
                            side.free_page(fid, p);
                            model.pages[file][p as usize].fill(0);
                            model.versions[file][p as usize] = 0;
                            model.free[file].insert(p);
                        }
                    }
                    3 | 4 => {
                        if let Some(p) = model.live_page(&mut rng, file) {
                            // a small alphabet, so sides often converge
                            let buf = vec![rng.uniform_inclusive(0, 2) as u8; PAGE];
                            side.write_page(fid, p, &buf);
                            model.pages[file][p as usize] = buf;
                            model.versions[file][p as usize] = next_version;
                            next_version += 1;
                        }
                    }
                    5 => {
                        if let Some(p) = model.live_page(&mut rng, file) {
                            let buf = vec![rng.uniform_inclusive(0, 2) as u8; PAGE];
                            let valid = rng.uniform_inclusive(0, PAGE as u64) as usize;
                            side.write_page_prefix(fid, p, &buf, valid);
                            model.pages[file][p as usize][..valid].copy_from_slice(&buf[..valid]);
                            model.versions[file][p as usize] = next_version;
                            next_version += 1;
                        }
                    }
                    6 | 7 => {
                        if let Some(p) = model.live_page(&mut rng, file) {
                            let at = rng.uniform_inclusive(0, PAGE as u64 - 1) as usize;
                            let byte = rng.uniform_inclusive(0, 2) as u8;
                            side.page_mut(fid, p)[at] = byte;
                            model.pages[file][p as usize][at] = byte;
                            model.versions[file][p as usize] = next_version;
                            next_version += 1;
                        }
                    }
                    _ => {
                        // side 0 is re-taken from side 1 (the second
                        // generation), side 1 from the live disk
                        let (to, from) = if rng.chance(0.5) { (0, 1) } else { (1, 2) };
                        sides[to] = sides[from].snapshot();
                        models[to] = models[from].clone();
                    }
                }
                for a in 0..3 {
                    for f in 0..FILES {
                        let fid = FileId(f as u32);
                        assert_eq!(sides[a].pages(fid) as usize, models[a].pages[f].len());
                        for p in 0..sides[a].pages(fid) {
                            assert_eq!(
                                sides[a].page(fid, p),
                                &models[a].pages[f][p as usize][..],
                                "seed {seed} step {step}: side {a} sees only its own writes"
                            );
                            assert_eq!(sides[a].is_free(fid, p), models[a].free[f].contains(&p));
                        }
                    }
                    for b in 0..3 {
                        assert_eq!(
                            sides[a].contents_equal(&sides[b]),
                            models[a].same_contents(&models[b]),
                            "seed {seed} step {step}: contents_equal({a}, {b})"
                        );
                        for f in 0..FILES {
                            let fid = FileId(f as u32);
                            let shared = sides[a].pages(fid).min(sides[b].pages(fid));
                            for p in 0..shared {
                                assert_eq!(
                                    sides[a].shares_page(&sides[b], fid, p),
                                    models[a].versions[f][p as usize]
                                        == models[b].versions[f][p as usize],
                                    "seed {seed} step {step}: sharing of ({a}, {b}) page {p}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
