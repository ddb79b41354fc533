//! Slotted-page layout for variable-length records.
//!
//! ```text
//! +-------------------+----------------------+------------------+
//! | header (6 bytes)  | slot directory ----> |  <---- records   |
//! +-------------------+----------------------+------------------+
//! header: [n_slots: u16][free_end: u16][record_bytes: u16]
//! slot:   [offset: u16][len: u16]   (offset == 0xFFFF => dead)
//! ```
//!
//! Records grow from the page end towards the directory; deletes mark
//! the slot dead and [`SlottedPage::compact`] reclaims the space.
//! All operations work in place on a borrowed byte slice, so the buffer
//! manager's frames can be manipulated without copies.

use std::collections::BTreeMap;

const HEADER: usize = 6;
const SLOT: usize = 4;
const DEAD: u16 = u16::MAX;

/// Directory entry `i` of a page image: `(offset, len)`.
fn slot_entry(data: &[u8], i: usize) -> (u16, u16) {
    let base = HEADER + i * SLOT;
    (
        u16::from_le_bytes([data[base], data[base + 1]]),
        u16::from_le_bytes([data[base + 2], data[base + 3]]),
    )
}

/// Live slots of a read-only page image: slot id → (offset, len).
/// Empty for an unformatted (freed / never-initialized) page. The CDC
/// decoder diffs page images through this, and view rescans enumerate
/// a raw disk image's records with it.
#[must_use]
pub fn live_slots(data: &[u8]) -> BTreeMap<u16, (usize, usize)> {
    if data.len() < HEADER || !SlottedPage::is_formatted(data) {
        return BTreeMap::new();
    }
    let n = u16::from_le_bytes([data[0], data[1]]) as usize;
    (0..n)
        .map(|i| (i, slot_entry(data, i)))
        .filter(|&(_, (off, _))| off != DEAD)
        .map(|(i, (off, len))| (i as u16, (off as usize, len as usize)))
        .collect()
}

/// A view over one page's bytes, interpreted as a slotted page.
#[derive(Debug)]
pub struct SlottedPage<'a> {
    data: &'a mut [u8],
}

impl<'a> SlottedPage<'a> {
    /// Formats `data` as an empty slotted page and returns the view.
    ///
    /// # Panics
    /// Panics if the page is smaller than 64 bytes or larger than 64 KiB
    /// (offsets are 16-bit).
    pub fn init(data: &'a mut [u8]) -> Self {
        assert!(data.len() >= 64, "page too small");
        assert!(
            data.len() <= u16::MAX as usize + 1,
            "page too large for u16 offsets"
        );
        let len = data.len() as u16;
        data[0..2].copy_from_slice(&0u16.to_le_bytes());
        data[2..4].copy_from_slice(&len.to_le_bytes());
        data[4..6].copy_from_slice(&0u16.to_le_bytes());
        Self { data }
    }

    /// Wraps bytes already formatted by [`SlottedPage::init`].
    pub fn attach(data: &'a mut [u8]) -> Self {
        Self { data }
    }

    /// True when `data` carries a formatted slotted page. A deallocated
    /// page is all zeros, and a `free_end` of 0 can never occur on a
    /// formatted page ([`SlottedPage::init`] sets it to the page
    /// length, and records only ever move it down to the directory
    /// end, which is ≥ the 6-byte header). Guards insert paths against
    /// racing onto a page that was freed out from under a stale
    /// free-space-map candidate: without this check, `insert` would
    /// happily treat the zero header as "0 slots" and resurrect the
    /// dead page.
    #[must_use]
    pub fn is_formatted(data: &[u8]) -> bool {
        u16::from_le_bytes([data[2], data[3]]) != 0
    }

    fn n_slots(&self) -> usize {
        u16::from_le_bytes([self.data[0], self.data[1]]) as usize
    }

    fn free_end(&self) -> usize {
        u16::from_le_bytes([self.data[2], self.data[3]]) as usize
    }

    fn record_bytes(&self) -> usize {
        u16::from_le_bytes([self.data[4], self.data[5]]) as usize
    }

    fn set_n_slots(&mut self, n: usize) {
        self.data[0..2].copy_from_slice(&(n as u16).to_le_bytes());
    }

    fn set_free_end(&mut self, v: usize) {
        self.data[2..4].copy_from_slice(&(v as u16).to_le_bytes());
    }

    fn set_record_bytes(&mut self, v: usize) {
        self.data[4..6].copy_from_slice(&(v as u16).to_le_bytes());
    }

    fn slot(&self, i: usize) -> (u16, u16) {
        slot_entry(self.data, i)
    }

    fn set_slot(&mut self, i: usize, offset: u16, len: u16) {
        let base = HEADER + i * SLOT;
        self.data[base..base + 2].copy_from_slice(&offset.to_le_bytes());
        self.data[base + 2..base + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Number of live records.
    #[must_use]
    pub fn live_records(&self) -> usize {
        (0..self.n_slots())
            .filter(|&i| self.slot(i).0 != DEAD)
            .count()
    }

    /// Contiguous free bytes available for one more record (including
    /// its slot entry).
    #[must_use]
    pub fn free_space(&self) -> usize {
        let dir_end = HEADER + self.n_slots() * SLOT;
        self.free_end().saturating_sub(dir_end)
    }

    /// The first dead (reusable) slot, if any.
    fn dead_slot(&self) -> Option<usize> {
        (0..self.n_slots()).find(|&i| self.slot(i).0 == DEAD)
    }

    /// True if a record of `len` bytes fits (possibly after compaction
    /// and/or by recycling a dead slot's directory entry).
    #[must_use]
    pub fn fits(&self, len: usize) -> bool {
        // space if we compacted: everything except live records + dirs;
        // a dead slot means the directory does not need to grow
        let new_dir_entries = usize::from(self.dead_slot().is_none());
        let dir = HEADER + (self.n_slots() + new_dir_entries) * SLOT;
        let live: usize = (0..self.n_slots())
            .filter_map(|i| {
                let (off, l) = self.slot(i);
                (off != DEAD).then_some(l as usize)
            })
            .sum();
        self.data.len() >= dir + live + len
    }

    /// Inserts a record, recycling a dead slot when one exists and
    /// compacting first if fragmentation requires it; returns the slot
    /// id, or `None` if it cannot fit.
    ///
    /// Slot ids of deleted records may be reused — stale [`RecordId`]s
    /// must not be dereferenced after a delete, as in any slotted-page
    /// heap.
    ///
    /// [`RecordId`]: crate::heap::RecordId
    ///
    /// # Panics
    /// Panics on empty records or records that could never fit a page.
    pub fn insert(&mut self, record: &[u8]) -> Option<u16> {
        assert!(!record.is_empty(), "empty records are not supported");
        assert!(
            record.len() <= self.data.len() - HEADER - SLOT,
            "record larger than page"
        );
        if !self.fits(record.len()) {
            return None;
        }
        let reuse = self.dead_slot();
        let dir_growth = if reuse.is_some() { 0 } else { SLOT };
        if self.free_space() < record.len() + dir_growth {
            self.compact();
        }
        let end = self.free_end();
        let start = end - record.len();
        self.data[start..end].copy_from_slice(record);
        let slot = match reuse {
            Some(i) => i,
            None => {
                let n = self.n_slots();
                self.set_n_slots(n + 1);
                n
            }
        };
        self.set_slot(slot, start as u16, record.len() as u16);
        self.set_free_end(start);
        self.set_record_bytes(self.record_bytes() + record.len());
        Some(slot as u16)
    }

    /// Reads a live record.
    #[must_use]
    pub fn get(&self, slot: u16) -> Option<&[u8]> {
        let i = slot as usize;
        if i >= self.n_slots() {
            return None;
        }
        let (off, len) = self.slot(i);
        if off == DEAD {
            return None;
        }
        Some(&self.data[off as usize..off as usize + len as usize])
    }

    /// Overwrites a live record in place. Only same-length updates are
    /// supported (TPC-C tuples are fixed-length); returns `false` for a
    /// dead slot.
    ///
    /// # Panics
    /// Panics if the new record's length differs from the stored one.
    pub fn update(&mut self, slot: u16, record: &[u8]) -> bool {
        let i = slot as usize;
        if i >= self.n_slots() {
            return false;
        }
        let (off, len) = self.slot(i);
        if off == DEAD {
            return false;
        }
        assert_eq!(
            len as usize,
            record.len(),
            "in-place update must preserve record length"
        );
        self.data[off as usize..off as usize + len as usize].copy_from_slice(record);
        true
    }

    /// Deletes a record (marks its slot dead); `false` if already dead
    /// or out of range.
    pub fn delete(&mut self, slot: u16) -> bool {
        let i = slot as usize;
        if i >= self.n_slots() {
            return false;
        }
        let (off, len) = self.slot(i);
        if off == DEAD {
            return false;
        }
        self.set_slot(i, DEAD, 0);
        self.set_record_bytes(self.record_bytes() - len as usize);
        true
    }

    /// Rewrites live records contiguously at the page end, reclaiming
    /// dead space. Slot ids are stable.
    pub fn compact(&mut self) {
        let n = self.n_slots();
        let mut records: Vec<(usize, Vec<u8>)> = Vec::with_capacity(n);
        for i in 0..n {
            let (off, len) = self.slot(i);
            if off != DEAD {
                records.push((i, self.data[off as usize..(off + len) as usize].to_vec()));
            }
        }
        let mut end = self.data.len();
        for (i, rec) in records {
            let start = end - rec.len();
            self.data[start..end].copy_from_slice(&rec);
            self.set_slot(i, start as u16, rec.len() as u16);
            end = start;
        }
        self.set_free_end(end);
    }

    /// Iterates `(slot, record)` over live records.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &[u8])> + '_ {
        (0..self.n_slots()).filter_map(move |i| {
            let (off, len) = self.slot(i);
            (off != DEAD).then(|| (i as u16, &self.data[off as usize..(off + len) as usize]))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page() -> Vec<u8> {
        vec![0u8; 4096]
    }

    #[test]
    fn insert_get_round_trip() {
        let mut buf = page();
        let mut p = SlottedPage::init(&mut buf);
        let a = p.insert(b"hello").expect("fits");
        let b = p.insert(b"world!").expect("fits");
        assert_eq!(p.get(a), Some(&b"hello"[..]));
        assert_eq!(p.get(b), Some(&b"world!"[..]));
        assert_eq!(p.live_records(), 2);
    }

    #[test]
    fn delete_then_get_none() {
        let mut buf = page();
        let mut p = SlottedPage::init(&mut buf);
        let a = p.insert(b"abc").expect("fits");
        assert!(p.delete(a));
        assert!(!p.delete(a), "double delete");
        assert_eq!(p.get(a), None);
        assert_eq!(p.live_records(), 0);
    }

    #[test]
    fn update_in_place() {
        let mut buf = page();
        let mut p = SlottedPage::init(&mut buf);
        let a = p.insert(b"aaaa").expect("fits");
        assert!(p.update(a, b"bbbb"));
        assert_eq!(p.get(a), Some(&b"bbbb"[..]));
    }

    #[test]
    #[should_panic(expected = "preserve record length")]
    fn update_length_change_rejected() {
        let mut buf = page();
        let mut p = SlottedPage::init(&mut buf);
        let a = p.insert(b"aaaa").expect("fits");
        let _ = p.update(a, b"toolong");
    }

    #[test]
    fn fills_until_capacity_then_rejects() {
        let mut buf = vec![0u8; 256];
        let mut p = SlottedPage::init(&mut buf);
        let mut n = 0;
        while p.insert(&[7u8; 20]).is_some() {
            n += 1;
        }
        // 256 - 6 header; each record needs 24 bytes
        assert!(n >= 9, "inserted {n}");
        assert!(!p.fits(20));
        assert!(p.fits(1) || p.free_space() < 1 + SLOT);
    }

    #[test]
    fn compaction_reclaims_dead_space() {
        let mut buf = vec![0u8; 256];
        let mut p = SlottedPage::init(&mut buf);
        let slots: Vec<u16> = (0..8).filter_map(|_| p.insert(&[1u8; 20])).collect();
        assert!(p.insert(&[2u8; 20]).is_none() || p.free_space() >= 24);
        for &s in &slots {
            p.delete(s);
        }
        // all dead: a new insert must succeed via compaction
        let s = p.insert(&[3u8; 100]).expect("fits after compaction");
        assert_eq!(p.get(s).expect("live")[0], 3);
    }

    #[test]
    fn survives_attach_round_trip() {
        let mut buf = page();
        let a;
        {
            let mut p = SlottedPage::init(&mut buf);
            a = p.insert(b"persistent").expect("fits");
        }
        let p = SlottedPage::attach(&mut buf);
        assert_eq!(p.get(a), Some(&b"persistent"[..]));
    }

    #[test]
    fn dead_slots_are_recycled() {
        let mut buf = vec![0u8; 256];
        let mut p = SlottedPage::init(&mut buf);
        let a = p.insert(&[1u8; 20]).expect("fits");
        let b = p.insert(&[2u8; 20]).expect("fits");
        p.delete(a);
        let c = p.insert(&[3u8; 20]).expect("fits");
        assert_eq!(c, a, "dead slot id recycled");
        assert_eq!(p.get(c), Some(&[3u8; 20][..]));
        assert_eq!(p.get(b), Some(&[2u8; 20][..]));
        // the directory did not grow
        assert_eq!(p.live_records(), 2);
    }

    #[test]
    fn churn_on_one_page_never_degrades_capacity() {
        let mut buf = vec![0u8; 256];
        let mut p = SlottedPage::init(&mut buf);
        let mut live = std::collections::VecDeque::new();
        for i in 0..500u32 {
            let rec = [(i % 251) as u8; 24];
            let slot = p.insert(&rec).expect("steady-state insert must fit");
            live.push_back(slot);
            if live.len() > 5 {
                let old = live.pop_front().expect("nonempty");
                assert!(p.delete(old));
            }
        }
        assert_eq!(p.live_records(), live.len());
    }

    #[test]
    fn iter_skips_dead() {
        let mut buf = page();
        let mut p = SlottedPage::init(&mut buf);
        let a = p.insert(b"a").expect("fits");
        let _b = p.insert(b"b").expect("fits");
        p.delete(a);
        let live: Vec<u16> = p.iter().map(|(s, _)| s).collect();
        assert_eq!(live, vec![1]);
    }

    /// `live_slots` over a raw image agrees with `SlottedPage::iter`
    /// after any seeded insert/update/delete/compact sequence.
    #[test]
    fn live_slots_matches_iter_under_random_churn() {
        let unformatted = vec![0u8; 256];
        assert!(live_slots(&unformatted).is_empty());
        assert!(live_slots(&[]).is_empty());

        let mut rng = tpcc_rand::Xoshiro256::seed_from_u64(30);
        let mut next = |n: u64| rng.uniform_inclusive(0, n - 1);
        for _ in 0..50 {
            let mut buf = vec![0u8; 512];
            let mut p = SlottedPage::init(&mut buf);
            for step in 0..200u64 {
                let slot = next(16) as u16;
                match next(4) {
                    0 => {
                        let len = 1 + next(40) as usize;
                        let _ = p.insert(&vec![step as u8; len]);
                    }
                    1 => {
                        if let Some(len) = p.get(slot).map(<[u8]>::len) {
                            assert!(p.update(slot, &vec![!(step as u8); len]));
                        }
                    }
                    2 => {
                        let _ = p.delete(slot);
                    }
                    _ => p.compact(),
                }
                let want: Vec<(u16, Vec<u8>)> = p.iter().map(|(s, r)| (s, r.to_vec())).collect();
                let got: Vec<(u16, Vec<u8>)> = live_slots(p.data)
                    .into_iter()
                    .map(|(s, (off, len))| (s, p.data[off..off + len].to_vec()))
                    .collect();
                assert_eq!(got, want);
            }
        }
    }
}
