//! A page-based B+Tree mapping `u64` keys to `u64` values.
//!
//! TPC-C's composite keys — `(warehouse, district, customer)`,
//! `(item, warehouse)`, `(warehouse, district, order)` — all pack into
//! 64 bits, and values are packed [`crate::heap::RecordId`]s, so
//! fixed-width entries keep the node layout simple and dense.
//!
//! Node layout (one page each):
//!
//! ```text
//! [kind: u8][pad: u8][n: u16][next_leaf: u32]
//! leaf:     n × (key: u64, value: u64)
//! internal: child₀: u32, then n × (key: u64, childᵢ₊₁: u32)
//! ```
//!
//! Internal separator `kᵢ` bounds its left child: subtree `i` holds keys
//! `< kᵢ`. Deletes *rebalance*: when a removal drops a non-root leaf
//! below half occupancy, the delete restarts as a pessimistic top-down
//! descent that merges the deficient node with an adjacent sibling
//! (when the combined entries fit on one page, freeing the emptied
//! page back to the buffer manager) or borrows from it (balancing the
//! two evenly), so the benchmark's FIFO delete pattern (oldest
//! New-Order rows) returns its pages instead of leaking half-empty
//! leaves forever.
//!
//! # Latching (crabbing)
//!
//! All operations take `&self`; concurrency control is per-page latch
//! **crabbing** over [`BufferManager`] page guards, in the discipline of
//! Bayer & Schkolnick (1977):
//!
//! * **Reads** (`get`, `scan_range`) descend with shared coupling —
//!   latch the child, then release the parent — and scans crab
//!   left-to-right along the leaf chain.
//! * **`delete`** and the common-case `insert` descend shared and take
//!   only the *leaf* exclusively. The parent stays share-latched while
//!   the leaf latch is upgraded, so the leaf cannot be split or merged
//!   between the shared and exclusive fix (both require the parent
//!   latched exclusively). A delete that leaves the leaf at least half
//!   full ends here.
//! * **`insert` into a full leaf** restarts as a *pessimistic* descent
//!   with exclusive coupling that splits any full node top-down while
//!   holding only parent + child (at most three page latches with the
//!   transient sibling allocation), so the parent always has room for
//!   the separator and splits never propagate upward.
//! * **`delete` that underflows the leaf** restarts symmetrically: a
//!   pessimistic exclusive-coupled descent fixes any deficient node
//!   top-down by merging it with, or borrowing from, an adjacent
//!   sibling while the parent is still write-latched (at most three
//!   page latches: parent + both siblings; sibling latches are taken
//!   left-to-right), so deficiencies never propagate upward either. A
//!   single-child internal root is collapsed under the exclusive
//!   structure latch, shrinking the tree.
//!
//! The `root` field is the **structure latch**: a `RwLock` around the
//! root page number. Every descent acquires it shared just long enough
//! to latch the root page; only a root split takes it exclusively (and
//! acquires it *before* any page latch, preserving the
//! structure-before-page order that keeps the hierarchy acyclic). See
//! DESIGN.md §8 for the deadlock-freedom argument.

use crate::bufmgr::{BufferManager, PageWriteGuard};
use crate::disk::FileId;
use std::sync::RwLock;
use tpcc_obs::{CounterHandle, Label, Obs};

const HEADER: usize = 8;
const LEAF: u8 = 0;
const INTERNAL: u8 = 1;
const NO_LEAF: u32 = u32::MAX;

/// A B+Tree handle (root page may move as the tree grows).
#[derive(Debug)]
pub struct BTree {
    file: FileId,
    /// Structure latch: guards the root page *number*. Shared by every
    /// descent until the root page itself is latched; exclusive only
    /// while a root split swaps the pointer.
    root: RwLock<u32>,
    leaf_cap: usize,
    internal_cap: usize,
    /// Underflow threshold: a non-root leaf with fewer entries is
    /// merged or rebalanced.
    min_leaf: usize,
    /// Underflow threshold for non-root internal nodes (in separator
    /// keys; chosen so two merging siblings plus the pulled-down
    /// separator always fit).
    min_internal: usize,
    /// Pre-resolved structure-event counters (disabled until
    /// [`BTree::attach_obs`]); avoids a recorder map lookup per node
    /// visit on the hot path.
    visits: CounterHandle,
    splits: CounterHandle,
    restarts: CounterHandle,
    merges: CounterHandle,
    borrows: CounterHandle,
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        keys: Vec<u64>,
        vals: Vec<u64>,
        next: u32,
    },
    Internal {
        keys: Vec<u64>,
        children: Vec<u32>,
    },
}

impl BTree {
    /// Creates an empty tree in a fresh file.
    pub fn create(bm: &BufferManager) -> Self {
        let page_size = bm.page_size();
        let file = bm.create_file();
        let leaf_cap = (page_size - HEADER) / 16;
        let internal_cap = (page_size - HEADER - 4) / 12;
        assert!(
            leaf_cap >= 3 && internal_cap >= 3,
            "page too small for a B+Tree"
        );
        let (root, ()) = bm.allocate_page(file, |data| {
            encode(
                data,
                &Node::Leaf {
                    keys: Vec::new(),
                    vals: Vec::new(),
                    next: NO_LEAF,
                },
            );
        });
        Self {
            file,
            root: RwLock::new(root),
            leaf_cap,
            internal_cap,
            min_leaf: leaf_cap / 2,
            min_internal: (internal_cap - 1) / 2,
            visits: CounterHandle::disabled(),
            splits: CounterHandle::disabled(),
            restarts: CounterHandle::disabled(),
            merges: CounterHandle::disabled(),
            borrows: CounterHandle::disabled(),
        }
    }

    /// Resolves per-tree structure-event counters against `obs`
    /// (`btree_node_visits` / `btree_splits` / `btree_restarts` /
    /// `btree_merges` / `btree_borrows`, labelled by file id).
    pub fn attach_obs(&mut self, obs: &Obs) {
        self.visits = obs.counter_handle("btree_node_visits", Label::Idx(self.file.0));
        self.splits = obs.counter_handle("btree_splits", Label::Idx(self.file.0));
        self.restarts = obs.counter_handle("btree_restarts", Label::Idx(self.file.0));
        self.merges = obs.counter_handle("btree_merges", Label::Idx(self.file.0));
        self.borrows = obs.counter_handle("btree_borrows", Label::Idx(self.file.0));
    }

    /// The index file id (for buffer statistics).
    #[must_use]
    pub fn file(&self) -> FileId {
        self.file
    }

    /// Looks up a key (shared latch coupling down the tree).
    pub fn get(&self, bm: &BufferManager, key: u64) -> Option<u64> {
        let root = self.root.read().expect("root latch");
        let mut guard = bm.fix_shared(self.file, *root);
        drop(root);
        self.visits.add(1);
        while !is_leaf(&guard) {
            let (_, child) = internal_lookup(&guard, key);
            guard = bm.fix_shared(self.file, child); // crab: child, then drop parent
            self.visits.add(1);
        }
        leaf_search(&guard, key).ok().map(|i| leaf_val(&guard, i))
    }

    /// Inserts or overwrites; returns the previous value if any.
    ///
    /// Optimistic first: shared descent with an exclusive leaf latch.
    /// Only a full leaf (a real split) restarts into the pessimistic
    /// exclusive-coupled descent.
    pub fn insert(&self, bm: &BufferManager, key: u64, value: u64) -> Option<u64> {
        {
            let (mut leaf, _) = self.leaf_exclusive(bm, key);
            match leaf_search(&leaf, key) {
                Ok(i) => {
                    let old = leaf_val(&leaf, i);
                    leaf_set_val(&mut leaf, i, value);
                    return Some(old);
                }
                Err(i) => {
                    if entry_count(&leaf) < self.leaf_cap {
                        leaf_insert_at(&mut leaf, i, key, value);
                        return None;
                    }
                }
            }
            // full leaf: a split is needed — release every latch first
        }
        self.restarts.add(1);
        self.insert_pessimistic(bm, key, value)
    }

    /// Removes a key; returns its value if it was present.
    ///
    /// Optimistic first: shared descent with an exclusive leaf latch.
    /// If the removal drops a non-root leaf below half occupancy the
    /// delete restarts into the pessimistic rebalancing descent, which
    /// merges or rebalances deficient nodes top-down and returns freed
    /// pages to the buffer manager.
    pub fn delete(&self, bm: &BufferManager, key: u64) -> Option<u64> {
        let old = {
            let (mut leaf, is_root) = self.leaf_exclusive(bm, key);
            match leaf_search(&leaf, key) {
                Ok(i) => {
                    let old = leaf_val(&leaf, i);
                    leaf_remove_at(&mut leaf, i);
                    if is_root || entry_count(&leaf) >= self.min_leaf {
                        return Some(old);
                    }
                    old
                }
                Err(_) => return None,
            }
            // leaf underflow: rebalancing is needed — release every
            // latch first, then restart pessimistically
        };
        self.restarts.add(1);
        self.rebalance(bm, key);
        Some(old)
    }

    /// Visits `(key, value)` pairs with `lo <= key < hi` in ascending
    /// key order; stop early by returning `false` from the visitor.
    ///
    /// The visitor runs with the current leaf share-latched: it must
    /// not re-enter this tree (or fix pages that would violate the
    /// top-down / left-to-right latch order).
    pub fn scan_range(
        &self,
        bm: &BufferManager,
        lo: u64,
        hi: u64,
        mut visit: impl FnMut(u64, u64) -> bool,
    ) {
        let root = self.root.read().expect("root latch");
        let mut guard = bm.fix_shared(self.file, *root);
        drop(root);
        self.visits.add(1);
        // descend to the leaf that would hold `lo`
        while !is_leaf(&guard) {
            let (_, child) = internal_lookup(&guard, lo);
            guard = bm.fix_shared(self.file, child);
            self.visits.add(1);
        }
        loop {
            for i in 0..entry_count(&guard) {
                let k = leaf_key(&guard, i);
                if k < lo {
                    continue;
                }
                if k >= hi {
                    return;
                }
                if !visit(k, leaf_val(&guard, i)) {
                    return;
                }
            }
            let next = leaf_next(&guard);
            if next == NO_LEAF {
                return;
            }
            guard = bm.fix_shared(self.file, next); // crab along the chain
            self.visits.add(1);
        }
    }

    /// The smallest `(key, value)` with `key >= lo` (e.g. the oldest
    /// pending order of a district when keys are `(w, d, order-no)`).
    pub fn min_at_or_after(&self, bm: &BufferManager, lo: u64) -> Option<(u64, u64)> {
        let mut found = None;
        self.scan_range(bm, lo, u64::MAX, |k, v| {
            found = Some((k, v));
            false
        });
        found
    }

    /// Total live entries (full scan; test/diagnostic helper).
    pub fn len(&self, bm: &BufferManager) -> usize {
        let mut n = 0;
        self.scan_range(bm, 0, u64::MAX, |_, _| {
            n += 1;
            true
        });
        n
    }

    /// True when the tree holds no entries.
    pub fn is_empty(&self, bm: &BufferManager) -> bool {
        self.min_at_or_after(bm, 0).is_none()
    }

    /// Tree height in levels (1 = a lone leaf root), following the
    /// leftmost spine with shared coupling.
    pub fn height(&self, bm: &BufferManager) -> usize {
        let root = self.root.read().expect("root latch");
        let mut guard = bm.fix_shared(self.file, *root);
        drop(root);
        let mut h = 1;
        while !is_leaf(&guard) {
            let child = internal_child_at(&guard, 0);
            guard = bm.fix_shared(self.file, child);
            h += 1;
        }
        h
    }

    /// Live pages of the index file: allocated minus freed-by-merges.
    /// The steady-state footprint the soak tests assert on.
    #[must_use]
    pub fn allocated_pages(&self, bm: &BufferManager) -> u32 {
        bm.allocated_pages(self.file)
    }

    /// Descends with shared coupling and returns the target leaf
    /// write-latched, plus whether that leaf is the root. The parent
    /// (or, for a leaf root, the structure latch) stays share-held
    /// across the leaf's shared→exclusive re-fix: a split or merge of
    /// that leaf would need the parent exclusively (or the structure
    /// latch exclusively), so the leaf located by the descent is still
    /// the right one when the write latch lands.
    fn leaf_exclusive<'b>(&self, bm: &'b BufferManager, key: u64) -> (PageWriteGuard<'b>, bool) {
        let root = self.root.read().expect("root latch");
        let root_page = *root;
        let first = bm.fix_shared(self.file, root_page);
        self.visits.add(1);
        if is_leaf(&first) {
            drop(first);
            // root lock still read-held
            return (bm.fix_exclusive(self.file, root_page), true);
        }
        drop(root);
        let mut parent = first;
        loop {
            let (_, child_page) = internal_lookup(&parent, key);
            let child = bm.fix_shared(self.file, child_page);
            self.visits.add(1);
            if is_leaf(&child) {
                drop(child);
                // parent still read-held
                return (bm.fix_exclusive(self.file, child_page), false);
            }
            parent = child;
        }
    }

    /// Exclusive-coupled descent with preemptive top-down splits: any
    /// full node on the path is split while its (non-full, by
    /// induction) parent is still write-latched, so separators always
    /// have room and nothing propagates back up. At most parent + child
    /// + one freshly allocated sibling are latched at any moment.
    fn insert_pessimistic(&self, bm: &BufferManager, key: u64, value: u64) -> Option<u64> {
        let mut root_lock = self.root.write().expect("root latch");
        let mut node = bm.fix_exclusive(self.file, *root_lock);
        self.visits.add(1);
        if self.node_full(&node) {
            // grow the tree while holding the structure latch exclusively
            let (sep, right_page, right, left) = self.split_node(bm, node, key);
            let left_page = left.page();
            let (new_root, mut root_guard) = bm.allocate_fixed(self.file);
            encode(
                &mut root_guard,
                &Node::Internal {
                    keys: vec![sep],
                    children: vec![left_page, right_page],
                },
            );
            drop(root_guard);
            *root_lock = new_root;
            node = if key >= sep {
                drop(left);
                right
            } else {
                drop(right);
                left
            };
        }
        drop(root_lock);
        loop {
            if is_leaf(&node) {
                let mut leaf = node;
                return match leaf_search(&leaf, key) {
                    Ok(i) => {
                        let old = leaf_val(&leaf, i);
                        leaf_set_val(&mut leaf, i, value);
                        Some(old)
                    }
                    Err(i) => {
                        leaf_insert_at(&mut leaf, i, key, value);
                        None
                    }
                };
            }
            let (child_idx, child_page) = internal_lookup(&node, key);
            let mut child = bm.fix_exclusive(self.file, child_page);
            self.visits.add(1);
            if self.node_full(&child) {
                let (sep, right_page, right, left) = self.split_node(bm, child, key);
                let Node::Internal {
                    mut keys,
                    mut children,
                } = decode(&node)
                else {
                    unreachable!("descent parent is internal");
                };
                keys.insert(child_idx, sep);
                children.insert(child_idx + 1, right_page);
                encode(&mut node, &Node::Internal { keys, children });
                child = if key >= sep {
                    drop(left);
                    right
                } else {
                    drop(right);
                    left
                };
            }
            node = child; // crab: drop the parent, descend
        }
    }

    /// Exclusive-coupled descent with top-down rebalancing: any
    /// deficient node on the path is merged with or borrows from an
    /// adjacent sibling while its parent is still write-latched, so
    /// deficiencies never propagate back up. Mirrors
    /// [`BTree::insert_pessimistic`]; at most parent + two siblings
    /// (three page latches) are held at any moment, acquired top-down
    /// and left-to-right.
    ///
    /// The structure latch is held exclusively while the root can
    /// still change: a single-child internal root is collapsed (its
    /// page freed) and, while the root has exactly one separator, a
    /// child merge could empty it — so the latch is kept until the
    /// descent is past every root-changing case.
    fn rebalance(&self, bm: &BufferManager, key: u64) {
        let mut root_lock = self.root.write().expect("root latch");
        let mut node = bm.fix_exclusive(self.file, *root_lock);
        self.visits.add(1);
        let mut node = loop {
            if is_leaf(&node) {
                // a root leaf may hold any entry count
                return;
            }
            if entry_count(&node) == 0 {
                // single-child internal root: the child takes over
                let child = internal_child_at(&node, 0);
                bm.free_fixed(node);
                *root_lock = child;
                node = bm.fix_exclusive(self.file, child);
                self.visits.add(1);
                continue;
            }
            if entry_count(&node) >= 2 {
                break node; // no merge below can empty this root
            }
            // exactly one separator: fixing a deficient child may merge
            // the root's two children and empty it
            let (child_idx, child_page) = internal_lookup(&node, key);
            let mut child = bm.fix_exclusive(self.file, child_page);
            self.visits.add(1);
            if self.node_deficient(&child) {
                child = self.fix_deficient(bm, &mut node, child_idx, child, key);
            }
            if entry_count(&node) == 0 {
                let merged = child.page();
                bm.free_fixed(node);
                *root_lock = merged;
                node = child;
                continue; // the new root may itself need collapsing
            }
            break child; // root settled at ≥1 separator: descend
        };
        drop(root_lock);
        while !is_leaf(&node) {
            let (child_idx, child_page) = internal_lookup(&node, key);
            let mut child = bm.fix_exclusive(self.file, child_page);
            self.visits.add(1);
            // a parent merge can (at tiny fan-outs) leave this node
            // with zero separators and thus no sibling to fix the
            // child with; leave the deficiency for a later descent
            if self.node_deficient(&child) && entry_count(&node) >= 1 {
                child = self.fix_deficient(bm, &mut node, child_idx, child, key);
            }
            node = child; // crab: drop the parent, descend
        }
    }

    /// Restores occupancy of the `child_idx`-th child of the
    /// write-latched `parent` by merging it with an adjacent sibling
    /// (when the combined entries fit on one page; the emptied right
    /// page is freed) or borrowing from it (the two split their
    /// entries evenly and the parent separator is updated). Prefers
    /// the left sibling; to honour the left-to-right latch order the
    /// child latch is dropped and re-taken after the sibling's — safe
    /// because the write-latched parent excludes every other descent
    /// into either page. Returns the surviving guard covering `key`'s
    /// search path.
    ///
    /// The parent must have at least one separator (a sibling exists).
    fn fix_deficient<'b>(
        &self,
        bm: &'b BufferManager,
        parent: &mut PageWriteGuard<'b>,
        child_idx: usize,
        child: PageWriteGuard<'b>,
        key: u64,
    ) -> PageWriteGuard<'b> {
        let child_page = child.page();
        let use_left = child_idx > 0;
        let (sep_idx, left, right) = if use_left {
            let left_page = internal_child_at(parent, child_idx - 1);
            drop(child); // re-acquire in left-to-right order
            let left = bm.fix_exclusive(self.file, left_page);
            let right = bm.fix_exclusive(self.file, child_page);
            (child_idx - 1, left, right)
        } else {
            let right_page = internal_child_at(parent, child_idx + 1);
            let right = bm.fix_exclusive(self.file, right_page);
            (child_idx, child, right)
        };
        self.visits.add(1);
        let (mut left, mut right) = (left, right);
        let sep = internal_key(parent, sep_idx);
        match (decode(&left), decode(&right)) {
            (
                Node::Leaf {
                    keys: mut lk,
                    vals: mut lv,
                    ..
                },
                Node::Leaf {
                    keys: rk,
                    vals: rv,
                    next: rnext,
                },
            ) => {
                if lk.len() + rk.len() <= self.leaf_cap {
                    self.merges.add(1);
                    lk.extend(rk);
                    lv.extend(rv);
                    encode(
                        &mut left,
                        &Node::Leaf {
                            keys: lk,
                            vals: lv,
                            next: rnext,
                        },
                    );
                    internal_remove_entry(parent, sep_idx);
                    bm.free_fixed(right);
                    left
                } else {
                    self.borrows.add(1);
                    let mut all_k = lk;
                    let mut all_v = lv;
                    all_k.extend(rk);
                    all_v.extend(rv);
                    let keep = all_k.len() / 2;
                    let rk = all_k.split_off(keep);
                    let rv = all_v.split_off(keep);
                    let new_sep = rk[0];
                    encode(
                        &mut left,
                        &Node::Leaf {
                            keys: all_k,
                            vals: all_v,
                            next: right.page(),
                        },
                    );
                    encode(
                        &mut right,
                        &Node::Leaf {
                            keys: rk,
                            vals: rv,
                            next: rnext,
                        },
                    );
                    internal_set_key(parent, sep_idx, new_sep);
                    if key < new_sep {
                        left
                    } else {
                        right
                    }
                }
            }
            (
                Node::Internal {
                    keys: mut lk,
                    children: mut lc,
                },
                Node::Internal {
                    keys: rk,
                    children: rc,
                },
            ) => {
                // the merged node holds both key sets plus the
                // pulled-down separator
                if lk.len() + rk.len() < self.internal_cap {
                    // merge: the separator is pulled down between the halves
                    self.merges.add(1);
                    lk.push(sep);
                    lk.extend(rk);
                    lc.extend(rc);
                    encode(
                        &mut left,
                        &Node::Internal {
                            keys: lk,
                            children: lc,
                        },
                    );
                    internal_remove_entry(parent, sep_idx);
                    bm.free_fixed(right);
                    left
                } else {
                    // borrow: rotate entries through the separator
                    self.borrows.add(1);
                    let mut all_k = lk;
                    let mut all_c = lc;
                    all_k.push(sep);
                    all_k.extend(rk);
                    all_c.extend(rc);
                    let keep = all_k.len() / 2;
                    let mut rk = all_k.split_off(keep);
                    let new_sep = rk.remove(0);
                    let rc = all_c.split_off(keep + 1);
                    encode(
                        &mut left,
                        &Node::Internal {
                            keys: all_k,
                            children: all_c,
                        },
                    );
                    encode(
                        &mut right,
                        &Node::Internal {
                            keys: rk,
                            children: rc,
                        },
                    );
                    internal_set_key(parent, sep_idx, new_sep);
                    if key < new_sep {
                        left
                    } else {
                        right
                    }
                }
            }
            _ => unreachable!("siblings at one level share a kind"),
        }
    }

    fn node_deficient(&self, data: &[u8]) -> bool {
        let min = if is_leaf(data) {
            self.min_leaf
        } else {
            self.min_internal
        };
        entry_count(data) < min
    }

    fn node_full(&self, data: &[u8]) -> bool {
        let cap = if is_leaf(data) {
            self.leaf_cap
        } else {
            self.internal_cap
        };
        entry_count(data) >= cap
    }

    /// Splits a full node in place: the upper part moves to a freshly
    /// allocated right sibling. Returns `(separator, right page, right
    /// guard, left guard)` — both halves still write-latched so the
    /// caller can link them before anyone can observe the split.
    ///
    /// Internal nodes split in the middle. A leaf splits where `key`
    /// (the insert that found it full) lands when that key continues
    /// an ascending run — see [`leaf_split_point`] — so the run's next
    /// keys append to a leaf with room instead of shifting half a page.
    fn split_node<'b>(
        &self,
        bm: &'b BufferManager,
        mut left: PageWriteGuard<'b>,
        key: u64,
    ) -> (u64, u32, PageWriteGuard<'b>, PageWriteGuard<'b>) {
        self.splits.add(1);
        let node = decode(&left);
        let (right_page, mut right) = bm.allocate_fixed(self.file);
        let sep = match node {
            Node::Leaf {
                mut keys,
                mut vals,
                next,
            } => {
                let at = leaf_split_point(&keys, key);
                let right_keys = keys.split_off(at);
                let right_vals = vals.split_off(at);
                // an append leaves the right sibling empty until the
                // caller's insert lands there
                let sep = right_keys.first().copied().unwrap_or(key);
                encode(
                    &mut right,
                    &Node::Leaf {
                        keys: right_keys,
                        vals: right_vals,
                        next,
                    },
                );
                encode(
                    &mut left,
                    &Node::Leaf {
                        keys,
                        vals,
                        next: right_page,
                    },
                );
                sep
            }
            Node::Internal {
                mut keys,
                mut children,
            } => {
                let mid = keys.len() / 2;
                let promoted = keys[mid];
                let right_keys = keys.split_off(mid + 1);
                keys.pop(); // remove promoted
                let right_children = children.split_off(mid + 1);
                encode(
                    &mut right,
                    &Node::Internal {
                        keys: right_keys,
                        children: right_children,
                    },
                );
                encode(&mut left, &Node::Internal { keys, children });
                promoted
            }
        };
        (sep, right_page, right, left)
    }
}

/// Where a full leaf's sorted `keys` split for the insert of `key`:
/// entries from the returned index on move to the right sibling.
///
/// TPC-C's growing relations append to one ascending run per district
/// (`(w, d, order, line)` and its prefixes), and the runs of different
/// districts are 2^32 or more apart. A middle split there leaves the
/// run's tail in the middle of a half-full leaf: every later insert
/// shifts the entries above it (and logs the shifted range), and a
/// loader's ascending build leaves every leaf half empty. So when `key`
/// is past every entry, or lies at least 256 times closer to its
/// predecessor than to its successor, the leaf splits at `key`'s own
/// position and the run continues at the end of a leaf with room.
/// Uniformly spread keys meet the distance test about once in 256
/// splits; everything else splits in the middle as before.
fn leaf_split_point(keys: &[u64], key: u64) -> usize {
    let n = keys.len();
    match keys.binary_search(&key) {
        Err(p) if p == n => n,
        Err(p) if p > 0 && (keys[p] - key) >> 8 > key - keys[p - 1] => p,
        _ => n / 2,
    }
}

// ---- raw page accessors (allocation-free hot paths) ----

fn is_leaf(data: &[u8]) -> bool {
    data[0] == LEAF
}

fn entry_count(data: &[u8]) -> usize {
    u16::from_le_bytes([data[2], data[3]]) as usize
}

fn set_entry_count(data: &mut [u8], n: usize) {
    data[2..4].copy_from_slice(&(n as u16).to_le_bytes());
}

fn leaf_next(data: &[u8]) -> u32 {
    u32::from_le_bytes(data[4..8].try_into().expect("header"))
}

fn leaf_key(data: &[u8], i: usize) -> u64 {
    let off = HEADER + i * 16;
    u64::from_le_bytes(data[off..off + 8].try_into().expect("key"))
}

fn leaf_val(data: &[u8], i: usize) -> u64 {
    let off = HEADER + i * 16 + 8;
    u64::from_le_bytes(data[off..off + 8].try_into().expect("val"))
}

fn leaf_set_val(data: &mut [u8], i: usize, value: u64) {
    let off = HEADER + i * 16 + 8;
    data[off..off + 8].copy_from_slice(&value.to_le_bytes());
}

/// Binary search over a leaf's keys.
fn leaf_search(data: &[u8], key: u64) -> Result<usize, usize> {
    let (mut lo, mut hi) = (0usize, entry_count(data));
    while lo < hi {
        let mid = (lo + hi) / 2;
        let k = leaf_key(data, mid);
        if k < key {
            lo = mid + 1;
        } else if k > key {
            hi = mid;
        } else {
            return Ok(mid);
        }
    }
    Err(lo)
}

/// Inserts `(key, value)` at position `i`, shifting later entries.
fn leaf_insert_at(data: &mut [u8], i: usize, key: u64, value: u64) {
    let n = entry_count(data);
    let start = HEADER + i * 16;
    data.copy_within(start..HEADER + n * 16, start + 16);
    data[start..start + 8].copy_from_slice(&key.to_le_bytes());
    data[start + 8..start + 16].copy_from_slice(&value.to_le_bytes());
    set_entry_count(data, n + 1);
}

/// Removes the entry at position `i`, shifting later entries down.
fn leaf_remove_at(data: &mut [u8], i: usize) {
    let n = entry_count(data);
    let start = HEADER + i * 16;
    data.copy_within(start + 16..HEADER + n * 16, start);
    set_entry_count(data, n - 1);
}

fn internal_key(data: &[u8], i: usize) -> u64 {
    let off = HEADER + 4 + i * 12;
    u64::from_le_bytes(data[off..off + 8].try_into().expect("key"))
}

/// Overwrites separator `i` in place.
fn internal_set_key(data: &mut [u8], i: usize, key: u64) {
    let off = HEADER + 4 + i * 12;
    data[off..off + 8].copy_from_slice(&key.to_le_bytes());
}

/// Removes separator `i` and child `i + 1` (one 12-byte entry),
/// shifting later entries down — the post-merge parent update.
fn internal_remove_entry(data: &mut [u8], i: usize) {
    let n = entry_count(data);
    let start = HEADER + 4 + i * 12;
    data.copy_within(start + 12..HEADER + 4 + n * 12, start);
    set_entry_count(data, n - 1);
}

fn internal_child_at(data: &[u8], i: usize) -> u32 {
    let off = if i == 0 {
        HEADER
    } else {
        HEADER + 4 + (i - 1) * 12 + 8
    };
    u32::from_le_bytes(data[off..off + 4].try_into().expect("child"))
}

/// The child subtree holding `key`: index of the first separator
/// `> key`, and that child's page number.
fn internal_lookup(data: &[u8], key: u64) -> (usize, u32) {
    let (mut lo, mut hi) = (0usize, entry_count(data));
    while lo < hi {
        let mid = (lo + hi) / 2;
        if internal_key(data, mid) <= key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    (lo, internal_child_at(data, lo))
}

fn encode(data: &mut [u8], node: &Node) {
    match node {
        Node::Leaf { keys, vals, next } => {
            data[0] = LEAF;
            data[2..4].copy_from_slice(&(keys.len() as u16).to_le_bytes());
            data[4..8].copy_from_slice(&next.to_le_bytes());
            let mut off = HEADER;
            for (k, v) in keys.iter().zip(vals) {
                data[off..off + 8].copy_from_slice(&k.to_le_bytes());
                data[off + 8..off + 16].copy_from_slice(&v.to_le_bytes());
                off += 16;
            }
        }
        Node::Internal { keys, children } => {
            data[0] = INTERNAL;
            data[2..4].copy_from_slice(&(keys.len() as u16).to_le_bytes());
            data[4..8].copy_from_slice(&NO_LEAF.to_le_bytes());
            data[HEADER..HEADER + 4].copy_from_slice(&children[0].to_le_bytes());
            let mut off = HEADER + 4;
            for (k, c) in keys.iter().zip(children.iter().skip(1)) {
                data[off..off + 8].copy_from_slice(&k.to_le_bytes());
                data[off + 8..off + 12].copy_from_slice(&c.to_le_bytes());
                off += 12;
            }
        }
    }
}

fn decode(data: &[u8]) -> Node {
    let kind = data[0];
    let n = u16::from_le_bytes([data[2], data[3]]) as usize;
    if kind == LEAF {
        let next = u32::from_le_bytes(data[4..8].try_into().expect("header"));
        let mut keys = Vec::with_capacity(n);
        let mut vals = Vec::with_capacity(n);
        let mut off = HEADER;
        for _ in 0..n {
            keys.push(u64::from_le_bytes(
                data[off..off + 8].try_into().expect("key"),
            ));
            vals.push(u64::from_le_bytes(
                data[off + 8..off + 16].try_into().expect("val"),
            ));
            off += 16;
        }
        Node::Leaf { keys, vals, next }
    } else {
        let mut children = Vec::with_capacity(n + 1);
        children.push(u32::from_le_bytes(
            data[HEADER..HEADER + 4].try_into().expect("child0"),
        ));
        let mut keys = Vec::with_capacity(n);
        let mut off = HEADER + 4;
        for _ in 0..n {
            keys.push(u64::from_le_bytes(
                data[off..off + 8].try_into().expect("key"),
            ));
            children.push(u32::from_le_bytes(
                data[off + 8..off + 12].try_into().expect("child"),
            ));
            off += 12;
        }
        Node::Internal { keys, children }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bufmgr::Replacement;
    use crate::disk::DiskManager;
    use crate::wal::Wal;
    use tpcc_rand::Xoshiro256;

    fn setup(page_size: usize, frames: usize) -> (BufferManager, BTree) {
        let disk = DiskManager::new(page_size);
        let bm = BufferManager::new(disk, frames, Replacement::Lru);
        let tree = BTree::create(&bm);
        (bm, tree)
    }

    #[test]
    fn insert_get_small() {
        let (bm, t) = setup(256, 16);
        assert_eq!(t.insert(&bm, 5, 50), None);
        assert_eq!(t.insert(&bm, 3, 30), None);
        assert_eq!(t.insert(&bm, 9, 90), None);
        assert_eq!(t.get(&bm, 5), Some(50));
        assert_eq!(t.get(&bm, 3), Some(30));
        assert_eq!(t.get(&bm, 9), Some(90));
        assert_eq!(t.get(&bm, 4), None);
    }

    #[test]
    fn overwrite_returns_old() {
        let (bm, t) = setup(256, 16);
        t.insert(&bm, 7, 1);
        assert_eq!(t.insert(&bm, 7, 2), Some(1));
        assert_eq!(t.get(&bm, 7), Some(2));
        assert_eq!(t.len(&bm), 1);
    }

    #[test]
    fn many_inserts_with_splits_sequential() {
        // small pages force deep trees
        let (bm, t) = setup(256, 64);
        let n = 5000u64;
        for k in 0..n {
            t.insert(&bm, k, k * 2);
        }
        for k in 0..n {
            assert_eq!(t.get(&bm, k), Some(k * 2), "key {k}");
        }
        assert_eq!(t.len(&bm), n as usize);
    }

    #[test]
    fn many_inserts_random_order() {
        let (bm, t) = setup(256, 64);
        let mut rng = Xoshiro256::seed_from_u64(42);
        let mut keys: Vec<u64> = (0..4000).map(|_| rng.next_u64() >> 16).collect();
        keys.sort_unstable();
        keys.dedup();
        // shuffle
        for i in (1..keys.len()).rev() {
            let j = rng.uniform_inclusive(0, i as u64) as usize;
            keys.swap(i, j);
        }
        for &k in &keys {
            t.insert(&bm, k, !k);
        }
        for &k in &keys {
            assert_eq!(t.get(&bm, k), Some(!k));
        }
    }

    #[test]
    fn scan_range_is_sorted_and_bounded() {
        let (bm, t) = setup(256, 64);
        for k in (0..1000u64).rev() {
            t.insert(&bm, k * 3, k);
        }
        let mut seen = Vec::new();
        t.scan_range(&bm, 90, 150, |k, _| {
            seen.push(k);
            true
        });
        assert_eq!(
            seen,
            vec![
                90, 93, 96, 99, 102, 105, 108, 111, 114, 117, 120, 123, 126, 129, 132, 135, 138,
                141, 144, 147
            ]
        );
    }

    #[test]
    fn scan_early_stop() {
        let (bm, t) = setup(256, 64);
        for k in 0..100u64 {
            t.insert(&bm, k, k);
        }
        let mut count = 0;
        t.scan_range(&bm, 0, u64::MAX, |_, _| {
            count += 1;
            count < 5
        });
        assert_eq!(count, 5);
    }

    #[test]
    fn min_at_or_after_finds_oldest() {
        let (bm, t) = setup(256, 32);
        for k in [50u64, 20, 80, 35] {
            t.insert(&bm, k, k + 1);
        }
        assert_eq!(t.min_at_or_after(&bm, 0), Some((20, 21)));
        assert_eq!(t.min_at_or_after(&bm, 21), Some((35, 36)));
        assert_eq!(t.min_at_or_after(&bm, 81), None);
    }

    #[test]
    fn delete_removes_and_scan_skips() {
        let (bm, t) = setup(256, 64);
        for k in 0..500u64 {
            t.insert(&bm, k, k);
        }
        for k in (0..500).step_by(2) {
            assert_eq!(t.delete(&bm, k), Some(k));
        }
        assert_eq!(t.delete(&bm, 0), None, "double delete");
        for k in 0..500u64 {
            let expect = (k % 2 == 1).then_some(k);
            assert_eq!(t.get(&bm, k), expect, "key {k}");
        }
        assert_eq!(t.len(&bm), 250);
    }

    #[test]
    fn fifo_queue_pattern_like_new_order() {
        // insert at the tail, delete at the head — the New-Order usage
        let (bm, t) = setup(256, 32);
        let mut head = 0u64;
        let mut tail = 0u64;
        for _ in 0..2000 {
            t.insert(&bm, tail, tail);
            tail += 1;
            if tail - head > 30 {
                let (k, _) = t.min_at_or_after(&bm, 0).expect("nonempty");
                assert_eq!(k, head);
                t.delete(&bm, k);
                head += 1;
            }
        }
        assert_eq!(t.len(&bm), (tail - head) as usize);
    }

    #[test]
    fn fifo_churn_keeps_the_footprint_bounded() {
        // The Delivery leak in miniature: without merges the head
        // leaves of the FIFO queue stay allocated forever and the
        // index grows without bound. With them the footprint must
        // plateau near the live-entry working set.
        let (bm, t) = setup(256, 64);
        let mut head = 0u64;
        let mut tail = 0u64;
        let mut plateau = Vec::new();
        for round in 0..40_000u64 {
            t.insert(&bm, tail, tail);
            tail += 1;
            if tail - head > 30 {
                assert_eq!(t.delete(&bm, head), Some(head));
                head += 1;
            }
            if round >= 10_000 && round % 2_000 == 0 {
                plateau.push(t.allocated_pages(&bm));
            }
        }
        let (lo, hi) = (
            *plateau.iter().min().expect("samples"),
            *plateau.iter().max().expect("samples"),
        );
        assert!(
            hi - lo <= 1,
            "footprint must be flat in steady state: {plateau:?}"
        );
        // 30 live entries fit in a handful of 15-entry leaves + spine
        assert!(hi <= 8, "steady-state footprint too large: {hi} pages");
        assert!(t.height(&bm) <= 3);
        assert_eq!(t.len(&bm), (tail - head) as usize);
    }

    #[test]
    fn delete_everything_collapses_the_tree() {
        let (bm, t) = setup(256, 64);
        let n = 3000u64;
        for k in 0..n {
            t.insert(&bm, k, k);
        }
        let grown = t.allocated_pages(&bm);
        assert!(grown > 100, "tree grew: {grown} pages");
        assert!(t.height(&bm) >= 3);
        for k in 0..n {
            assert_eq!(t.delete(&bm, k), Some(k), "key {k}");
        }
        assert!(t.is_empty(&bm));
        assert_eq!(t.height(&bm), 1, "root collapsed back to a lone leaf");
        assert!(
            t.allocated_pages(&bm) <= 2,
            "pages returned: {} still allocated",
            t.allocated_pages(&bm)
        );
        // the tree is still fully usable after total collapse
        for k in 0..200u64 {
            t.insert(&bm, k, !k);
        }
        for k in 0..200u64 {
            assert_eq!(t.get(&bm, k), Some(!k));
        }
    }

    #[test]
    fn random_delete_heavy_churn_matches_model() {
        // interleaved inserts/deletes against a BTreeMap oracle, with
        // scans — exercises borrow (balance) paths, not just the
        // FIFO merge pattern
        use std::collections::BTreeMap;
        let (bm, t) = setup(256, 64);
        let mut oracle = BTreeMap::new();
        let mut rng = Xoshiro256::seed_from_u64(7);
        for _ in 0..30_000 {
            let k = rng.uniform_inclusive(0, 999);
            if rng.uniform_inclusive(0, 99) < 55 {
                // delete-heavy mix drives occupancy down into the
                // rebalance threshold constantly
                assert_eq!(t.delete(&bm, k), oracle.remove(&k), "delete {k}");
            } else {
                let v = rng.next_u64();
                assert_eq!(t.insert(&bm, k, v), oracle.insert(k, v), "insert {k}");
            }
        }
        let mut actual = Vec::new();
        t.scan_range(&bm, 0, u64::MAX, |k, v| {
            actual.push((k, v));
            true
        });
        let expected: Vec<(u64, u64)> = oracle.into_iter().collect();
        assert_eq!(actual, expected, "contents diverge from oracle");
    }

    #[test]
    fn merges_free_pages_and_log_replays() {
        // grow, shrink, and crash-recover: the WAL must replay the
        // merge-driven frees to the same image a clean run produced
        let disk = DiskManager::new(256);
        let mut bm = BufferManager::new(disk, 64, Replacement::Lru);
        bm.enable_wal();
        let checkpoint = bm.disk_snapshot();
        let t = BTree::create(&bm);
        for k in 0..1500u64 {
            t.insert(&bm, k, k);
        }
        for k in 0..1400u64 {
            t.delete(&bm, k);
        }
        bm.log_commit(1);
        bm.flush_all();
        assert!(bm.pages_freed() > 0, "merges freed pages");

        let wal = bm.take_wal().expect("enabled");
        let clean = bm.disk_snapshot();
        let recovered = wal.try_recover(checkpoint).expect("log applies");
        assert!(
            recovered.contents_equal(&clean),
            "recovery replays merges and frees identically"
        );
    }

    /// `(leaves, entries)` counted along the leaf chain.
    fn leaf_chain(bm: &BufferManager, t: &BTree) -> (usize, usize) {
        let mut guard = bm.fix_shared(t.file, *t.root.read().expect("root latch"));
        while !is_leaf(&guard) {
            let child = internal_child_at(&guard, 0);
            guard = bm.fix_shared(t.file, child);
        }
        let (mut leaves, mut entries) = (0, 0);
        loop {
            leaves += 1;
            entries += entry_count(&guard);
            let next = leaf_next(&guard);
            if next == NO_LEAF {
                return (leaves, entries);
            }
            guard = bm.fix_shared(t.file, next);
        }
    }

    #[test]
    fn ascending_inserts_leave_full_leaves() {
        let (bm, t) = setup(4096, 1024);
        let n = 100_000usize;
        for k in 0..n as u64 {
            t.insert(&bm, k, k);
        }
        let (leaves, entries) = leaf_chain(&bm, &t);
        assert_eq!(entries, n);
        let full = n.div_ceil(t.leaf_cap);
        assert!(
            leaves * 100 <= full * 105,
            "{leaves} leaves where {full} full ones hold {n} keys"
        );
        // 393 full leaves or the 785 half-full ones of a middle split:
        // one root over either
        assert_eq!(t.height(&bm), 3);
        assert_eq!(t.get(&bm, 54_321), Some(54_321));
    }

    #[test]
    fn interleaved_runs_log_appends_not_shifts() {
        // ten ascending runs 2^44 apart, the `(district, order, line)`
        // shape of TPC-C's order-line key
        let key = |d: u64, o: u64, line: u64| (((d << 40) | o) << 4) | line;
        let order = |bm: &BufferManager, t: &BTree, d: u64, o: u64| {
            for line in 1..=10 {
                t.insert(bm, key(d, o, line), o);
            }
            10
        };
        let disk = DiskManager::new(4096);
        let mut bm = BufferManager::new(disk, 512, Replacement::Lru);
        bm.enable_wal();
        let checkpoint = bm.disk_snapshot();
        let t = BTree::create(&bm);
        // loaded run after run, every run's tail but the last sits
        // inside a full leaf; one interleaved order each splits it there
        for d in 0..10 {
            for o in 0..60 {
                order(&bm, &t, d, o);
            }
        }
        for d in 0..10 {
            order(&bm, &t, d, 60);
        }
        let logged = |bm: &BufferManager| bm.with_wal(Wal::delta_bytes).expect("enabled");
        let (before, leaves_before) = (logged(&bm), leaf_chain(&bm, &t).0);
        let mut inserts = 0;
        for o in 61..141 {
            for d in 0..10 {
                inserts += order(&bm, &t, d, o);
            }
        }
        let per_insert = (logged(&bm) - before) as f64 / f64::from(inserts);
        let later_splits = leaf_chain(&bm, &t).0 - leaves_before;
        assert!(later_splits >= 20, "only {later_splits} splits measured");
        // 16-byte entry + 2-byte count, plus each run's splits spread
        // over the leaf they fill
        assert!(
            per_insert <= 40.0,
            "{per_insert:.1} delta bytes per insert over {inserts} inserts"
        );

        bm.log_commit(1);
        bm.flush_all();
        let wal = bm.take_wal().expect("enabled");
        let recovered = wal.try_recover(checkpoint).expect("log applies");
        assert!(recovered.contents_equal(&bm.disk_snapshot()));
    }

    #[test]
    fn random_inserts_keep_leaves_two_thirds_full() {
        use std::collections::BTreeMap;
        for page_size in [256, 4096] {
            let (bm, t) = setup(page_size, 1024);
            let mut oracle = BTreeMap::new();
            let mut rng = Xoshiro256::seed_from_u64(11);
            while oracle.len() < 100_000 {
                let (k, v) = (rng.next_u64() >> 8, rng.next_u64());
                assert_eq!(t.insert(&bm, k, v), oracle.insert(k, v));
            }
            let (leaves, entries) = leaf_chain(&bm, &t);
            assert_eq!(entries, oracle.len());
            let fill = entries as f64 / (leaves * t.leaf_cap) as f64;
            assert!(fill >= 0.60, "page {page_size}: leaf fill {fill:.3}");
            for (&k, &v) in oracle.iter().step_by(7) {
                assert_eq!(t.get(&bm, k), Some(v));
                assert_eq!(t.get(&bm, k ^ 1).is_some(), oracle.contains_key(&(k ^ 1)));
            }
            let (lo, hi) = (u64::MAX >> 10, u64::MAX >> 9);
            let mut scanned = Vec::new();
            t.scan_range(&bm, lo, hi, |k, v| {
                scanned.push((k, v));
                true
            });
            let expected: Vec<_> = oracle.range(lo..hi).map(|(&k, &v)| (k, v)).collect();
            assert!(expected.len() > 100);
            assert_eq!(scanned, expected, "page {page_size}");
        }
    }

    #[test]
    fn survives_tiny_buffer_pool() {
        // 4 frames, tree of thousands of keys: exercises write-back
        let (bm, t) = setup(256, 4);
        for k in 0..3000u64 {
            t.insert(&bm, k, k ^ 0xAB);
        }
        for k in (0..3000u64).step_by(97) {
            assert_eq!(t.get(&bm, k), Some(k ^ 0xAB));
        }
    }

    #[test]
    fn concurrent_disjoint_writers_and_readers() {
        // four threads own disjoint key stripes; a scan thread sweeps
        // the whole range concurrently. Crabbing must keep every stripe
        // intact with no lost inserts.
        let disk = DiskManager::new(256);
        let bm = BufferManager::new_sharded(disk, 256, Replacement::Lru, 8);
        let t = BTree::create(&bm);
        const PER: u64 = 2000;
        std::thread::scope(|scope| {
            for stripe in 0..4u64 {
                let (t, bm) = (&t, &bm);
                scope.spawn(move || {
                    for i in 0..PER {
                        let k = stripe * 1_000_000 + i;
                        t.insert(bm, k, !k);
                    }
                });
            }
            let (t, bm) = (&t, &bm);
            scope.spawn(move || {
                for _ in 0..50 {
                    let mut last = 0;
                    t.scan_range(bm, 0, u64::MAX, |k, _| {
                        assert!(k >= last, "scan out of order");
                        last = k;
                        true
                    });
                }
            });
        });
        for stripe in 0..4u64 {
            for i in 0..PER {
                let k = stripe * 1_000_000 + i;
                assert_eq!(t.get(&bm, k), Some(!k), "stripe {stripe} key {i}");
            }
        }
        assert_eq!(t.len(&bm), 4 * PER as usize);
    }
}
