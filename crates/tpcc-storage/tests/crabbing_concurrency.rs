//! Seeded multi-thread property tests for latch crabbing: writer
//! threads interleave inserts, ascending `insert_sorted` runs,
//! overwrites, and deletes on one shared B+Tree while reader threads
//! run full-range scans and `get_sorted` probes, and the final contents
//! must match a serially-applied oracle.
//!
//! Each writer owns a key stripe (`key % writers == id`), so the final
//! state is independent of thread interleaving — any divergence from
//! the oracle is a latching bug (lost update, torn split, broken leaf
//! chain), not scheduling noise. Scans and probes cross every stripe
//! concurrently with splits and must always observe sorted keys and the
//! per-key value invariant: every value carries its key in its low 16
//! bits.

use std::collections::BTreeMap;

use tpcc_storage::{BTree, BufferManager, DiskManager};

/// xorshift64*: deterministic per-thread op streams.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

#[derive(Clone, Copy)]
enum Op {
    Insert(u64, u64),
    /// `insert_sorted` of `len` consecutive stripe keys from `key`,
    /// their values drawn from the seed `r`.
    Run {
        key: u64,
        len: u64,
        r: u64,
    },
    Delete(u64),
}

/// A value for `key`, carrying the key in its low 16 bits (the reader
/// invariant). Keys stay below `KEY_SPACE` < 2^16.
fn value_for(key: u64, r: u64) -> u64 {
    (r << 16) | key
}

/// The entries of an [`Op::Run`].
fn run_entries(key: u64, len: u64, r: u64, writers: u64) -> Vec<(u64, u64)> {
    (0..len)
        .map(|i| key + i * writers)
        .filter(|&k| k < KEY_SPACE)
        .map(|k| (k, value_for(k, r ^ k)))
        .collect()
}

const KEY_SPACE: u64 = 50_000;

/// The op stream of writer `id`: pure function of (seed, id), keys
/// restricted to the writer's stripe so streams commute across
/// threads.
fn ops_for(seed: u64, id: u64, writers: u64, ops: usize, key_space: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed ^ (id + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (0..ops)
        .map(|_| {
            let r = rng.next();
            let key = (r % key_space) / writers * writers + id; // stripe
            match r % 5 {
                4 => Op::Delete(key),
                3 => Op::Run {
                    key,
                    len: 1 + (r >> 40) % 48,
                    r: r >> 24,
                },
                _ => Op::Insert(key, value_for(key, r >> 24)),
            }
        })
        .collect()
}

/// `get_sorted` over `keys` random ascending keys: every hit must carry
/// its key.
fn probe_sorted(bm: &BufferManager, tree: &BTree, rng: &mut Rng, keys: usize) {
    let mut probe: Vec<u64> = (0..keys).map(|_| rng.next() % (KEY_SPACE + 100)).collect();
    probe.sort_unstable();
    let mut seen = 0;
    tree.get_sorted(bm, &probe, |k, v| {
        assert_eq!(k, probe[seen], "get_sorted visits keys in order");
        seen += 1;
        if let Some(v) = v {
            assert_eq!(v & 0xFFFF, k, "value {v:#x} under key {k}");
        }
    });
    assert_eq!(seen, probe.len());
}

fn crabbing_matches_oracle(seed: u64, writers: u64, ops: usize, frames: usize, shards: usize) {
    let disk = DiskManager::new(4096);
    let bm = BufferManager::new_sharded(disk, frames, shards);
    let tree = BTree::create(&bm);

    let streams: Vec<Vec<Op>> = (0..writers)
        .map(|id| ops_for(seed, id, writers, ops, KEY_SPACE))
        .collect();

    std::thread::scope(|scope| {
        for stream in &streams {
            let (bm, tree) = (&bm, &tree);
            scope.spawn(move || {
                for &op in stream {
                    match op {
                        Op::Insert(k, v) => {
                            tree.insert(bm, k, v);
                        }
                        Op::Run { key, len, r } => {
                            tree.insert_sorted(bm, &run_entries(key, len, r, writers));
                        }
                        Op::Delete(k) => {
                            tree.delete(bm, k);
                        }
                    }
                }
            });
        }
        // readers: full-range scans and sorted probes concurrent with
        // splits must see sorted keys; values are whatever some insert
        // of that key wrote
        for r in 0..2u64 {
            let (bm, tree) = (&bm, &tree);
            scope.spawn(move || {
                let mut rng = Rng::new(seed ^ (r + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
                for _ in 0..40 {
                    let mut last = None;
                    tree.scan_range(bm, r * 1000, u64::MAX, |k, v| {
                        assert!(last < Some(k), "scan out of order: {last:?} then {k}");
                        assert_eq!(v & 0xFFFF, k, "value {v:#x} under key {k}");
                        last = Some(k);
                        true
                    });
                    for _ in 0..4 {
                        probe_sorted(bm, tree, &mut rng, 200);
                    }
                }
            });
        }
    });

    // serial oracle: streams only touch disjoint stripes, so any
    // per-thread-sequential application order yields the same map
    let mut oracle = BTreeMap::new();
    for stream in &streams {
        for &op in stream {
            match op {
                Op::Insert(k, v) => {
                    oracle.insert(k, v);
                }
                Op::Run { key, len, r } => oracle.extend(run_entries(key, len, r, writers)),
                Op::Delete(k) => {
                    oracle.remove(&k);
                }
            }
        }
    }

    let mut actual = Vec::with_capacity(oracle.len());
    tree.scan_range(&bm, 0, u64::MAX, |k, v| {
        actual.push((k, v));
        true
    });
    let expected: Vec<(u64, u64)> = oracle.into_iter().collect();
    assert_eq!(actual.len(), expected.len(), "entry count diverges");
    assert_eq!(actual, expected, "final contents diverge from oracle");

    // point lookups agree too (exercises the descent path, not just
    // the leaf chain)
    for &(k, v) in expected.iter().step_by(97) {
        assert_eq!(tree.get(&bm, k), Some(v));
    }
    let keys: Vec<u64> = (0..KEY_SPACE + 100).step_by(13).collect();
    let mut probed = Vec::new();
    tree.get_sorted(&bm, &keys, |k, v| probed.push((k, v)));
    let want: Vec<_> = keys.iter().map(|&k| (k, tree.get(&bm, k))).collect();
    assert_eq!(probed, want, "get_sorted diverges from get");
}

/// FIFO churn under concurrency: every writer inserts at the head of
/// its stripe and deletes at the tail once its window fills — the
/// NEW-ORDER access pattern that drives leaf merges at the drained end
/// while the head still splits. Readers scan across the merging region
/// the whole time. Verifies the delete-side restructuring protocol
/// (merge/borrow under the pessimistic restart path) against a serial
/// oracle, and that merges actually return pages to the free list so
/// the live footprint stays bounded.
fn fifo_churn_matches_oracle(
    seed: u64,
    writers: u64,
    ops: u64,
    window: u64,
    frames: usize,
    shards: usize,
) {
    // small pages (~15 entries per leaf) so the live window spans many
    // leaves and the drained end actually merges; at 4KiB the whole
    // window fits in two leaves that only ever borrow from each other
    let disk = DiskManager::new(256);
    let bm = BufferManager::new_sharded(disk, frames, shards);
    let tree = BTree::create(&bm);

    std::thread::scope(|scope| {
        for id in 0..writers {
            let (bm, tree) = (&bm, &tree);
            scope.spawn(move || {
                for i in 0..ops {
                    let key = i * writers + id;
                    tree.insert(bm, key, key ^ seed);
                    if i >= window {
                        let old = (i - window) * writers + id;
                        // stripes are disjoint, so the delete must
                        // observe exactly what this thread inserted
                        assert_eq!(tree.delete(bm, old), Some(old ^ seed));
                    }
                }
            });
        }
        // scans sweep the low-key region where leaves are merging
        for _ in 0..2 {
            let (bm, tree) = (&bm, &tree);
            scope.spawn(move || {
                for _ in 0..40 {
                    let mut last = None;
                    tree.scan_range(bm, 0, u64::MAX, |k, _| {
                        assert!(last < Some(k), "scan out of order: {last:?} then {k}");
                        last = Some(k);
                        true
                    });
                }
            });
        }
    });

    // oracle: the last `window` keys of every stripe survive
    let mut expected = Vec::new();
    for id in 0..writers {
        for i in (ops - window)..ops {
            let key = i * writers + id;
            expected.push((key, key ^ seed));
        }
    }
    expected.sort_unstable();

    let mut actual = Vec::with_capacity(expected.len());
    tree.scan_range(&bm, 0, u64::MAX, |k, v| {
        actual.push((k, v));
        true
    });
    assert_eq!(actual, expected, "final contents diverge from FIFO oracle");

    // the churn must have exercised merges, and the reclaimed pages
    // must keep the live index far below its cumulative insert volume
    assert!(bm.pages_freed() > 0, "FIFO churn produced no merges");
    // post-merge leaves hold >= ~7 entries each, so the live tree needs
    // at most ~live/4 pages; without reclamation the cumulative insert
    // volume would leave hundreds of half-dead pages allocated
    let live = tree.allocated_pages(&bm);
    let bound = (expected.len() as u32) / 4 + 16;
    assert!(
        live <= bound,
        "live index footprint {live} pages (> {bound}) for {} live entries — merges not reclaiming",
        expected.len()
    );
}

fn stress_seed() -> u64 {
    std::env::var("TPCC_STRESS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

#[test]
fn crabbing_btree_matches_serial_oracle() {
    crabbing_matches_oracle(42, 4, 3_000, 512, 8);
}

#[test]
fn crabbing_survives_a_tight_buffer_pool() {
    // eviction pressure: the pool is far smaller than the tree, so
    // descents constantly fault pages back in while others split
    crabbing_matches_oracle(7, 4, 2_000, 64, 4);
}

#[test]
fn concurrent_fifo_churn_merges_and_stays_bounded() {
    fifo_churn_matches_oracle(42, 4, 3_000, 64, 256, 8);
}

/// Release-mode stress variant (CI runs `--ignored stress` with a seed
/// matrix via `TPCC_STRESS_SEED`).
#[test]
#[ignore = "stress: run with --ignored, seeded via TPCC_STRESS_SEED"]
fn stress_crabbing_btree_matches_serial_oracle() {
    let seed = stress_seed();
    crabbing_matches_oracle(seed, 8, 25_000, 1024, 8);
    crabbing_matches_oracle(seed.wrapping_mul(31), 8, 10_000, 96, 4);
}

/// Release-mode stress variant of the FIFO churn test: 8 writers,
/// 20k ops each — ~160k inserts and deletes funnelled through a
/// merging tree under a seed matrix.
#[test]
#[ignore = "stress: run with --ignored, seeded via TPCC_STRESS_SEED"]
fn stress_concurrent_fifo_churn_merges_and_stays_bounded() {
    let seed = stress_seed();
    fifo_churn_matches_oracle(seed, 8, 20_000, 128, 512, 8);
    fifo_churn_matches_oracle(seed.wrapping_mul(31), 8, 8_000, 64, 96, 4);
}
