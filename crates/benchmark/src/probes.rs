//! Isolated layer probes: each drives one layer's public API alone on
//! workload-shaped data (4 KiB pages, Table-1 record sizes, a 300 000-
//! key index) and reports nanoseconds per operation as the median of
//! [`BATCHES`] batches of [`OPS`] operations after a warm-up. Together
//! with the per-transaction counts of the traced repetitions they
//! attribute a transaction's time to the layers below `txns`:
//! `ops_per_txn × ns_per_op`.
//!
//! The probes do not depend on the workload, so each runs in the
//! traced run of one workload only: the one whose end-to-end numbers
//! its layer should move. One pass over the six workloads therefore
//! runs every probe exactly once.

use std::hint::black_box;
use std::time::Instant;

use tpcc_buffer::{LruBuffer, StackDistance};
use tpcc_db::records::{CustomerRec, OrderLineRec, StockRec};
use tpcc_lock::{LockKey, LockManager, LockMode};
use tpcc_rand::{NuRand, Xoshiro256};
use tpcc_schema::packing::Packing;
use tpcc_storage::{
    page_deltas, BTree, BufferManager, DiskManager, FileId, HeapFile, RecordId, Replacement,
    UndoStore, Wal, WalEntry,
};
use tpcc_workload::{PageRef, TraceConfig, TraceGenerator};

use crate::metrics::{median, Values, Workload};

/// Batches per probe; the reported value is their median.
const BATCHES: usize = 5;
/// Operations per batch (so every probe times 200 000 operations).
const OPS: usize = 40_000;
const PAGE: usize = 4096;
/// Keys preloaded into the probed B+Tree (one district-sized customer
/// index is 3 000 keys, one warehouse's stock index 100 000; 300 000
/// gives the three-level tree the order-line index has).
const TREE_KEYS: u64 = 300_000;
/// Record length of the heap probes (a stock row is 306 bytes).
const HEAP_RECORD: usize = 300;

/// Times `op` and returns median nanoseconds per call. `op` receives a
/// running index that keeps counting through warm-up and batches, so
/// insert probes never repeat a key.
fn time_ns(ops: usize, mut op: impl FnMut(usize)) -> f64 {
    let mut i = 0;
    for _ in 0..ops / 2 {
        op(i);
        i += 1;
    }
    let mut per_op = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        for _ in 0..ops {
            op(i);
            i += 1;
        }
        per_op.push(t0.elapsed().as_nanos() as f64 / ops as f64);
    }
    median(&per_op)
}

/// A pool over a fresh in-memory disk.
fn pool(frames: usize) -> BufferManager {
    BufferManager::new(DiskManager::new(PAGE), frames, Replacement::Lru)
}

/// A file of `pages` formatted-as-zero pages, all flushed to disk.
fn paged_file(bm: &BufferManager, pages: u32) -> FileId {
    let file = bm.create_file();
    for _ in 0..pages {
        bm.allocate_page(file, |_| ());
    }
    bm.flush_all();
    file
}

/// Runs the probes that belong to `workload`'s traced run. `scale`
/// divides the operation counts (smoke test).
pub fn run(workload: Workload, scale: u64, v: &mut Values) {
    let ops = (OPS as u64 / scale).max(200) as usize;
    let mut rng = Xoshiro256::seed_from_u64(0x9E37_79B9);
    match workload {
        // the log and delta capture do most of this workload's work
        Workload::SerialWal => wal(ops, &mut rng, v),
        // eviction, miss-load, index descent and the codecs do here
        Workload::SerialNologMiss => {
            records(ops, v);
            btree(ops, scale, &mut rng, v);
            heap(ops, &mut rng, v);
            bufmgr(ops, &mut rng, v);
        }
        Workload::ContendedMvcc => {
            lock(ops, v);
            undo(ops, v);
        }
        // their layers (logmgr, cdc, cluster) are measured in place
        Workload::PipelineGcCdc | Workload::Cluster2pc => {}
        Workload::ModelSweep => model(ops, scale, &mut rng, v),
    }
}

fn records(ops: usize, v: &mut Values) {
    let customer = CustomerRec {
        c_id: 1234,
        d_id: 7,
        w_id: 1,
        first: "first-name-1234".into(),
        middle: "OE".into(),
        last: "BARBARBAR".into(),
        street: "street address line".into(),
        city: "city name".into(),
        phone: "0123456789012345".into(),
        credit: "GC".into(),
        credit_lim: 50_000.0,
        discount: 0.25,
        balance: -10.0,
        ytd_payment: 10.0,
        payment_cnt: 1,
        delivery_cnt: 0,
        data: "x".repeat(400),
    };
    v.insert(
        "records.customer_codec_ns",
        time_ns(ops, |_| {
            black_box(CustomerRec::decode(&black_box(&customer).encode()));
        }),
    );
    let stock = StockRec {
        i_id: 4321,
        w_id: 1,
        quantity: 55,
        ytd: 100,
        order_cnt: 10,
        remote_cnt: 1,
        dist_info: std::array::from_fn(|d| format!("dist-info-{d:02}-abcdefghijk")),
        data: "stock data ORIGINAL".into(),
    };
    v.insert(
        "records.stock_codec_ns",
        time_ns(ops, |_| {
            black_box(StockRec::decode(&black_box(&stock).encode()));
        }),
    );
    let line = OrderLineRec {
        o_id: 3001,
        d_id: 7,
        w_id: 1,
        number: 5,
        i_id: 4321,
        supply_w_id: 1,
        delivery_d: 0,
        quantity: 5,
        amount: 123.45,
        dist_info: "dist-info-07-abcdefg".into(),
    };
    v.insert(
        "records.order_line_codec_ns",
        time_ns(ops, |_| {
            black_box(OrderLineRec::decode(&black_box(&line).encode()));
        }),
    );
}

/// One New-Order lockset (S warehouse, X district, X customer, ten X
/// stock rows) acquired and released with nobody else around.
fn lock(ops: usize, v: &mut Values) {
    let lm = LockManager::new();
    let key = |space: u32, key: u64| LockKey { space, key };
    v.insert(
        "lock.lockset_uncontended_ns",
        time_ns(ops, |i| {
            let mut txn = lm.begin();
            let base = i as u64 * 10;
            txn.lock(key(0, 0), LockMode::Shared).expect("uncontended");
            txn.lock(key(1, i as u64 % 10), LockMode::Exclusive)
                .expect("uncontended");
            txn.lock(key(2, base % 30_000), LockMode::Exclusive)
                .expect("uncontended");
            for line in 0..10 {
                txn.lock(key(3, (base + line) % 100_000), LockMode::Exclusive)
                    .expect("uncontended");
            }
            drop(txn);
        }),
    );
}

fn btree(ops: usize, scale: u64, rng: &mut Xoshiro256, v: &mut Values) {
    let keys = TREE_KEYS / scale;
    // resident: 16-byte entries fill ~250 per leaf, and the insert
    // probe adds at most as many keys again
    let bm = pool(8192);
    let tree = BTree::create(&bm);
    for k in 0..keys {
        tree.insert(&bm, k * 2, k); // even keys; the insert probe adds odd ones
    }
    v.insert(
        "btree.get_ns",
        time_ns(ops, |_| {
            let k = rng.uniform_inclusive(0, keys - 1) * 2;
            black_box(tree.get(&bm, k));
        }),
    );
    v.insert(
        "btree.scan20_ns",
        time_ns(ops, |_| {
            let lo = rng.uniform_inclusive(0, keys - 21) * 2;
            let mut seen = 0;
            tree.scan_range(&bm, lo, u64::MAX, |_, val| {
                black_box(val);
                seen += 1;
                seen < 20
            });
        }),
    );
    v.insert(
        "btree.insert_ns",
        time_ns(ops, |i| {
            // spread the new keys over the whole key range
            let k = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % keys;
            black_box(tree.insert(&bm, k * 2 + 1, i as u64));
        }),
    );
}

fn heap(ops: usize, rng: &mut Xoshiro256, v: &mut Values) {
    // 13 records of 300 bytes per page: preload + inserts stay resident
    let bm = pool(16_384);
    let file = HeapFile::create(&bm);
    let record = [7u8; HEAP_RECORD];
    let preload = 2 * ops;
    let rids: Vec<RecordId> = (0..preload).map(|_| file.insert(&bm, &record)).collect();
    let pick = |rng: &mut Xoshiro256| rids[rng.uniform_inclusive(0, preload as u64 - 1) as usize];
    v.insert(
        "heap.get_ns",
        time_ns(ops, |_| {
            black_box(file.get(&bm, pick(rng)));
        }),
    );
    let mut changed = record;
    v.insert(
        "heap.update_ns",
        time_ns(ops, |i| {
            changed[8] = i as u8;
            black_box(file.update(&bm, pick(rng), &changed));
        }),
    );
    v.insert(
        "heap.insert_ns",
        // a quarter of the operations, so the file still fits the pool
        time_ns(ops / 4, |_| {
            black_box(file.insert(&bm, &record));
        }),
    );
}

fn bufmgr(ops: usize, rng: &mut Xoshiro256, v: &mut Values) {
    // hit: 1 024 pages inside a 2 048-frame pool
    let bm = pool(2048);
    let file = paged_file(&bm, 1024);
    for p in 0..1024 {
        bm.with_page(file, p, |_| ());
    }
    v.insert(
        "bufmgr.fix_hit_ns",
        time_ns(ops, |_| {
            let p = rng.uniform_inclusive(0, 1023) as u32;
            black_box(bm.fix_shared(file, p)[0]);
        }),
    );
    // miss: cycling through 4 096 pages with 256 frames evicts the
    // least recent page on every access — clean when only read,
    // dirty (one write-back per access) when every page is modified
    let bm = pool(256);
    let file = paged_file(&bm, 4096);
    v.insert(
        "bufmgr.fix_miss_clean_ns",
        time_ns(ops, |i| {
            black_box(bm.fix_shared(file, (i % 4096) as u32)[0]);
        }),
    );
    v.insert(
        "bufmgr.fix_miss_dirty_ns",
        time_ns(ops, |i| {
            bm.fix_exclusive(file, (i % 4096) as u32)[0] = i as u8;
        }),
    );
}

fn wal(ops: usize, rng: &mut Xoshiro256, v: &mut Values) {
    // the write guard: fix exclusive + a 16-byte change + drop, on
    // resident pages, with and without before-image capture and logging
    for (name, logged) in [
        ("wal.write_fix_unlogged_ns", false),
        ("wal.write_fix_logged_ns", true),
    ] {
        let mut bm = pool(2048);
        let file = paged_file(&bm, 1024);
        for p in 0..1024 {
            bm.with_page(file, p, |_| ());
        }
        if logged {
            bm.enable_wal();
        }
        v.insert(
            name,
            time_ns(ops, |i| {
                let p = rng.uniform_inclusive(0, 1023) as u32;
                let mut guard = bm.fix_exclusive(file, p);
                let at = 64 + (i % 200) * 16;
                guard[at..at + 16].copy_from_slice(&(i as u128).to_le_bytes());
            }),
        );
    }
    // delta extraction: a heap-page-shaped change (a 54-byte record
    // body and its 4-byte slot entry, far apart → two segments)
    let before = vec![3u8; PAGE];
    let mut after = before.clone();
    after[16..20].fill(9);
    after[3000..3054].fill(9);
    v.insert(
        "wal.page_deltas_ns",
        time_ns(ops, |_| {
            black_box(page_deltas(black_box(&before), black_box(&after)));
        }),
    );
    // append: one 54-byte delta record (allocation of its payload
    // included, as on the real write path)
    let mut log = Wal::new();
    v.insert(
        "wal.append_ns",
        time_ns(ops, |i| {
            log.append(WalEntry::PageDelta {
                file: FileId(1),
                page: i as u32,
                offset: 3000,
                data: vec![9u8; 54],
            });
        }),
    );
    black_box(log.len());
}

/// One versioned stock-row write: begin, record the 306-byte pre-image,
/// commit (stamp + publish + prune).
fn undo(ops: usize, v: &mut Values) {
    let store = UndoStore::new(16);
    let before = [5u8; 306];
    v.insert(
        "undo.record_commit_ns",
        time_ns(ops, |i| {
            let key = (FileId(3), (i % 100_000) as u64);
            let txn = store.begin();
            store.record(txn, key, Some(&before));
            black_box(store.commit(txn, &[key]));
        }),
    );
}

/// The model kernel's three steps in isolation: one NURand draw, one
/// transaction's reference string, one stack-distance / LRU access.
fn model(ops: usize, scale: u64, rng: &mut Xoshiro256, v: &mut Values) {
    let nu = NuRand::item_id();
    v.insert(
        "rand.nurand_sample_ns",
        time_ns(ops, |_| {
            black_box(nu.sample(rng));
        }),
    );
    let mut gen = TraceGenerator::new(
        TraceConfig::paper_default(20, Packing::Sequential),
        None,
        17,
    );
    let mut refs: Vec<PageRef> = Vec::with_capacity(512);
    // a transaction is ~35 references: fewer calls, same reference count
    v.insert(
        "workload.trace_txn_ns",
        time_ns(ops / 10, |_| {
            black_box(gen.next_transaction(&mut refs));
        }),
    );
    // a recorded reference stream, replayed through both analysers
    let mut stream: Vec<u64> = Vec::new();
    let wanted = ops * (BATCHES + 1);
    while stream.len() < wanted {
        gen.next_transaction(&mut refs);
        stream.extend(refs.iter().map(|r| r.page.raw()));
    }
    let mut analyzer = StackDistance::new((1 << 20) / scale as usize);
    v.insert(
        "buffer.stack_access_ns",
        time_ns(ops, |i| {
            black_box(analyzer.access(stream[i]));
        }),
    );
    let mut lru = LruBuffer::new(12_800 / scale as usize); // 50 MB of 4 KiB pages
    v.insert(
        "buffer.lru_access_ns",
        time_ns(ops, |i| {
            black_box(lru.access(stream[i]));
        }),
    );
}
