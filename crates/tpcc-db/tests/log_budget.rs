//! Regression guard on what a transaction logs, file by file.
//!
//! Tracing the spec-scale `serial-wal` workload showed that 92 % of its
//! 5.7 kB of page-delta bytes per transaction were B+Tree leaf shifts
//! in three index files, not rows: order-line index 3 727 B/txn,
//! new-order index 1 113, order index 365, everything else 475. A leaf
//! that always split in the middle left each district's ascending run
//! ending mid-leaf, so every insert moved (and logged) the entries
//! above it. With the run-aware split (`tpcc_storage::btree`) an insert
//! is an append: at spec scale the order-line index logs 76 B/txn, the
//! order index 6 and the whole log 1 968.
//!
//! A Delivery then removed the *oldest* new-order entry of a district,
//! which sits at the front of a leaf, and the byte diff logged the rest
//! of the leaf shifting down: 1 283 B/txn at this test's scale, 70 % of
//! the log. A leaf insert or remove that shifts entries is now logged as
//! one `WalEntry::LeafInsert` / `LeafRemove` record (26 / 10 payload
//! bytes), and the new-order index logs about 25 B/txn.
//!
//! Every record is attributed to its file by `WalEntry::redo_bytes`, so
//! a record kind this test did not know about still counts.
//!
//! What is left: the largest single records are now leaf splits and
//! merges (whole-leaf rewrites, up to 3.8 kB each but rare) and the
//! NEW-ORDER heap's page reclaim when Delivery empties a page
//! (~118–144 B/txn). The heaps' row deltas and the seven static indexes
//! together log under 0.5 kB/txn.

use std::collections::BTreeMap;

use tpcc_db::{loader, DbConfig, Driver, DriverConfig};
use tpcc_storage::WalEntry;

const TXNS: u64 = 2000;

/// One tenth of a spec warehouse. 300 orders per district is more than
/// the 255 entries of an index leaf, so, as at full scale, no leaf
/// holds a whole district run between two others (such a run's tail
/// would sit in a leaf its first split leaves part-empty, and shift
/// until that leaf fills).
fn cfg() -> DbConfig {
    DbConfig {
        customers_per_district: 300,
        items: 10_000,
        initial_orders_per_district: 300,
        initial_pending_per_district: 90,
        buffer_frames: 4096,
        enable_wal: true,
        ..DbConfig::small()
    }
}

#[derive(Default)]
struct FileLog {
    records: u64,
    bytes: u64,
    largest: u64,
}

#[test]
fn index_inserts_log_appends_not_leaf_shifts() {
    let mut db = loader::load(cfg(), 7);
    let mut driver = Driver::new(&db, DriverConfig::default(), 11);
    driver.run(&mut db, TXNS);

    let names: BTreeMap<_, _> = db.file_names().into_iter().collect();
    let mut per_file: BTreeMap<&str, FileLog> = BTreeMap::new();
    db.with_wal(|wal| {
        for entry in wal.entries() {
            let bytes = entry.redo_bytes();
            if bytes == 0 {
                continue; // allocation, free and commit records
            }
            let file = match entry {
                WalEntry::PageDelta { file, .. }
                | WalEntry::LeafInsert { file, .. }
                | WalEntry::LeafRemove { file, .. } => file,
                other => unreachable!("{other:?} has redo bytes but names no page"),
            };
            let log = per_file.entry(names[file]).or_default();
            log.records += 1;
            log.bytes += bytes;
            log.largest = log.largest.max(bytes);
        }
    })
    .expect("WAL enabled");

    let per_txn = |n: u64| n as f64 / TXNS as f64;
    let bytes_of = |name: &str| per_txn(per_file.get(name).map_or(0, |log| log.bytes));
    let total = per_txn(per_file.values().map(|log| log.bytes).sum());
    let mut table = String::from("file: records/txn, redo bytes/txn, largest record\n");
    for (name, log) in &per_file {
        table += &format!(
            "{name:>18}: {:6.2} {:8.1} {:5}\n",
            per_txn(log.records),
            per_txn(log.bytes),
            log.largest
        );
    }
    // measured at this scale: 84 / 16 / 25.2 / 572 B/txn (new-order
    // index and total 1 283 / 1 830 with leaf shifts logged as byte
    // diffs; always splitting in the middle: 3 872 / 415 / - / 5 945)
    assert!(
        bytes_of("idx_order_line") <= 150.0
            && bytes_of("idx_order") <= 30.0
            && bytes_of("idx_new_order") <= 60.0
            && total <= 800.0,
        "log budget exceeded, {total:.0} redo bytes per transaction\n{table}"
    );
}
