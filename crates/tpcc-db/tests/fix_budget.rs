//! Regression guard on how many buffer fixes a transaction takes, file
//! by file.
//!
//! Attributing `serial-wal`'s fixes per transaction type showed the
//! executor paying one root-to-leaf descent or one heap fix per row it
//! touched, where one fix per page visit would do:
//!
//! * Stock-Level cost about 1 000 fixes at spec scale (600 STOCK-index
//!   descents, 200 STOCK rows, 200 ORDER-LINE rows) — 40 % of all fixes
//!   for 4 % of the mix. It now reads its ORDER-LINE rows by page run,
//!   probes STOCK once per distinct item with one `BTree::get_sorted`,
//!   and reads each distinct stock row once.
//! * New-Order's ten ORDER-LINE index inserts cost a full descent each,
//!   with the leaf fixed twice (shared, then exclusive). They now go in
//!   as one `BTree::insert_sorted` run: one descent, one leaf fix per
//!   entry.
//! * Delivery read each ORDER-LINE row and then fixed it again to write
//!   it: 20 fixes per district. One exclusive fix per page run now
//!   reads and writes the lines.
//!
//! The database is one tenth of a spec warehouse, as in
//! `log_budget.rs`; fixes are attributed to files by
//! `TpccDb::file_names`, and the per-file table prints on failure.

use std::collections::BTreeMap;
use std::sync::Arc;

use tpcc_db::txns::OrderLineReq;
use tpcc_db::{loader, DbConfig, Driver, DriverConfig, TpccDb};
use tpcc_obs::{Label, MemoryRecorder, Obs};
use tpcc_rand::Xoshiro256;

/// Stock-Level and New-Order transactions measured.
const PER_TYPE: u64 = 200;
/// Deliveries measured: few enough that every district still has a
/// pending order for each.
const DELIVERIES: u64 = 60;

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

/// Fixes (hits + misses) per file name so far.
fn fixes(db: &TpccDb, rec: &MemoryRecorder) -> BTreeMap<&'static str, u64> {
    db.file_names()
        .into_iter()
        .map(|(file, name)| {
            let label = || Label::Idx(file.0);
            let n =
                rec.counter_value("buf_hits", label()) + rec.counter_value("buf_misses", label());
            (name, n)
        })
        .collect()
}

/// Per-file fixes of `n` runs of `txn`, divided by `n`.
fn per_txn(
    db: &TpccDb,
    rec: &MemoryRecorder,
    n: u64,
    mut txn: impl FnMut(&TpccDb),
) -> BTreeMap<&'static str, f64> {
    let before = fixes(db, rec);
    for _ in 0..n {
        txn(db);
    }
    fixes(db, rec)
        .into_iter()
        .map(|(name, after)| (name, (after - before[name]) as f64 / n as f64))
        .filter(|&(_, f)| f > 0.0)
        .collect()
}

#[test]
fn each_page_visit_takes_one_fix() {
    let rec = Arc::new(MemoryRecorder::new());
    let mut db = loader::load(cfg(), 7);
    db.set_obs(Obs::new(rec.clone()));
    // a warm, aged database: orders placed, delivered and paid
    Driver::new(&db, DriverConfig::default(), 11).run(&mut db, 1_000);
    let mut rng = Xoshiro256::seed_from_u64(5);
    let items = db.config().items;
    let customers = db.config().customers_per_district;

    let stock_level = per_txn(&db, &rec, PER_TYPE, |db| {
        let d = rng.uniform_inclusive(0, 9);
        let threshold = rng.uniform_inclusive(10, 20) as i32;
        db.stock_level(0, d, threshold);
    });
    let new_order = per_txn(&db, &rec, PER_TYPE, |db| {
        let d = rng.uniform_inclusive(0, 9);
        let c = rng.uniform_inclusive(0, customers - 1);
        let lines: Vec<OrderLineReq> = (0..10)
            .map(|_| OrderLineReq {
                item: rng.uniform_inclusive(0, items - 1),
                supply_warehouse: 0,
                quantity: 5,
            })
            .collect();
        db.new_order(0, d, c, &lines);
    });
    let mut delivered = 0;
    let delivery = per_txn(&db, &rec, DELIVERIES, |db| {
        delivered += db.delivery(0, 3).delivered;
    });
    // every Delivery found a pending order in each of the ten districts
    assert_eq!(delivered, 10 * DELIVERIES);

    let mut table = String::from("fixes per transaction, by file\n");
    for (kind, per_file) in [
        ("stock-level", &stock_level),
        ("new-order", &new_order),
        ("delivery", &delivery),
    ] {
        let total: f64 = per_file.values().sum();
        table += &format!("{kind}: {total:.1}\n");
        for (name, f) in per_file {
            table += &format!("  {name:>18}: {f:7.2}\n");
        }
    }
    let of =
        |per_file: &BTreeMap<&str, f64>, name: &str| per_file.get(name).copied().unwrap_or(0.0);
    let stock_level_total: f64 = stock_level.values().sum();
    let ol_index_per_order = of(&new_order, "idx_order_line");
    let ol_heap_per_district = of(&delivery, "order-line") / 10.0;
    // measured at this scale: 191.9 / 11.16 / 1.00 (one descent or one
    // heap fix per row: 805.7 / 30.12 / 20.00). The bounds leave 15 %,
    // 12 % (about one more leaf split per order) and 20 %.
    assert!(
        stock_level_total <= 220.0 && ol_index_per_order <= 12.5 && ol_heap_per_district <= 1.2,
        "fix budget exceeded: stock-level {stock_level_total:.1}, new-order order-line index \
         {ol_index_per_order:.2} per order, delivery order-line heap {ol_heap_per_district:.2} \
         per district\n{table}"
    );
}
