//! Cross-validation: the executable WAL and its group-commit pipeline
//! against the §5 "separate log disk" model (`tpcc_cost::logdisk`).
//!
//! The model predicts redo volume analytically from Table 1 tuple
//! lengths — full after-images plus 24-byte record headers and a
//! 16-byte commit marker per writing transaction — and charges nothing
//! for index nodes. The engine logs physical page deltas (segmented
//! changed byte ranges of slotted pages), one physiological record per
//! B+Tree leaf insert or remove that shifts entries, and allocation
//! records. It therefore logs well *under* the model, and the layer
//! that explains the gap is the heaps: a STOCK or CUSTOMER update logs
//! only the changed fields, where the model charges the whole tuple
//! (330 B per STOCK row, ten per New-Order, about half the §5 volume).
//! The volume test checks that layer directly, and holds the total to
//! a stated band around the measured ratio; the
//! `probe_volume_composition` probe (ignored by default) prints the
//! per-file breakdown behind it.
//!
//! Group-commit batching is cross-checked twice: the deterministic
//! inline schedule must match its configured group size exactly, and a
//! threaded multi-terminal run must batch more than one commit per
//! flush while staying inside the same utilization band.

use std::collections::BTreeMap;
use std::ops::RangeInclusive;
use std::sync::Arc;

use tpcc_obs::{Label, MemoryRecorder, Obs};
use tpcc_suite::cost::logdisk::LogDiskModel;
use tpcc_suite::db::driver::DriverConfig;
use tpcc_suite::db::{loader, DbConfig, Driver, GroupCommitConfig, ParallelDriver};
use tpcc_suite::schema::relation::Relation;
use tpcc_suite::storage::WalEntry;
use tpcc_suite::workload::{TransactionMix, TxType};

/// The band within which executed ÷ §5-predicted log volume (and
/// threaded log utilization) must fall. Measured at seeds 7 / 21 / 42:
/// volume 0.453 / 0.458 / 0.453, threaded utilization 0.475–0.478 /
/// 0.482–0.489 / 0.485–0.488. Before leaf inserts and removes were
/// logged as records the same runs measured 0.93 / 0.80 / 0.89 and
/// 0.88–0.90 / 0.82–0.85 / 0.91–0.93 against a symmetric band of
/// 0.67–1.5: about 1.3 kB/txn of logged index shifts, which the model
/// does not charge, happened to offset the after-image bytes the
/// executor does not log.
const VOLUME_RATIO: RangeInclusive<f64> = 0.36..=0.60;

/// Executed STOCK + CUSTOMER heap redo bytes must stay below this share
/// of the model's after-image bytes for those relations (measured
/// 3.2 %: ≈ 54 + 8 B/txn against ≈ 1 920).
const CHANGED_FIELD_SHARE: f64 = 0.10;

/// Deep pending queue so Delivery never skips a district (the model
/// assumes all ten districts deliver), plus WAL on.
fn log_cfg() -> DbConfig {
    let mut cfg = DbConfig::small();
    cfg.enable_wal = true;
    cfg.initial_pending_per_district = 150;
    cfg.initial_orders_per_district = 210;
    cfg
}

/// A seeded run's log: encoded bytes per driver transaction (full
/// serialized volume: payloads, headers, commit markers, allocation
/// records) and [`WalEntry::redo_bytes`] per transaction by file name.
struct ExecutedLog {
    encoded_per_txn: f64,
    redo_per_txn: BTreeMap<&'static str, f64>,
}

fn executed_log(cfg: DbConfig, transactions: u64, seed: u64) -> ExecutedLog {
    let mut db = loader::load(cfg, seed);
    let mut driver = Driver::new(&db, DriverConfig::default(), seed ^ 0xabcd);
    driver.run(&mut db, transactions);
    db.flush_log();
    let names: BTreeMap<_, _> = db.file_names().into_iter().collect();
    let wal = db.take_wal().expect("WAL enabled");
    let mut redo_per_txn = BTreeMap::new();
    for entry in wal.entries() {
        if let Some(file) = mutated_file(entry) {
            *redo_per_txn.entry(names[&file]).or_default() +=
                entry.redo_bytes() as f64 / transactions as f64;
        }
    }
    ExecutedLog {
        encoded_per_txn: wal.encoded_bytes() as f64 / transactions as f64,
        redo_per_txn,
    }
}

/// The file whose page bytes `entry` changes, if any.
fn mutated_file(entry: &WalEntry) -> Option<tpcc_suite::storage::FileId> {
    match entry {
        WalEntry::PageDelta { file, .. }
        | WalEntry::LeafInsert { file, .. }
        | WalEntry::LeafRemove { file, .. } => Some(*file),
        WalEntry::CreateFile { .. }
        | WalEntry::AllocPage { .. }
        | WalEntry::FreePage { .. }
        | WalEntry::Commit { .. }
        | WalEntry::Prepare { .. }
        | WalEntry::Decide { .. } => None,
    }
}

/// The §5 model's mix-weighted after-image bytes per transaction for
/// STOCK and CUSTOMER rows (tuple bytes, without record headers): ten
/// STOCK rows per New-Order, one CUSTOMER per Payment and ten per
/// Delivery, as [`LogDiskModel::bytes_per_txn`] counts them.
fn model_stock_customer_bytes(model: &LogDiskModel, mix: &TransactionMix) -> f64 {
    let len = |r: Relation| r.tuple_len() as f64;
    mix.fraction(TxType::NewOrder) * model.items_per_order * len(Relation::Stock)
        + (mix.fraction(TxType::Payment) * model.payment_customer_updates
            + mix.fraction(TxType::Delivery) * 10.0)
            * len(Relation::Customer)
}

#[test]
fn executed_log_volume_tracks_the_section5_model() {
    let model = LogDiskModel::paper_default();
    let mix = TransactionMix::paper_default();
    let predicted = model.avg_bytes_per_txn(&mix);
    let log = executed_log(log_cfg(), 2_000, 42);
    let executed = log.encoded_per_txn;
    let ratio = executed / predicted;
    assert!(
        VOLUME_RATIO.contains(&ratio),
        "executed {executed:.0} B/txn vs §5 prediction {predicted:.0} B/txn \
         (ratio {ratio:.2}, band {VOLUME_RATIO:?})"
    );

    // the layer behind the ratio: changed-field heap deltas against
    // the model's full STOCK and CUSTOMER after-images
    let heap = |name: &str| log.redo_per_txn.get(name).copied().unwrap_or(0.0);
    let rows = heap(Relation::Stock.name()) + heap(Relation::Customer.name());
    let model_rows = model_stock_customer_bytes(&model, &mix);
    assert!(
        rows > 0.0 && rows < CHANGED_FIELD_SHARE * model_rows,
        "STOCK + CUSTOMER heaps log {rows:.1} B/txn against the model's \
         {model_rows:.0} B/txn of after-images"
    );
}

#[test]
fn inline_group_commit_matches_its_configured_group_size() {
    let mut cfg = log_cfg();
    cfg.group_commit = Some(GroupCommitConfig::inline_every(8));
    let mut db = loader::load(cfg, 7);
    let mut driver = Driver::new(&db, DriverConfig::default(), 11);
    driver.run(&mut db, 1_500);
    db.flush_log();
    let stats = db.group_commit_stats().expect("group commit on");
    let commits = db.wal_stats().expect("WAL on").2;
    assert_eq!(stats.commits_flushed, commits, "every commit flushed once");
    // flush every 8th commit, plus one final partial flush at quiesce
    let expected_flushes = commits / 8 + u64::from(!commits.is_multiple_of(8));
    assert_eq!(stats.flushes, expected_flushes, "{stats:?}");
    assert!(
        stats.commits_per_flush() > 7.0 && stats.commits_per_flush() <= 8.0,
        "inline schedule must average its group size: {stats:?}"
    );
}

/// 8 terminals through threaded (leader-follower) group commit.
/// Commits per flush must exceed one (grouping is real), the p95
/// commit wait must stay bounded by the flush window plus the simulated
/// device write, and the executed log utilization at the measured
/// throughput must sit in [`VOLUME_RATIO`] of the §5 curve.
#[test]
fn threaded_group_commit_batches_and_stays_on_the_section5_curve() {
    let gc = GroupCommitConfig::new(500, 64, 100);
    let mut cfg = log_cfg();
    cfg.warehouses = 2;
    cfg.buffer_frames = 2048;
    cfg.group_commit = Some(gc);
    let mut db = loader::load(cfg, 61);
    let recorder = Arc::new(MemoryRecorder::new());
    db.set_obs(Obs::new(recorder.clone()));
    let report = ParallelDriver::new(DriverConfig::default(), 8, 62).run(&db, 4_000);
    db.flush_log();

    let stats = db.group_commit_stats().expect("group commit on");
    assert!(
        stats.commits_per_flush() > 1.0,
        "8 terminals must share flushes: {stats:?}"
    );

    // bounded commit wait: a ticket waits at most one full window plus
    // the device write plus scheduling slack (generous 20x headroom so
    // a loaded CI machine cannot flake this)
    let waits = recorder
        .histogram("commit_wait_ns", Label::None)
        .expect("group commit on");
    let bound_us = (gc.flush_window_us + gc.log_io_delay_us) as f64 * 20.0;
    let p95_us = waits.quantile(0.95) / 1e3;
    assert!(
        p95_us < bound_us,
        "p95 commit wait {p95_us:.0}µs exceeds {bound_us:.0}µs"
    );

    // executed utilization vs the §5 curve at the measured throughput
    let model = LogDiskModel::paper_default();
    let mix = TransactionMix::paper_default();
    let bytes = db.take_wal().expect("WAL on").encoded_bytes();
    let elapsed = report.elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
    let executed_util = bytes as f64 / elapsed / model.bandwidth_bytes_per_sec;
    let lambda = report.total() as f64 / elapsed;
    let predicted_util = model.utilization(&mix, lambda);
    let ratio = executed_util / predicted_util;
    assert!(
        VOLUME_RATIO.contains(&ratio),
        "executed log utilization {executed_util:.4} vs §5 {predicted_util:.4} \
         at {lambda:.0} txn/s (ratio {ratio:.2}, band {VOLUME_RATIO:?})"
    );
}

/// Prints the per-file WAL volume breakdown behind [`VOLUME_RATIO`]:
/// run with `--ignored --nocapture`. Encoded bytes (framing included)
/// per file, for every record that changes page bytes.
#[test]
#[ignore]
fn probe_volume_composition() {
    let mut db = loader::load(log_cfg(), 42);
    let mut driver = Driver::new(&db, DriverConfig::default(), 42 ^ 0xabcd);
    driver.run(&mut db, 2_000);
    db.flush_log();
    let names: BTreeMap<_, _> = db.file_names().into_iter().collect();
    let wal = db.take_wal().expect("WAL");
    let mut per_file: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    let mut commits = 0u64;
    let mut other = 0u64;
    for e in wal.entries() {
        match (mutated_file(e), e) {
            (Some(file), _) => {
                let ent = per_file.entry(names[&file]).or_default();
                ent.0 += 1;
                ent.1 += e.encoded_len() as u64;
            }
            (None, WalEntry::Commit { .. }) => commits += 1,
            (None, _) => other += e.encoded_len() as u64,
        }
    }
    eprintln!(
        "total encoded {} commits {} other {}",
        wal.encoded_bytes(),
        commits,
        other
    );
    for (name, (n, b)) in per_file {
        eprintln!(
            "{name:>18} records {n:>7} bytes {b:>10} avg {:.0}",
            b as f64 / n as f64
        );
    }
}
