//! Cross-validation: the executable WAL and its group-commit pipeline
//! against the §5 "separate log disk" model (`tpcc_cost::logdisk`).
//!
//! The model predicts redo volume analytically from Table 1 tuple
//! lengths — full after-images plus 24-byte record headers and a
//! 16-byte commit marker per writing transaction. The engine logs
//! physical page deltas (segmented changed byte ranges of slotted
//! pages) plus allocation records, for the heaps *and* for the ten
//! B+Tree indexes the model does not account for. Heap deltas track
//! tuple bytes closely (the segmented encoder skips the untouched
//! span between a page's slot directory and its record area), and
//! run-aware leaf splits keep an index insert from logging a shifted
//! node-array suffix, so the executed volume lands just under the §5
//! tuple-only volume. We hold it to a stated factor-of-1.5 band around
//! the §5 prediction; the `probe_volume_composition` probe (ignored by
//! default) prints the per-file breakdown behind that number.
//!
//! Group-commit batching is cross-checked twice: the deterministic
//! inline schedule must match its configured group size exactly, and a
//! threaded multi-terminal run must batch more than one commit per
//! flush while staying inside the model's utilization band.

use std::sync::Arc;

use tpcc_obs::{Label, MemoryRecorder, Obs};
use tpcc_suite::cost::logdisk::LogDiskModel;
use tpcc_suite::db::driver::DriverConfig;
use tpcc_suite::db::{loader, DbConfig, Driver, GroupCommitConfig, ParallelDriver};
use tpcc_suite::workload::TransactionMix;

/// The band (as a factor) within which the executed bytes-per-txn must
/// track the §5 after-image accounting. Heap deltas can undershoot a
/// full after-image (only the touched range is logged); B+Tree
/// node-array shifts — outside the model's tuple-only accounting —
/// overshoot it. Measured at seeds 7 / 21 / 42: volume 0.93 / 0.80 /
/// 0.89x, threaded utilization 0.89-0.91 / 0.82-0.83 / 0.89-0.90x
/// (~2.3x while index leaves split in the middle and every insert
/// logged a shifted range, when the band was 3).
const VOLUME_BAND: f64 = 1.5;

/// Deep pending queue so Delivery never skips a district (the model
/// assumes all ten districts deliver), plus WAL on.
fn log_cfg() -> DbConfig {
    let mut cfg = DbConfig::small();
    cfg.enable_wal = true;
    cfg.initial_pending_per_district = 150;
    cfg.initial_orders_per_district = 210;
    cfg
}

/// Measured encoded redo bytes per driver transaction over a seeded
/// run (full serialized volume: payloads, headers, commit markers,
/// allocation records).
fn executed_bytes_per_txn(cfg: DbConfig, transactions: u64, seed: u64) -> f64 {
    let mut db = loader::load(cfg, seed);
    let mut driver = Driver::new(&db, DriverConfig::default(), seed ^ 0xabcd);
    driver.run(&mut db, transactions);
    db.flush_log();
    let wal = db.take_wal().expect("WAL enabled");
    wal.encoded_bytes() as f64 / transactions as f64
}

#[test]
fn executed_log_volume_tracks_the_section5_model() {
    let model = LogDiskModel::paper_default();
    let mix = TransactionMix::paper_default();
    let predicted = model.avg_bytes_per_txn(&mix);
    let executed = executed_bytes_per_txn(log_cfg(), 2_000, 42);
    let ratio = executed / predicted;
    assert!(
        (1.0 / VOLUME_BAND..=VOLUME_BAND).contains(&ratio),
        "executed {executed:.0} B/txn vs §5 prediction {predicted:.0} B/txn \
         (ratio {ratio:.2}, band {VOLUME_BAND}x)"
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

/// 8 terminals through threaded (leader-follower) group commit. Commits per flush must exceed one (grouping is real), the
/// p95 commit wait must stay bounded by the flush window plus the
/// simulated device write, and the executed log utilization at the
/// measured throughput must sit in the §5 band.
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
        (1.0 / VOLUME_BAND..=VOLUME_BAND).contains(&ratio),
        "executed log utilization {executed_util:.4} vs §5 {predicted_util:.4} \
         at {lambda:.0} txn/s (ratio {ratio:.2}, band {VOLUME_BAND}x)"
    );
}

/// Prints the per-file WAL volume breakdown behind [`VOLUME_BAND`]:
/// run with `--ignored --nocapture`. Low file ids are heaps (deltas a
/// few tens of bytes — tuple-sized), high ids are B+Tree indexes
/// (hundreds of bytes — node-array shifts).
#[test]
#[ignore]
fn probe_volume_composition() {
    let mut db = loader::load(log_cfg(), 42);
    let mut driver = Driver::new(&db, DriverConfig::default(), 42 ^ 0xabcd);
    driver.run(&mut db, 2_000);
    db.flush_log();
    let wal = db.take_wal().expect("WAL");
    let mut per_file: std::collections::HashMap<u32, (u64, u64)> = Default::default();
    let mut commits = 0u64;
    let mut other = 0u64;
    for e in wal.entries() {
        match e {
            tpcc_suite::storage::WalEntry::PageDelta { file, data, .. } => {
                let ent = per_file.entry(file.0).or_default();
                ent.0 += 1;
                ent.1 += e.encoded_len() as u64;
                let _ = data;
            }
            tpcc_suite::storage::WalEntry::Commit { .. } => commits += 1,
            _ => other += e.encoded_len() as u64,
        }
    }
    eprintln!(
        "total encoded {} commits {} other {}",
        wal.encoded_bytes(),
        commits,
        other
    );
    let mut files: Vec<_> = per_file.into_iter().collect();
    files.sort();
    for (f, (n, b)) in files {
        eprintln!(
            "file {f:>3} deltas {n:>7} bytes {b:>10} avg {:.0}",
            b as f64 / n as f64
        );
    }
}
