//! Copy-on-write page images under concurrency: the post-load
//! checkpoint, the CDC shadow and the live disk share page allocations,
//! and the live disk's write-backs (under the disk lock, from the
//! terminals' evictions) race with the main thread taking and dropping
//! snapshots of the other two. Whatever the interleaving, the stored
//! checkpoint must still replay to the live image exactly, and the
//! CDC views must equal a rescan of the base tables.
//!
//! The `stress_*` variant runs in CI's seed matrix
//! (`TPCC_STRESS_SEED` ∈ {7, 21, 42}).

use tpcc_db::db::DbConfig;
use tpcc_db::{
    loader, CdcPipeline, DriverConfig, GroupCommitConfig, MaterializedViews, ParallelDriver,
};
use tpcc_schema::Relation;

fn stress_seed() -> u64 {
    std::env::var("TPCC_STRESS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// Two terminals on a pool far smaller than the database, while the
/// main thread keeps up to three checkpoint copies and three CDC
/// checkpoints alive, polling the pipeline between them.
fn run(transactions: u64, seed: u64) {
    let mut cfg = DbConfig::small();
    cfg.buffer_frames = 96;
    cfg.buffer_shards = 2;
    cfg.enable_wal = true;
    cfg.group_commit = Some(GroupCommitConfig::inline_every(4));
    cfg.mvcc = true;
    let mut db = loader::load(cfg, seed);
    let mut pipeline = CdcPipeline::new(&db);
    let driver = ParallelDriver::new(DriverConfig::default().with_spec_rollbacks(), 2, seed);

    let mut checkpoints = Vec::new();
    let mut cdc_checkpoints = Vec::new();
    let mut rounds = 0u64;
    std::thread::scope(|s| {
        let terminals = s.spawn(|| driver.run(&db, transactions));
        while !terminals.is_finished() {
            checkpoints.push(db.checkpoint_snapshot().expect("WAL mode"));
            pipeline.poll(&db).expect("no lag bound configured");
            cdc_checkpoints.push(pipeline.checkpoint().expect("no fault hook installed"));
            if checkpoints.len() > 3 {
                checkpoints.remove(0);
                cdc_checkpoints.remove(0);
            }
            rounds += 1;
        }
        terminals.join().expect("terminals finish");
    });
    assert!(rounds > 1, "the snapshots must overlap the workload");
    let writebacks: u64 = Relation::ALL
        .iter()
        .map(|&r| db.relation_stats(r).writebacks)
        .sum::<u64>()
        + db.index_stats().writebacks;
    assert!(writebacks > 0, "evictions must write back during the run");

    // the CDC views equal a rescan, both for the pipeline that ran
    // alongside the workload and for one resumed from the oldest CDC
    // checkpoint still held
    db.flush_log();
    pipeline.poll(&db).expect("no lag bound configured");
    let rescan = MaterializedViews::rescan_live(&db, &pipeline.registry().clone());
    assert_eq!(
        pipeline.views().encode(),
        rescan.encode(),
        "incremental views must equal a rescan"
    );
    let mut resumed = CdcPipeline::resume(&db, cdc_checkpoints.swap_remove(0));
    resumed.poll(&db).expect("no lag bound configured");
    assert_eq!(
        resumed.views().encode(),
        rescan.encode(),
        "views resumed from a mid-run checkpoint must equal a rescan"
    );

    // every checkpoint copy taken mid-run still equals the stored one,
    // and the stored one replays to the live image exactly
    let stored = db.checkpoint_snapshot().expect("WAL mode");
    for copy in &checkpoints {
        assert!(copy.contents_equal(&stored), "a checkpoint copy drifted");
    }
    drop(checkpoints);
    assert!(
        db.crash_recovery_check(),
        "replaying the log over the checkpoint must give the live image"
    );
}

#[test]
fn checkpoint_snapshots_under_write_back() {
    run(600, 42);
}

#[test]
#[ignore = "release-mode stress; run with --ignored (CI seed matrix)"]
fn stress_checkpoint_snapshots_under_write_back() {
    run(20_000, stress_seed());
}
