//! Fault-injection acceptance tests: every enumerated crash point
//! recovers to the serial oracle, every WAL record boundary is a safe
//! truncation point, soft faults converge under bounded retry, and an
//! 8-terminal run with mid-flight faults stays consistent and
//! deadlock-free.

use std::sync::atomic::{AtomicBool, Ordering};

use tpcc_db::{
    cdc_checkpoint_sweep, crashpoint_sweep, loader, torn_tail_byte_sweep, verify_record_boundaries,
    DbConfig, DriverConfig, FaultPlan, FaultSite, GroupCommitConfig, ParallelDriver, SweepConfig,
};
use tpcc_lock::LockManager;

fn stress_seed() -> u64 {
    std::env::var("TPCC_STRESS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// Small scale with a buffer pool well below the working set, so the
/// run itself (not just the final flush) evicts pages: write-back and
/// miss-load fault sites fire mid-transaction. The deep pending queue
/// puts the standard mix in the drain regime, where Delivery frees
/// pages (leaf merges, heap reclamation) and page-free sites fire.
fn tight_cfg() -> DbConfig {
    let mut cfg = DbConfig::small();
    cfg.buffer_frames = 96;
    cfg.enable_wal = true;
    cfg.initial_pending_per_district = 150;
    cfg.initial_orders_per_district = 210;
    cfg
}

/// `tight_cfg` under group commit: commits gather in a volatile tail
/// and every fourth one flushes (inline schedule), so one flush — one
/// durable crash image — covers four commits.
fn group_commit_cfg() -> DbConfig {
    let mut cfg = tight_cfg();
    cfg.group_commit = Some(GroupCommitConfig::inline_every(4));
    cfg
}

#[test]
fn crashpoint_sweep_recovers_at_every_site() {
    let mut cfg = SweepConfig::new(tight_cfg(), 250, 7);
    cfg.live_reruns = 2;
    cfg.recover_samples = 8;
    let report = crashpoint_sweep(&cfg);
    assert!(
        report.all_recovered(),
        "unrecovered crash sites: {:?}",
        report.failures
    );
    assert!(
        report.sites_total >= 200,
        "expected a dense site enumeration, got {}",
        report.sites_total
    );
    assert!(report.per_site[FaultSite::WalAppend.idx()] > 0);
    assert!(report.per_site[FaultSite::WriteBack.idx()] > 0);
    assert!(report.per_site[FaultSite::MissLoad.idx()] > 0);
    assert!(report.distinct_prefixes > 0);
    assert!(report.recover_checks > 0);
    assert_eq!(report.live_reruns, 2);
}

/// Satellite: the crash sweep at every flush boundary. Under group
/// commit the recorded `wal_len` is the durable watermark, so a crash
/// at any site between two flushes must recover to the last *flushed*
/// commit — the volatile tail is lost, a flushed commit never is. The
/// live re-runs additionally prove the frozen durable prefix
/// byte-matches the recorded one.
#[test]
fn flush_boundary_sweep_recovers_at_every_site() {
    let mut cfg = SweepConfig::new(group_commit_cfg(), 250, 7);
    cfg.live_reruns = 2;
    cfg.recover_samples = 8;
    let report = crashpoint_sweep(&cfg);
    assert!(
        report.all_recovered(),
        "unrecovered flush-boundary sites: {:?}",
        report.failures
    );
    assert!(
        report.per_site[FaultSite::WalFlush.idx()] > 0,
        "no flush boundaries enumerated: {:?}",
        report.per_site
    );
    assert!(
        report.distinct_prefixes < report.sites_total as usize,
        "group commit must coalesce crash images between flushes"
    );
    assert_eq!(report.live_reruns, 2);
}

/// Satellite: torn flushes. The byte sweep tears the encoded log at
/// every sampled offset of a group-commit run — offsets inside a flush
/// batch model a device that persisted only part of the batch, and
/// each must recover to the last whole record's commit prefix.
#[test]
fn torn_flush_byte_sweep_converges_under_group_commit() {
    let cfg = SweepConfig::new(group_commit_cfg(), 300, 31);
    let report = torn_tail_byte_sweep(&cfg, 997);
    assert_eq!(report.failures, 0, "{report:?}");
    assert!(report.bytes_checked > 100, "{report:?}");
}

/// The recording pass is deterministic: identical seeds enumerate
/// identical sites with identical sequence numbers and WAL positions.
#[test]
fn site_enumeration_is_deterministic() {
    let run = || {
        let mut db = loader::load(tight_cfg(), 11);
        let hook = db.install_fault_plan(FaultPlan::observe(13));
        let mut driver = tpcc_db::Driver::new(&db, DriverConfig::default(), 13);
        driver.run(&mut db, 120);
        db.flush();
        (hook.take_records(), hook.stats())
    };
    let (records_a, stats_a) = run();
    let (records_b, stats_b) = run();
    assert_eq!(records_a, records_b);
    assert_eq!(stats_a.fired, stats_b.fired);
    assert!(!records_a.is_empty());
}

/// Satellite: a seeded 5000-transaction mixed workload, WAL truncated
/// at *every* record boundary. Recovery must never fail and never
/// resurrect an uncommitted delta — each truncation's recovered image
/// must equal a serial oracle replayed to the last complete commit.
#[test]
fn record_boundary_sweep_5k_txns_never_fails() {
    let cfg = SweepConfig::new(tight_cfg(), 5000, 21);
    let report = verify_record_boundaries(&cfg);
    assert_eq!(
        report.failures, 0,
        "some WAL record boundary failed to recover: {report:?}"
    );
    assert_eq!(report.boundaries, report.wal_entries + 1);
    assert!(report.committed_prefixes > 1000, "{report:?}");
    assert!(report.recover_checks > 0);
}

/// Record boundaries under MVCC with spec rollbacks. An undo-backed
/// New-Order abort logs forward deltas, then their compensations, and
/// no commit; a cut between the two leaves the forward deltas durable
/// and the compensations lost. Recovery must stop at the last commit
/// before them. The crash sweeps never cut there: each of their
/// durable prefixes ends at a flush, which follows a commit or the
/// end of the run.
#[test]
fn record_boundary_sweep_cuts_mvcc_aborts_between_their_deltas() {
    let mut dbcfg = tight_cfg();
    dbcfg.mvcc = true;
    let mut cfg = SweepConfig::new(dbcfg, 400, 7);
    cfg.driver = DriverConfig::default().with_spec_rollbacks();

    // the workload holds aborts that logged at least two records and
    // no commit: some boundary falls inside each of them
    let mut db = loader::load(dbcfg, cfg.load_seed);
    let mut driver = tpcc_db::Driver::new(&db, cfg.driver, cfg.driver_seed);
    let mut logged_aborts = 0;
    for _ in 0..cfg.transactions {
        let (entries, _, commits) = db.wal_stats().expect("WAL on");
        let report = driver.run(&mut db, 1);
        let (after, _, commits_after) = db.wal_stats().expect("WAL on");
        if report.rollbacks > 0 {
            assert_eq!(commits_after, commits, "an abort commits nothing");
            logged_aborts += u64::from(after >= entries + 2);
        }
    }
    assert!(logged_aborts > 0, "no abort wrote before it rolled back");

    let report = verify_record_boundaries(&cfg);
    assert_eq!(report.failures, 0, "{report:?}");
    assert_eq!(report.boundaries, report.wal_entries + 1);
}

/// Coarse-stepped torn-tail sweep (the per-byte variant is the
/// `--ignored` stress test below): tearing the encoded log mid-record
/// discards the partial record and recovers to the previous boundary.
#[test]
fn torn_tail_sweep_with_coarse_step_converges() {
    let cfg = SweepConfig::new(tight_cfg(), 300, 31);
    let report = torn_tail_byte_sweep(&cfg, 997);
    assert_eq!(report.failures, 0, "{report:?}");
    assert!(report.bytes_checked > 100, "{report:?}");
}

/// Stress: tear the encoded WAL of a 5000-transaction run at *every
/// byte offset* and verify each against the oracle.
#[test]
#[ignore = "stress: run with --ignored, seeded via TPCC_STRESS_SEED"]
fn stress_torn_tail_every_byte() {
    let cfg = SweepConfig::new(tight_cfg(), 5000, stress_seed());
    let report = torn_tail_byte_sweep(&cfg, 1);
    assert_eq!(report.failures, 0, "{report:?}");
    assert_eq!(report.bytes_checked, report.total_bytes + 1);
}

/// Stress: the full crash-point sweep at 5000 transactions — the
/// CI acceptance gate (every site recovers, ≥ 200 sites enumerated,
/// all five site classes represented). Runs under group commit, so
/// each `wal_flush` site covers four commits.
#[test]
#[ignore = "stress: run with --ignored, seeded via TPCC_STRESS_SEED"]
fn stress_crashpoint_sweep_5k_txns() {
    let mut cfg = SweepConfig::new(group_commit_cfg(), 5000, stress_seed());
    cfg.live_reruns = 3;
    cfg.recover_samples = 32;
    let report = crashpoint_sweep(&cfg);
    assert!(
        report.all_recovered(),
        "unrecovered crash sites: {:?}",
        report.failures
    );
    assert!(report.sites_total >= 200, "{}", report.sites_total);
    // the classes a 2PL single-node group-commit run can reach; the
    // undo, 2PC and CDC classes have their own sweeps
    for site in [
        FaultSite::WalAppend,
        FaultSite::PageFree,
        FaultSite::WriteBack,
        FaultSite::MissLoad,
        FaultSite::WalFlush,
    ] {
        assert!(
            report.per_site[site.idx()] > 0,
            "no {} sites enumerated",
            site.name()
        );
    }
}

/// Satellite: the `cdc_checkpoint` crash-site sweep. A CDC pipeline
/// checkpoints every 40 transactions through the fault-instrumented
/// path; at **every committed WAL prefix** the views rebuilt from
/// (latest surviving checkpoint, frozen WAL) must byte-equal a rescan
/// of the prefix's crash image — which itself must converge to the
/// lockstep serial oracle. Every cdc_checkpoint site is then tripped
/// live: the in-flight checkpoint is lost and the rebuild falls back
/// to the previous one without divergence. Runs under group commit so
/// rebuild boundaries are durable watermarks, not raw commits.
#[test]
fn cdc_checkpoint_sweep_rebuilds_views_at_every_prefix() {
    let cfg = SweepConfig::new(group_commit_cfg(), 250, 7);
    let report = cdc_checkpoint_sweep(&cfg, 40);
    assert!(report.all_recovered(), "{report:?}");
    assert!(report.checkpoints_taken >= 6, "{report:?}");
    assert_eq!(
        report.cdc_sites, report.checkpoints_taken as u64,
        "observe-mode runs lose no checkpoints"
    );
    assert_eq!(report.live_crashes, report.cdc_sites as usize);
    assert!(report.committed_prefixes > 100, "{report:?}");
}

/// Stress: the CDC checkpoint sweep over a longer mixed run — the CI
/// acceptance gate (`TPCC_STRESS_SEED` ∈ {7, 21, 42}, 0 unrecovered).
#[test]
#[ignore = "stress: run with --ignored, seeded via TPCC_STRESS_SEED"]
fn stress_cdc_checkpoint_sweep() {
    let cfg = SweepConfig::new(group_commit_cfg(), 1500, stress_seed());
    let report = cdc_checkpoint_sweep(&cfg, 125);
    assert!(report.all_recovered(), "{report:?}");
    assert!(report.checkpoints_taken >= 12, "{report:?}");
    assert_eq!(report.live_crashes, report.cdc_sites as usize);
}

/// Soft faults (transient write-back I/O errors and torn page writes)
/// are absorbed by the buffer manager's bounded retry: the run
/// completes, the database stays consistent, and crash recovery still
/// reproduces the flushed image.
#[test]
fn soft_faults_converge_under_bounded_retry() {
    let mut db = loader::load(tight_cfg(), 51);
    let report = db.run_with_faults(DriverConfig::default(), 53, 400, FaultPlan::soft(53, 3, 5));
    assert!(report.faults.io_errors > 0, "{:?}", report.faults);
    assert!(report.faults.torn_writes > 0, "{:?}", report.faults);
    assert!(report.faults.retries > 0, "{:?}", report.faults);
    assert_eq!(report.faults.crashed_at, None);
    let consistency = db.verify_consistency();
    assert!(consistency.is_consistent(), "{consistency:?}");
    assert!(db
        .try_crash_recovery_check()
        .expect("recovery must not error"));
}

/// A tripped crash freezes the WAL: recovery from the frozen prefix
/// equals a serial oracle replayed to the last complete commit, and
/// the post-crash tail of the workload leaves no trace in the log.
#[test]
fn tripped_crash_recovers_to_last_commit() {
    // Observe once to learn the site count, then crash mid-run.
    let mut db = loader::load(tight_cfg(), 61);
    let observe = db.run_with_faults(DriverConfig::default(), 63, 200, FaultPlan::observe(63));
    let sites = observe.faults.sites_total();
    assert!(sites > 100);
    drop(db);

    let mut db = loader::load(tight_cfg(), 61);
    let report = db.run_with_faults(
        DriverConfig::default(),
        63,
        200,
        FaultPlan::crash_at(63, sites / 2),
    );
    assert_eq!(report.faults.crashed_at, Some(sites / 2));
    let wal = db.take_wal().expect("WAL enabled");
    let commits = wal.durable_commits();
    let checkpoint = db.take_checkpoint().expect("WAL mode holds a checkpoint");
    let recovered = wal.try_recover(checkpoint).expect("recovery must succeed");

    // Oracle: replay the same stream serially to the same commit count.
    let mut oracle = loader::load(tight_cfg(), 61);
    let mut driver = tpcc_db::Driver::new(&oracle, DriverConfig::default(), 63);
    while oracle.wal_stats().expect("wal on").2 < commits {
        driver.run(&mut oracle, 1);
    }
    oracle.flush();
    assert!(
        oracle.disk_contents_equal(&recovered),
        "crash image diverged from the serial oracle at commit {commits}"
    );
}

/// Satellite: 8 terminals over one warehouse with a delivery-heavy mix
/// and live soft faults — wound-wait wounds terminals mid-Delivery,
/// the wait-for graph stays acyclic throughout, the §3.3.2 consistency
/// checks pass afterwards, and crash recovery reproduces the final
/// image.
#[test]
fn eight_terminals_with_soft_faults_stay_consistent_and_acyclic() {
    let mut db = loader::load(tight_cfg(), 71);
    let hook = db.install_fault_plan(FaultPlan::soft(71, 5, 7));
    // delivery-heavy: maximum district-queue contention on 1 warehouse
    let mix = DriverConfig {
        mix: [0.25, 0.25, 0.05, 0.40, 0.05],
        ..DriverConfig::default()
    };
    let driver = ParallelDriver::new(mix, 8, 73);
    let lm = LockManager::new();

    let done = AtomicBool::new(false);
    let report = std::thread::scope(|scope| {
        let monitor = scope.spawn(|| {
            let mut checks = 0u64;
            while !done.load(Ordering::Acquire) {
                let graph = lm.wait_for_snapshot();
                assert!(
                    graph.find_cycle().is_none(),
                    "deadlock cycle under wound-wait with faults: {:?}",
                    graph.find_cycle()
                );
                checks += 1;
                std::thread::yield_now();
            }
            checks
        });
        let report = driver.run_on(&db, &lm, 1200);
        done.store(true, Ordering::Release);
        assert!(monitor.join().expect("monitor") > 0);
        report
    });

    assert_eq!(report.total(), 1200);
    let wounds: u64 = report.retries.iter().sum();
    assert!(wounds > 0, "expected wound-induced retries: {report:?}");
    assert!(
        report.retries[3] > 0,
        "expected a terminal wounded mid-Delivery: {:?}",
        report.retries
    );
    let faults = hook.stats();
    assert!(faults.io_errors > 0, "{faults:?}");
    assert!(faults.retries > 0, "{faults:?}");
    assert!(lm.wait_for_snapshot().is_empty(), "all locks released");

    let consistency = db.verify_consistency();
    assert!(consistency.is_consistent(), "{consistency:?}");
    db.flush();
    assert!(db
        .try_crash_recovery_check()
        .expect("recovery must not error"));
}
