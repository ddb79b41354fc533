//! Crash-point sweep: enumerate every fault site a seeded workload
//! passes through and prove recovery converges at each one.
//!
//! Three passes, each emitting one JSON object per line to
//! `results/crashpoints.jsonl` (and stdout):
//!
//! 1. `sweep` — the full enumerated crash sweep: record every WAL
//!    append / page free / write-back / miss-load site, verify each
//!    site's frozen-WAL crash image against a serial oracle replayed
//!    to the last complete commit (contents, free lists, footprints),
//!    cross-check sampled prefixes through the literal `try_recover`
//!    path, and re-run sampled sites live with a `crash_at` plan.
//! 2. `gc_sweep` — the same enumerated sweep under group commit
//!    (deterministic inline flush schedule): `wal_flush` sites mark
//!    every flush boundary, recorded WAL positions are durable
//!    watermarks, and a crash between flushes must recover to the last
//!    *flushed* commit — never losing a flushed one.
//! 3. `mvcc_sweep` — the enumerated sweep with `DbConfig::mvcc` on and
//!    spec-rate (1%) New-Order rollbacks live: `undo_append` sites mark
//!    every chained pre-image, and an aborted transaction's forward +
//!    compensating page deltas must replay to the exact oracle image.
//! 4. `cdc_sweep` — a checkpointing CDC pipeline rides the group
//!    commit + MVCC + rollback workload (`cdc_checkpoint` sites fire
//!    per checkpoint): at every committed prefix the materialized
//!    views rebuilt from (latest surviving checkpoint, frozen WAL)
//!    must byte-equal a rescan of the oracle-verified crash image,
//!    and every checkpoint site is also tripped live.
//! 5. `soft` — the same workload under transient write-back I/O
//!    errors and torn (64-byte-boundary) page writes: the bounded
//!    retry must absorb every fault, the consistency checks must pass,
//!    and crash recovery must still reproduce the flushed image.
//! 6. `boundaries` — the WAL truncated at every record boundary.
//!
//! Exits non-zero if any site fails to recover, fewer than 200 sites
//! are enumerated, or the soft-fault run diverges — CI runs this
//! across a seed matrix (see `.github/workflows/ci.yml`).
//!
//! ```text
//! cargo run --release -p tpcc-bench --bin crashpoint -- [transactions] [seed]
//! ```
//!
//! `seed` defaults to `TPCC_STRESS_SEED`, then 42.

use tpcc_bench::{results_file, usage_exit, Args};
use tpcc_db::db::DbConfig;
use tpcc_db::driver::DriverConfig;
use tpcc_db::{
    cdc_checkpoint_sweep, crashpoint_sweep, loader, verify_record_boundaries, FaultPlan, FaultSite,
    GroupCommitConfig, SweepConfig, SweepReport,
};
use tpcc_obs::{JsonLines, JsonObject};

fn main() {
    let args = Args::from_env("crashpoint", "[transactions] [seed]");
    let transactions = args.get("transactions", 5_000);
    let stress_seed = std::env::var("TPCC_STRESS_SEED").map_or(Ok(42), |s| s.parse());
    let Ok(stress_seed) = stress_seed else {
        usage_exit("TPCC_STRESS_SEED must be a u64", "crashpoint …");
    };
    let seed = args.get("seed", stress_seed);

    // small scale with a buffer pool below the working set, so the run
    // itself evicts (write-back and miss-load sites fire mid-txn), and
    // a deep pending queue so the Delivery drain frees pages (leaf
    // merges and heap reclamation — the page-free sites)
    let mut dbcfg = DbConfig::small();
    dbcfg.buffer_frames = 96;
    dbcfg.enable_wal = true;
    dbcfg.initial_pending_per_district = 150;
    dbcfg.initial_orders_per_district = 210;

    let mut out = JsonLines::new(results_file("crashpoints.jsonl"));
    let mut emit = |line: &JsonObject| out.write(line).expect("write a results line");
    let pass = |name: &str| {
        let mut line = JsonObject::default();
        line.str("pass", name).uint("seed", seed);
        line
    };

    let mut cfg = SweepConfig::new(dbcfg, transactions, seed);
    cfg.live_reruns = 3;
    cfg.recover_samples = 32;

    let sweep_line = |name: &str, sweep: &SweepReport| {
        let mut line = pass(name);
        line.uint("transactions", transactions)
            .uint("sites", sweep.sites_total);
        for s in FaultSite::ALL {
            line.uint(s.name(), sweep.per_site[s.idx()]);
        }
        line.uint("wal_entries", sweep.wal_entries)
            .uint("wal_commits", sweep.wal_commits)
            .uint("distinct_prefixes", sweep.distinct_prefixes)
            .uint(
                "recoveries_verified",
                sweep.distinct_prefixes + sweep.live_reruns,
            )
            .uint("recover_checks", sweep.recover_checks)
            .uint("live_reruns", sweep.live_reruns)
            .uint("failures", sweep.failures.len());
        line
    };

    // 1. enumerated crash sweep (synchronous durability)
    let sweep = crashpoint_sweep(&cfg);
    emit(&sweep_line("sweep", &sweep));

    // 2. the same sweep at every flush boundary: group commit with the
    // deterministic inline schedule (flush every 4th commit)
    let mut gc_dbcfg = dbcfg;
    gc_dbcfg.group_commit = Some(GroupCommitConfig::inline_every(4));
    let mut gc_cfg = SweepConfig::new(gc_dbcfg, transactions, seed);
    gc_cfg.live_reruns = cfg.live_reruns;
    gc_cfg.recover_samples = cfg.recover_samples;
    let gc_sweep = crashpoint_sweep(&gc_cfg);
    emit(&sweep_line("gc_sweep", &gc_sweep));

    // 3. the enumerated sweep with MVCC on and spec rollbacks in the
    // input streams: undo_append sites fire on every chained pre-image,
    // and the oracle (same config) replays the aborts' forward +
    // compensating deltas to the identical committed image
    let mut mvcc_dbcfg = dbcfg;
    mvcc_dbcfg.mvcc = true;
    let mut mvcc_cfg = SweepConfig::new(mvcc_dbcfg, transactions, seed);
    mvcc_cfg.driver = DriverConfig::default().with_spec_rollbacks();
    mvcc_cfg.live_reruns = cfg.live_reruns;
    mvcc_cfg.recover_samples = cfg.recover_samples;
    let mvcc_sweep = crashpoint_sweep(&mvcc_cfg);
    emit(&sweep_line("mvcc_sweep", &mvcc_sweep));

    // 4. the cdc_checkpoint sweep: a checkpointing CDC pipeline rides
    // the group-commit + MVCC + rollback workload; at every committed
    // prefix the views rebuilt from (surviving checkpoint, frozen WAL)
    // must equal a rescan of the oracle-verified crash image, and every
    // checkpoint site is tripped live (checkpoint lost mid-write)
    let mut cdc_dbcfg = gc_dbcfg;
    cdc_dbcfg.mvcc = true;
    let mut cdc_cfg = SweepConfig::new(cdc_dbcfg, transactions, seed);
    cdc_cfg.driver = DriverConfig::default().with_spec_rollbacks();
    let cdc_every = (transactions / 20).max(1);
    let cdc = cdc_checkpoint_sweep(&cdc_cfg, cdc_every);
    emit(
        pass("cdc_sweep")
            .uint("transactions", transactions)
            .uint("checkpoint_every", cdc_every)
            .uint("checkpoints", cdc.checkpoints_taken)
            .uint("cdc_sites", cdc.cdc_sites)
            .uint("committed_prefixes", cdc.committed_prefixes)
            .uint("wal_entries", cdc.wal_entries)
            .uint("live_crashes", cdc.live_crashes)
            .uint("unrecovered", cdc.unrecovered),
    );

    // 5. soft-fault convergence
    let mut db = loader::load(dbcfg, seed);
    let soft = db.run_with_faults(
        DriverConfig::default(),
        cfg.driver_seed,
        transactions,
        FaultPlan::soft(seed, 3, 5),
    );
    let consistent = db.verify_consistency().is_consistent();
    let recovered = db.try_crash_recovery_check().unwrap_or(false);
    emit(
        pass("soft")
            .uint("transactions", transactions)
            .uint("io_errors", soft.faults.io_errors)
            .uint("torn_writes", soft.faults.torn_writes)
            .uint("retries_taken", soft.faults.retries)
            .bool("consistent", consistent)
            .bool("recovered", recovered),
    );

    // 6. every WAL record boundary
    let boundaries = verify_record_boundaries(&cfg);
    emit(
        pass("boundaries")
            .uint("boundaries", boundaries.boundaries)
            .uint("committed_prefixes", boundaries.committed_prefixes)
            .uint("recover_checks", boundaries.recover_checks)
            .uint("failures", boundaries.failures),
    );

    let ok = sweep.all_recovered()
        && sweep.sites_total >= 200
        && gc_sweep.all_recovered()
        && gc_sweep.per_site[FaultSite::WalFlush.idx()] > 0
        && mvcc_sweep.all_recovered()
        && mvcc_sweep.per_site[FaultSite::UndoAppend.idx()] > 0
        && cdc.all_recovered()
        && cdc.cdc_sites > 0
        && soft.faults.retries > 0
        && consistent
        && recovered
        && boundaries.failures == 0;
    if !ok {
        eprintln!("crashpoint: FAILED (see results/crashpoints.jsonl)");
        std::process::exit(1);
    }
    eprintln!(
        "crashpoint: {} sites + {} under group commit ({} flush boundaries) \
         + {} under MVCC ({} undo appends), {} prefixes, {} boundaries, \
         {} cdc prefixes rebuilt ({} checkpoints, {} live crashes) — all recovered",
        sweep.sites_total,
        gc_sweep.sites_total,
        gc_sweep.per_site[FaultSite::WalFlush.idx()],
        mvcc_sweep.sites_total,
        mvcc_sweep.per_site[FaultSite::UndoAppend.idx()],
        sweep.distinct_prefixes,
        boundaries.boundaries,
        cdc.committed_prefixes,
        cdc.checkpoints_taken,
        cdc.live_crashes
    );
}
