//! Deterministic fault-injection harnesses: enumerate every crash
//! point a workload passes through and prove recovery converges at
//! each one.
//!
//! The storage layer numbers fault sites in execution order (see
//! `tpcc_storage::fault`), so a serial workload visits the same sites
//! with the same sequence numbers on every run. That determinism turns
//! "crash anywhere" into an enumerable sweep:
//!
//! 1. **Record** — run the workload once under [`FaultPlan::observe`];
//!    the hook logs every site together with the durable WAL length at
//!    the instant it fired.
//! 2. **Verify** — because recovery replays only the WAL's committed
//!    prefix over the post-load checkpoint (it never reads the crashed
//!    device image), "crash at site *k*" is fully characterised by the
//!    WAL frozen at *k*'s instant. `PrefixVerifier` replays each
//!    distinct prefix incrementally over one evolving disk image and
//!    compares it against a **lockstep oracle**: a second database
//!    advanced transaction-by-transaction to the same commit count.
//! 3. **Cross-check** — sampled prefixes additionally go through the
//!    literal [`tpcc_storage::Wal::try_recover`] path, and sampled
//!    sites are re-run live with [`FaultPlan::crash_at`] to prove the
//!    frozen WAL byte-matches the recorded prefix.
//!
//! The incremental image plus per-commit verdict caching keep the
//! full sweep O(wal len + transactions) rather than
//! O(sites × recovery), which is what makes "every crash point" (and
//! the per-record / per-byte truncation sweeps in the test suite)
//! tractable.
//!
//! # Flush-boundary sweeps
//!
//! Records land in a volatile tail and only a flush
//! ([`FaultSite::WalFlush`](tpcc_storage::FaultSite) sites) advances
//! the durable watermark, so recorded `wal_len` values are durable
//! watermarks: a crash at any site between two flushes loses the whole
//! tail. Without group commit each commit forces its own flush; setting
//! `SweepConfig::db.group_commit` batches them, and the harness forces
//! the deterministic **inline** flush schedule (flush every `max_batch`
//! commits on the committing thread) so site numbering stays identical
//! run to run. The sweep proves recovery converges at every flush
//! boundary, and the live re-runs prove the frozen durable prefix
//! byte-matches the recorded one (a flushed commit is never lost, an
//! unflushed one always is). A flush follows a commit or the end of
//! the run, so a durable prefix never ends between two writes of one
//! transaction; [`verify_record_boundaries`] cuts there. The
//! oracle always flushes per commit — it is advanced by *durable*
//! commit count, and a recovered image must match the serial execution
//! of exactly those transactions either way.

use tpcc_schema::relation::Relation;
use tpcc_storage::cdc::{CdcCheckpoint, CdcSubscriber};
use tpcc_storage::{
    apply_entry, DiskManager, FaultPlan, FaultSite, FaultStats, FileId, GroupCommitConfig,
    SiteRecord, Wal, WalEntry, FAULT_SITES,
};

use crate::db::{DbConfig, TpccDb};
use crate::driver::{Driver, DriverConfig, DriverReport};
use crate::loader;
use crate::views::{CdcPipeline, MaterializedViews, ViewRegistry};

/// What a faulted run produced: the usual driver report plus the fault
/// counters the installed plan accumulated.
#[derive(Debug)]
pub struct FaultRunReport {
    /// Per-transaction outcome counts from the driver.
    pub driver: DriverReport,
    /// Sites fired, crash position, soft faults and retries.
    pub faults: FaultStats,
}

impl TpccDb {
    /// Runs `transactions` of the standard mix under a fault plan:
    /// installs `plan` on the storage layer, drives the workload, then
    /// flushes. With a crash plan the WAL freezes at the tripped site
    /// and the report's `faults.crashed_at` says where; with a soft
    /// plan the run rides through I/O errors and torn writes via the
    /// buffer manager's bounded retry.
    pub fn run_with_faults(
        &mut self,
        dcfg: DriverConfig,
        seed: u64,
        transactions: u64,
        plan: FaultPlan,
    ) -> FaultRunReport {
        let hook = self.install_fault_plan(plan);
        let mut driver = Driver::new(self, dcfg, seed);
        let driver_report = driver.run(self, transactions);
        self.flush();
        // quiesce the group-commit tail last, mirroring the sweep's
        // recording pass so live re-runs see identical site numbering
        self.flush_log();
        FaultRunReport {
            driver: driver_report,
            faults: hook.stats(),
        }
    }
}

/// Workload shape for the sweep harnesses.
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// Database scale/resources (the harness forces `enable_wal`).
    pub db: DbConfig,
    /// Transaction mix.
    pub driver: DriverConfig,
    /// Population seed.
    pub load_seed: u64,
    /// Input-generation seed.
    pub driver_seed: u64,
    /// Transactions to drive.
    pub transactions: u64,
    /// Full live re-runs with a `crash_at` plan (cross-check that the
    /// frozen WAL equals the recorded prefix). Spread evenly over the
    /// recorded sites.
    pub live_reruns: usize,
    /// Literal `try_recover` cross-checks, spread evenly over the
    /// distinct prefixes.
    pub recover_samples: usize,
}

impl SweepConfig {
    /// A sweep over `transactions` of the standard mix at `DbConfig`
    /// scale, seeded by `seed` for both population and inputs.
    #[must_use]
    pub fn new(db: DbConfig, transactions: u64, seed: u64) -> Self {
        Self {
            db,
            driver: DriverConfig::default(),
            load_seed: seed,
            driver_seed: seed.rotate_left(32) ^ 0x9e37_79b9_7f4a_7c15,
            transactions,
            live_reruns: 3,
            recover_samples: 16,
        }
    }
}

/// Outcome of [`crashpoint_sweep`].
#[derive(Debug)]
pub struct SweepReport {
    /// Fault sites enumerated by the recording run.
    pub sites_total: u64,
    /// Sites per class, indexed like `FaultSite::ALL`.
    pub per_site: [u64; FAULT_SITES],
    /// Recorded WAL length (entries) at the end of the run.
    pub wal_entries: usize,
    /// Commit markers in the recorded WAL.
    pub wal_commits: u64,
    /// Distinct WAL prefixes among the recorded sites (sites firing at
    /// the same durable length share one crash image).
    pub distinct_prefixes: usize,
    /// Literal `try_recover` cross-checks performed.
    pub recover_checks: usize,
    /// Live crash re-runs performed.
    pub live_reruns: usize,
    /// Sites whose crash image failed to converge to the oracle
    /// (empty on success).
    pub failures: Vec<SiteRecord>,
}

impl SweepReport {
    /// True when every enumerated site recovered to the oracle.
    #[must_use]
    pub fn all_recovered(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Outcome of [`verify_record_boundaries`].
#[derive(Debug)]
pub struct BoundaryReport {
    /// Prefix lengths checked (`0..=wal_entries`, so `wal_entries + 1`).
    pub boundaries: usize,
    /// Recorded WAL length (entries).
    pub wal_entries: usize,
    /// Distinct committed prefixes among the boundaries.
    pub committed_prefixes: usize,
    /// Literal `try_recover` cross-checks performed.
    pub recover_checks: usize,
    /// Boundaries whose recovery diverged from the oracle.
    pub failures: u64,
}

/// Outcome of [`torn_tail_byte_sweep`].
#[derive(Debug)]
pub struct TornTailReport {
    /// Encoded WAL size in bytes.
    pub total_bytes: u64,
    /// Byte offsets checked.
    pub bytes_checked: u64,
    /// Offsets whose recovery diverged from the oracle.
    pub failures: u64,
    /// Literal `try_recover` cross-checks performed.
    pub recover_checks: usize,
}

/// A serial database advanced in lockstep with replay: one driver
/// transaction at a time, until its WAL holds a target commit count.
struct OracleCursor {
    db: TpccDb,
    driver: Driver,
    executed: u64,
    limit: u64,
}

impl OracleCursor {
    fn new(cfg: &SweepConfig) -> Self {
        let mut dbcfg = cfg.db;
        dbcfg.enable_wal = true;
        // the oracle is advanced by durable commit count; its own log
        // can flush per commit regardless of the sweep's flush schedule
        dbcfg.group_commit = None;
        let db = loader::load(dbcfg, cfg.load_seed);
        let driver = Driver::new(&db, cfg.driver, cfg.driver_seed);
        Self {
            db,
            driver,
            executed: 0,
            limit: cfg.transactions,
        }
    }

    fn commits(&self) -> u64 {
        self.db.wal_stats().expect("oracle runs with WAL enabled").2
    }

    /// Advances until the oracle has committed exactly `target`
    /// transactions. Each driver transaction appends at most one
    /// commit marker (new-order success, payment and delivery each
    /// commit once; reads never do), so the cursor cannot overshoot.
    fn advance_to(&mut self, target: u64) {
        while self.commits() < target {
            assert!(
                self.executed < self.limit,
                "oracle exhausted its {} transactions before reaching commit {target}",
                self.limit
            );
            self.driver.run(&mut self.db, 1);
            self.executed += 1;
        }
        debug_assert_eq!(self.commits(), target, "commit markers must advance by one");
    }
}

/// Incremental crash-image verifier.
///
/// Holds one evolving disk image, advanced monotonically by replaying
/// the recorded WAL, and the lockstep oracle. `verify_prefix(len)`
/// answers "does a crash that froze the WAL at `len` entries recover
/// to the oracle?", caching one verdict per committed prefix (all
/// prefixes with the same trailing commit share a crash image).
struct PrefixVerifier {
    wal: Wal,
    checkpoint: DiskManager,
    /// `commits_before[l]` = commit markers in `wal.entries()[..l]`.
    commits_before: Vec<u64>,
    /// `commit_index[c]` = replay boundary for `c` commits (index one
    /// past the `c`-th marker; `commit_index[0] == 0`).
    commit_index: Vec<usize>,
    image: DiskManager,
    applied: usize,
    oracle: OracleCursor,
    /// Verdict per commit count, filled in ascending order.
    verified: Vec<Option<bool>>,
    recover_checks: usize,
}

impl PrefixVerifier {
    fn new(wal: Wal, checkpoint: DiskManager, cfg: &SweepConfig) -> Self {
        let mut commits_before = Vec::with_capacity(wal.len() + 1);
        let mut commit_index = vec![0usize];
        let mut commits = 0u64;
        commits_before.push(0);
        for (i, entry) in wal.entries().iter().enumerate() {
            if matches!(entry, WalEntry::Commit { .. }) {
                commits += 1;
                commit_index.push(i + 1);
            }
            commits_before.push(commits);
        }
        let image = checkpoint.snapshot();
        let verified = vec![None; commits as usize + 1];
        Self {
            wal,
            checkpoint,
            commits_before,
            commit_index,
            image,
            applied: 0,
            oracle: OracleCursor::new(cfg),
            verified,
            recover_checks: 0,
        }
    }

    fn total_commits(&self) -> u64 {
        self.commit_index.len() as u64 - 1
    }

    /// Verifies the crash image for a WAL frozen at `len` entries.
    /// Must be called with non-decreasing `len` (the image and oracle
    /// only move forward).
    fn verify_prefix(&mut self, len: usize) -> bool {
        let c = self.commits_before[len] as usize;
        if let Some(verdict) = self.verified[c] {
            return verdict;
        }
        let boundary = self.commit_index[c];
        assert!(
            boundary >= self.applied,
            "prefixes must be verified in ascending order"
        );
        for entry in &self.wal.entries()[self.applied..boundary] {
            apply_entry(&mut self.image, entry)
                .expect("a recorded committed prefix must replay cleanly");
        }
        self.applied = boundary;
        self.oracle.advance_to(c as u64);
        self.oracle.db.flush();
        let verdict = self.matches_oracle(&self.image);
        self.verified[c] = Some(verdict);
        verdict
    }

    /// Full convergence check: byte-identical pages *and* free sets,
    /// plus the footprint accessors the soak tests assert on
    /// (per-relation heap pages, per-index pages, grand total).
    fn matches_oracle(&self, disk: &DiskManager) -> bool {
        let oracle = &self.oracle.db;
        let contents = oracle.bm.with_disk(|d| d.contents_equal(disk));
        let heaps = Relation::ALL.iter().all(|&r| {
            disk.allocated_pages(self.oracle_file(r)) == oracle.relation_allocated_pages(r)
        });
        let indexes = self
            .oracle_index_files()
            .iter()
            .all(|&f| disk.allocated_pages(f) == oracle.bm.allocated_pages(f));
        let total = disk.total_allocated_pages() == oracle.total_allocated_pages();
        contents && heaps && indexes && total
    }

    fn oracle_file(&self, relation: Relation) -> FileId {
        self.oracle.db.heaps.for_relation(relation).file()
    }

    fn oracle_index_files(&self) -> [FileId; 10] {
        let idx = &self.oracle.db.idx;
        [
            idx.warehouse.file(),
            idx.district.file(),
            idx.customer.file(),
            idx.customer_name.file(),
            idx.stock.file(),
            idx.item.file(),
            idx.order.file(),
            idx.new_order.file(),
            idx.order_line.file(),
            idx.last_order.file(),
        ]
    }

    /// Literal recovery cross-check: truncate a copy of the WAL at
    /// `len`, run it through `try_recover` over a fresh checkpoint
    /// snapshot, and demand it matches the oracle (which must already
    /// be positioned by a preceding `verify_prefix(len)`).
    fn check_literal_recover(&mut self, len: usize) -> bool {
        debug_assert_eq!(
            self.oracle.commits(),
            self.commits_before[len],
            "call verify_prefix(len) before the literal cross-check"
        );
        let mut prefix = self.wal.clone();
        // the recording ended on a flush, so the cut log is durable up
        // to the truncation point and `try_recover` replays all of it
        prefix.truncate(len);
        self.recover_checks += 1;
        match prefix.try_recover(self.checkpoint.snapshot()) {
            Ok(recovered) => self.matches_oracle(&recovered),
            Err(_) => false,
        }
    }
}

/// Enumerates every fault site the workload passes through, then
/// proves each site's crash image recovers to the serial oracle.
///
/// The recording run counts the sites; each distinct durable-WAL
/// length among them is verified against the lockstep oracle through
/// one incremental replay; `recover_samples` of them also go through
/// the literal `try_recover` path; and `live_reruns` sites are re-run
/// end-to-end with a [`FaultPlan::crash_at`] plan to prove the frozen
/// WAL equals the recorded prefix.
///
/// # Panics
/// Panics if a live re-run's frozen WAL diverges from the recorded
/// prefix (a determinism violation, not a recovery failure).
#[must_use]
pub fn crashpoint_sweep(cfg: &SweepConfig) -> SweepReport {
    let dbcfg = sweep_db_config(cfg);

    // 1. Record: observe every site and the WAL length at each.
    let mut db = loader::load(dbcfg, cfg.load_seed);
    let hook = db.install_fault_plan(FaultPlan::observe(cfg.driver_seed));
    let mut driver = Driver::new(&db, cfg.driver, cfg.driver_seed);
    driver.run(&mut db, cfg.transactions);
    db.flush();
    db.flush_log();
    let records = hook.take_records();
    let stats = hook.stats();
    let wal = db.take_wal().expect("sweep runs with WAL enabled");
    let checkpoint = db
        .take_checkpoint()
        .expect("WAL mode always holds a checkpoint");
    drop(db);

    let wal_entries = wal.len();
    let wal_commits = wal.commits();
    let mut verifier = PrefixVerifier::new(wal, checkpoint, cfg);

    // 2. Verify each distinct frozen-WAL length among the sites.
    let mut failures = Vec::new();
    let mut distinct_prefixes = 0usize;
    let mut last_len = usize::MAX;
    let recover_stride = distinct_len_stride(&records, cfg.recover_samples);
    for record in &records {
        debug_assert!(
            last_len == usize::MAX || record.wal_len >= last_len,
            "a serial run records sites in durable-log order"
        );
        if record.wal_len == last_len {
            continue;
        }
        last_len = record.wal_len;
        distinct_prefixes += 1;
        let mut ok = verifier.verify_prefix(record.wal_len);
        if ok && distinct_prefixes.is_multiple_of(recover_stride) {
            ok = verifier.check_literal_recover(record.wal_len);
        }
        if !ok {
            failures.push(*record);
        }
    }

    // 3. Live re-runs: crash for real at sampled sites and check the
    // frozen WAL is exactly the recorded prefix.
    let live = live_rerun_targets(&records, cfg.live_reruns);
    for record in &live {
        let mut crash_db = loader::load(dbcfg, cfg.load_seed);
        let report = crash_db.run_with_faults(
            cfg.driver,
            cfg.driver_seed,
            cfg.transactions,
            FaultPlan::crash_at(cfg.driver_seed, record.seq),
        );
        assert_eq!(
            report.faults.crashed_at,
            Some(record.seq),
            "live re-run must trip the same site"
        );
        let frozen = crash_db.take_wal().expect("crash run logs");
        assert_eq!(
            frozen.durable_len(),
            record.wal_len,
            "the frozen durable watermark must match the recorded one at site {}",
            record.seq
        );
        assert_eq!(
            &frozen.entries()[..frozen.durable_len()],
            &verifier.wal.entries()[..record.wal_len],
            "frozen durable WAL prefix must equal the recorded prefix at site {}",
            record.seq
        );
        let base = crash_db
            .take_checkpoint()
            .expect("crash run holds a checkpoint");
        if frozen.try_recover(base).is_err() {
            failures.push(*record);
        }
    }

    SweepReport {
        sites_total: stats.sites_total(),
        per_site: stats.fired,
        wal_entries,
        wal_commits,
        distinct_prefixes,
        recover_checks: verifier.recover_checks,
        live_reruns: live.len(),
        failures,
    }
}

/// Truncates the recorded WAL at *every* record boundary
/// (`0..=entries`) and verifies each prefix recovers to the oracle —
/// the harness behind the "recovery never fails, never resurrects an
/// uncommitted delta" property test.
#[must_use]
pub fn verify_record_boundaries(cfg: &SweepConfig) -> BoundaryReport {
    let (wal, checkpoint) = record_plain_run(cfg);
    let wal_entries = wal.len();
    let mut verifier = PrefixVerifier::new(wal, checkpoint, cfg);
    let stride = (wal_entries / cfg.recover_samples.max(1)).max(1);
    let mut failures = 0u64;
    for len in 0..=wal_entries {
        let mut ok = verifier.verify_prefix(len);
        if ok && len % stride == 0 {
            ok = verifier.check_literal_recover(len);
        }
        if !ok {
            failures += 1;
        }
    }
    BoundaryReport {
        boundaries: wal_entries + 1,
        wal_entries,
        committed_prefixes: verifier.total_commits() as usize + 1,
        recover_checks: verifier.recover_checks,
        failures,
    }
}

/// Tears the encoded WAL at byte offsets `0, step, 2*step, ..` (every
/// byte when `step == 1`): a torn tail keeps only the records wholly
/// within the offset (a partial trailing record fails its checksum and
/// is discarded), so each offset maps to a record boundary, which is
/// then verified against the oracle.
#[must_use]
pub fn torn_tail_byte_sweep(cfg: &SweepConfig, step: u64) -> TornTailReport {
    let step = step.max(1);
    let (wal, checkpoint) = record_plain_run(cfg);
    let total_bytes = wal.encoded_bytes();
    // Prefix byte lengths: ends[i] = encoded bytes of the first i
    // records, so offsets in ends[i]..ends[i+1] keep exactly i whole
    // records.
    let mut ends = Vec::with_capacity(wal.len() + 1);
    let mut acc = 0u64;
    ends.push(0u64);
    for entry in wal.entries() {
        acc += entry.encoded_len() as u64;
        ends.push(acc);
    }
    debug_assert_eq!(acc, total_bytes);

    let mut verifier = PrefixVerifier::new(wal, checkpoint, cfg);
    let stride = (total_bytes / step / cfg.recover_samples.max(1) as u64).max(1);
    let mut failures = 0u64;
    let mut bytes_checked = 0u64;
    let mut survivors = 0usize;
    let mut offset = 0u64;
    let record_count = ends.len() - 1;
    while offset <= total_bytes {
        while survivors < record_count && ends[survivors + 1] <= offset {
            survivors += 1;
        }
        debug_assert_eq!(survivors, verifier.wal.records_within(offset));
        let mut ok = verifier.verify_prefix(survivors);
        if ok && (offset / step).is_multiple_of(stride) {
            ok = verifier.check_literal_recover(survivors);
        }
        if !ok {
            failures += 1;
        }
        bytes_checked += 1;
        if offset == total_bytes {
            break;
        }
        offset = (offset + step).min(total_bytes);
    }
    TornTailReport {
        total_bytes,
        bytes_checked,
        failures,
        recover_checks: verifier.recover_checks,
    }
}

/// Outcome of [`cdc_checkpoint_sweep`].
#[derive(Debug)]
pub struct CdcSweepReport {
    /// Checkpoints the recording run took (one per cadence boundary).
    pub checkpoints_taken: usize,
    /// `cdc_checkpoint` fault sites fired during recording.
    pub cdc_sites: u64,
    /// Committed prefixes whose rebuilt views were verified
    /// (`0..=commits`, so `commits + 1`).
    pub committed_prefixes: usize,
    /// Recorded WAL length (entries).
    pub wal_entries: usize,
    /// Live crash re-runs at `cdc_checkpoint` sites.
    pub live_crashes: usize,
    /// Prefixes or live crashes whose rebuilt views diverged from the
    /// recovered base tables (0 on success).
    pub unrecovered: u64,
}

impl CdcSweepReport {
    /// True when every prefix and live crash rebuilt exactly.
    #[must_use]
    pub fn all_recovered(&self) -> bool {
        self.unrecovered == 0
    }
}

/// Everything one CDC-instrumented recording (or crash re-run)
/// leaves behind.
struct CdcRecordedRun {
    registry: ViewRegistry,
    checkpoints: Vec<CdcCheckpoint>,
    records: Vec<SiteRecord>,
    stats: FaultStats,
    wal: Wal,
    base: DiskManager,
}

/// Drives the sweep workload with a [`CdcPipeline`] attached, taking a
/// cursor checkpoint every `checkpoint_every` transactions through the
/// fault-instrumented path (each one fires a `cdc_checkpoint` site; a
/// crash plan tripping there loses that checkpoint, exactly like a
/// crash mid-checkpoint-write would).
fn run_with_cdc_checkpoints(
    dbcfg: DbConfig,
    cfg: &SweepConfig,
    checkpoint_every: u64,
    plan: FaultPlan,
) -> CdcRecordedRun {
    let mut db = loader::load(dbcfg, cfg.load_seed);
    let hook = db.install_fault_plan(plan);
    let registry = ViewRegistry::from_db(&db);
    let mut pipeline = CdcPipeline::new(&db);
    pipeline.set_fault_hook(hook.clone());
    let mut driver = Driver::new(&db, cfg.driver, cfg.driver_seed);
    let mut checkpoints = Vec::new();
    let mut remaining = cfg.transactions;
    while remaining > 0 {
        let n = checkpoint_every.min(remaining);
        driver.run(&mut db, n);
        remaining -= n;
        db.flush_log();
        let _ = pipeline.poll_unbounded(&db);
        if let Some(ck) = pipeline.checkpoint() {
            checkpoints.push(ck);
        }
    }
    db.flush();
    db.flush_log();
    let records = hook.take_records();
    let stats = hook.stats();
    let wal = db.take_wal().expect("sweep runs with WAL enabled");
    let base = db
        .take_checkpoint()
        .expect("WAL mode always holds a checkpoint");
    CdcRecordedRun {
        registry,
        checkpoints,
        records,
        stats,
        wal,
        base,
    }
}

/// Rebuilds the materialized views for a WAL frozen at `boundary`
/// entries (a committed batch boundary) from the latest checkpoint
/// that survives that crash — or from the post-load base image when
/// none does. This is the recovery path the views module promises:
/// view state is a pure function of (checkpoint, WAL prefix).
fn rebuild_views_at(
    registry: &ViewRegistry,
    base: &DiskManager,
    checkpoints: &[CdcCheckpoint],
    wal: &Wal,
    boundary: usize,
) -> MaterializedViews {
    // a checkpoint whose cursor is past the frozen prefix was taken
    // after the crash point: it does not survive
    let mut sub = match checkpoints.iter().rev().find(|ck| ck.cursor <= boundary) {
        Some(ck) => CdcSubscriber::resume(ck.snapshot()),
        None => CdcSubscriber::new(base.snapshot()),
    };
    for file in registry.files() {
        sub.watch(file);
    }
    let mut views = MaterializedViews::rescan(sub.shadow(), registry);
    for batch in sub.poll_upto(wal, boundary) {
        views.apply(registry, &batch);
    }
    debug_assert_eq!(sub.cursor(), boundary, "rebuild drains the frozen prefix");
    views
}

/// Proves the CDC views recover from (checkpoint, WAL prefix) at
/// **every committed prefix** of a recorded workload, and live-crashes
/// every `cdc_checkpoint` site to prove a checkpoint lost mid-write
/// falls back to the previous one without divergence.
///
/// Verification per prefix is two-sided: the replayed crash image must
/// converge to the lockstep serial oracle (same machinery as
/// [`crashpoint_sweep`]), and the views rebuilt from the surviving
/// checkpoint plus the frozen WAL must byte-equal a rescan of that
/// image.
///
/// # Panics
/// Panics if a live crash re-run fails to trip the recorded site (a
/// determinism violation, not a recovery failure).
#[must_use]
pub fn cdc_checkpoint_sweep(cfg: &SweepConfig, checkpoint_every: u64) -> CdcSweepReport {
    let dbcfg = sweep_db_config(cfg);

    // 1. Record: drive with a checkpointing pipeline attached.
    let rec = run_with_cdc_checkpoints(
        dbcfg,
        cfg,
        checkpoint_every,
        FaultPlan::observe(cfg.driver_seed),
    );
    let cdc_sites: Vec<SiteRecord> = rec
        .records
        .iter()
        .filter(|r| r.site == FaultSite::CdcCheckpoint)
        .copied()
        .collect();
    let wal_entries = rec.wal.len();
    let checkpoints_taken = rec.checkpoints.len();

    // 2. Every committed prefix: oracle-check the crash image, then
    // demand the checkpoint-rebuilt views equal its rescan.
    let mut verifier = PrefixVerifier::new(rec.wal, rec.base, cfg);
    let mut unrecovered = 0u64;
    let total_commits = verifier.total_commits() as usize;
    for c in 0..=total_commits {
        let boundary = verifier.commit_index[c];
        let mut ok = verifier.verify_prefix(boundary);
        let ground = MaterializedViews::rescan(&verifier.image, &rec.registry);
        let rebuilt = rebuild_views_at(
            &rec.registry,
            &verifier.checkpoint,
            &rec.checkpoints,
            &verifier.wal,
            boundary,
        );
        ok &= rebuilt.encode() == ground.encode();
        if !ok {
            unrecovered += 1;
        }
    }

    // 3. Live crashes: trip each cdc_checkpoint site for real. The
    // checkpoint being taken is lost; the rebuild must fall back to
    // the previous surviving one and still match the recovered image.
    let mut live_crashes = 0usize;
    for record in &cdc_sites {
        live_crashes += 1;
        let crash = run_with_cdc_checkpoints(
            dbcfg,
            cfg,
            checkpoint_every,
            FaultPlan::crash_at(cfg.driver_seed, record.seq),
        );
        assert_eq!(
            crash.stats.crashed_at,
            Some(record.seq),
            "live re-run must trip the recorded cdc_checkpoint site"
        );
        let boundary = crash.wal.committed_len();
        let rebuilt = rebuild_views_at(
            &crash.registry,
            &crash.base,
            &crash.checkpoints,
            &crash.wal,
            boundary,
        );
        match crash.wal.try_recover(crash.base.snapshot()) {
            Ok(recovered) => {
                let ground = MaterializedViews::rescan(&recovered, &crash.registry);
                if rebuilt.encode() != ground.encode() {
                    unrecovered += 1;
                }
            }
            Err(_) => unrecovered += 1,
        }
    }

    CdcSweepReport {
        checkpoints_taken,
        cdc_sites: cdc_sites.len() as u64,
        committed_prefixes: total_commits + 1,
        wal_entries,
        live_crashes,
        unrecovered,
    }
}

/// Runs the sweep workload once with no fault hook and returns its WAL
/// and post-load checkpoint.
fn record_plain_run(cfg: &SweepConfig) -> (Wal, DiskManager) {
    let dbcfg = sweep_db_config(cfg);
    let mut db = loader::load(dbcfg, cfg.load_seed);
    let mut driver = Driver::new(&db, cfg.driver, cfg.driver_seed);
    driver.run(&mut db, cfg.transactions);
    db.flush();
    db.flush_log();
    let wal = db.take_wal().expect("sweep runs with WAL enabled");
    let checkpoint = db
        .take_checkpoint()
        .expect("WAL mode always holds a checkpoint");
    (wal, checkpoint)
}

/// The database configuration the sweep harnesses actually run: WAL
/// forced on, and any requested group commit normalised to the
/// deterministic inline flush schedule (threaded leader election
/// would make site numbering non-reproducible).
fn sweep_db_config(cfg: &SweepConfig) -> DbConfig {
    let mut dbcfg = cfg.db;
    dbcfg.enable_wal = true;
    if let Some(gc) = dbcfg.group_commit {
        dbcfg.group_commit = Some(GroupCommitConfig::inline_every(gc.max_batch));
    }
    dbcfg
}

/// Sampling stride over distinct prefixes such that about `samples`
/// literal recoveries run.
fn distinct_len_stride(records: &[SiteRecord], samples: usize) -> usize {
    let mut distinct = 0usize;
    let mut last = usize::MAX;
    for r in records {
        if r.wal_len != last {
            distinct += 1;
            last = r.wal_len;
        }
    }
    (distinct / samples.max(1)).max(1)
}

/// Evenly spaced site records for live crash re-runs.
fn live_rerun_targets(records: &[SiteRecord], count: usize) -> Vec<SiteRecord> {
    if records.is_empty() || count == 0 {
        return Vec::new();
    }
    let count = count.min(records.len());
    (0..count)
        .map(|i| records[(i * (records.len() - 1)) / count.max(1)])
        .collect()
}
