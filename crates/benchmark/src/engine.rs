//! The five engine workloads: spec-scale databases driven closed-loop
//! by one or two terminals with zero think time and zero simulated
//! device delay, so the numbers measure the program and not
//! `thread::sleep`.
//!
//! One run = set-up (load + short warm-up, repeated [`SETUPS`] times
//! for a steady `setup_s`) → one discarded repetition (grows the
//! in-memory WAL to its working size so timed repetitions take no
//! fresh-page faults) → short timed repetitions of a fixed transaction
//! count until `--seconds` have passed (see [`crate::sample`] for how
//! they become the run's numbers) → final consistency checks. Between
//! repetitions the WAL is reset through
//! [`TpccDb::crash_recovery_check`], which doubles as the
//! per-repetition durability check. The check runs on the log as the
//! repetition left it; see [`Engine::seal_if_unrecoverable`] for the one
//! known engine defect it meets, which is counted, not hidden.

use std::sync::Arc;
use std::time::Instant;

use tpcc_db::parallel::terminal_seed;
use tpcc_db::txns::CustomerSelector;
use tpcc_db::{
    loader, CdcPipeline, Cluster, ClusterConfig, DbConfig, DriverConfig, GroupCommitConfig,
    InputGen, ItemPlacement, MaterializedViews, ParallelDriver, TpccDb, TxnInput,
};
use tpcc_lock::LockManager;
use tpcc_obs::{Label, MemoryRecorder, Obs, QuantileSketch};
use tpcc_schema::relation::Relation;

use crate::metrics::{sketch_quantile, Outcome, Values, Workload};
use crate::sample::{heap_slack, repeat, Reps, Timing, SETUPS, SETUP_BUDGET_S, TXN_BODY_METRICS};
use crate::trace::{self, spanned, Tracer};
use crate::RunOpts;

/// `harness.minflt_per_txn` at or above this fails a full-scale run.
const MINFLT_LIMIT: f64 = 0.05;
/// The threaded group-commit pipeline with its timers off: no flush
/// window and no simulated log-device sleep, so the batcher flushes
/// whatever accumulated while it was flushing. Like `io_delay_us = 0`
/// this measures the ticket/condvar protocol, not `thread::sleep`:
/// with the `trajectory` bench's 200 µs / 50 µs timers, timer wake-up
/// jitter on a virtual CPU set the result (CPU per transaction swung
/// 290-520 µs between runs, Stock-Level p95 by 44 %).
const GROUP_COMMIT: GroupCommitConfig = GroupCommitConfig {
    flush_window_us: 0,
    max_batch: 32,
    log_io_delay_us: 0,
    inline: false,
};
/// Lock-space labels, in `tpcc-db`'s lock-space order, so a traced
/// run's lock waits carry relation names.
const LOCK_SPACES: [Label; 5] = [
    Label::Name("warehouse"),
    Label::Name("district"),
    Label::Name("customer"),
    Label::Name("stock"),
    Label::Name("order"),
];
/// Counters read from the traced repetitions' recorder, in
/// [`Counters`] slot order.
const COUNTER_NAMES: [&str; 18] = [
    "buf_hits",
    "buf_misses",
    "buf_evictions",
    "buf_writebacks",
    "latch_acquisitions",
    "latch_contended",
    "wal_records",
    "wal_bytes_appended",
    "lock_acquires",
    "lock_waits",
    "lock_wounds",
    "btree_node_visits",
    "btree_splits",
    "btree_restarts",
    "undo_bytes",
    "versions_traversed",
    "snapshot_reads",
    "cdc_events",
];

/// Static description of one engine workload at full scale.
struct Spec {
    /// Warehouses (per node in the cluster workload).
    warehouses: u64,
    /// Buffer-pool frames (per node).
    frames: usize,
    shards: usize,
    /// 1 = the harness's own serial loop; 2 = `ParallelDriver` /
    /// `Cluster::run` terminals.
    terminals: u64,
    wal: bool,
    mvcc: bool,
    group_commit: bool,
    driver: DriverConfig,
    /// Transactions between `CdcPipeline::poll` calls.
    cdc_poll_every: Option<u64>,
    /// 0 = one database; otherwise cluster nodes.
    nodes: u64,
    txns_per_rep: u64,
    /// Warm-up transactions inside each set-up.
    warmup_txns: u64,
    /// MiB of [`heap_slack`] (more where the WAL cannot be reset).
    pretouch_mib: u64,
}

fn spec(workload: Workload) -> Spec {
    let base = Spec {
        warehouses: 1,
        frames: 32_768, // 128 MiB > the 95 MiB database: every access hits
        shards: 1,
        terminals: 1,
        wal: true,
        mvcc: false,
        group_commit: false,
        driver: DriverConfig::default(),
        cdc_poll_every: None,
        nodes: 0,
        txns_per_rep: 4_000,
        warmup_txns: 2_000,
        pretouch_mib: 64,
    };
    match workload {
        Workload::SerialWal => base,
        Workload::SerialNologMiss => Spec {
            frames: 2_432, // a tenth of the 24 257-page database
            wal: false,
            txns_per_rep: 6_000,
            // the pool must turn over before its content is the
            // workload's, not the loader's
            warmup_txns: 4_000,
            ..base
        },
        Workload::ContendedMvcc => Spec {
            shards: 8,
            terminals: 2,
            mvcc: true,
            driver: DriverConfig::default()
                .with_spec_rollbacks()
                .with_spec_item_counts(),
            ..base
        },
        Workload::PipelineGcCdc => Spec {
            warehouses: 2,
            frames: 65_536,
            shards: 8,
            terminals: 2,
            mvcc: true,
            group_commit: true,
            driver: DriverConfig::default().with_spec_rollbacks(),
            cdc_poll_every: Some(500),
            // the log is never reset here, so set-up and repetitions are
            // kept short: a 2-warehouse load is already the longest
            txns_per_rep: 1_000,
            warmup_txns: 500,
            pretouch_mib: 384,
            ..base
        },
        Workload::Cluster2pc => Spec {
            shards: 8,
            terminals: 2,
            mvcc: true, // the cluster forces it on
            driver: DriverConfig::default().with_spec_rollbacks(),
            nodes: 2,
            txns_per_rep: 3_000,
            warmup_txns: 1_000,
            ..base
        },
        Workload::ModelSweep => unreachable!("model-sweep is not an engine workload"),
    }
}

impl Spec {
    /// Whether the WAL is reset (and recovery checked) after every
    /// repetition. Not under group commit: `crash_recovery_check`
    /// re-arms an empty log whose commit count restarts at zero while
    /// the `LogManager` keeps its ticket high-water mark, so commits
    /// after a reset skip the batcher until the count catches up (and
    /// dropping the database can wait forever on the batcher). There
    /// the log grows through the run and recovery is checked once, at
    /// the end.
    fn resets_wal(&self) -> bool {
        self.wal && !self.group_commit
    }

    fn db_config(&self, scale: u64) -> DbConfig {
        let mut cfg = DbConfig::paper(self.warehouses, (self.frames as u64 / scale) as usize);
        cfg.items /= scale;
        cfg.customers_per_district /= scale;
        cfg.initial_orders_per_district /= scale;
        cfg.initial_pending_per_district /= scale;
        cfg.buffer_shards = self.shards;
        cfg.enable_wal = self.wal;
        cfg.mvcc = self.mvcc;
        cfg.group_commit = self.group_commit.then_some(GROUP_COMMIT);
        cfg
    }
}

/// A loaded system under test (one per process, so the size gap
/// between the variants costs nothing).
#[allow(clippy::large_enum_variant)]
enum Engine {
    Single {
        db: Box<TpccDb>,
        lm: LockManager,
        pipeline: Option<CdcPipeline>,
    },
    Cluster(Box<Cluster>),
}

/// What one repetition measured.
#[derive(Default)]
struct Rep {
    timing: Timing,
    new_orders: u64,
    rollbacks: u64,
    /// Rollbacks the generated inputs asked for (`None` where the
    /// input streams cannot be replayed from outside: the cluster).
    injected_rollbacks: Option<u64>,
    retries: u64,
    two_pc_aborts: u64,
    poll_ns: u64,
    // cluster only
    msgs: u64,
    prepares: u64,
    remote_txns: u64,
    remote_latency: QuantileSketch,
    /// Delta bytes this repetition appended to the log(s).
    wal_bytes: u64,
    // traced repetitions only
    counters: Counters,
    /// Group-commit flushes and the commits they made durable.
    gc_flushes: u64,
    gc_commits: u64,
    /// Seconds `Wal::try_recover` took over this repetition's log.
    recovery_s: Option<f64>,
}

/// Executes one generated input serially, the way `tpcc_db::Driver`
/// does. Returns `(new order placed, rolled back)`.
fn execute(db: &TpccDb, input: TxnInput) -> (bool, bool) {
    match input {
        TxnInput::NewOrder { w, d, c, lines } => {
            let placed = db.new_order_checked(w, d, c, &lines).is_ok();
            (placed, !placed)
        }
        TxnInput::Payment {
            w,
            d,
            cw,
            cd,
            selector,
            amount,
        } => {
            let _ = db.payment(w, d, cw, cd, selector, amount);
            (false, false)
        }
        TxnInput::OrderStatus { w, d, selector } => {
            let _ = db.order_status(w, d, selector);
            (false, false)
        }
        TxnInput::Delivery { w, carrier } => {
            let _ = db.delivery(w, carrier);
            (false, false)
        }
        TxnInput::StockLevel { w, d, threshold } => {
            let _ = db.stock_level(w, d, threshold);
            (false, false)
        }
    }
}

fn is_rollback_input(input: &TxnInput, items: u64) -> bool {
    matches!(input, TxnInput::NewOrder { lines, .. }
        if lines.last().is_some_and(|l| l.item == items))
}

/// Span names of the five transaction bodies, in mix order.
const TXN_SPANS: [&str; 5] = [
    "txns.new_order",
    "txns.payment",
    "txns.order_status",
    "txns.delivery",
    "txns.stock_level",
];

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Engine {
    fn build(spec: &Spec, scale: u64, seed: u64) -> Self {
        let cfg = spec.db_config(scale);
        if spec.nodes > 0 {
            let cluster = Cluster::new(
                ClusterConfig {
                    nodes: spec.nodes,
                    warehouses_per_node: spec.warehouses,
                    node_db: cfg,
                    driver: spec.driver,
                    placement: ItemPlacement::Replicated,
                    network_delay_us: 0,
                },
                seed,
            );
            return Engine::Cluster(Box::new(cluster));
        }
        let db = Box::new(loader::load(cfg, seed));
        let pipeline = spec.cdc_poll_every.map(|_| CdcPipeline::new(&db));
        Engine::Single {
            db,
            lm: LockManager::new(),
            pipeline,
        }
    }

    /// Attaches `recorder` to every layer that takes an `Obs`.
    fn attach(&mut self, spec: &Spec, recorder: &Arc<MemoryRecorder>) {
        let obs = Obs::new(recorder.clone());
        match self {
            Engine::Single { db, lm, .. } => {
                db.set_obs(obs.clone());
                lm.set_obs(&obs, &LOCK_SPACES);
            }
            Engine::Cluster(cl) => {
                // node lock managers resolved their handles at
                // construction, so lock.* stays 0 on this workload
                for n in 0..spec.nodes as usize {
                    cl.node_db_mut(n).set_obs(obs.clone());
                }
            }
        }
    }

    /// One repetition of `txns` transactions; the closure handed to
    /// [`Timing::time`] is the timed section.
    fn rep(&mut self, spec: &Spec, txns: u64, seed: u64, mut tracer: Option<&mut Tracer>) -> Rep {
        let mut rep = Rep::default();
        let mut timing = Timing::default();
        // `(seed, transactions)` of each `ParallelDriver` call
        let mut chunks: Vec<(u64, u64)> = Vec::new();
        let wal_before = self.wal_bytes(spec);
        let (refs_before, writebacks_before) = self.pool_counts(spec);
        timing.time(|timing| match self {
            Engine::Single { db, .. } if spec.terminals == 1 => {
                serial_loop(
                    db,
                    spec,
                    txns,
                    seed,
                    tracer.as_deref_mut(),
                    timing,
                    &mut rep,
                );
            }
            Engine::Single { db, lm, pipeline } => {
                let chunk = spec.cdc_poll_every.unwrap_or(txns).max(1);
                let mut remaining = txns;
                while remaining > 0 {
                    let n = chunk.min(remaining);
                    remaining -= n;
                    let chunk_seed = seed.wrapping_add(chunks.len() as u64 * 7919);
                    chunks.push((chunk_seed, n));
                    let id = chunks.len() as u32;
                    let report = spanned(&mut tracer, "driver.run", id, || {
                        ParallelDriver::new(spec.driver, spec.terminals, chunk_seed)
                            .run_on(db, lm, n)
                    });
                    timing.txns += report.total();
                    rep.new_orders += report.new_orders;
                    rep.rollbacks += report.rollbacks;
                    rep.retries += report.retries.iter().sum::<u64>();
                    for (mine, theirs) in timing.latency.iter_mut().zip(&report.latency_ns) {
                        mine.merge(theirs);
                    }
                    if let Some(p) = pipeline {
                        db.flush_log();
                        let p0 = Instant::now();
                        spanned(&mut tracer, "cdc.poll", id, || {
                            p.poll(db).expect("no lag bound configured");
                        });
                        rep.poll_ns += elapsed_ns(p0);
                    }
                }
            }
            Engine::Cluster(cl) => {
                let report = spanned(&mut tracer, "cluster.run", 1, || {
                    cl.run(spec.terminals, txns, seed)
                });
                timing.txns = report.total();
                timing.latency = report.latency_ns.clone();
                rep.new_orders = report.new_orders;
                rep.rollbacks = report.rollbacks;
                rep.retries = report.retries.iter().sum();
                rep.two_pc_aborts = report.two_pc_aborts + report.abort_decides;
                rep.msgs = report.messages();
                rep.prepares = report.prepares;
                rep.remote_txns = report.remote_new_orders + report.remote_payments;
                rep.remote_latency = report.remote_latency_ns.clone();
            }
        });
        let (refs, writebacks) = self.pool_counts(spec);
        rep.wal_bytes = self.wal_bytes(spec) - wal_before;
        let page_bytes = self.page_size() as u64;
        let txns_done = timing.txns.max(1) as f64;
        timing.page_refs_per_txn = (refs - refs_before) as f64 / txns_done;
        timing.write_bytes_per_txn =
            (rep.wal_bytes + (writebacks - writebacks_before) * page_bytes) as f64 / txns_done;
        rep.timing = timing;

        if let (Engine::Single { db, .. }, false) = (&*self, chunks.is_empty()) {
            // replay the terminals' input streams (untimed) to learn how
            // many rollbacks the inputs asked for
            let items = db.config().items;
            let mut injected = 0;
            for (chunk_seed, n) in chunks {
                for t in 0..spec.terminals {
                    let share = n / spec.terminals + u64::from(t < n % spec.terminals);
                    let mut gen = InputGen::new(db, spec.driver, terminal_seed(chunk_seed, t));
                    injected += (0..share)
                        .filter(|_| is_rollback_input(&gen.next_input(), items))
                        .count() as u64;
                }
            }
            rep.injected_rollbacks = Some(injected);
        }
        rep
    }

    /// [`Engine::rep`] with the recorder's counters, the group-commit
    /// statistics and a timed recovery read around it.
    fn traced_rep(
        &mut self,
        spec: &Spec,
        txns: u64,
        seed: u64,
        recorder: &MemoryRecorder,
        tracer: &mut Tracer,
    ) -> Rep {
        let gc_before = self.gc_stats();
        let before = Counters::read(recorder);
        let mut rep = self.rep(spec, txns, seed, Some(tracer));
        rep.counters = Counters::read(recorder).since(&before);
        let gc_after = self.gc_stats();
        rep.gc_flushes = gc_after.0 - gc_before.0;
        rep.gc_commits = gc_after.1 - gc_before.1;
        rep.recovery_s = self.time_recovery(spec);
        rep
    }

    /// `(flushes, commits flushed)` of the group-commit pipeline.
    fn gc_stats(&self) -> (u64, u64) {
        match self {
            Engine::Single { db, .. } => db
                .group_commit_stats()
                .map_or((0, 0), |s| (s.flushes, s.commits_flushed)),
            Engine::Cluster(_) => (0, 0),
        }
    }

    /// `(fixes, write-backs)` of the buffer pools since load, all
    /// files: fixes = hits + misses.
    fn pool_counts(&self, spec: &Spec) -> (u64, u64) {
        let mut total = (0, 0);
        self.for_each_db(spec, |db| {
            let heaps = Relation::ALL.iter().map(|&r| db.relation_stats(r));
            let all = heaps.fold(db.index_stats(), |a, s| a.merged(s));
            total.0 += all.hits + all.misses;
            total.1 += all.writebacks;
        });
        total
    }

    fn page_size(&self) -> usize {
        match self {
            Engine::Single { db, .. } => db.config().page_size,
            Engine::Cluster(cl) => cl.node_db(0).config().page_size,
        }
    }

    /// Delta bytes in the live logs.
    fn wal_bytes(&self, spec: &Spec) -> u64 {
        let mut total = 0;
        self.for_each_db(spec, |db| {
            total += db.wal_stats().map_or(0, |(_, bytes, _)| bytes);
        });
        total
    }

    fn for_each_db(&self, spec: &Spec, mut f: impl FnMut(&TpccDb)) {
        match self {
            Engine::Single { db, .. } => f(db),
            Engine::Cluster(cl) => (0..spec.nodes as usize).for_each(|n| f(cl.node_db(n))),
        }
    }

    /// Times `Wal::try_recover` over a clone of the checkpoint (the
    /// clone is outside the timed part). Returns seconds, or `None`
    /// without a single-database WAL.
    fn time_recovery(&self, spec: &Spec) -> Option<f64> {
        let Engine::Single { db, .. } = self else {
            return None;
        };
        if !spec.resets_wal() {
            return None; // the log holds more than this repetition
        }
        let base = db.checkpoint_snapshot()?;
        let t0 = Instant::now();
        let recovered = db.with_wal(|wal| wal.try_recover(base))?;
        let secs = t0.elapsed().as_secs_f64();
        recovered.ok().map(|_| secs)
    }

    /// The one known way a repetition's log fails its durability check:
    /// a New-Order rollback that is the last thing the log sees. It
    /// writes no marker of its own, so it lies past the last commit
    /// marker, where recovery and CDC stop, and the replayed image then
    /// differs from the live pool (about one two-terminal repetition in
    /// a hundred ends this way; the unit test below forces it). The
    /// engine fix is a later issue; until then the harness neither
    /// hides the defect nor lets it fail a run. Where a log holds
    /// entries past its last marker and does not recover as it stands,
    /// the repetition is counted in `wal.unsealed_mismatches` and the
    /// log is sealed with one untimed Payment, so that the checks that
    /// follow still tell this defect from a new one. Every other log is
    /// checked exactly as the repetition left it.
    fn seal_if_unrecoverable(&self, spec: &Spec, checks: &mut Checks) {
        self.for_each_db(spec, |db| {
            db.flush_log();
            let open_tail = db.with_wal(|wal| wal.committed_len() < wal.len());
            if open_tail == Some(true) && !recovers(db) {
                checks.unsealed_mismatches += 1;
                seal(db);
            }
        });
    }

    /// The durability check of every database, which also resets its
    /// WAL.
    fn check_recovery(&mut self, spec: &Spec, checks: &mut Checks) {
        self.seal_if_unrecoverable(spec, checks);
        let mut check = |n: usize, db: &mut TpccDb| {
            if !db.crash_recovery_check() {
                checks.errors.push(format!(
                    "database {n}: crash recovery image differs from the live pool"
                ));
            }
        };
        match self {
            Engine::Single { db, .. } => check(0, db),
            Engine::Cluster(cl) => {
                (0..spec.nodes as usize).for_each(|n| check(n, cl.node_db_mut(n)));
            }
        }
    }

    /// Per-repetition checks and the WAL reset.
    fn check_and_reset(&mut self, spec: &Spec, rep: &Rep, checks: &mut Checks) {
        checks.two_pc_aborts += rep.two_pc_aborts;
        if let Some(injected) = rep.injected_rollbacks {
            if injected != rep.rollbacks {
                checks.errors.push(format!(
                    "observed {} rollbacks, inputs injected {injected}",
                    rep.rollbacks
                ));
            }
        } else if spec.driver.rollback_prob > 0.0 {
            // the cluster's input streams cannot be replayed from
            // outside; hold the observed rate to a wide band around 1 %
            let attempts = (rep.new_orders + rep.rollbacks) as f64;
            let rate = rep.rollbacks as f64 / attempts.max(1.0);
            if attempts >= 1000.0 && !(0.002..=0.03).contains(&rate) {
                checks
                    .errors
                    .push(format!("cluster rollback rate {rate:.4} outside 0.2-3 %"));
            }
        }
        if let Engine::Single {
            db,
            pipeline: Some(p),
            ..
        } = self
        {
            let views_match = |p: &mut CdcPipeline| {
                db.flush_log();
                p.poll(db).expect("no lag bound configured");
                p.views().encode() == MaterializedViews::rescan_live(db, p.registry()).encode()
            };
            if !views_match(p) {
                // the same defect, seen by the subscriber
                let open_tail = db.with_wal(|wal| wal.committed_len() < wal.len());
                if open_tail == Some(true) {
                    checks.unsealed_mismatches += 1;
                    seal(db);
                }
                if open_tail != Some(true) || !views_match(p) {
                    checks
                        .errors
                        .push("CDC views differ from a fresh rescan".to_string());
                }
            }
        }
        if spec.resets_wal() {
            self.check_recovery(spec, checks);
        }
    }

    fn final_check(&mut self, spec: &Spec, checks: &mut Checks) {
        if spec.wal && !spec.resets_wal() {
            self.check_recovery(spec, checks);
        }
        match self {
            Engine::Single { db, .. } => {
                let report = db.verify_consistency();
                if !report.is_consistent() {
                    checks
                        .errors
                        .push(format!("consistency conditions violated: {report:?}"));
                }
            }
            Engine::Cluster(cl) => {
                if !cl.consistent() {
                    checks
                        .errors
                        .push("cluster consistency conditions violated".to_string());
                }
            }
        }
    }
}

/// What the checks between and after the repetitions found.
#[derive(Default)]
struct Checks {
    /// Reasons a correctness check failed (empty = correct).
    errors: Vec<String>,
    /// Repetitions whose log did not pass its check until it was
    /// sealed (see [`Engine::seal_if_unrecoverable`]).
    unsealed_mismatches: u64,
    /// 2PC aborts: without fault injection none is expected, so each
    /// is a failed operation of the run.
    two_pc_aborts: u64,
}

/// True when replaying the live log over the checkpoint gives the live
/// pool's image: [`TpccDb::crash_recovery_check`] without the reset.
fn recovers(db: &TpccDb) -> bool {
    let Some(base) = db.checkpoint_snapshot() else {
        return true; // no log to recover from
    };
    let recovered = db
        .with_wal(|wal| wal.try_recover(base))
        .expect("a checkpoint implies a log");
    db.flush();
    recovered.is_ok_and(|image| db.disk_contents_equal(&image))
}

/// Commits one Payment, so the log ends in a commit marker.
fn seal(db: &TpccDb) {
    let _ = db.payment(0, 0, 0, 0, CustomerSelector::ById(0), 1.0);
}

/// The harness's own serial terminal: `InputGen::next_input` →
/// `TpccDb::{new_order_checked, payment, ...}` with a latency sample
/// per transaction and, when tracing, a root span per transaction with
/// the input generation and the transaction body as children.
fn serial_loop(
    db: &TpccDb,
    spec: &Spec,
    txns: u64,
    seed: u64,
    mut tracer: Option<&mut Tracer>,
    timing: &mut Timing,
    rep: &mut Rep,
) {
    let mut gen = InputGen::new(db, spec.driver, seed);
    let items = db.config().items;
    let mut injected = 0;
    for i in 0..txns {
        let id = i as u32;
        let (root, gen_span) = match tracer.as_deref_mut() {
            Some(t) => {
                let root = t.open("driver.txn", None, id);
                (root, t.open("driver.input_gen", root, id))
            }
            None => (None, None),
        };
        let input = gen.next_input();
        let body_span = tracer.as_deref_mut().and_then(|t| {
            t.close(gen_span);
            t.open(TXN_SPANS[input.type_index()], root, id)
        });
        let t = input.type_index();
        injected += u64::from(is_rollback_input(&input, items));
        let t0 = Instant::now();
        let (placed, rolled_back) = execute(db, input);
        timing.latency[t].record(elapsed_ns(t0));
        if let Some(t) = tracer.as_deref_mut() {
            t.close(body_span);
            t.close(root);
        }
        rep.new_orders += u64::from(placed);
        rep.rollbacks += u64::from(rolled_back);
    }
    timing.txns = txns;
    rep.injected_rollbacks = Some(injected);
}

/// Counter totals read from the traced recorder.
#[derive(Clone, Copy, Default)]
struct Counters([u64; COUNTER_NAMES.len()]);

impl Counters {
    fn read(recorder: &MemoryRecorder) -> Self {
        Self(COUNTER_NAMES.map(|name| recorder.counter_total(name)))
    }

    fn since(mut self, before: &Counters) -> Self {
        for (slot, b) in self.0.iter_mut().zip(&before.0) {
            *slot -= b;
        }
        self
    }
}

fn timings(reps: &[Rep]) -> Reps<'_> {
    Reps(reps.iter().map(|r| &r.timing).collect())
}

/// Runs one engine workload.
pub fn run(workload: Workload, opts: &RunOpts) -> Outcome {
    let spec = spec(workload);
    let scale = opts.scale.max(1);
    let txns = (spec.txns_per_rep / scale).max(50);
    let warmup = (spec.warmup_txns / scale).max(20);
    let mut out = Outcome::default();
    let mut checks = Checks::default();

    let slack = heap_slack(spec.pretouch_mib / scale);

    // set-up, several times over: load, construct, warm up, reset
    let mut setup_s = Vec::new();
    let mut engine = None;
    let setups_started = Instant::now();
    for i in 0..SETUPS {
        if i > 0 && setups_started.elapsed().as_secs_f64() > SETUP_BUDGET_S {
            break;
        }
        drop(engine.take()); // before the next load, so peak RSS holds one system
        let t0 = Instant::now();
        let mut e = Engine::build(&spec, scale, opts.seed);
        let rep = e.rep(&spec, warmup, opts.seed.wrapping_add(1000 + i as u64), None);
        e.check_and_reset(&spec, &rep, &mut checks);
        setup_s.push(t0.elapsed().as_secs_f64());
        engine = Some(e);
    }
    let mut engine = engine.expect("at least one set-up");
    drop(slack);

    // one discarded full repetition: grows the log, the sketches and
    // the allocator's heap to their working size
    let rep = engine.rep(&spec, txns, opts.seed.wrapping_add(999), None);
    engine.check_and_reset(&spec, &rep, &mut checks);

    let recorder = Arc::new(MemoryRecorder::new());
    let mut tracer = opts.trace.then(|| Tracer::new(400_000));
    let mut attached = false;
    let schedule = repeat(opts, |seed, tracing| {
        let rep = match tracer.as_mut().filter(|_| tracing) {
            Some(tracer) => {
                if !attached {
                    engine.attach(&spec, &recorder);
                    attached = true;
                }
                engine.traced_rep(&spec, txns, seed, &recorder, tracer)
            }
            None => engine.rep(&spec, txns, seed, None),
        };
        engine.check_and_reset(&spec, &rep, &mut checks);
        rep
    });
    engine.final_check(&spec, &mut checks);
    let (untraced, traced) = (schedule.untraced, schedule.traced);

    let v = &mut out.values;
    if opts.trace {
        timings(&traced).traced_values(&timings(&untraced), schedule.steal_share, v);
        layer_values(v, &spec, &traced, &recorder, tracer.as_ref());
        v.insert("wal.unsealed_mismatches", checks.unsealed_mismatches as f64);
        trace::flush(
            tracer.as_ref(),
            opts.trace_path.as_deref(),
            &mut out.notes,
            &mut checks.errors,
        );
    } else {
        timings(&untraced).end_to_end(&setup_s, v);
        out.notes.extend(timings(&untraced).disturbance_note());
    }
    if checks.unsealed_mismatches > 0 {
        out.notes.push(format!(
            "KNOWN ENGINE DEFECT: {} repetition(s) left a log that did not recover until it was \
             sealed with one more commit (a rollback past the last commit marker)",
            checks.unsealed_mismatches
        ));
    }

    let measured = timings(if opts.trace { &traced } else { &untraced });
    let minflt = measured.minflt_per_txn();
    if scale == 1 && !opts.trace && minflt >= MINFLT_LIMIT {
        checks.errors.push(format!(
            "{minflt:.3} minor faults per transaction in timed sections (limit {MINFLT_LIMIT}); \
             launch through crates/benchmark/run.sh, which pins the allocator"
        ));
    }
    // what the printed numbers rest on: every traced repetition, the
    // untraced ones the hypervisor left alone
    let reported = if opts.trace {
        measured
    } else {
        measured.undisturbed()
    };
    out.notes.push(format!(
        "{txns} transactions per repetition; {}; set-ups {:?} s",
        reported.describe(),
        setup_s
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
    ));
    out.finish(
        timings(&untraced).txns() + timings(&traced).txns(),
        checks.two_pc_aborts,
        checks.errors,
    );
    out
}

/// The engine's per-layer metrics from the traced repetitions:
/// recorder counters per transaction, span means, driver reports.
fn layer_values(
    v: &mut Values,
    spec: &Spec,
    traced: &[Rep],
    recorder: &MemoryRecorder,
    tracer: Option<&Tracer>,
) {
    let sum = |f: fn(&Rep) -> u64| traced.iter().map(f).sum::<u64>() as f64;
    let counter = |name: &str| {
        let i = COUNTER_NAMES
            .iter()
            .position(|n| *n == name)
            .expect("declared counter");
        traced.iter().map(|r| r.counters.0[i]).sum::<u64>() as f64
    };
    let timing = timings(traced);
    let txns = timing.txns().max(1) as f64;
    let ktxn = txns / 1e3;
    let wall = timing.wall_s();

    // driver
    v.insert("driver.tpmc", sum(|r| r.new_orders) * 60.0 / wall);
    v.insert("driver.retries_per_ktxn", sum(|r| r.retries) / ktxn);
    v.insert("driver.rollbacks_per_ktxn", sum(|r| r.rollbacks) / ktxn);
    // spans of the serial loop: input generation, the loop's own time,
    // and the transaction bodies (replacing the sketch means)
    if let Some(tracer) = tracer {
        for (name, count, total_ns, self_ns) in tracer.totals() {
            let per = |ns: u64| ns as f64 / count.max(1) as f64;
            match name {
                "driver.input_gen" => {
                    v.insert("driver.input_gen_ns", per(total_ns));
                }
                "driver.txn" => {
                    v.insert("driver.loop_self_us", per(self_ns) / 1e3);
                }
                _ => {
                    if let Some(t) = TXN_SPANS.iter().position(|s| *s == name) {
                        v.insert(TXN_BODY_METRICS[t], per(total_ns) / 1e3);
                    }
                }
            }
        }
    }
    // lock
    v.insert("lock.acquires_per_txn", counter("lock_acquires") / txns);
    v.insert("lock.waits_per_ktxn", counter("lock_waits") / ktxn);
    v.insert("lock.wounds_per_ktxn", counter("lock_wounds") / ktxn);
    if let Some(h) = recorder.histogram("lock_wait_ns", Label::None) {
        v.insert("lock.wait_us_per_txn", h.sum() as f64 / 1e3 / txns);
    }
    // btree
    v.insert(
        "btree.node_visits_per_txn",
        counter("btree_node_visits") / txns,
    );
    v.insert("btree.splits_per_ktxn", counter("btree_splits") / ktxn);
    v.insert("btree.restarts_per_ktxn", counter("btree_restarts") / ktxn);
    // bufmgr
    let touches = counter("buf_hits") + counter("buf_misses");
    v.insert("bufmgr.touches_per_txn", touches / txns);
    v.insert(
        "bufmgr.miss_ppm",
        counter("buf_misses") / touches.max(1.0) * 1e6,
    );
    v.insert("bufmgr.evictions_per_txn", counter("buf_evictions") / txns);
    v.insert(
        "bufmgr.writebacks_per_txn",
        counter("buf_writebacks") / txns,
    );
    v.insert(
        "bufmgr.latch_contended_ppm",
        counter("latch_contended") / counter("latch_acquisitions").max(1.0) * 1e6,
    );
    // wal
    v.insert("wal.records_per_txn", counter("wal_records") / txns);
    v.insert("wal.bytes_per_txn", counter("wal_bytes_appended") / txns);
    let recovery_s: f64 = traced.iter().filter_map(|r| r.recovery_s).sum();
    if recovery_s > 0.0 {
        v.insert("wal.recovery_ms_per_ktxn", recovery_s * 1e3 / ktxn);
        v.insert(
            "wal.replay_mb_per_s",
            sum(|r| r.wal_bytes) / 1e6 / recovery_s,
        );
    }
    // logmgr
    let flushes = sum(|r| r.gc_flushes);
    if flushes > 0.0 {
        v.insert("logmgr.commits_per_flush", sum(|r| r.gc_commits) / flushes);
        v.insert("logmgr.flushes_per_s", flushes / wall);
    }
    if let Some(h) = recorder.histogram("commit_wait_ns", Label::None) {
        v.insert("logmgr.commit_wait_p50_us", sketch_quantile(&h, 0.50) / 1e3);
        v.insert("logmgr.commit_wait_p95_us", sketch_quantile(&h, 0.95) / 1e3);
    }
    // undo / mvcc
    v.insert("undo.bytes_per_txn", counter("undo_bytes") / txns);
    v.insert(
        "undo.snapshot_reads_per_ktxn",
        counter("snapshot_reads") / ktxn,
    );
    v.insert(
        "undo.versions_traversed_per_read",
        counter("versions_traversed") / counter("snapshot_reads").max(1.0),
    );
    // cdc
    if spec.cdc_poll_every.is_some() {
        let poll_s = sum(|r| r.poll_ns) / 1e9;
        v.insert("cdc.poll_us_per_txn", poll_s * 1e6 / txns);
        v.insert("cdc.poll_share", poll_s / wall);
        v.insert("cdc.events_per_txn", counter("cdc_events") / txns);
        if let Some(h) = recorder.histogram("cdc_lag_entries", Label::None) {
            v.insert("cdc.lag_entries_p95", h.quantile(0.95));
        }
    }
    // cluster
    if spec.nodes > 0 {
        let mut remote = QuantileSketch::default();
        for r in traced {
            remote.merge(&r.remote_latency);
        }
        v.insert("cluster.msgs_per_txn", sum(|r| r.msgs) / txns);
        v.insert("cluster.prepares_per_ktxn", sum(|r| r.prepares) / ktxn);
        v.insert("cluster.remote_share", sum(|r| r.remote_txns) / txns);
        v.insert(
            "cluster.remote_p95_us",
            sketch_quantile(&remote, 0.95) / 1e3,
        );
        v.insert("cluster.two_pc_aborts", sum(|r| r.two_pc_aborts));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpcc_db::txns::OrderLineReq;

    /// The known defect, forced: a rollback as the last thing a log
    /// sees lies past the last commit marker, and the log does not
    /// recover as it stands. The harness counts the repetition, seals
    /// the log, and the check that follows passes.
    #[test]
    fn a_rollback_at_the_tail_is_counted_then_sealed() {
        let spec = spec(Workload::ContendedMvcc);
        let mut engine = Engine::build(&spec, 50, 7);
        let mut checks = Checks::default();

        // a tail that ends in a commit is checked as it stands
        engine.check_and_reset(&spec, &Rep::default(), &mut checks);
        assert_eq!(checks.unsealed_mismatches, 0);

        let Engine::Single { db, .. } = &engine else {
            unreachable!("contended-mvcc runs on one database");
        };
        seal(db); // committed work before the rollback
        let line = |item| OrderLineReq {
            item,
            supply_warehouse: 0,
            quantity: 1,
        };
        let unused_item = db.config().items;
        assert!(db
            .new_order_checked(0, 0, 0, &[line(1), line(2), line(unused_item)])
            .is_err());
        let open_tail = db.with_wal(|wal| wal.committed_len() < wal.len());
        assert_eq!(open_tail, Some(true));
        assert!(!recovers(db), "the engine defect is gone: drop the seal");

        engine.check_and_reset(&spec, &Rep::default(), &mut checks);
        assert_eq!(checks.unsealed_mismatches, 1);
        assert!(checks.errors.is_empty(), "{:?}", checks.errors);
    }
}
