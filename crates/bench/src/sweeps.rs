//! The eight executed sweeps. Each is a table of [`CellSpec`]s, the
//! columns it adds to the cell runner's report, and its gates; each
//! writes one JSON object per line through the shared builder and
//! sink, and returns the gates that failed.
//!
//! ```text
//! cargo run --release -p tpcc-bench --bin sweep -- <name> [args]
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use tpcc_cost::distributed::DistributedModel;
use tpcc_cost::logdisk::LogDiskModel;
use tpcc_cost::single::SingleNodeModel;
use tpcc_cost::source::TableMissSource;
use tpcc_db::cluster::{Cluster, ClusterConfig, ItemPlacement, MsgKind};
use tpcc_db::db::DbConfig;
use tpcc_db::driver::{DriverConfig, TX_NAMES};
use tpcc_db::{
    CdcPipeline, Driver, GroupCommitConfig, MaterializedViews, ParallelDriver, ParallelReport,
    TerminalGroup, TpccDb,
};
use tpcc_obs::{JsonLines, JsonObject, MemoryRecorder, TimeSeriesWriter, DEFAULT_TRACE_RING};
use tpcc_schema::relation::Relation;
use tpcc_workload::{TransactionMix, TxType};

use crate::cell::CellSpec;
use crate::{Args, Sink};

/// One sweep: its name on the command line, the file under `results/`
/// it writes, its usage line, and the function that runs it (writing
/// JSON lines to the sink; `Err` lists the gates that failed).
pub type Sweep = (
    &'static str,
    &'static str,
    &'static str,
    fn(&Args, Sink) -> Result<(), Vec<String>>,
);

const THREADS_SWEEP: &str = "[transactions] [max_threads] [seed] [warmup]";

/// Every sweep.
pub const SWEEPS: [Sweep; 8] = [
    ("scaling", "scaling.jsonl", THREADS_SWEEP, scaling),
    ("shards", "shard_sweep.jsonl", THREADS_SWEEP, shards),
    (
        "group-commit",
        "group_commit.jsonl",
        "[transactions] [seed]",
        group_commit,
    ),
    (
        "snapshot",
        "snapshot_scaling.jsonl",
        "[transactions_per_terminal] [seed]",
        snapshot,
    ),
    (
        "cluster",
        "cluster_scaling.jsonl",
        "[transactions_per_node] [seed] [warmup_per_node] [--check]",
        cluster,
    ),
    ("cdc-lag", "cdc_lag.jsonl", "[transactions] [seed]", cdc_lag),
    (
        "timeseries",
        "timeseries.jsonl",
        "[transactions] [threads] [seed] [windows] [--trace]",
        timeseries,
    ),
    (
        "soak",
        "steady_state.jsonl",
        "[transactions] [chunk] [pending_per_district] [seed]",
        soak,
    ),
];

/// A results file that cannot be written is the end of a bench run.
fn write(out: &mut JsonLines<Sink>, line: &JsonObject) {
    out.write(line).expect("write a results line");
}

/// A buffer-resident database: the interference under study is then
/// locks, log and snapshots, not buffer churn.
fn resident(warehouses: u64, frames: usize) -> DbConfig {
    let mut db = DbConfig::small();
    db.warehouses = warehouses;
    db.buffer_frames = frames;
    db.buffer_shards = 8;
    db.enable_wal = true;
    db
}

/// What the thread sweeps report of every cell, in their shared order.
fn cell_columns<'a>(
    line: &'a mut JsonObject,
    spec: &CellSpec,
    report: &ParallelReport,
) -> &'a mut JsonObject {
    line.uint("warehouses", spec.db.warehouses)
        .uint("io_delay_us", spec.db.io_delay_us)
        .uint("transactions", report.total())
        .uint("warmup", spec.warmup)
        .fixed("elapsed_s", report.elapsed.as_secs_f64(), 6)
        .fixed("throughput_tps", report.throughput(), 1)
        .fixed("abort_rate", report.abort_rate(), 6)
        .uint("retries", report.retries.iter().sum::<u64>())
}

/// Multi-terminal scaling: throughput, abort rate and per-type p50/p95
/// latency (µs) of the parallel driver across thread counts × warehouse
/// counts, one line per cell.
///
/// The paper's closed model predicts throughput as a function of
/// multiprogramming level; this is the executable counterpart, where
/// the limit is real lock contention (wound-wait retries concentrate
/// on the 10 district rows per warehouse). The default of 20 000
/// measured transactions per cell keeps the relative error of a cell's
/// throughput well under the thread-to-thread differences the sweep is
/// after.
fn scaling(args: &Args, out: Sink) -> Result<(), Vec<String>> {
    let transactions = args.get("transactions", 20_000);
    let max_threads = args.get("max_threads", 8);
    let seed = args.get("seed", 42);
    let warmup = args.get("warmup", transactions / 10);
    let mut out = JsonLines::new(out);

    for warehouses in [1, 2, 4, 8] {
        // one load per warehouse count, reused across thread counts:
        // the workload only appends, so later cells run on a slightly
        // larger database — acceptable for a scaling curve, and it
        // keeps the sweep fast enough to run per-commit
        let mut spec = CellSpec::io_bound(warehouses);
        (spec.transactions, spec.warmup) = (transactions, warmup);
        let mut cell = spec.load(seed);
        for threads in 1..=max_threads {
            spec.terminals = threads;
            let (report, _) = cell.run(&spec, seed + threads);
            let mut latency = JsonObject::default();
            for (name, h) in TX_NAMES.iter().zip(&report.latency_ns) {
                let (p50, p95) = (h.quantile(0.50) / 1e3, h.quantile(0.95) / 1e3);
                let mut quantiles = JsonObject::default();
                quantiles.fixed("p50_us", p50, 1).fixed("p95_us", p95, 1);
                latency.object(name, &quantiles);
            }
            let mut line = JsonObject::default();
            line.fixed("t_ms", out.t_ms(), 3).uint("threads", threads);
            cell_columns(&mut line, &spec, &report)
                .uint("new_orders", report.new_orders)
                .uint("deliveries", report.deliveries)
                .object("latency", &latency);
            write(&mut out, &line);
        }
    }
    Ok(())
}

/// Buffer-pool shard sweep: throughput, miss ratio and frame-latch
/// contention across `buffer_shards` × thread counts, one line per
/// cell.
///
/// One shard preserves the paper's exact global LRU order but funnels
/// every page fix through a single mutex; more shards relax the
/// replacement order (per-shard approximate LRU) in exchange for
/// mapping-latch parallelism. Cells run at the scaling sweep's
/// operating point, so a worse replacement decision costs a visible
/// fault — the sweep measures both sides of the trade:
/// `latch_contended` falls with shards while `misses` (approximate-LRU
/// quality) may rise. Warehouse count is fixed at 4 so lock contention
/// stays constant across cells and only the buffer pool varies.
fn shards(args: &Args, out: Sink) -> Result<(), Vec<String>> {
    const WAREHOUSES: u64 = 4;
    let transactions = args.get("transactions", 20_000);
    let max_threads = args.get("max_threads", 8);
    let seed = args.get("seed", 42);
    let warmup = args.get("warmup", transactions / 10);
    let mut out = JsonLines::new(out);

    for shards in [1, 4, 16, 64] {
        // fresh load per shard count: buffer_shards is fixed at pool
        // construction, and a fresh database keeps cells comparable
        let mut spec = CellSpec::io_bound(WAREHOUSES);
        (spec.transactions, spec.warmup) = (transactions, warmup);
        spec.db.buffer_shards = shards;
        let mut cell = spec.load(seed);
        for threads in 1..=max_threads {
            spec.terminals = threads;
            let (report, deltas) = cell.run(&spec, seed + threads);
            let latch = cell.db.latch_stats();
            let mut line = JsonObject::default();
            line.uint("shards", shards).uint("threads", threads);
            cell_columns(&mut line, &spec, &report)
                .uint("misses", deltas.get("buf_misses"))
                .fixed("miss_ratio", deltas.miss_ratio(), 6)
                .uint("latch_acquisitions", latch.acquisitions)
                .uint("latch_contended", latch.contended);
            write(&mut out, &line);
        }
    }
    Ok(())
}

/// Group-commit sweep: terminals × flush knobs through the threaded
/// log-manager pipeline, cross-plotted against the §5 log-disk model.
///
/// Each cell loads a fresh database and reports throughput, commits
/// per flush, p50/p95 commit wait, executed log volume, and the
/// executed vs §5-predicted log-device utilization at the measured
/// arrival rate. A `"sync"` baseline cell per terminal count (no group
/// commit: every commit forces its own flush, so it reports one commit
/// per flush and a commit wait of 0) anchors the batching gain.
fn group_commit(args: &Args, out: Sink) -> Result<(), Vec<String>> {
    /// (flush_window_us, max_batch, log_io_delay_us) cells per
    /// terminal count: a tight window (latency-biased), the CI pinned
    /// cell, and a wide window (throughput-biased, batches
    /// aggressively).
    const KNOBS: [(u64, usize, u64); 3] = [(100, 16, 50), (500, 64, 100), (2_000, 128, 100)];
    let transactions = args.get("transactions", 8_000);
    let seed = args.get("seed", 42);
    let model = LogDiskModel::paper_default();
    let mix = TransactionMix::paper_default();
    let mut out = JsonLines::new(out);

    for terminals in [1, 2, 4, 8] {
        let grouped = KNOBS.map(|(w, b, d)| Some(GroupCommitConfig::new(w, b, d)));
        for gc in std::iter::once(None).chain(grouped) {
            let mut spec = CellSpec::new(resident(2, 2048));
            (spec.terminals, spec.transactions) = (terminals, transactions);
            spec.db.group_commit = gc;
            let mut cell = spec.load(seed);
            let (report, deltas) = cell.run(&spec, seed + terminals);
            let encoded = cell.db.take_wal().expect("WAL on").encoded_bytes();

            let elapsed = report.elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
            let lambda = report.total() as f64 / elapsed;
            let bytes_per_txn = encoded as f64 / report.total().max(1) as f64;
            let executed_util = encoded as f64 / elapsed / model.bandwidth_bytes_per_sec;
            // a synchronous commit waits on no ticket: 0, not "no samples"
            let wait_us = |q| gc.map_or(0.0, |_| deltas.commit_wait_ns.quantile(q) / 1e3);
            // every schedule counts its flushes, a synchronous one too
            let (flushes, commits) = (deltas.get("wal_flushes"), deltas.get("group_commits"));
            let mut line = JsonObject::default();
            line.fixed("t_ms", out.t_ms(), 3)
                .uint("terminals", terminals);
            match gc {
                Some(g) => line
                    .str("mode", "group")
                    .uint("flush_window_us", g.flush_window_us)
                    .uint("max_batch", g.max_batch)
                    .uint("log_io_delay_us", g.log_io_delay_us),
                None => line.str("mode", "sync"),
            };
            line.uint("transactions", report.total())
                .fixed("elapsed_s", elapsed, 6)
                .fixed("throughput_tps", lambda, 1)
                .fixed("abort_rate", report.abort_rate(), 6)
                .uint("wal_flushes", flushes)
                .fixed(
                    "commits_per_flush",
                    commits as f64 / flushes.max(1) as f64,
                    2,
                )
                .fixed("commit_wait_p50_us", wait_us(0.50), 1)
                .fixed("commit_wait_p95_us", wait_us(0.95), 1)
                .uint("wal_bytes", encoded)
                .fixed("bytes_per_txn", bytes_per_txn, 0)
                .fixed("executed_log_util", executed_util, 6)
                .fixed("model_log_util", model.utilization(&mix, lambda), 6);
            write(&mut out, &line);
        }
    }
    Ok(())
}

/// Reader/writer interference under MVCC snapshot reads: two pinned
/// read-only terminals (Order-Status + Stock-Level) against a scaled
/// writer population, with and without `DbConfig::mvcc`; one line per
/// (mvcc, write_terminals) cell plus one `read_only` line.
///
/// Under strict 2PL the readers' S-locks queue behind the writers'
/// X-locks on the hot district and stock rows, so reader latency grows
/// with the writer count. Under MVCC the readers pin a snapshot and
/// never touch the lock manager, so their latency should be flat in
/// the writer count — the claim this sweep gates:
///
/// * with MVCC on, Stock-Level p95 at 8 write terminals must stay
///   within 1.5× of its 1-write-terminal value, and
/// * a pure read-only MVCC run must acquire exactly **zero** locks
///   (the lock-manager counters), while resolving reads through the
///   version chains (`snapshot_reads > 0`).
///
/// Writers run the spec's §2.4.1.4 1% New-Order rollbacks in both
/// modes (decided before the first write without MVCC, real
/// undo-backed aborts with it), so the comparison is apples-to-apples
/// and every cell exercises the abort path.
fn snapshot(args: &Args, out: Sink) -> Result<(), Vec<String>> {
    const READER_TERMINALS: u64 = 2;
    /// Writer keying/think time (µs). The sweep runs on whatever CPU
    /// count the box has — think time keeps total utilization below
    /// saturation even at 8 writers on one core, so reader latency
    /// measures data contention (lock waits vs snapshot reads), not
    /// run-queue depth.
    const WRITER_THINK_US: u64 = 10_000;
    const READER_THINK_US: u64 = 8_000;
    /// Readers' p95 at 8 write terminals vs 1, MVCC on.
    const MAX_P95_BLOWUP: f64 = 1.5;
    let per_terminal = args.get("transactions_per_terminal", 600);
    let seed = args.get("seed", 42);
    let writer_cfg = DriverConfig {
        mix: [0.47, 0.48, 0.0, 0.05, 0.0],
        ..DriverConfig::default().with_spec_rollbacks()
    };
    let reader_cfg = DriverConfig {
        mix: [0.0, 0.0, 0.5, 0.0, 0.5],
        ..DriverConfig::default()
    };
    let mut out = JsonLines::new(out);
    let mut failed = Vec::new();

    for mvcc in [false, true] {
        // one load per mode, reused across writer counts (append-only
        // workload; same trade as the scaling sweep)
        let mut spec = CellSpec::new(resident(2, 4096));
        spec.db.mvcc = mvcc;
        let mut cell = spec.load(seed);

        let mut p95_w1 = f64::NAN;
        let mut sweep_rollbacks = 0u64;
        for writers in [1, 2, 4, 8] {
            let group = |cfg, terminals, think_us| TerminalGroup {
                cfg,
                terminals,
                transactions_per_terminal: per_terminal,
                think_us,
            };
            let mark = cell.counters();
            let reports = ParallelDriver::run_mixed(
                &cell.db,
                &[
                    group(writer_cfg, writers, WRITER_THINK_US),
                    group(reader_cfg, READER_TERMINALS, READER_THINK_US),
                ],
                seed + writers,
            );
            let deltas = cell.counters().since(&mark);
            let (w, r) = (&reports[0], &reports[1]);
            let sl_p95 = r.latency_ns[4].quantile(0.95) / 1e3;
            let os_p95 = r.latency_ns[2].quantile(0.95) / 1e3;
            if writers == 1 {
                p95_w1 = sl_p95;
            }
            let mut line = JsonObject::default();
            line.str("cell", "sweep")
                .bool("mvcc", mvcc)
                .uint("write_terminals", writers)
                .uint("reader_terminals", READER_TERMINALS)
                .uint("per_terminal", per_terminal)
                .uint("seed", seed)
                .fixed("elapsed_s", w.elapsed.as_secs_f64(), 6)
                .fixed("writer_tps", w.total() as f64 / w.elapsed.as_secs_f64(), 1)
                .uint("rollbacks", w.rollbacks)
                .uint("writer_retries", w.retries.iter().sum::<u64>())
                .fixed("stock_level_p95_us", sl_p95, 1)
                .fixed("order_status_p95_us", os_p95, 1)
                .uint("lock_waits", deltas.get("lock_waits"))
                .uint("snapshot_reads", deltas.get("snapshot_reads"))
                .uint("versions_traversed", deltas.get("versions_traversed"))
                .uint("undo_bytes", deltas.get("undo_bytes"))
                .uint("aborts", deltas.get("aborts"));
            write(&mut out, &line);
            sweep_rollbacks += w.rollbacks;
            if mvcc && writers == 8 && sl_p95 > MAX_P95_BLOWUP * p95_w1 {
                failed.push(format!(
                    "Stock-Level p95 {sl_p95:.1}µs at W=8 exceeds {MAX_P95_BLOWUP}× the W=1 \
                     value {p95_w1:.1}µs"
                ));
            }
        }
        if sweep_rollbacks == 0 {
            failed.push(format!(
                "expected 1% New-Order rollbacks to fire (mvcc={mvcc})"
            ));
        }

        if mvcc {
            // the zero-lock criterion: a pure read-only run must not
            // drive the lock manager at all
            (spec.driver, spec.terminals, spec.transactions) = (reader_cfg, 4, 4 * per_terminal);
            let (report, deltas) = cell.run(&spec, seed ^ 0xdead_beef);
            let [locks, waits, snap_reads] =
                ["lock_acquires", "lock_waits", "snapshot_reads"].map(|c| deltas.get(c));
            let mut line = JsonObject::default();
            line.str("cell", "read_only")
                .bool("mvcc", true)
                .uint("terminals", 4)
                .uint("transactions", report.total())
                .uint("seed", seed)
                .uint("lock_acquires", locks)
                .uint("lock_waits", waits)
                .uint("snapshot_reads", snap_reads);
            write(&mut out, &line);
            if locks != 0 || waits != 0 {
                failed.push(format!(
                    "read-only MVCC run acquired {locks} locks ({waits} waits)"
                ));
            }
            if snap_reads == 0 {
                failed.push("read-only MVCC run resolved no snapshot reads".to_owned());
            }
        }

        let consistency = cell.db.verify_consistency();
        if !consistency.is_consistent() {
            failed.push(format!(
                "consistency check failed (mvcc={mvcc}): {consistency:?}"
            ));
        }
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(failed)
    }
}

/// Figure 11 gate: the executed scale-up efficiency may differ from
/// the model's by this much, relative.
const CLUSTER_BAND: f64 = 0.35;

/// Executed distributed scale-up, cross-validated against the §5.3
/// model (figures 11–12).
///
/// For each item placement and each cluster size N ∈ {1, 2, 4, 8},
/// drives a partitioned [`Cluster`] (one warehouse and one terminal
/// per node, 2PC on every cross-node transaction) and emits per-node
/// and cluster-wide executed tpm-C, remote-transaction latency, and
/// message/2PC counts. `remote_p95_us` is `null` at N = 1, where no
/// transaction is remote. Two gates tie the execution to the model:
///
/// * **Figure 11** (scale-up): the executed *efficiency*
///   `(tpm(N)/N) / tpm(1)` must stay within [`CLUSTER_BAND`] of the
///   model's efficiency at the same N. Both curves are normalized by
///   their own 1-node point, so the gate compares *shape* — how much
///   throughput scaling out costs — not absolute instruction budgets.
/// * **Figure 12** (placement): at every N ≥ 2 the replicated-items
///   cluster must be at least as fast as the partitioned one (within a
///   10% noise allowance), the direction the paper's 10/30/39% gaps
///   predict; one `fig12_direction` line per N on stdout only.
///
/// Cells needing more threads than the host offers are reported but
/// not gated (a starved 8-node cell measures the scheduler, not the
/// protocol). Without `--check` a failed gate is reported, not
/// returned.
fn cluster(args: &Args, out: Sink) -> Result<(), Vec<String>> {
    const NODE_COUNTS: [u64; 4] = [1, 2, 4, 8];
    let transactions = args.get("transactions_per_node", 6_000);
    let seed = args.get("seed", 42);
    let warmup = args.get("warmup_per_node", transactions / 10);
    let parallelism = std::thread::available_parallelism().map_or(1, std::num::NonZero::get) as u64;
    // the workspace's standard miss-rate fixture (same as the
    // model-side figure 11/12 tests)
    let misses = TableMissSource::new_order_rates(0.4, 0.02, 0.25)
        .with(Relation::Customer, TxType::Payment, 0.9)
        .with(Relation::OrderLine, TxType::Delivery, 10.0)
        .with(Relation::Stock, TxType::StockLevel, 60.0);
    // an oversubscribed cell measures the host scheduler, not the
    // commit protocol — report it, don't gate it
    let gated = |nodes: u64| nodes <= parallelism;
    let mut out = JsonLines::new(out);
    // cluster tpm per placement, per node count
    let mut tpm = [[f64::NAN; NODE_COUNTS.len()]; 2];
    let mut failed = Vec::new();

    for (p, placement) in [ItemPlacement::Replicated, ItemPlacement::Partitioned]
        .into_iter()
        .enumerate()
    {
        let placement_name = match placement {
            ItemPlacement::Replicated => "replicated",
            ItemPlacement::Partitioned => "partitioned",
        };
        let model = DistributedModel::new(SingleNodeModel::paper_default(), placement);
        let model_base = model.cluster_tpm(1, &misses);

        for (n, nodes) in NODE_COUNTS.into_iter().enumerate() {
            let cfg = ClusterConfig {
                nodes,
                warehouses_per_node: 1,
                node_db: DbConfig::small(),
                driver: DriverConfig::default(),
                placement,
                // nonzero so the partitioned placement's extra item
                // fetches cost something, as in the model
                network_delay_us: 20,
            };
            let cl = Cluster::new(cfg, seed);
            // one terminal per node, a fixed per-node transaction count:
            // scale-up holds per-node offered load constant and grows
            // the cluster, exactly the figure 11 axis
            if warmup > 0 {
                let _ = cl.run(nodes, warmup * nodes, seed ^ 0x5EED);
            }
            let report = cl.run(nodes, transactions * nodes, seed);
            assert!(cl.consistent(), "cluster inconsistent at N={nodes}");

            let cluster_tpm = report.cluster_tpm();
            tpm[p][n] = cluster_tpm;
            let exec_eff = cluster_tpm / nodes as f64 / tpm[p][0];
            let model_eff = model.cluster_tpm(nodes, &misses) / nodes as f64 / model_base;
            let eff_err = (exec_eff / model_eff - 1.0).abs();
            let gated = gated(nodes);
            let gate_ok = !gated || eff_err <= CLUSTER_BAND;
            if !gate_ok {
                failed.push(format!(
                    "{placement_name} N={nodes}: executed efficiency {exec_eff:.4} vs model \
                     {model_eff:.4} (error {eff_err:.4} > band {CLUSTER_BAND})"
                ));
            }
            if !gated {
                eprintln!(
                    "note: N={nodes} exceeds host parallelism {parallelism}; cell reported, not gated"
                );
            }

            let elapsed = report.elapsed.as_secs_f64();
            let per_node = report.per_node.iter();
            let per_node_tpm: Vec<f64> = per_node
                .map(|n| n.new_orders as f64 * 60.0 / elapsed)
                .collect();
            let item_reads = report.per_node.iter();
            let item_reads: u64 = item_reads.map(|n| n.msgs[MsgKind::ItemRead.idx()]).sum();
            let remote_p95_us = report.remote_latency_ns.quantile(0.95) / 1e3;
            let mut line = JsonObject::default();
            line.str("placement", placement_name)
                .uint("nodes", nodes)
                .uint("warehouses", nodes * cfg.warehouses_per_node)
                .uint("transactions", report.total())
                .fixed("elapsed_s", elapsed, 6)
                .fixed("cluster_tpm", cluster_tpm, 1)
                .fixed_array("per_node_tpm", &per_node_tpm, 1)
                .fixed("exec_efficiency", exec_eff, 4)
                .fixed("model_efficiency", model_eff, 4)
                .fixed("efficiency_err", eff_err, 4)
                .float("band", CLUSTER_BAND)
                .bool("gated", gated)
                .bool("gate_ok", gate_ok)
                .uint("remote_new_orders", report.remote_new_orders)
                .uint("remote_payments", report.remote_payments)
                .fixed("remote_p95_us", remote_p95_us, 1)
                .uint("messages", report.messages())
                .uint("item_read_msgs", item_reads)
                .uint("prepares", report.prepares)
                .uint("commit_decides", report.commit_decides)
                .uint("abort_decides", report.abort_decides)
                .uint("two_pc_aborts", report.two_pc_aborts)
                .uint("retries", report.retries.iter().sum::<u64>());
            write(&mut out, &line);
        }
    }

    // figure 12 direction: replicated items never lose to partitioned
    for (n, nodes) in NODE_COUNTS.into_iter().enumerate().skip(1) {
        if !gated(nodes) {
            continue;
        }
        let (replicated, partitioned) = (tpm[0][n], tpm[1][n]);
        let ok = replicated >= partitioned * 0.90;
        if !ok {
            failed.push(format!(
                "N={nodes}: replicated {replicated:.1} tpm loses to partitioned {partitioned:.1} tpm"
            ));
        }
        let mut direction = JsonObject::default();
        direction
            .uint("nodes", nodes)
            .fixed("replicated_tpm", replicated, 1)
            .fixed("partitioned_tpm", partitioned, 1)
            .bool("gate_ok", ok);
        println!(
            "{}",
            JsonObject::default().object("fig12_direction", &direction)
        );
    }

    if failed.is_empty() || !args.flag("--check") {
        for failure in &failed {
            eprintln!("GATE (not checked): {failure}");
        }
        return Ok(());
    }
    Err(failed)
}

/// CDC lag/throughput sweep: how far the materialized views trail the
/// durable committed prefix as a function of poll cadence, and what
/// the bounded-lag backpressure contract does when the bound is tight.
///
/// An 8-terminal group-commit + MVCC workload runs in fixed chunks;
/// after each chunk the pipeline polls. Each cadence cell reports the
/// pre-poll lag distribution (p50/p95/max, in WAL entries), decode
/// throughput (events and entries per second of poll time), and a
/// final replay-equivalence verdict (views vs base-table rescan — the
/// sweep refuses to report numbers for a wrong pipeline). A last cell
/// pins a tight `max_lag` bound and counts `CdcLag` backpressure
/// errors and the catch-up polls that follow, proving resumption loses
/// nothing.
///
/// # Panics
/// Panics when the views diverge from the rescan or the bound never
/// trips: those are wrong answers, not slow ones.
fn cdc_lag(args: &Args, out: Sink) -> Result<(), Vec<String>> {
    const THREADS: u64 = 8;
    let transactions = args.get("transactions", 12_800);
    let seed = args.get("seed", 42);
    let mut spec = CellSpec::new(resident(2, 8192));
    spec.db.group_commit = Some(GroupCommitConfig::inline_every(8));
    spec.db.mvcc = true;
    let driver = ParallelDriver::new(DriverConfig::default().with_spec_rollbacks(), THREADS, seed);
    let mut out = JsonLines::new(out);

    let quantile = |sorted: &[usize], q: f64| match sorted.len() {
        0 => 0,
        n => sorted[((n - 1) as f64 * q).round() as usize],
    };
    // `transactions` in chunks of `cadence`, the log quiesced and
    // `poll` called after each
    let run_polled = |db: &TpccDb, cadence: u64, poll: &mut dyn FnMut()| {
        let mut remaining = transactions;
        while remaining > 0 {
            let n = cadence.min(remaining);
            driver.run(db, n);
            remaining -= n;
            db.flush_log();
            poll();
        }
    };
    // transactions between polls, per cell
    for cadence in [50, 200, 800, 3_200] {
        let cell = spec.load(seed);
        let mut pipeline = CdcPipeline::new(&cell.db);
        let mut lags: Vec<usize> = Vec::new();
        let mut poll_time = Duration::ZERO;
        let run_start = Instant::now();
        run_polled(&cell.db, cadence, &mut || {
            lags.push(pipeline.lag(&cell.db));
            let t0 = Instant::now();
            pipeline.poll(&cell.db).expect("no lag bound configured");
            poll_time += t0.elapsed();
        });
        let elapsed = run_start.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);

        // the numbers only mean something for a correct pipeline
        let rescan = MaterializedViews::rescan_live(&cell.db, &pipeline.registry().clone());
        let equivalent = pipeline.views().encode() == rescan.encode();

        lags.sort_unstable();
        let stats = pipeline.stats();
        let poll_s = poll_time.as_secs_f64().max(f64::MIN_POSITIVE);
        let mut line = JsonObject::default();
        line.str("mode", "cadence")
            .uint("poll_every", cadence)
            .uint("transactions", transactions)
            .uint("threads", THREADS)
            .uint("seed", seed)
            .uint("polls", lags.len())
            .uint("lag_p50_entries", quantile(&lags, 0.50))
            .uint("lag_p95_entries", quantile(&lags, 0.95))
            .uint("lag_max_entries", lags.last().copied().unwrap_or(0))
            .uint("entries_consumed", stats.entries_consumed)
            .uint("batches", stats.batches)
            .uint("events", stats.events)
            .fixed("poll_time_ms", poll_time.as_secs_f64() * 1e3, 3)
            .fixed("entries_per_sec", stats.entries_consumed as f64 / poll_s, 0)
            .fixed("events_per_sec", stats.events as f64 / poll_s, 0)
            .fixed("workload_tps", transactions as f64 / elapsed, 1)
            .bool("replay_equivalent", equivalent);
        write(&mut out, &line);
        assert!(equivalent, "cdc-lag: views diverged at cadence {cadence}");
    }

    // Backpressure cell: a bound far below one chunk's WAL growth, so
    // every bounded poll errors and a catch-up poll must drain it.
    let cell = spec.load(seed);
    let mut bounded = CdcPipeline::new(&cell.db);
    bounded.set_max_lag(Some(64));
    let cadence = 800u64;
    let mut lag_errors = 0u64;
    run_polled(&cell.db, cadence, &mut || {
        if let Err(err) = bounded.poll(&cell.db) {
            assert_eq!(err.max_lag, 64);
            lag_errors += 1;
            bounded.poll_unbounded(&cell.db);
        }
    });
    let rescan = MaterializedViews::rescan_live(&cell.db, &bounded.registry().clone());
    let equivalent = bounded.views().encode() == rescan.encode();
    let mut line = JsonObject::default();
    line.str("mode", "backpressure")
        .uint("max_lag", 64)
        .uint("poll_every", cadence)
        .uint("transactions", transactions)
        .uint("threads", THREADS)
        .uint("seed", seed)
        .uint("lag_errors", lag_errors)
        .uint("catchup_polls", lag_errors)
        .uint("events", bounded.stats().events)
        .bool("replay_equivalent", equivalent);
    write(&mut out, &line);
    assert!(lag_errors > 0, "a 64-entry bound must trip at cadence 800");
    assert!(equivalent, "catch-up after CdcLag lost events");
    Ok(())
}

/// Live time-series telemetry: N terminals drive one shared database
/// in `windows` consecutive measured chunks, and each chunk is one line
/// — per-transaction-type throughput and p50/p95/p99 latency, buffer-
/// miss ppm, lock wounds/waits, latch contention, WAL bytes, and the
/// group-commit columns (`wal_flushes`, `commits_per_flush`,
/// `commit_wait_p95_us`), each stamped with a run-relative monotonic
/// `t_ms` (the paper's batch means over one long run).
///
/// The cell is the scaling sweep's operating point with the WAL and
/// group commit on, so the windows have real misses, waits, log
/// traffic and flushes to show. Chunk `i` runs with seed
/// `seed + 7919·i`, so window boundaries are deterministic for a given
/// seed. With `--trace`, every thread additionally records transaction
/// spans, lock waits, and I/O delays into per-thread ring buffers,
/// exported after the run as `results/trace.json` — load it in
/// `chrome://tracing` or <https://ui.perfetto.dev> to see the
/// cross-thread timeline.
fn timeseries(args: &Args, out: Sink) -> Result<(), Vec<String>> {
    let transactions = args.get("transactions", 25_000);
    let threads = args.get("threads", 8);
    let seed = args.get("seed", 42);
    let windows = args.get("windows", 25).clamp(1, transactions.max(1));

    let mut spec = CellSpec::io_bound(4);
    spec.db.enable_wal = true;
    spec.db.group_commit = Some(GroupCommitConfig::new(200, 32, 50));
    let recorder = Arc::new(MemoryRecorder::new());
    // installed before the database attaches, so its handles trace
    let collector = args
        .flag("--trace")
        .then(|| recorder.install_trace(DEFAULT_TRACE_RING));
    let cell = spec.load_on(seed, recorder);

    let mut out = TimeSeriesWriter::new(out);
    let start = cell.counters();
    let mut mark = start.clone();
    let mut elapsed = Duration::ZERO;
    for i in 0..windows {
        let n = transactions / windows + u64::from(i < transactions % windows);
        let driver = ParallelDriver::new(spec.driver, threads, seed.wrapping_add(i * 7919));
        let chunk = driver.run(&cell.db, n);
        elapsed += chunk.elapsed;
        let now = cell.counters();
        let point = now.since(&mark).window(chunk.elapsed);
        out.emit(&point).expect("write a time-series window");
        mark = now;
    }
    out.finish().expect("flush the time-series windows");

    let run = mark.since(&start);
    let retries = run.get("txn_retries");
    let total = run.window(elapsed);
    eprintln!(
        "{} transactions on {threads} terminals in {:.2}s ({:.0} tps, abort rate {:.4})",
        total.txns,
        elapsed.as_secs_f64(),
        total.txns as f64 / elapsed.as_secs_f64().max(f64::MIN_POSITIVE),
        retries as f64 / (total.txns + retries).max(1) as f64,
    );
    for (name, s) in total.series.iter().filter(|(_, s)| s.txns > 0) {
        eprintln!(
            "  {name:<14} n={:<6} p50={:>8.1}µs p95={:>8.1}µs p99={:>8.1}µs",
            s.txns, s.p50_us, s.p95_us, s.p99_us,
        );
    }
    eprintln!("{} windows", out.points_written());

    if let Some(collector) = collector {
        std::fs::write("results/trace.json", collector.export_chrome())
            .expect("write results/trace.json");
        eprintln!(
            "wrote results/trace.json ({} threads, {} events dropped to ring bounds)",
            collector.timelines().len(),
            collector.dropped(),
        );
    }
    Ok(())
}

/// Long-run Delivery soak: footprint and miss rate over time, one line
/// per sample chunk.
///
/// The paper's buffer study (§4) assumes the database footprint is the
/// steady-state sizes of Table 1. Before delete-side restructuring the
/// executor leaked: Delivery removed NEW-ORDER rows but neither the
/// B+Tree nor the heap ever gave a page back, so long runs touched
/// ever more pages and miss ratios drifted above the model. This runs
/// the standard 43/44/4/5/4 mix from a deep initial pending queue and
/// samples the footprint and buffer miss rate per chunk — the curves
/// must *descend* to a plateau (the drain reclaiming pages) and then
/// stay flat.
fn soak(args: &Args, out: Sink) -> Result<(), Vec<String>> {
    let transactions = args.get("transactions", 60_000);
    let chunk = args.get("chunk", 2_000);
    let pending = args.get("pending_per_district", 150);
    let seed = args.get("seed", 42);

    // a deep pending queue so the run starts in the leaked regime: the
    // standard mix drains it at ~0.07 rows/txn while inserting at the
    // head — the FIFO churn that exercises leaf merges and the free
    // list all the way down to the plateau
    let mut spec = CellSpec::new(DbConfig::small());
    spec.db.initial_pending_per_district = pending;
    spec.db.initial_orders_per_district = pending + 60;
    let mut cell = spec.load(seed);
    let mut driver = Driver::new(&cell.db, spec.driver, seed);
    let mut out = JsonLines::new(out);

    let mut done = 0u64;
    while done < transactions {
        let n = chunk.min(transactions - done);
        let mark = cell.counters(); // per-chunk miss rate, not cumulative
        let report = driver.run(&mut cell.db, n);
        done += n;
        let deltas = cell.counters().since(&mark);
        let misses = deltas.get("buf_misses");
        let references = deltas.get("buf_hits") + misses;
        let (no_index, no_height) = cell.db.index_footprint(Relation::NewOrder);
        let mut line = JsonObject::default();
        line.fixed("t_ms", out.t_ms(), 3)
            .uint("txns", done)
            .uint(
                "new_order_heap_pages",
                cell.db.relation_allocated_pages(Relation::NewOrder),
            )
            .uint("new_order_index_pages", no_index)
            .uint("new_order_index_height", no_height)
            .uint("total_allocated_pages", cell.db.total_allocated_pages())
            .uint("pages_freed", cell.db.pages_freed())
            .uint("pages_reused", cell.db.pages_reused())
            .uint(
                "miss_ppm",
                (misses * 1_000_000).checked_div(references).unwrap_or(0),
            )
            .uint("deliveries", report.deliveries);
        write(&mut out, &line);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::io::Write;
    use std::sync::{Arc, Mutex};

    use tpcc_benchmark::json::Json;

    use super::*;

    /// A sink the test reads back after the sweep has consumed it.
    #[derive(Clone, Default)]
    struct Shared(Arc<Mutex<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// One line per chunk, and the chunks split the run exactly.
    #[test]
    fn timeseries_writes_one_window_per_chunk() {
        let usage = SWEEPS.iter().find(|s| s.0 == "timeseries").unwrap().2;
        let args = Args::parse(usage, "60 2 42 3".split(' ').map(String::from)).unwrap();
        let sink = Shared::default();
        timeseries(&args, Box::new(sink.clone())).unwrap();
        let text = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
        let txns: Vec<f64> = text
            .lines()
            .map(|l| {
                Json::parse(l)
                    .unwrap()
                    .get("txns")
                    .unwrap()
                    .as_f64()
                    .unwrap()
            })
            .collect();
        assert_eq!(txns, [20.0, 20.0, 20.0]);
    }
}
