//! Continuous-benchmark trajectory: run a pinned workload matrix and
//! append one point per commit to `results/BENCH_trajectory.json`, so
//! the repository accumulates a performance history alongside its
//! code history.
//!
//! The matrix is fixed on purpose — 7 cells spanning the serial
//! baseline and the contended parallel regime, all in the paper's
//! operating region (partial working set in the pool, 100 µs
//! synchronous read-I/O per fault, WAL on):
//!
//! | threads | warehouses | group commit | what it watches |
//! |---|---|---|---|
//! | 1 | 1 | — | serial executor + storage engine baseline |
//! | 4 | 2 | — | moderate lock + buffer contention |
//! | 8 | 4 | — | the scaling sweep's headline cell |
//! | 8 | 4 | 200 µs / 32 / 50 µs | the group-commit flush pipeline |
//! | 8 | 4 (MVCC) | — | snapshot reads + 1% undo-backed rollbacks |
//! | 4 | 2×2 (cluster) | — | 2-node scale-out: routing, 2PC, remote p95 |
//! | 8 | 2 (CDC) | 200 µs / 32 / 50 µs | the CDC pipeline riding the log |
//!
//! Per cell: throughput, New-Order / Payment / Stock-Level p95 (sketch
//! quantiles), buffer-miss ppm, WAL bytes per transaction, and — in
//! the group-commit cell — commits per flush and the p95 commit wait,
//! so a batching regression (flushes stop grouping) or a wait blow-up
//! fails the gate like any other slowdown. The MVCC cell runs the
//! spec's 1% New-Order rollback rate and additionally gates the
//! rollback count (deterministic in the seeded input streams) and the
//! Stock-Level p95 — a snapshot-read slowdown or an abort-path
//! explosion fails like any other regression.
//!
//! The cluster cell partitions 4 warehouses across 2 simulated nodes
//! (1% remote New-Order lines, 15% remote Payments, every cross-node
//! transaction through 2PC) and additionally gates the cluster-wide
//! executed tpm-C and the remote-transaction p95 — a commit-protocol
//! or message-layer slowdown fails even when local throughput holds.
//!
//! The CDC cell re-runs the group-commit + MVCC + rollback workload
//! with a [`CdcPipeline`] polling every 500 transactions and gates the
//! pre-poll view lag p95 (WAL entries behind the durable prefix,
//! wide wall-clock band — lag tracks scheduler jitter) alongside the
//! usual throughput gate, so a decoder slowdown or a subscriber that
//! stops keeping up fails the trajectory like any other regression.
//!
//! ```text
//! cargo run --release -p tpcc-bench --bin trajectory               # append a point
//! cargo run --release -p tpcc-bench --bin trajectory -- --check    # + regression gate
//! cargo run --release -p tpcc-bench --bin trajectory -- --rebaseline
//! ```
//!
//! `--check` compares the fresh point against
//! `results/BENCH_baseline.json` and exits non-zero if any cell
//! regressed beyond its noise band: wall-clock metrics (tps, p95) get
//! a wide relative band (default 0.35, `TPCC_TRAJ_BAND` to widen on
//! noisy runners); count-derived metrics (miss ppm, WAL bytes/txn)
//! are deterministic for the serial cell (band 0.02) and
//! interleaving-jittered for parallel cells (band 0.15). Improvements
//! always pass. `--rebaseline` accepts the fresh numbers as the new
//! baseline.

use std::sync::Arc;

use tpcc_db::cluster::{Cluster, ClusterConfig, ItemPlacement};
use tpcc_db::db::DbConfig;
use tpcc_db::driver::DriverConfig;
use tpcc_db::{loader, CdcPipeline, GroupCommitConfig, GroupCommitStats, ParallelDriver, TpccDb};
use tpcc_obs::{Label, MemoryRecorder, Obs, QuantileSketch};

const SCHEMA: u32 = 5;
const SEED: u64 = 42;
const TXNS_PER_CELL: u64 = 10_000;
const WARMUP: u64 = 1_000;
/// Replicates per cell; each metric reports its median across them,
/// which keeps scheduler noise on shared runners out of the gate.
const REPLICATES: usize = 3;
/// (threads, warehouses, group commit, mvcc). The fourth cell re-runs
/// the headline parallel cell through the threaded flush pipeline; the
/// fifth re-runs it with snapshot reads and spec-rate rollbacks on.
const CELLS: [(u64, u64, bool, bool); 5] = [
    (1, 1, false, false),
    (4, 2, false, false),
    (8, 4, false, false),
    (8, 4, true, false),
    (8, 4, false, true),
];
/// The group-commit cell's knobs: window µs, max batch, device µs —
/// the same operating point the timeseries run pins.
const GC: GroupCommitConfig = GroupCommitConfig {
    flush_window_us: 200,
    max_batch: 32,
    log_io_delay_us: 50,
    inline: false,
};
/// new_order, payment, stock_level — the types whose p95 the gate
/// watches (stock_level is the snapshot-read path in the MVCC cell).
const P95_TYPES: [usize; 3] = [0, 1, 4];
/// The CDC cell's harvest cadence (transactions between polls).
const CDC_POLL_EVERY: u64 = 500;

const TRAJECTORY_PATH: &str = "results/BENCH_trajectory.json";
const BASELINE_PATH: &str = "results/BENCH_baseline.json";

struct Cell {
    threads: u64,
    warehouses: u64,
    group_commit: bool,
    mvcc: bool,
    tps: f64,
    p95_us: [f64; 3],
    miss_ppm: f64,
    wal_bytes_per_txn: f64,
    /// 0 in sync cells (no flush pipeline to measure).
    commits_per_flush: f64,
    /// 0 in sync cells.
    commit_wait_p95_us: f64,
    /// 0 outside the MVCC cell (rollback rate is 0 elsewhere).
    rollbacks: f64,
    /// 0 in single-node cells; node count in the cluster cell.
    nodes: u64,
    /// Cluster-wide executed tpm-C; 0 in single-node cells.
    cluster_tpm: f64,
    /// p95 latency of transactions that touched a remote node; 0 in
    /// single-node cells.
    remote_p95_us: f64,
    /// Whether a CDC pipeline rode the run's WAL.
    cdc: bool,
    /// p95 of the pre-poll view lag in WAL entries; 0 outside the CDC
    /// cell.
    cdc_lag_p95: f64,
}

impl Cell {
    fn to_json(&self) -> String {
        format!(
            "{{\"threads\":{},\"warehouses\":{},\"group_commit\":{},\"mvcc\":{},\
             \"tps\":{:.1},\
             \"new_order_p95_us\":{:.1},\"payment_p95_us\":{:.1},\
             \"stock_level_p95_us\":{:.1},\
             \"miss_ppm\":{:.1},\"wal_bytes_per_txn\":{:.1},\
             \"commits_per_flush\":{:.2},\"commit_wait_p95_us\":{:.1},\
             \"rollbacks\":{:.0},\
             \"nodes\":{},\"cluster_tpm\":{:.1},\"remote_p95_us\":{:.1},\
             \"cdc\":{},\"cdc_lag_p95\":{:.1}}}",
            self.threads,
            self.warehouses,
            self.group_commit,
            self.mvcc,
            self.tps,
            self.p95_us[0],
            self.p95_us[1],
            self.p95_us[2],
            self.miss_ppm,
            self.wal_bytes_per_txn,
            self.commits_per_flush,
            self.commit_wait_p95_us,
            self.rollbacks,
            self.nodes,
            self.cluster_tpm,
            self.remote_p95_us,
            self.cdc,
            self.cdc_lag_p95,
        )
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

/// Runs the cell [`REPLICATES`] times and takes the per-metric median.
fn run_cell(threads: u64, warehouses: u64, group_commit: bool, mvcc: bool) -> Cell {
    let runs: Vec<Cell> = (0..REPLICATES)
        .map(|_| run_cell_once(threads, warehouses, group_commit, mvcc))
        .collect();
    let of = |f: &dyn Fn(&Cell) -> f64| median(runs.iter().map(f).collect());
    Cell {
        threads,
        warehouses,
        group_commit,
        mvcc,
        tps: of(&|c| c.tps),
        p95_us: [
            of(&|c| c.p95_us[0]),
            of(&|c| c.p95_us[1]),
            of(&|c| c.p95_us[2]),
        ],
        miss_ppm: of(&|c| c.miss_ppm),
        wal_bytes_per_txn: of(&|c| c.wal_bytes_per_txn),
        commits_per_flush: of(&|c| c.commits_per_flush),
        commit_wait_p95_us: of(&|c| c.commit_wait_p95_us),
        rollbacks: of(&|c| c.rollbacks),
        nodes: 0,
        cluster_tpm: 0.0,
        remote_p95_us: 0.0,
        cdc: false,
        cdc_lag_p95: 0.0,
    }
}

/// The cluster cell, [`REPLICATES`] runs, per-metric median: 2 nodes ×
/// 2 warehouses each, one terminal per warehouse, replicated items,
/// 20 µs simulated network delay — the same operating point the
/// `cluster_scaling` bench's 2-node cell pins.
fn run_cluster_cell() -> Cell {
    const NODES: u64 = 2;
    const WPN: u64 = 2;
    const TERMINALS: u64 = NODES * WPN;
    let runs: Vec<Cell> = (0..REPLICATES)
        .map(|_| {
            let mut node_db = DbConfig::small();
            node_db.buffer_frames = 256 * WPN as usize;
            node_db.buffer_shards = 8;
            node_db.io_delay_us = 100;
            node_db.enable_wal = true;
            let cfg = ClusterConfig {
                nodes: NODES,
                warehouses_per_node: WPN,
                node_db,
                driver: DriverConfig::default(),
                placement: ItemPlacement::Replicated,
                network_delay_us: 20,
            };
            let cl = Cluster::new(cfg, SEED);
            let _ = cl.run(TERMINALS, WARMUP, SEED); // discarded
            let report = cl.run(TERMINALS, TXNS_PER_CELL, SEED);
            let remote = report.remote_new_orders + report.remote_payments;
            Cell {
                threads: TERMINALS,
                warehouses: NODES * WPN,
                group_commit: false,
                mvcc: true, // the cluster always runs MVCC
                tps: report.throughput(),
                p95_us: P95_TYPES.map(|t| report.latency_ns[t].quantile(0.95) / 1e3),
                miss_ppm: 0.0,
                wal_bytes_per_txn: 0.0,
                commits_per_flush: 0.0,
                commit_wait_p95_us: 0.0,
                rollbacks: 0.0,
                nodes: NODES,
                cluster_tpm: report.cluster_tpm(),
                remote_p95_us: if remote > 0 {
                    report.remote_latency_ns.quantile(0.95) / 1e3
                } else {
                    0.0
                },
                cdc: false,
                cdc_lag_p95: 0.0,
            }
        })
        .collect();
    let of = |f: &dyn Fn(&Cell) -> f64| median(runs.iter().map(f).collect());
    Cell {
        tps: of(&|c| c.tps),
        p95_us: [
            of(&|c| c.p95_us[0]),
            of(&|c| c.p95_us[1]),
            of(&|c| c.p95_us[2]),
        ],
        cluster_tpm: of(&|c| c.cluster_tpm),
        remote_p95_us: of(&|c| c.remote_p95_us),
        ..runs.into_iter().next().expect("at least one replicate")
    }
}

/// The group-commit pipeline's cumulative counters and commit-wait
/// sketch (`None` in sync cells) — taken after warmup, handed to
/// [`gc_since`] after the measured phase.
fn gc_mark(db: &TpccDb) -> Option<(GroupCommitStats, QuantileSketch)> {
    db.group_commit_stats().zip(db.commit_wait_sketch())
}

/// `(commits per flush, commit-wait p95 µs)` over the phase since
/// `mark` only (warmup flushes and waits subtracted out); zeros in
/// sync cells.
fn gc_since(db: &TpccDb, mark: Option<(GroupCommitStats, QuantileSketch)>) -> (f64, f64) {
    let Some(((before, warm_wait), (after, waits))) = mark.zip(gc_mark(db)) else {
        return (0.0, 0.0);
    };
    let flushes = after.flushes - before.flushes;
    let commits = after.commits_flushed - before.commits_flushed;
    (
        if flushes == 0 {
            0.0
        } else {
            commits as f64 / flushes as f64
        },
        waits.delta_since(&warm_wait).quantile(0.95) / 1e3,
    )
}

fn run_cell_once(threads: u64, warehouses: u64, group_commit: bool, mvcc: bool) -> Cell {
    let mut cfg = DbConfig::small();
    cfg.warehouses = warehouses;
    cfg.buffer_frames = 256 * warehouses as usize;
    cfg.buffer_shards = 8;
    cfg.io_delay_us = 100;
    cfg.enable_wal = true;
    cfg.group_commit = group_commit.then_some(GC);
    cfg.mvcc = mvcc;
    let mut db = loader::load(cfg, SEED);
    let recorder = Arc::new(MemoryRecorder::new());
    db.set_obs(Obs::new(recorder.clone()));

    let dcfg = if mvcc {
        // the MVCC cell runs the spec's 1% rollback rate, so the
        // undo-backed abort path is on the gated hot path
        DriverConfig::default().with_spec_rollbacks()
    } else {
        DriverConfig::default()
    };
    let driver = ParallelDriver::new(dcfg, threads, SEED);
    driver.run(&db, WARMUP); // discarded: fault the working set in
    let warm_misses = recorder.counter_total("buf_misses");
    let warm_hits = recorder.counter_total("buf_hits");
    let warm_wal = recorder.counter_total("wal_bytes_appended");
    let warm_gc = gc_mark(&db);

    let report = driver.run(&db, TXNS_PER_CELL);

    let misses = (recorder.counter_total("buf_misses") - warm_misses) as f64;
    let hits = (recorder.counter_total("buf_hits") - warm_hits) as f64;
    let wal = (recorder.counter_total("wal_bytes_appended") - warm_wal) as f64;
    let (commits_per_flush, commit_wait_p95_us) = gc_since(&db, warm_gc);
    Cell {
        threads,
        warehouses,
        group_commit,
        mvcc,
        tps: report.throughput(),
        p95_us: P95_TYPES.map(|t| report.latency_ns[t].quantile(0.95) / 1e3),
        miss_ppm: misses / (hits + misses).max(1.0) * 1e6,
        wal_bytes_per_txn: wal / report.total() as f64,
        commits_per_flush,
        commit_wait_p95_us,
        rollbacks: report.rollbacks as f64,
        nodes: 0,
        cluster_tpm: 0.0,
        remote_p95_us: 0.0,
        cdc: false,
        cdc_lag_p95: 0.0,
    }
}

/// The CDC cell, [`REPLICATES`] runs, per-metric median: the
/// group-commit + MVCC + spec-rollback workload on 8 terminals × 2
/// warehouses with a [`CdcPipeline`] polled every [`CDC_POLL_EVERY`]
/// transactions. Every column of a group-commit + MVCC cell is
/// filled from the chunk reports and the pipeline's counters; gated on
/// top: throughput over the polled wall clock (decode cost rides it)
/// and the pre-poll view lag p95 in WAL entries, measured over the
/// post-warmup polls only.
fn run_cdc_cell() -> Cell {
    const THREADS: u64 = 8;
    const WAREHOUSES: u64 = 2;
    let runs: Vec<Cell> = (0..REPLICATES)
        .map(|_| {
            let mut cfg = DbConfig::small();
            cfg.warehouses = WAREHOUSES;
            cfg.buffer_frames = 256 * WAREHOUSES as usize;
            cfg.buffer_shards = 8;
            cfg.io_delay_us = 100;
            cfg.enable_wal = true;
            cfg.group_commit = Some(GC);
            cfg.mvcc = true;
            let mut db = loader::load(cfg, SEED);
            let recorder = Arc::new(MemoryRecorder::new());
            db.set_obs(Obs::new(recorder.clone()));
            let mut pipeline = CdcPipeline::new(&db);
            let driver =
                ParallelDriver::new(DriverConfig::default().with_spec_rollbacks(), THREADS, SEED);

            // runs `total` transactions in polled chunks; returns the
            // chunks' merged per-type latency and their rollbacks
            let mut run_polled = |total: u64| {
                let mut latency: [QuantileSketch; 5] = Default::default();
                let mut rollbacks = 0;
                let mut remaining = total;
                while remaining > 0 {
                    let n = CDC_POLL_EVERY.min(remaining);
                    let report = driver.run(&db, n);
                    for (all, chunk) in latency.iter_mut().zip(&report.latency_ns) {
                        all.merge(chunk);
                    }
                    rollbacks += report.rollbacks;
                    remaining -= n;
                    db.flush_log();
                    pipeline.poll(&db).expect("no lag bound configured");
                }
                (latency, rollbacks)
            };
            run_polled(WARMUP); // discarded: fault the working set in
            let warm_lag = recorder
                .histogram("cdc_lag_entries", Label::None)
                .expect("pipeline polled during warmup");
            let warm_misses = recorder.counter_total("buf_misses");
            let warm_hits = recorder.counter_total("buf_hits");
            let warm_wal = recorder.counter_total("wal_bytes_appended");
            let warm_gc = gc_mark(&db);

            let start = std::time::Instant::now();
            let (latency, rollbacks) = run_polled(TXNS_PER_CELL);
            let elapsed = start.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);

            let lag = recorder
                .histogram("cdc_lag_entries", Label::None)
                .expect("pipeline polled during the run")
                .delta_since(&warm_lag);
            let misses = (recorder.counter_total("buf_misses") - warm_misses) as f64;
            let hits = (recorder.counter_total("buf_hits") - warm_hits) as f64;
            let wal = (recorder.counter_total("wal_bytes_appended") - warm_wal) as f64;
            let (commits_per_flush, commit_wait_p95_us) = gc_since(&db, warm_gc);
            Cell {
                threads: THREADS,
                warehouses: WAREHOUSES,
                group_commit: true,
                mvcc: true,
                tps: TXNS_PER_CELL as f64 / elapsed,
                p95_us: P95_TYPES.map(|t| latency[t].quantile(0.95) / 1e3),
                miss_ppm: misses / (hits + misses).max(1.0) * 1e6,
                wal_bytes_per_txn: wal / TXNS_PER_CELL as f64,
                commits_per_flush,
                commit_wait_p95_us,
                rollbacks: rollbacks as f64,
                nodes: 0,
                cluster_tpm: 0.0,
                remote_p95_us: 0.0,
                cdc: true,
                cdc_lag_p95: lag.quantile(0.95),
            }
        })
        .collect();
    let of = |f: &dyn Fn(&Cell) -> f64| median(runs.iter().map(f).collect());
    Cell {
        tps: of(&|c| c.tps),
        p95_us: [
            of(&|c| c.p95_us[0]),
            of(&|c| c.p95_us[1]),
            of(&|c| c.p95_us[2]),
        ],
        miss_ppm: of(&|c| c.miss_ppm),
        wal_bytes_per_txn: of(&|c| c.wal_bytes_per_txn),
        commits_per_flush: of(&|c| c.commits_per_flush),
        commit_wait_p95_us: of(&|c| c.commit_wait_p95_us),
        rollbacks: of(&|c| c.rollbacks),
        cdc_lag_p95: of(&|c| c.cdc_lag_p95),
        ..runs.into_iter().next().expect("at least one replicate")
    }
}

fn commit_id() -> String {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        return sha;
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "local".to_string())
}

fn point_json(cells: &[Cell]) -> String {
    let unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0);
    let body = cells
        .iter()
        .map(Cell::to_json)
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"schema\":{SCHEMA},\"commit\":\"{}\",\"unix_ms\":{unix_ms},\
         \"seed\":{SEED},\"transactions_per_cell\":{TXNS_PER_CELL},\
         \"cells\":[{body}]}}",
        commit_id(),
    )
}

/// Appends `point` to the JSON-array trajectory file (creating it if
/// missing), keeping the file a valid single JSON document throughout.
fn append_point(point: &str) {
    let new = match std::fs::read_to_string(TRAJECTORY_PATH) {
        Ok(existing) => {
            let trimmed = existing.trim_end();
            let body = trimmed
                .strip_suffix(']')
                .unwrap_or_else(|| panic!("{TRAJECTORY_PATH} is not a JSON array"));
            format!("{},\n{point}\n]", body.trim_end().trim_end_matches(','))
        }
        Err(_) => format!("[\n{point}\n]"),
    };
    std::fs::write(TRAJECTORY_PATH, new).expect("write trajectory file");
}

/// Pulls `"key":<number>` out of a flat JSON object — the files this
/// binary reads are ones it wrote itself, so a scan is enough.
fn extract_f64(obj: &str, key: &str) -> f64 {
    let pat = format!("\"{key}\":");
    let at = obj
        .find(&pat)
        .unwrap_or_else(|| panic!("key {key:?} missing from baseline cell"));
    let rest = &obj[at + pat.len()..];
    // cells were split on "},{", so the last value of a cell runs to
    // the end of its fragment
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    rest[..end].trim().parse().expect("numeric baseline field")
}

/// Splits the `"cells":[...]` array of a point into per-cell object
/// strings.
fn split_cells(point: &str) -> Vec<&str> {
    let at = point.find("\"cells\":[").expect("point has a cells array");
    let body = &point[at + "\"cells\":[".len()..];
    let end = body.find(']').expect("cells array closed");
    body[..end].split("},{").collect()
}

/// One gated metric: `worse_is` says which direction fails the gate.
struct Gate {
    key: &'static str,
    band: f64,
    higher_is_worse: bool,
}

fn check(fresh: &str) -> Result<(), Vec<String>> {
    let baseline = std::fs::read_to_string(BASELINE_PATH)
        .unwrap_or_else(|_| panic!("{BASELINE_PATH} missing: run with --rebaseline to create it"));
    let wall_band: f64 = std::env::var("TPCC_TRAJ_BAND")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.35);

    let fresh_cells = split_cells(fresh);
    let base_cells = split_cells(&baseline);
    assert_eq!(
        fresh_cells.len(),
        base_cells.len(),
        "baseline matrix shape drifted: rebaseline"
    );

    let mut failures = Vec::new();
    for (f, b) in fresh_cells.iter().zip(&base_cells) {
        let gc_tag = if f.contains("\"cdc\":true") {
            "+cdc"
        } else if extract_f64(f, "nodes") > 0.0 {
            "+cluster"
        } else if f.contains("\"group_commit\":true") {
            "+gc"
        } else if f.contains("\"mvcc\":true") {
            "+mvcc"
        } else {
            ""
        };
        let threads = extract_f64(f, "threads");
        // count-derived metrics: deterministic serial, jittered parallel
        let count_band = if threads as u64 == 1 { 0.02 } else { 0.15 };
        let gates = [
            Gate {
                key: "tps",
                band: wall_band,
                higher_is_worse: false,
            },
            Gate {
                key: "new_order_p95_us",
                band: wall_band,
                higher_is_worse: true,
            },
            Gate {
                key: "payment_p95_us",
                band: wall_band,
                higher_is_worse: true,
            },
            Gate {
                key: "stock_level_p95_us",
                band: wall_band,
                higher_is_worse: true,
            },
            Gate {
                key: "miss_ppm",
                band: count_band,
                higher_is_worse: true,
            },
            Gate {
                key: "wal_bytes_per_txn",
                band: count_band,
                higher_is_worse: true,
            },
            // group-commit cells only (identically 0.0 in sync cells,
            // where the relative comparison is a no-op): flushes must
            // keep grouping and the commit wait must stay bounded
            Gate {
                key: "commits_per_flush",
                band: wall_band,
                higher_is_worse: false,
            },
            Gate {
                key: "commit_wait_p95_us",
                band: wall_band,
                higher_is_worse: true,
            },
            // MVCC cell only (identically 0 elsewhere): rollback
            // draws live in the seeded input streams, so the count is
            // stable — an explosion means the abort path broke
            Gate {
                key: "rollbacks",
                band: count_band,
                higher_is_worse: true,
            },
            // cluster cell only (identically 0 in single-node cells):
            // the executed scale-out headline and the cost of crossing
            // nodes — a 2PC or message-layer slowdown fails here even
            // when local throughput holds
            Gate {
                key: "cluster_tpm",
                band: wall_band,
                higher_is_worse: false,
            },
            Gate {
                key: "remote_p95_us",
                band: wall_band,
                higher_is_worse: true,
            },
            // CDC cell only (identically 0 elsewhere): how far the
            // views trail the durable prefix at each harvest — lag is
            // cadence × per-txn WAL growth plus scheduler jitter, so
            // it gets the wide wall-clock band, not a count band
            Gate {
                key: "cdc_lag_p95",
                band: wall_band,
                higher_is_worse: true,
            },
        ];
        for g in gates {
            let fv = extract_f64(f, g.key);
            let bv = extract_f64(b, g.key);
            let rel = if bv.abs() > f64::EPSILON {
                (fv - bv) / bv
            } else {
                0.0
            };
            let regressed = if g.higher_is_worse {
                rel > g.band
            } else {
                rel < -g.band
            };
            let cell = format!(
                "{}thr×{}wh{gc_tag}",
                threads as u64,
                extract_f64(f, "warehouses") as u64
            );
            if regressed {
                failures.push(format!(
                    "REGRESSION {cell} {}: {fv:.1} vs baseline {bv:.1} \
                     ({:+.1}%, band ±{:.0}%)",
                    g.key,
                    rel * 100.0,
                    g.band * 100.0,
                ));
            } else {
                eprintln!(
                    "ok {cell} {:<18} {fv:>10.1} vs {bv:>10.1} ({:+6.1}%, band {:.0}%)",
                    g.key,
                    rel * 100.0,
                    g.band * 100.0,
                );
            }
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let do_check = args.iter().any(|a| a == "--check");
    let rebaseline = args.iter().any(|a| a == "--rebaseline");

    std::fs::create_dir_all("results").expect("create results/");

    let mut cells: Vec<Cell> = CELLS
        .iter()
        .map(|&(threads, warehouses, group_commit, mvcc)| {
            let tag = match (group_commit, mvcc) {
                (true, _) => "+gc",
                (_, true) => "+mvcc",
                _ => "",
            };
            eprintln!("cell {threads}thr×{warehouses}wh{tag} ({TXNS_PER_CELL} txns)...");
            run_cell(threads, warehouses, group_commit, mvcc)
        })
        .collect();
    eprintln!("cell 2nodes×2wh cluster ({TXNS_PER_CELL} txns)...");
    cells.push(run_cluster_cell());
    eprintln!("cell 8thr×2wh+cdc ({TXNS_PER_CELL} txns)...");
    cells.push(run_cdc_cell());
    let point = point_json(&cells);
    println!("{point}");

    append_point(&point);
    eprintln!("appended to {TRAJECTORY_PATH}");

    if rebaseline {
        std::fs::write(BASELINE_PATH, format!("{point}\n")).expect("write baseline");
        eprintln!("baseline rewritten: {BASELINE_PATH}");
        return;
    }
    if do_check {
        match check(&point) {
            Ok(()) => eprintln!("trajectory gate: all cells within the noise band"),
            Err(failures) => {
                for f in &failures {
                    eprintln!("{f}");
                }
                eprintln!(
                    "trajectory gate: {} regression(s); widen TPCC_TRAJ_BAND or \
                     --rebaseline if intentional",
                    failures.len()
                );
                std::process::exit(1);
            }
        }
    }
}
