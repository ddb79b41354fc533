//! Measures the observability layer's overhead for EXPERIMENTS.md.
//!
//! The numbers:
//!
//! 1. end-to-end driver throughput with the recorder **disabled**
//!    (`Obs::disabled()` — every instrumentation site branches on a
//!    `None` and does nothing else);
//! 2. the same workload with an attached [`MemoryRecorder`], and
//!    again cut into 50 time-series windows on top (50 driver chunks,
//!    each read back as a window into an `io::sink()` — sketch deltas,
//!    counter diffs, JSON serialization; everything but the disk
//!    write);
//! 3. the per-call cost of disabled `counter()` / `span()` calls, so
//!    the disabled path's cost can be bounded analytically as
//!    `calls-per-transaction x per-call-cost / transaction-latency`;
//! 4. fault-injection hook overhead on a WAL-enabled run: with **no
//!    plan installed** every fault site is a branch on a `None`
//!    option (the zero-cost claim — must be within noise of the
//!    baseline), and with an observe plan installed each site is an
//!    atomic bump plus a site record.
//!
//! ```text
//! cargo run --release -p tpcc-bench --bin obs_overhead -- [transactions] [reps]
//! ```

use std::sync::Arc;
use std::time::Instant;
use tpcc_bench::cell::CellSpec;
use tpcc_bench::Args;
use tpcc_db::db::DbConfig;
use tpcc_db::driver::DriverConfig;
use tpcc_db::{loader, Driver, FaultPlan, GroupCommitConfig};
use tpcc_obs::{Label, MemoryRecorder, Obs, TimeSeriesWriter};

/// Times `transactions` of the serial driver on a freshly loaded
/// `cfg` with `obs` attached and `plan`, if any, installed.
fn run_once(transactions: u64, cfg: DbConfig, obs: Obs, plan: Option<FaultPlan>) -> f64 {
    let mut db = loader::load(cfg, 11);
    db.set_obs(obs);
    if let Some(plan) = plan {
        db.install_fault_plan(plan);
    }
    let mut driver = Driver::new(&db, DriverConfig::default(), 12);
    let start = Instant::now();
    let _ = driver.run(&mut db, transactions);
    start.elapsed().as_secs_f64()
}

/// Enabled recorder *plus* time-series windows: the same input stream
/// run as 50 chunks on one driver, each read back as a window (sketch
/// deltas + counter diffs) and serialized — the full cost of live
/// telemetry, minus only the file write (the sink is `io::sink()` so
/// the number isn't about disk speed).
fn run_once_windowed(transactions: u64, cfg: DbConfig) -> f64 {
    const WINDOWS: u64 = 50;
    let mut cell = CellSpec::new(cfg).load(11);
    let mut out = TimeSeriesWriter::new(std::io::sink());
    let mut driver = Driver::new(&cell.db, DriverConfig::default(), 12);
    let start = Instant::now();
    let mut mark = cell.counters();
    for i in 0..WINDOWS {
        let n = transactions / WINDOWS + u64::from(i < transactions % WINDOWS);
        let chunk = Instant::now();
        let _ = driver.run(&mut cell.db, n);
        let now = cell.counters();
        let point = now.since(&mark).window(chunk.elapsed());
        out.emit(&point).expect("io::sink never fails");
        mark = now;
    }
    start.elapsed().as_secs_f64()
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let args = Args::from_env("obs_overhead", "[transactions] [reps]");
    let transactions = args.get("transactions", 20_000);
    let reps = args.get("reps", 5) as usize;
    let enabled_obs = || Obs::new(Arc::new(MemoryRecorder::new()));
    // a pool far below the working set, so every layer is on the hot
    // path; then the WAL; then the group-commit pipeline on the
    // deterministic inline schedule (no ticket wait, no simulated
    // device wait)
    let mut tight = DbConfig::small();
    tight.buffer_frames = 128;
    let mut logged = tight;
    logged.enable_wal = true;
    let mut grouped = logged;
    grouped.group_commit = Some(GroupCommitConfig::inline_every(8));

    // interleave the three configurations so drift hits all equally
    let mut disabled = Vec::with_capacity(reps);
    let mut enabled = Vec::with_capacity(reps);
    let mut windowed = Vec::with_capacity(reps);
    for rep in 0..reps {
        disabled.push(run_once(transactions, tight, Obs::disabled(), None));
        enabled.push(run_once(transactions, tight, enabled_obs(), None));
        windowed.push(run_once_windowed(transactions, tight));
        eprintln!(
            "rep {}: disabled {:.3}s, enabled {:.3}s, enabled+windows {:.3}s",
            rep + 1,
            disabled[rep],
            enabled[rep],
            windowed[rep]
        );
    }
    let d = median(disabled);
    let e = median(enabled);
    let f = median(windowed);
    println!(
        "driver, {transactions} txns, median of {reps}: disabled {:.0} txn/s, enabled {:.0} txn/s, enabled overhead {:+.2}%",
        transactions as f64 / d,
        transactions as f64 / e,
        (e / d - 1.0) * 100.0
    );
    println!(
        "enabled + 50 time-series windows: {:.0} txn/s, overhead vs disabled {:+.2}%, vs enabled {:+.2}%",
        transactions as f64 / f,
        (f / d - 1.0) * 100.0,
        (f / e - 1.0) * 100.0
    );

    // group-commit flush-path instrumentation: the same driver with
    // WAL + inline group commit (every 8th commit flushes on the
    // committing thread, so the difference is purely the per-flush
    // counters, commit-wait histogram and trace event)
    let mut gc_disabled = Vec::with_capacity(reps);
    let mut gc_enabled = Vec::with_capacity(reps);
    for rep in 0..reps {
        gc_disabled.push(run_once(transactions, grouped, Obs::disabled(), None));
        gc_enabled.push(run_once(transactions, grouped, enabled_obs(), None));
        eprintln!(
            "group-commit rep {}: disabled {:.3}s, enabled {:.3}s",
            rep + 1,
            gc_disabled[rep],
            gc_enabled[rep]
        );
    }
    let gd = median(gc_disabled);
    let ge = median(gc_enabled);
    println!(
        "group commit (WAL, inline flush every 8 commits), median of {reps}: \
         disabled {:.0} txn/s, enabled {:.0} txn/s, enabled overhead {:+.2}%",
        transactions as f64 / gd,
        transactions as f64 / ge,
        (ge / gd - 1.0) * 100.0
    );

    // fault-site overhead on a WAL-enabled run: uninstalled (the
    // default — every site is one `None` branch) vs. an observe plan
    // (atomic bumps + a site record per fire), interleaved like above
    let mut uninstalled = Vec::with_capacity(reps);
    let mut observing = Vec::with_capacity(reps);
    for rep in 0..reps {
        uninstalled.push(run_once(transactions, logged, Obs::disabled(), None));
        let observe = Some(FaultPlan::observe(12));
        observing.push(run_once(transactions, logged, Obs::disabled(), observe));
        eprintln!(
            "fault rep {}: uninstalled {:.3}s, observe {:.3}s",
            rep + 1,
            uninstalled[rep],
            observing[rep]
        );
    }
    let u = median(uninstalled);
    let o = median(observing);
    println!(
        "fault sites, {transactions} txns, median of {reps}: uninstalled {:.0} txn/s, \
         observe-hook {:.0} txn/s, observe overhead {:+.2}%",
        transactions as f64 / u,
        transactions as f64 / o,
        (o / u - 1.0) * 100.0
    );

    // per-call cost of the disabled fast path (black_box keeps the
    // optimizer from deleting the loops outright)
    let obs = std::hint::black_box(Obs::disabled());
    let calls: u64 = 100_000_000;
    let start = Instant::now();
    for i in 0..calls {
        obs.counter(
            "bench_counter",
            Label::Idx(std::hint::black_box((i & 7) as u32)),
            1,
        );
    }
    let counter_ns = start.elapsed().as_secs_f64() * 1e9 / calls as f64;
    let start = Instant::now();
    for _ in 0..calls / 10 {
        std::hint::black_box(obs.span("bench_span"));
    }
    let span_ns = start.elapsed().as_secs_f64() * 1e9 / (calls / 10) as f64;
    println!(
        "disabled per-call cost: counter {counter_ns:.2} ns, span {span_ns:.2} ns \
         (each site is a branch on a None option)"
    );
}
