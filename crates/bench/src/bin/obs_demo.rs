//! Observability demo: runs a short mixed TPC-C workload against the
//! executable database with a metrics recorder attached, then prints
//! the flame-style span summary, a per-relation buffer table, and the
//! JSON-lines snapshots taken after each quarter of the run.
//!
//! ```text
//! cargo run --release -p tpcc-bench --bin obs_demo -- [transactions]
//! ```

use std::sync::Arc;
use std::time::Instant;
use tpcc_bench::Args;
use tpcc_db::db::DbConfig;
use tpcc_db::driver::DriverConfig;
use tpcc_db::{loader, Driver};
use tpcc_model::{fnum, Report};
use tpcc_obs::{MemoryRecorder, Obs};
use tpcc_schema::relation::Relation;

fn main() {
    let transactions = Args::from_env("obs_demo", "[transactions]").get("transactions", 4000);

    // small database, deliberately tight buffer pool so the demo shows
    // real misses, evictions and write-backs, with WAL on
    let mut cfg = DbConfig::small();
    cfg.buffer_frames = 48;
    cfg.enable_wal = true;
    let mut db = loader::load(cfg, 11);

    let recorder = Arc::new(MemoryRecorder::new());
    db.set_obs(Obs::new(recorder.clone()));

    let mut driver = Driver::new(&db, DriverConfig::default().with_spec_rollbacks(), 7);
    let start = Instant::now();
    let period = transactions.div_ceil(4).max(1);
    let (mut done, mut executed, mut rollbacks) = (0, [0u64; 5], 0);
    let mut jsonl = Vec::new();
    while done < transactions {
        let chunk = period.min(transactions - done);
        let report = driver.run(&mut db, chunk);
        for (sum, n) in executed.iter_mut().zip(report.executed) {
            *sum += n;
        }
        rollbacks += report.rollbacks;
        done += chunk;
        let t_ms = start.elapsed().as_secs_f64() * 1e3;
        let seq = jsonl.len() as u64;
        jsonl.push(recorder.snapshot().to_json_line(seq, done, t_ms));
    }

    let snap = recorder.snapshot();
    println!("{}", snap.render_table());

    let counter = |name: &str, label: &str| -> u64 {
        let key = format!("{name}/{label}");
        snap.counters
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0, |(_, v)| *v)
    };
    let mut table = Report::new(
        format!("Per-relation buffer traffic ({transactions} transactions)"),
        vec![
            "relation",
            "hits",
            "misses",
            "evictions",
            "writebacks",
            "miss ratio",
        ],
    );
    for r in Relation::ALL {
        let (h, m) = (
            counter("buf_hits", r.name()),
            counter("buf_misses", r.name()),
        );
        let ratio = if h + m == 0 {
            f64::NAN
        } else {
            m as f64 / (h + m) as f64
        };
        table.push_row(vec![
            r.name().to_string(),
            h.to_string(),
            m.to_string(),
            counter("buf_evictions", r.name()).to_string(),
            counter("buf_writebacks", r.name()).to_string(),
            fnum(ratio, 4),
        ]);
    }
    table.push_note(format!(
        "executed per type: {executed:?}; rollbacks: {rollbacks}"
    ));
    println!("{table}");

    println!("json-lines snapshots written: {}", jsonl.len());
    for line in jsonl {
        println!("{line}");
    }
}
