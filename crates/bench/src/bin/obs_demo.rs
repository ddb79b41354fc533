//! Observability demo: runs a short mixed TPC-C workload against the
//! executable database with a metrics recorder attached, then prints
//! the flame-style span summary, a per-relation buffer table, and the
//! JSON-lines snapshots the run produced.
//!
//! ```text
//! cargo run --release -p tpcc-bench --bin obs_demo -- [transactions]
//! ```

use std::sync::Arc;
use tpcc_bench::Args;
use tpcc_db::db::DbConfig;
use tpcc_db::driver::DriverConfig;
use tpcc_db::{loader, Driver};
use tpcc_model::{fnum, Report};
use tpcc_obs::{MemoryRecorder, Obs, SnapshotWriter};
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
    let mut writer = SnapshotWriter::new(Vec::new(), transactions.div_ceil(4).max(1));
    let report = driver
        .run_snapshotting(&mut db, transactions, &recorder, &mut writer)
        .expect("in-memory snapshot sink cannot fail");
    let written = writer.snapshots_written();
    let jsonl = writer.into_inner();

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
        "executed per type: {:?}; rollbacks: {}",
        report.executed, report.rollbacks
    ));
    println!("{table}");

    println!("json-lines snapshots written: {written}");
    print!("{}", String::from_utf8(jsonl).expect("snapshots are utf-8"));
}
