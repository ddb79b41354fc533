//! Smoke + schema test: every workload at 1/50 scale, untraced and
//! traced; the result lines carry exactly the declared metrics, the
//! metrics a workload exercises are non-zero and those of the layers it
//! bypasses zero, the trace file parses, and `BENCHMARK.json` is what the metric tables generate.

use std::path::PathBuf;

use tpcc_benchmark::json::Json;
use tpcc_benchmark::metrics::{
    benchmark_json, MetricDef, Outcome, Workload, END_TO_END, PER_LAYER,
};
use tpcc_benchmark::{run, RunOpts};

use Workload::{Cluster2pc, ContendedMvcc, ModelSweep, PipelineGcCdc, SerialNologMiss, SerialWal};

const ENGINE: [Workload; 5] = [
    SerialWal,
    SerialNologMiss,
    ContendedMvcc,
    PipelineGcCdc,
    Cluster2pc,
];

/// Per-layer metrics that must be non-zero, and where. Metrics absent
/// from this table may legitimately read 0 at smoke scale (retries,
/// lock waits, splits, contention ppm, 2PC aborts, unsealed-log
/// mismatches, steal).
fn must_be_nonzero(name: &str) -> &'static [Workload] {
    // each probe runs in the traced run of one workload (`probes::run`)
    if name.starts_with("wal.") && name.ends_with("_ns") {
        return &[SerialWal];
    }
    if ["records.", "btree.", "heap.", "bufmgr.fix_"]
        .iter()
        .any(|p| name.starts_with(p))
        && name.ends_with("_ns")
    {
        return &[SerialNologMiss];
    }
    if name == "obs.traced_tps_ratio" {
        return &Workload::ALL;
    }
    match name {
        "driver.input_gen_ns" | "driver.loop_self_us" => &[SerialWal, SerialNologMiss],
        "driver.tpmc" | "btree.node_visits_per_txn" | "bufmgr.touches_per_txn" => &ENGINE,
        "driver.new_order_p99_us" | "driver.delivery_p95_us" => &Workload::ALL,
        "lock.lockset_uncontended_ns" | "undo.record_commit_ns" => &[ContendedMvcc],
        "rand.nurand_sample_ns"
        | "workload.trace_txn_ns"
        | "buffer.stack_access_ns"
        | "buffer.lru_access_ns" => &[ModelSweep],
        n if n.starts_with("txns.") => &Workload::ALL,
        "lock.acquires_per_txn" => &[ContendedMvcc, PipelineGcCdc],
        "bufmgr.miss_ppm" | "bufmgr.evictions_per_txn" | "bufmgr.writebacks_per_txn" => {
            &[SerialNologMiss]
        }
        "wal.records_per_txn" | "wal.bytes_per_txn" => {
            &[SerialWal, ContendedMvcc, PipelineGcCdc, Cluster2pc]
        }
        "wal.recovery_ms_per_ktxn" | "wal.replay_mb_per_s" => &[SerialWal, ContendedMvcc],
        n if n.starts_with("logmgr.") => &[PipelineGcCdc],
        "undo.bytes_per_txn" | "undo.snapshot_reads_per_ktxn" => {
            &[ContendedMvcc, PipelineGcCdc, Cluster2pc]
        }
        "cdc.poll_us_per_txn" | "cdc.poll_share" | "cdc.events_per_txn" => &[PipelineGcCdc],
        "cluster.msgs_per_txn" | "cluster.remote_share" => &[Cluster2pc],
        "rand.pmf_build_s"
        | "workload.refs_per_txn"
        | "buffer.distinct_pages"
        | "buffer.refs_per_s"
        | "cost.fig9_eval_us" => &[ModelSweep],
        _ => &[],
    }
}

/// Per-layer metrics that must read 0: the layer is bypassed there,
/// which is what makes the workload the "no change" side of a claim.
fn must_be_zero(name: &str, workload: Workload) -> bool {
    match name {
        "wal.records_per_txn" | "wal.bytes_per_txn" => {
            matches!(workload, SerialNologMiss | ModelSweep)
        }
        "lock.waits_per_ktxn" => matches!(workload, SerialWal | SerialNologMiss | ModelSweep),
        n if n.starts_with("logmgr.") || n.starts_with("cdc.") => workload != PipelineGcCdc,
        n if n.starts_with("cluster.") => workload != Cluster2pc,
        _ => false,
    }
}

fn trace_path(workload: Workload) -> PathBuf {
    std::env::temp_dir().join(format!(
        "tpcc-benchmark-smoke-{}-{}.jsonl",
        std::process::id(),
        workload.name()
    ))
}

fn smoke(workload: Workload, trace: bool) -> Outcome {
    let out = run(
        workload,
        &RunOpts {
            seed: 42,
            seconds: 0.05,
            trace,
            scale: 50,
            trace_path: trace.then(|| trace_path(workload)),
        },
    );
    assert!(out.correct(), "{}: {:?}", workload.name(), out.errors);
    assert!(out.attempted >= 1 && out.failed == 0);
    out
}

/// The result line holds exactly the four top-level keys and exactly
/// the declared metrics, each once, each with its unit and a finite
/// number.
fn check_result_line(workload: Workload, out: &Outcome, defs: &[MetricDef]) -> Vec<(String, f64)> {
    let line = out.result_line(defs);
    assert!(!line.contains('\n'));
    let doc = Json::parse(&line).unwrap_or_else(|e| panic!("{}: {e}: {line}", workload.name()));
    let keys: Vec<&str> = doc.entries().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    let metrics = doc.get("metrics").expect("metrics").entries();
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let declared: Vec<&str> = defs.iter().map(|d| d.name).collect();
    assert_eq!(names, declared, "{}: emitted != declared", workload.name());
    metrics
        .iter()
        .zip(defs)
        .map(|((name, m), def)| {
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                Some(def.unit),
                "{name}"
            );
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{}: {name} is not a number", workload.name()));
            assert!(value.is_finite(), "{}: {name} = {value}", workload.name());
            (name.clone(), value)
        })
        .collect()
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics() {
    for workload in Workload::ALL {
        // untraced: every end-to-end metric, none of them zero
        let out = smoke(workload, false);
        for (name, value) in check_result_line(workload, &out, END_TO_END) {
            assert!(value > 0.0, "{}: {name} = {value}", workload.name());
        }

        // traced: every per-layer metric; the ones this workload
        // exercises are non-zero, the ones it bypasses are zero
        let out = smoke(workload, true);
        for (name, value) in check_result_line(workload, &out, PER_LAYER) {
            if must_be_nonzero(&name).contains(&workload) {
                assert!(value > 0.0, "{}: {name} = {value}", workload.name());
            }
            if must_be_zero(&name, workload) {
                assert!(value == 0.0, "{}: {name} = {value}", workload.name());
            }
        }

        // the trace file parses and every span's parent exists
        let path = trace_path(workload);
        let text = std::fs::read_to_string(&path).expect("trace file written");
        std::fs::remove_file(&path).expect("remove trace file");
        let mut spans = 0usize;
        for (i, line) in text.lines().enumerate() {
            let span = Json::parse(line).unwrap_or_else(|e| panic!("span {i}: {e}: {line}"));
            assert_eq!(span.get("id").and_then(Json::as_f64), Some(i as f64));
            match span.get("parent") {
                Some(Json::Null) => {}
                Some(Json::Num(p)) => assert!(*p >= 0.0 && (*p as usize) < i, "span {i}: {p}"),
                other => panic!("span {i}: parent {other:?}"),
            }
            let start = span.get("start_ns").and_then(Json::as_f64).expect("start");
            let end = span.get("end_ns").and_then(Json::as_f64).expect("end");
            assert!(end >= start && span.get("name").and_then(Json::as_str).is_some());
            spans += 1;
        }
        assert!(spans > 0, "{}: empty trace", workload.name());
    }
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        on_disk,
        benchmark_json(),
        "regenerate with `crates/benchmark/run.sh --emit-spec > BENCHMARK.json`"
    );
    // and it is the shape the contract asks for
    let doc = Json::parse(&on_disk).expect("valid JSON");
    let keys: Vec<&str> = doc.entries().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let names = |key: &str| -> Vec<String> {
        doc.get(key)
            .expect(key)
            .items()
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    };
    assert_eq!(names("workloads").len(), 6);
    assert!(names("end_to_end").contains(&"setup_s".to_string()));
    assert!((1..=128).contains(&names("per_layer").len()));
    assert!(on_disk.len() < 64 * 1024);
}
