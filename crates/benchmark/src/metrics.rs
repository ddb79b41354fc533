//! The benchmark's vocabulary: workload names, metric names with unit,
//! direction and regression bound, and the result line a run prints.
//!
//! `BENCHMARK.json` at the repository root is generated from the
//! tables here (`tpcc-benchmark --emit-spec`); the smoke test fails
//! when the two drift apart.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (latencies, costs).
    Lower,
    /// Larger values are better (throughput, batching).
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed and as keyed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit string (ASCII; `us` = microseconds).
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression; `None` for a per-layer
    /// metric, which carries no bound.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: measured with tracing off, printed by every
/// workload. On `model-sweep` a "transaction" is one simulated TPC-C
/// transaction (reference-string generation + stack-distance
/// analysis), so the same ten names apply there.
///
/// The seven timings carry the widest bound a benchmark may declare:
/// on the reference host their ten-seed spread is 3-30 % of the median
/// (see the README), and a bound below the spread fails a benchmark
/// before it gates anything. The three counts are the tight gates.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("tps", "txn/s", Higher, 0.25),
    e2e("cpu_us_per_txn", "us", Lower, 0.25),
    e2e("new_order_p50_us", "us", Lower, 0.25),
    e2e("new_order_p95_us", "us", Lower, 0.25),
    e2e("payment_p95_us", "us", Lower, 0.25),
    e2e("stock_level_p95_us", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.05),
    e2e("page_refs_per_txn", "count", Lower, 0.05),
    e2e("write_bytes_per_txn", "B", Lower, 0.05),
];

/// Per-layer metrics: counters and spans from the traced repetitions
/// plus the isolated layer probes. A metric whose layer a workload
/// never enters prints 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // tpcc-db::driver / parallel
    layer("driver.input_gen_ns", "ns", Lower),
    layer("driver.loop_self_us", "us", Lower),
    layer("driver.tpmc", "1/min", Higher),
    layer("driver.retries_per_ktxn", "1/ktxn", Lower),
    layer("driver.rollbacks_per_ktxn", "1/ktxn", Lower),
    layer("driver.new_order_p99_us", "us", Lower),
    layer("driver.delivery_p95_us", "us", Lower),
    // tpcc-db::txns
    layer("txns.new_order_us", "us", Lower),
    layer("txns.payment_us", "us", Lower),
    layer("txns.order_status_us", "us", Lower),
    layer("txns.delivery_us", "us", Lower),
    layer("txns.stock_level_us", "us", Lower),
    // tpcc-db::records
    layer("records.customer_codec_ns", "ns", Lower),
    layer("records.stock_codec_ns", "ns", Lower),
    layer("records.order_line_codec_ns", "ns", Lower),
    // tpcc-lock
    layer("lock.acquires_per_txn", "1/txn", Lower),
    layer("lock.waits_per_ktxn", "1/ktxn", Lower),
    layer("lock.wait_us_per_txn", "us", Lower),
    layer("lock.wounds_per_ktxn", "1/ktxn", Lower),
    layer("lock.lockset_uncontended_ns", "ns", Lower),
    // tpcc-storage::btree
    layer("btree.node_visits_per_txn", "1/txn", Lower),
    layer("btree.splits_per_ktxn", "1/ktxn", Lower),
    layer("btree.restarts_per_ktxn", "1/ktxn", Lower),
    layer("btree.get_ns", "ns", Lower),
    layer("btree.insert_ns", "ns", Lower),
    layer("btree.scan20_ns", "ns", Lower),
    // tpcc-storage::heap / page
    layer("heap.get_ns", "ns", Lower),
    layer("heap.update_ns", "ns", Lower),
    layer("heap.insert_ns", "ns", Lower),
    // tpcc-storage::bufmgr / disk
    layer("bufmgr.touches_per_txn", "1/txn", Lower),
    layer("bufmgr.miss_ppm", "ppm", Lower),
    layer("bufmgr.evictions_per_txn", "1/txn", Lower),
    layer("bufmgr.writebacks_per_txn", "1/txn", Lower),
    layer("bufmgr.latch_contended_ppm", "ppm", Lower),
    layer("bufmgr.fix_hit_ns", "ns", Lower),
    layer("bufmgr.fix_miss_clean_ns", "ns", Lower),
    layer("bufmgr.fix_miss_dirty_ns", "ns", Lower),
    // tpcc-storage::wal
    layer("wal.records_per_txn", "1/txn", Lower),
    layer("wal.bytes_per_txn", "B", Lower),
    layer("wal.recovery_ms_per_ktxn", "ms", Lower),
    layer("wal.replay_mb_per_s", "MB/s", Higher),
    layer("wal.unsealed_mismatches", "count", Lower),
    layer("wal.write_fix_logged_ns", "ns", Lower),
    layer("wal.write_fix_unlogged_ns", "ns", Lower),
    layer("wal.page_deltas_ns", "ns", Lower),
    layer("wal.append_ns", "ns", Lower),
    // tpcc-storage::logmgr
    layer("logmgr.commits_per_flush", "count", Higher),
    layer("logmgr.flushes_per_s", "1/s", Lower),
    layer("logmgr.commit_wait_p50_us", "us", Lower),
    layer("logmgr.commit_wait_p95_us", "us", Lower),
    // tpcc-storage::undo / tpcc-db::mvcc
    layer("undo.bytes_per_txn", "B", Lower),
    layer("undo.versions_traversed_per_read", "count", Lower),
    layer("undo.snapshot_reads_per_ktxn", "1/ktxn", Lower),
    layer("undo.record_commit_ns", "ns", Lower),
    // tpcc-storage::cdc / tpcc-db::views
    layer("cdc.poll_us_per_txn", "us", Lower),
    layer("cdc.poll_share", "ratio", Lower),
    layer("cdc.events_per_txn", "1/txn", Lower),
    layer("cdc.lag_entries_p95", "count", Lower),
    // tpcc-db::cluster
    layer("cluster.msgs_per_txn", "1/txn", Lower),
    layer("cluster.prepares_per_ktxn", "1/ktxn", Lower),
    layer("cluster.remote_share", "ratio", Lower),
    layer("cluster.remote_p95_us", "us", Lower),
    layer("cluster.two_pc_aborts", "count", Lower),
    // tpcc-rand
    layer("rand.nurand_sample_ns", "ns", Lower),
    layer("rand.pmf_build_s", "s", Lower),
    // tpcc-workload
    layer("workload.trace_txn_ns", "ns", Lower),
    layer("workload.refs_per_txn", "count", Lower),
    // tpcc-buffer
    layer("buffer.stack_access_ns", "ns", Lower),
    layer("buffer.lru_access_ns", "ns", Lower),
    layer("buffer.distinct_pages", "count", Lower),
    layer("buffer.refs_per_s", "1/s", Higher),
    // tpcc-cost
    layer("cost.fig9_eval_us", "us", Lower),
    // tpcc-obs
    layer("obs.traced_tps_ratio", "ratio", Higher),
    // the harness itself: validity of the run, not the program
    layer("harness.minflt_per_txn", "1/txn", Lower),
    layer("harness.rep_iqr_ratio", "ratio", Lower),
    layer("harness.steal_share", "ratio", Lower),
];

/// Measured values keyed by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// What one benchmark run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Transactions submitted in the timed repetitions.
    pub attempted: u64,
    /// Of those, operations that failed (never an intended outcome
    /// such as a clause-2.4.1.4 rollback).
    pub failed: u64,
    /// Reasons a correctness check failed (empty = correct).
    pub errors: Vec<String>,
    /// The measured metrics.
    pub values: Values,
    /// Free-form notes printed above the metric table (sample counts,
    /// repetition counts).
    pub notes: Vec<String>,
}

impl Outcome {
    /// True when every correctness check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// Closes the run: `attempted` transactions in its timed
    /// repetitions, of which `failed_ops` failed one by one; all of
    /// them count as failed when a check did.
    pub fn finish(&mut self, attempted: u64, failed_ops: u64, errors: Vec<String>) {
        self.attempted = attempted;
        self.failed = if errors.is_empty() {
            failed_ops.min(attempted)
        } else {
            attempted
        };
        self.errors = errors;
    }

    /// The metric table a human reads: one `name value unit` row per
    /// declared metric of `defs`.
    #[must_use]
    pub fn render_table(&self, defs: &[MetricDef]) -> String {
        let mut out = String::new();
        for def in defs {
            let v = self.value(def);
            let _ = writeln!(out, "{:<36} {:>16} {}", def.name, format_value(v), def.unit);
        }
        out
    }

    /// The machine-readable result line: exactly the keys `correct`,
    /// `attempted`, `failed`, `metrics`.
    #[must_use]
    pub fn result_line(&self, defs: &[MetricDef]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, def) in defs.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name,
                format_value(self.value(def)),
                def.unit
            );
        }
        out.push_str("}}");
        out
    }

    fn value(&self, def: &MetricDef) -> f64 {
        // a per-layer metric whose layer the workload never enters
        // prints 0; a missing end-to-end metric is a harness bug
        match (self.values.get(def.name), def.bound) {
            (Some(v), _) => *v,
            (None, None) => 0.0,
            (None, Some(_)) => panic!("end-to-end metric {} was not measured", def.name),
        }
    }
}

/// A number as measured, with all its digits, in a form JSON accepts.
fn format_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // never expected; keeps the line parseable and the smoke test
        // flags it
        "null".to_string()
    }
}

/// The six workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fits-in-cache durable serial baseline.
    SerialWal,
    /// Larger-than-cache, log-free serial run.
    SerialNologMiss,
    /// Two terminals on one warehouse, MVCC on.
    ContendedMvcc,
    /// Group commit + MVCC + rollbacks + CDC pipeline.
    PipelineGcCdc,
    /// Two-node cluster with 2PC.
    Cluster2pc,
    /// The paper's own kernel: trace generator → stack analyser → §5.
    ModelSweep,
}

impl Workload {
    /// All workloads in run order.
    pub const ALL: [Workload; 6] = [
        Workload::SerialWal,
        Workload::SerialNologMiss,
        Workload::ContendedMvcc,
        Workload::PipelineGcCdc,
        Workload::Cluster2pc,
        Workload::ModelSweep,
    ];

    /// Name on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::SerialWal => "serial-wal",
            Workload::SerialNologMiss => "serial-nolog-miss",
            Workload::ContendedMvcc => "contended-mvcc",
            Workload::PipelineGcCdc => "pipeline-gc-cdc",
            Workload::Cluster2pc => "cluster-2pc",
            Workload::ModelSweep => "model-sweep",
        }
    }

    /// One line on why the workload exists (≤ 200 characters).
    #[must_use]
    pub fn why(self) -> &'static str {
        match self {
            Workload::SerialWal => {
                "1 warehouse inside a larger pool, 1 terminal, sync WAL: the durable all-hits baseline where log and delta capture dominate and buffer misses and lock waits do nothing"
            }
            Workload::SerialNologMiss => {
                "1 warehouse in a pool a tenth its size, 1 terminal, WAL off: eviction, write-back, miss-load, B+Tree and codecs do the work; the bypass for every log change"
            }
            Workload::ContendedMvcc => {
                "2 terminals on one warehouse, sync WAL, MVCC, spec rollbacks: row locks, frame latches, the WAL mutex and undo stamping under contention"
            }
            Workload::PipelineGcCdc => {
                "2 warehouses, 2 terminals, group commit, MVCC, rollbacks and a CDC pipeline polled every 500 txns: commit-ticket waits and shadow replay, which the others bypass"
            }
            Workload::Cluster2pc => {
                "2 nodes x 1 warehouse, replicated items, 2 terminals: routing, message counting, Prepare/Decide logging and compensation in the cluster executor"
            }
            Workload::ModelSweep => {
                "the paper's kernel: item PMF, trace generator and stack-distance sweep for both packings, then the section-5 throughput model; no engine code runs"
            }
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Seconds one driver run measures for (`run_seconds` in
/// `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// The contents of `BENCHMARK.json`.
#[must_use]
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"crates/benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"crates/benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in Workload::ALL.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{}",
            w.name(),
            w.why(),
            if i + 1 < Workload::ALL.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.expect("end-to-end metrics carry a bound"),
            if i + 1 < END_TO_END.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{}",
            m.name,
            m.unit,
            m.better.as_str(),
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// The value at quantile `q` of a latency sketch, interpolated inside
/// the bucket the rank falls in. `QuantileSketch::quantile` returns the
/// bucket's representative value, one of a fixed grid 2 % apart at the
/// default accuracy, so two runs that differ by less read exactly the
/// same; placing the rank linearly between the bucket's bounds keeps
/// the sketch's accuracy bound and moves with every sample.
#[must_use]
pub fn sketch_quantile(sketch: &tpcc_obs::QuantileSketch, q: f64) -> f64 {
    let alpha = sketch.relative_accuracy();
    let gamma = (1.0 + alpha) / (1.0 - alpha);
    let rank = q * sketch.count() as f64;
    let mut seen = 0.0;
    for (i, count) in sketch.nonzero_buckets() {
        let count = count as f64;
        if seen + count >= rank {
            // bucket i covers (gamma^(i-1), gamma^i]
            let hi = gamma.powi(i as i32);
            let lo = hi / gamma;
            let v = lo + (hi - lo) * ((rank - seen) / count).clamp(0.0, 1.0);
            return v.clamp(sketch.min() as f64, sketch.max() as f64);
        }
        seen += count;
    }
    sketch.max() as f64
}

/// Median of a non-empty sample (mean of the two middle values for an
/// even count).
///
/// # Panics
/// Panics on an empty sample.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method), so the spreads printed here are the ones the driver sees.
///
/// # Panics
/// Panics on fewer than two values.
#[must_use]
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need two values");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| -> f64 {
        // statistics.quantiles: j = k*(n+1) // 4 clamped to [1, n-1],
        // delta = k*(n+1) - j*4, result = (v[j-1]*(4-delta) + v[j]*delta) / 4
        let m = n + 1;
        let j = (k * m / 4).clamp(1, n - 1);
        let delta = (k * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median.
#[must_use]
pub fn iqr_ratio(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(xs);
    let m = median(xs);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]);
        assert!((q1 - 1.0).abs() < 1e-12 && (q3 - 3.0).abs() < 1e-12);
        assert!((median(&[4.0, 1.0, 3.0, 2.0]) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn interpolated_quantile_stays_within_the_sketch_accuracy() {
        let mut sketch = tpcc_obs::QuantileSketch::default();
        for v in 1..=10_000u64 {
            sketch.record(v * 37);
        }
        for (q, exact) in [(0.5, 5_000.0 * 37.0), (0.95, 9_500.0 * 37.0)] {
            let got = sketch_quantile(&sketch, q);
            assert!(
                (got - exact).abs() / exact < 0.011,
                "q{q}: {got} vs {exact}"
            );
        }
        // moves with the samples where the representative grid does not
        let before = sketch_quantile(&sketch, 0.5);
        sketch.record(1);
        assert_ne!(before, sketch_quantile(&sketch, 0.5));
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "duplicate metric {}", def.name);
            assert!(def.name.len() <= 64);
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def.unit.len() <= 16);
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for w in Workload::ALL {
            assert!(w.why().len() <= 200, "{}: why too long", w.name());
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }
}
