//! The `model-sweep` workload: the paper's own kernel with no engine
//! code in it — item PMF (`tpcc-rand`), page-reference trace generator
//! (`tpcc-workload`), stack-distance sweep for both packings
//! (`tpcc-buffer`), then the §5 throughput model at the 64 Figure-9
//! buffer sizes (`tpcc-cost`).
//!
//! A "transaction" here is one simulated TPC-C transaction: its
//! reference string is generated and pushed through the stack-distance
//! analyser. The timed sections of a repetition are [`MissSweep::run`]
//! (the code the figures run) for both packings and the Figure-9
//! evaluation, nothing of the harness's own: `tps`, `cpu_us_per_txn`
//! and `buffer.refs_per_s` time the program. `MissSweep::run` has no
//! per-transaction clock, and every run must print every end-to-end
//! metric, so after each sweep, outside the timed sections, the harness
//! steps the generator and the analyser through their public calls one
//! timed transaction at a time ([`step`]): the per-type latencies say
//! what a New-Order, Payment or Stock-Level costs the simulator, and
//! nothing else is derived from that loop.

use std::sync::Arc;
use std::time::Instant;

use tpcc_buffer::{BufferSim, BufferSimConfig, MissCurve, MissSweep, StackDistance};
use tpcc_cost::{LogDiskModel, SingleNodeModel, SweepMissSource};
use tpcc_obs::{MemoryRecorder, Obs};
use tpcc_rand::{NuRand, Pmf, Xoshiro256};
use tpcc_schema::packing::Packing;
use tpcc_schema::relation::Relation;
use tpcc_workload::{PageRef, TraceConfig, TraceGenerator, TxType};

use crate::metrics::{median, Outcome};
use crate::sample::{heap_slack, repeat, Reps, Timing, SETUPS, SETUP_BUDGET_S};
use crate::trace::{self, spanned, Tracer};
use crate::RunOpts;

/// Warehouses of the paper's buffer study.
const WAREHOUSES: u64 = 20;
const PMF_SAMPLES: u64 = 5_000_000;
const SWEEP_WARMUP: u64 = 15_000;
const SWEEP_MEASURED: u64 = 60_000;
/// A set-up here is a fifth of a second, too short a stretch of wall
/// clock for [`SETUPS`] of them to give a steady median.
const MODEL_SETUPS: usize = 3 * SETUPS;
/// Transactions of one per-type latency loop (after its own warm-up);
/// a repetition runs one after each sweep, so its latency samples come
/// from two separate stretches of wall clock.
const STEP_WARMUP: u64 = 5_000;
const STEP_MEASURED: u64 = 30_000;
const PACKINGS: [Packing; 2] = [Packing::Sequential, Packing::HotnessSorted];
/// Buffer size of the direct-simulation cross-check, in 4 KiB pages
/// (50 MB: mid-curve, where stock and customer both still miss).
const CHECK_PAGES: u64 = 12_800;
/// `results/fig8_miss_rates.csv` at 10, 50 and 100 MB: customer,
/// stock and item miss rates, sequential then optimized packing. The
/// rows are copied here so the benchmark reads nothing outside its own
/// directory; a change that regenerates the figure updates both.
const FIG8: [(u64, [f64; 3], [f64; 3]); 3] = [
    (10, [0.6679, 0.6501, 0.4601], [0.6596, 0.5821, 0.2910]),
    (50, [0.6260, 0.4378, 0.1061], [0.5833, 0.3271, 0.0689]),
    (100, [0.5598, 0.2518, 0.0321], [0.4736, 0.1585, 0.0236]),
];
/// 0.05 absolute: the committed figure ran several times this trace
/// length, and customer (the slowest relation to converge) sits up to
/// 0.04 away from it at 75 000 transactions.
const FIG8_TOLERANCE: f64 = 0.05;
const FIG8_RELATIONS: [Relation; 3] = [Relation::Customer, Relation::Stock, Relation::Item];

fn build_pmf(seed: u64, scale: u64) -> Pmf {
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x1);
    Pmf::monte_carlo(&NuRand::item_id(), PMF_SAMPLES / scale, &mut rng)
}

fn sweep(pmf: &Pmf, packing: Packing, scale: u64, seed: u64, obs: &Obs) -> MissSweep {
    MissSweep::run_observed(
        TraceConfig::paper_default(WAREHOUSES, packing),
        Some(pmf),
        SWEEP_MEASURED / scale,
        SWEEP_WARMUP / scale,
        seed,
        obs,
    )
}

/// The 64 buffer sizes Figure 9 plots, in 4 KiB pages (2.5 MB steps).
fn fig9_pages() -> impl Iterator<Item = u64> {
    (1..=64u64).map(|i| i * 2_621_440 / 4096)
}

/// New-Order tpm summed over the Figure-9 sizes for both packings (the
/// sum only keeps the evaluation from being optimised away).
fn fig9_eval(seq: &MissSweep, opt: &MissSweep) -> f64 {
    let model = SingleNodeModel::paper_default();
    fig9_pages()
        .map(|pages| {
            model
                .throughput(&SweepMissSource::new(seq, pages))
                .new_order_tpm
                + model
                    .throughput(&SweepMissSource::new(opt, pages))
                    .new_order_tpm
        })
        .sum()
}

struct Rep {
    /// The two sweeps and the Figure-9 evaluation; `latency` is filled
    /// by the stepping loop that follows them.
    timing: Timing,
    fig9_us: f64,
    /// References the stepping loop generated.
    refs: u64,
}

/// Redo bytes per transaction the section-5.1 log-disk model charges
/// the transactions the two sweeps generated.
fn log_model_bytes_per_txn(sweeps: &[MissSweep; 2]) -> f64 {
    let model = LogDiskModel::paper_default();
    let (mut bytes, mut txns) = (0.0, 0u64);
    for sweep in sweeps {
        for tx in TxType::ALL {
            bytes += sweep.transactions_of(tx) as f64 * model.bytes_per_txn(tx);
        }
        txns += sweep.transactions();
    }
    bytes / txns.max(1) as f64
}

/// One repetition, plus its two sweeps for the correctness check (the
/// caller keeps only the latest pair, so repetitions reuse the same
/// memory).
fn rep(
    pmf: &Pmf,
    scale: u64,
    seed: u64,
    obs: &Obs,
    mut tracer: Option<&mut Tracer>,
) -> (Rep, [MissSweep; 2]) {
    let mut timing = Timing::default();
    let mut run_sweep = |packing: Packing, id: u32, timing: &mut Timing| {
        timing.time(|_| {
            spanned(&mut tracer, "buffer.miss_sweep", id, || {
                sweep(pmf, packing, scale, seed, obs)
            })
        })
    };
    let sequential = run_sweep(PACKINGS[0], 1, &mut timing);
    let mut refs = step(pmf, PACKINGS[0], scale, seed, &mut timing);
    let optimized = run_sweep(PACKINGS[1], 2, &mut timing);
    refs += step(pmf, PACKINGS[1], scale, seed, &mut timing);
    let sweeps = [sequential, optimized];
    let fig9_us = timing.time(|_| {
        let f0 = Instant::now();
        spanned(&mut tracer, "cost.fig9_eval", 3, || {
            std::hint::black_box(fig9_eval(&sweeps[0], &sweeps[1]));
        });
        f0.elapsed().as_secs_f64() * 1e6
    });
    timing.txns = 2 * (SWEEP_MEASURED + SWEEP_WARMUP) / scale;
    let swept: u64 = sweeps
        .iter()
        .flat_map(|s| Relation::ALL.map(|rel| s.accesses(rel)))
        .sum();
    timing.page_refs_per_txn = swept as f64 / (2 * (SWEEP_MEASURED / scale)) as f64;
    timing.write_bytes_per_txn = log_model_bytes_per_txn(&sweeps);
    let rep = Rep {
        timing,
        fig9_us,
        refs,
    };
    (rep, sweeps)
}

/// Per-type latency, outside the repetition's timed sections: the
/// generator → analyser → curve steps `MissSweep::run` takes, one timed
/// transaction at a time. Returns the references generated by the
/// measured transactions.
fn step(pmf: &Pmf, packing: Packing, scale: u64, seed: u64, timing: &mut Timing) -> u64 {
    let mut gen = TraceGenerator::new(
        TraceConfig::paper_default(WAREHOUSES, packing),
        Some(pmf),
        seed,
    );
    let mut analyzer = StackDistance::new(1 << 20);
    let mut curve = MissCurve::new();
    let mut refs: Vec<PageRef> = Vec::with_capacity(512);
    for _ in 0..STEP_WARMUP / scale {
        let _ = gen.next_transaction(&mut refs);
        for r in &refs {
            let _ = analyzer.access(r.page.raw());
        }
    }
    let mut total_refs = 0;
    for _ in 0..STEP_MEASURED / scale {
        let t0 = Instant::now();
        let tx = gen.next_transaction(&mut refs);
        for r in &refs {
            curve.record(analyzer.access(r.page.raw()));
        }
        timing.latency[tx.index()]
            .record(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        total_refs += refs.len() as u64;
    }
    std::hint::black_box(curve.total());
    total_refs
}

/// Stack-distance miss rates must equal a direct LRU simulation of the
/// same trace at one buffer size, and sit within [`FIG8_TOLERANCE`] of
/// the committed Figure 8 at three.
fn check(pmf: &Pmf, scale: u64, seed: u64, sweeps: &[MissSweep; 2], errors: &mut Vec<String>) {
    let direct = BufferSim::run(
        &BufferSimConfig {
            batches: 1,
            batch_transactions: SWEEP_MEASURED / scale,
            warmup_transactions: SWEEP_WARMUP / scale,
            ..BufferSimConfig::quick(
                TraceConfig::paper_default(WAREHOUSES, Packing::Sequential),
                CHECK_PAGES as usize,
                seed,
            )
        },
        Some(pmf),
    );
    for rel in Relation::ALL {
        let (a, b) = (direct.miss_rate(rel), sweeps[0].miss_rate(rel, CHECK_PAGES));
        let same = (a.is_nan() && b.is_nan()) || (a - b).abs() < 1e-12;
        if !same {
            errors.push(format!(
                "{}: direct LRU miss rate {a} != stack-distance {b} at {CHECK_PAGES} pages",
                rel.name()
            ));
        }
    }
    if scale != 1 {
        return; // the committed figure is for the full-size trace
    }
    for (mb, seq, opt) in FIG8 {
        let pages = mb * 1_048_576 / 4096;
        for (sweep, want) in sweeps.iter().zip([seq, opt]) {
            for (rel, want) in FIG8_RELATIONS.into_iter().zip(want) {
                let got = sweep.miss_rate(rel, pages);
                if (got - want).abs() > FIG8_TOLERANCE {
                    errors.push(format!(
                        "{} at {mb} MB: miss rate {got:.4}, Figure 8 has {want:.4}",
                        rel.name()
                    ));
                }
            }
        }
    }
}

fn timings(reps: &[Rep]) -> Reps<'_> {
    Reps(reps.iter().map(|r| &r.timing).collect())
}

/// Runs the model workload.
pub fn run(opts: &RunOpts) -> Outcome {
    let scale = opts.scale.max(1);
    let mut out = Outcome::default();
    let mut errors = Vec::new();
    let disabled = Obs::disabled();

    let slack = heap_slack(64 / scale);

    // set-up: PMF build plus a quarter-length sweep that sizes the
    // analyser's tables in the allocator
    let mut setup_s = Vec::new();
    let mut pmf_s = Vec::new();
    let mut pmf = None;
    let setups_started = Instant::now();
    for i in 0..MODEL_SETUPS {
        if i > 0 && setups_started.elapsed().as_secs_f64() > SETUP_BUDGET_S {
            break;
        }
        let t0 = Instant::now();
        let built = build_pmf(opts.seed, scale);
        pmf_s.push(t0.elapsed().as_secs_f64());
        std::hint::black_box(sweep(
            &built,
            Packing::Sequential,
            scale * 4,
            opts.seed,
            &disabled,
        ));
        setup_s.push(t0.elapsed().as_secs_f64());
        pmf = Some(built);
    }
    let pmf = pmf.expect("at least one set-up");
    drop(slack);
    // discarded repetition, as in the engine workloads
    let (_, discarded) = rep(&pmf, scale, opts.seed.wrapping_add(999), &disabled, None);

    let recorder = Arc::new(MemoryRecorder::new());
    let traced_obs = Obs::new(recorder.clone());
    let mut tracer = opts.trace.then(|| Tracer::new(10_000));
    // only the latest pair of sweeps stays alive, so every repetition
    // builds its curves in the memory the previous one freed
    let mut last = Some((opts.seed.wrapping_add(999), discarded));
    let schedule = repeat(opts, |seed, tracing| {
        last = None;
        let (measured, sweeps) = if tracing {
            rep(&pmf, scale, seed, &traced_obs, tracer.as_mut())
        } else {
            rep(&pmf, scale, seed, &disabled, None)
        };
        last = Some((seed, sweeps));
        measured
    });
    let (last_seed, last_sweeps) = last.expect("a repetition ran");
    check(&pmf, scale, last_seed, &last_sweeps, &mut errors);
    let (untraced, traced) = (schedule.untraced, schedule.traced);

    let measured = if opts.trace { &traced } else { &untraced };
    let timing = timings(measured);
    let v = &mut out.values;
    if opts.trace {
        timing.traced_values(&timings(&untraced), schedule.steal_share, v);
        let steps: u64 = (0..5).map(|t| timing.latency(t).count()).sum();
        let refs: u64 = measured.iter().map(|r| r.refs).sum();
        let refs_per_txn = refs as f64 / steps.max(1) as f64;
        v.insert("rand.pmf_build_s", median(&pmf_s));
        v.insert("workload.refs_per_txn", refs_per_txn);
        v.insert(
            "buffer.distinct_pages",
            last_sweeps[0].distinct_pages() as f64,
        );
        v.insert(
            "buffer.refs_per_s",
            median(&timing.tps_values()) * refs_per_txn,
        );
        v.insert(
            "cost.fig9_eval_us",
            median(&measured.iter().map(|r| r.fig9_us).collect::<Vec<_>>()),
        );
        trace::flush(
            tracer.as_ref(),
            opts.trace_path.as_deref(),
            &mut out.notes,
            &mut errors,
        );
    } else {
        timing.end_to_end(&setup_s, v);
        out.notes.extend(timing.disturbance_note());
    }
    out.notes.push(format!(
        "{} simulated transactions per repetition, {} more stepped one at a time for the latencies; {}",
        2 * (SWEEP_MEASURED + SWEEP_WARMUP) / scale,
        2 * STEP_MEASURED / scale,
        if opts.trace {
            timing.describe()
        } else {
            timing.undisturbed().describe()
        },
    ));
    out.finish(
        timings(&untraced).txns() + timings(&traced).txns(),
        0,
        errors,
    );
    out
}
