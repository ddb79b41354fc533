//! The repo benchmark (see `README.md` in this crate): six workloads,
//! end-to-end metrics from untraced repetitions, per-layer metrics
//! from traced repetitions and isolated layer probes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod json;
pub mod metrics;
pub mod model;
pub mod probes;
pub mod report;
pub mod sample;
pub mod sys;
pub mod trace;

use std::path::PathBuf;

use metrics::{Outcome, Workload};

/// Arguments of one benchmark run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Seconds of timed repetitions.
    pub seconds: f64,
    /// `false`: untraced run, end-to-end metrics. `true`: traced run
    /// (recorder attached, harness spans on) plus the workload's share
    /// of the layer probes, per-layer metrics.
    pub trace: bool,
    /// Divisor applied to populations and transaction counts (1 = the
    /// spec scale the benchmark is defined at). Library-only: the
    /// command line always runs at 1, the smoke test uses 50.
    pub scale: u64,
    /// Where a traced run writes its spans.
    pub trace_path: Option<PathBuf>,
}

/// Runs one workload; a traced run also runs the layer probes that
/// belong to it (see [`probes::run`]).
#[must_use]
pub fn run(workload: Workload, opts: &RunOpts) -> Outcome {
    let mut out = match workload {
        Workload::ModelSweep => model::run(opts),
        _ => engine::run(workload, opts),
    };
    if opts.trace {
        probes::run(workload, opts.scale.max(1), &mut out.values);
    }
    out
}
