//! What every repetition of every workload measures, and how a run's
//! repetitions become its end-to-end metrics: `tps` is the median over
//! all timed repetitions, CPU time is summed over all of them, and
//! latency percentiles come from the sketches merged over all of them.
//! No repetition is left out, so a change that slows only some of them
//! (a periodic stall, a seed-dependent slow path) moves the numbers.
//! Host noise is answered with many short repetitions and is reported
//! (`harness.rep_iqr_ratio`, `harness.steal_share`), and no repetition
//! is judged by its own speed. The one gate is on a reading the program
//! cannot move: a repetition during which the hypervisor took more
//! than [`STEAL_LIMIT`] of the CPU time away is not a measurement of
//! the program (two terminals on a virtual CPU that is not running
//! drop to a fifth of their throughput), and it is set aside as long
//! as [`MIN_REPS`] others remain.

use std::time::Instant;

use tpcc_obs::QuantileSketch;

use crate::metrics::{iqr_ratio, median, sketch_quantile, Values};
use crate::sys::{peak_rss_mib, Usage};
use crate::RunOpts;

/// Set-ups per run; `setup_s` is their median. A load is about a
/// second of work, which the host's own speed changes by a fifth from
/// one second to the next, and the first set-up of a process also
/// pays for every page it touches for the first time.
pub const SETUPS: usize = 5;
/// Seconds of set-ups after which a run starts no further one (it
/// always makes the first). Five ordinary set-ups take 5-25 s; when
/// the host takes the CPU away for minutes, one can take 100 s, and a
/// run has to end well inside the three minutes it is given.
pub const SETUP_BUDGET_S: f64 = 30.0;
/// Fewest timed repetitions a run reports on, however short `--seconds`.
const MIN_REPS: usize = 3;
/// Share of the host's CPU ticks stolen during a repetition above which
/// the repetition is set aside (an undisturbed run reads 0.000-0.01).
pub const STEAL_LIMIT: f64 = 0.03;
/// Mean body time per transaction type, in mix order.
pub const TXN_BODY_METRICS: [&str; 5] = [
    "txns.new_order_us",
    "txns.payment_us",
    "txns.order_status_us",
    "txns.delivery_us",
    "txns.stock_level_us",
];

/// The timed section of one repetition.
#[derive(Default)]
pub struct Timing {
    /// Transactions completed (every type, intended rollbacks included).
    pub txns: u64,
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Process user + system CPU seconds (all threads).
    pub cpu_s: f64,
    /// Minor page faults taken.
    pub minflt: u64,
    /// Host-wide stolen and total CPU ticks while the section ran.
    pub steal_ticks: u64,
    /// See `steal_ticks`.
    pub host_ticks: u64,
    /// Page references per transaction: buffer-pool fixes in the
    /// engine, generated references in the model. A count, not a
    /// time: it repeats exactly for a serial workload and a seed.
    pub page_refs_per_txn: f64,
    /// Bytes handed to the log and data devices per transaction: WAL
    /// bytes appended plus one page per write-back in the engine, the
    /// section-5 log-disk model's bytes in the model. A count too.
    pub write_bytes_per_txn: f64,
    /// Per-type latency in nanoseconds, mix order (New-Order, Payment,
    /// Order-Status, Delivery, Stock-Level).
    pub latency: [QuantileSketch; 5],
}

impl Timing {
    /// Transactions per second.
    #[must_use]
    pub fn tps(&self) -> f64 {
        self.txns as f64 / self.wall_s
    }

    /// Share of the host's CPU ticks that were stolen.
    #[must_use]
    pub fn steal_share(&self) -> f64 {
        self.steal_ticks as f64 / self.host_ticks.max(1) as f64
    }

    /// Runs `section` as a timed section of this repetition:
    /// everything between the two clock and `/proc` readings is added
    /// to the repetition's wall clock, CPU time, fault and tick counts.
    pub fn time<R>(&mut self, section: impl FnOnce(&mut Timing) -> R) -> R {
        let before = Usage::now();
        let t0 = Instant::now();
        let result = section(self);
        self.wall_s += t0.elapsed().as_secs_f64();
        let after = Usage::now();
        self.cpu_s += after.cpu_s - before.cpu_s;
        self.minflt += after.minflt - before.minflt;
        self.steal_ticks += after.steal_ticks - before.steal_ticks;
        self.host_ticks += after.total_ticks - before.total_ticks;
        result
    }
}

/// `mib` MiB of heap, written. A run allocates it first and frees it
/// after its set-ups (freeing it earlier would let the loads consume
/// it), so whatever grows during timed repetitions — new order and
/// history pages, a log that cannot be reset, a curve a little longer
/// than the last one — lands on pages the process already owns
/// instead of taking fresh-page faults.
#[must_use]
pub fn heap_slack(mib: u64) -> Vec<Vec<u8>> {
    (0..mib).map(|_| vec![1u8; 1 << 20]).collect()
}

/// The timed repetitions of one run.
pub struct Schedule<R> {
    /// Repetitions with tracing off (all of them in an untraced run).
    pub untraced: Vec<R>,
    /// Repetitions with the recorder and the harness spans on.
    pub traced: Vec<R>,
    /// Host-wide stolen share of CPU ticks while they ran.
    pub steal_share: f64,
}

/// Runs `rep(seed, traced)` until `opts.seconds` have passed (at least
/// [`MIN_REPS`] times); repetition seed = `opts.seed` + index. A traced
/// run keeps its first [`MIN_REPS`] repetitions untraced, as the base
/// of `obs.traced_tps_ratio`.
pub fn repeat<R>(opts: &RunOpts, mut rep: impl FnMut(u64, bool) -> R) -> Schedule<R> {
    let host_before = Usage::now();
    let started = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for index in 0.. {
        let kept = if opts.trace {
            traced.len()
        } else {
            untraced.len()
        };
        if kept >= MIN_REPS && started.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
        let tracing = opts.trace && untraced.len() >= MIN_REPS;
        let measured = rep(opts.seed.wrapping_add(index), tracing);
        if tracing {
            traced.push(measured);
        } else {
            untraced.push(measured);
        }
    }
    let host_after = Usage::now();
    let ticks = (host_after.total_ticks - host_before.total_ticks).max(1);
    Schedule {
        untraced,
        traced,
        steal_share: (host_after.steal_ticks - host_before.steal_ticks) as f64 / ticks as f64,
    }
}

/// Totals over a set of repetitions.
pub struct Reps<'a>(pub Vec<&'a Timing>);

impl<'a> Reps<'a> {
    /// The repetitions the hypervisor left alone (see [`STEAL_LIMIT`]);
    /// all of them when fewer than [`MIN_REPS`] were.
    #[must_use]
    pub fn undisturbed(&self) -> Reps<'a> {
        let kept: Vec<&Timing> = self
            .0
            .iter()
            .copied()
            .filter(|r| r.steal_share() <= STEAL_LIMIT)
            .collect();
        Reps(if kept.len() >= MIN_REPS {
            kept
        } else {
            self.0.clone()
        })
    }

    /// Transactions over all repetitions.
    #[must_use]
    pub fn txns(&self) -> u64 {
        self.0.iter().map(|r| r.txns).sum()
    }

    /// Wall-clock seconds over all repetitions.
    #[must_use]
    pub fn wall_s(&self) -> f64 {
        self.0.iter().map(|r| r.wall_s).sum()
    }

    /// Per-repetition throughput.
    #[must_use]
    pub fn tps_values(&self) -> Vec<f64> {
        self.0.iter().map(|r| r.tps()).collect()
    }

    /// Latency of transaction type `t`, merged over the repetitions.
    #[must_use]
    pub fn latency(&self, t: usize) -> QuantileSketch {
        let mut merged = QuantileSketch::default();
        for r in &self.0 {
            merged.merge(&r.latency[t]);
        }
        merged
    }

    /// Minor faults per transaction in the timed sections.
    #[must_use]
    pub fn minflt_per_txn(&self) -> f64 {
        self.0.iter().map(|r| r.minflt).sum::<u64>() as f64 / self.txns().max(1) as f64
    }

    /// Quantile `q` of type `t`'s latency in microseconds.
    #[must_use]
    pub fn latency_us(&self, t: usize, q: f64) -> f64 {
        sketch_quantile(&self.latency(t), q) / 1e3
    }

    /// The ten end-to-end metrics of a run whose untraced repetitions
    /// are `self` and whose set-ups took `setup_s`.
    pub fn end_to_end(&self, setup_s: &[f64], v: &mut Values) {
        let reps = self.undisturbed();
        v.insert("setup_s", median(setup_s));
        v.insert("tps", median(&reps.tps_values()));
        // summed, not a median of per-repetition readings: the ticks of
        // /proc/self/stat are 10 ms, a few percent of one repetition
        let cpu_s: f64 = reps.0.iter().map(|r| r.cpu_s).sum();
        v.insert("cpu_us_per_txn", cpu_s * 1e6 / reps.txns() as f64);
        v.insert("new_order_p50_us", reps.latency_us(0, 0.50));
        v.insert("new_order_p95_us", reps.latency_us(0, 0.95));
        v.insert("payment_p95_us", reps.latency_us(1, 0.95));
        v.insert("stock_level_p95_us", reps.latency_us(4, 0.95));
        v.insert("peak_rss_mb", peak_rss_mib());
        let per_rep =
            |f: fn(&Timing) -> f64| median(&reps.0.iter().map(|r| f(r)).collect::<Vec<_>>());
        v.insert("page_refs_per_txn", per_rep(|r| r.page_refs_per_txn));
        v.insert("write_bytes_per_txn", per_rep(|r| r.write_bytes_per_txn));
    }

    /// The per-layer metrics every workload's traced repetitions
    /// (`self`) give: mean body time per transaction type, the two
    /// driver percentiles, tracing overhead against `untraced`, and
    /// the run's own validity numbers.
    pub fn traced_values(&self, untraced: &Reps<'_>, steal_share: f64, v: &mut Values) {
        for (t, name) in TXN_BODY_METRICS.into_iter().enumerate() {
            v.insert(name, self.latency(t).mean() / 1e3);
        }
        v.insert("driver.new_order_p99_us", self.latency_us(0, 0.99));
        v.insert("driver.delivery_p95_us", self.latency_us(3, 0.95));
        v.insert(
            "obs.traced_tps_ratio",
            median(&self.tps_values()) / median(&untraced.tps_values()),
        );
        v.insert("harness.minflt_per_txn", self.minflt_per_txn());
        v.insert("harness.rep_iqr_ratio", iqr_ratio(&self.tps_values()));
        v.insert("harness.steal_share", steal_share);
    }

    /// What [`Reps::undisturbed`] did to this run, when it did anything.
    #[must_use]
    pub fn disturbance_note(&self) -> Option<String> {
        let disturbed = self
            .0
            .iter()
            .filter(|r| r.steal_share() > STEAL_LIMIT)
            .count();
        let limit = STEAL_LIMIT * 100.0;
        match (disturbed, self.0.len() - disturbed >= MIN_REPS) {
            (0, _) => None,
            (n, true) => Some(format!(
                "{n} of {} repetitions set aside: the hypervisor stole more than {limit} % of \
                 the CPU time while they ran",
                self.0.len()
            )),
            (n, false) => Some(format!(
                "the hypervisor stole more than {limit} % of the CPU time during {n} of {} \
                 repetitions; too few others remain, so all are reported and the timings of \
                 this run are not valid",
                self.0.len()
            )),
        }
    }

    /// One line on what the run's numbers rest on.
    #[must_use]
    pub fn describe(&self) -> String {
        format!(
            "{} repetitions: {} New-Order, {} Payment, {} Stock-Level latency samples; per-repetition tps {:?}; {:.4} minor faults per transaction",
            self.0.len(),
            self.latency(0).count(),
            self.latency(1).count(),
            self.latency(4).count(),
            self.tps_values().iter().map(|t| t.round()).collect::<Vec<_>>(),
            self.minflt_per_txn(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_repetition_counts_towards_the_end_to_end_numbers() {
        let rep = |wall_s: f64, latency_ns: u64| {
            let mut t = Timing {
                txns: 100,
                wall_s,
                cpu_s: wall_s,
                ..Timing::default()
            };
            for sketch in &mut t.latency {
                for _ in 0..100 {
                    sketch.record(latency_ns);
                }
            }
            t
        };
        // four undisturbed repetitions and one slow one
        let reps = [
            rep(1.0, 1_000_000),
            rep(1.0, 1_000_000),
            rep(1.0, 1_000_000),
            rep(1.0, 1_000_000),
            rep(4.0, 4_000_000),
        ];
        let all = Reps(reps.iter().collect());
        let mut v = Values::new();
        all.end_to_end(&[2.0, 1.0, 3.0], &mut v);
        assert_eq!(v["setup_s"], 2.0);
        assert_eq!(v["tps"], 100.0); // the median repetition
        assert_eq!(v["cpu_us_per_txn"], 8.0 * 1e6 / 500.0); // summed over all five
                                                            // a fifth of the samples are slow, so the p95 is a slow one
        assert!(v["new_order_p95_us"] > 3_900.0, "{}", v["new_order_p95_us"]);
        assert!(v["new_order_p50_us"] < 1_030.0, "{}", v["new_order_p50_us"]);
    }

    #[test]
    fn stolen_repetitions_are_set_aside_while_three_others_remain() {
        let rep = |wall_s: f64, steal_ticks: u64| Timing {
            txns: 100,
            wall_s,
            cpu_s: wall_s,
            steal_ticks,
            host_ticks: 200,
            ..Timing::default()
        };
        let reps = [
            rep(1.0, 0),
            rep(1.0, 2),
            rep(1.0, 6),
            rep(5.0, 60),
            rep(5.0, 80),
        ];
        let all = Reps(reps.iter().collect());
        assert_eq!(all.undisturbed().0.len(), 3); // 6 of 200 ticks is the limit
        let mut v = Values::new();
        all.end_to_end(&[1.0], &mut v);
        assert_eq!(v["tps"], 100.0);
        assert!(all
            .disturbance_note()
            .is_some_and(|n| n.starts_with("2 of 5")));
        // with fewer than three left alone, every repetition is reported
        let few = Reps(reps[2..].iter().collect());
        assert_eq!(few.undisturbed().0.len(), 3);
        assert!(few
            .disturbance_note()
            .is_some_and(|n| n.contains("not valid")));
        assert!(Reps(reps[..2].iter().collect())
            .disturbance_note()
            .is_none());
    }
}
