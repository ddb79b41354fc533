//! Mergeable quantile sketches with a bounded **relative** rank error.
//!
//! The layout follows the DDSketch idea: a value `v ≥ 1` lands in the
//! bucket `i = ⌈log_γ v⌉` with `γ = (1+α)/(1−α)`, so bucket `i` covers
//! `(γ^(i−1), γ^i]` and the bucket's representative value
//! `2·γ^i/(γ+1)` is within relative error `α` of *every* value in the
//! bucket. Quantile extraction walks the cumulative counts to the
//! requested rank and returns that bucket's representative, so the
//! estimate for quantile `q` is within `α` (relative) of the exact
//! sample at rank `⌈q·n⌉`.
//!
//! Unlike a fixed log-scale histogram of a few hundred buckets (25%
//! bucket width), the default `α = 1%` sketch resolves p95/p99 tail
//! movement that coarse buckets smear, and merging is a bucket-wise
//! add — **lossless**: merging per-thread sketches yields
//! bit-identical state to recording every sample through one sketch,
//! in any merge order. That is what lets the parallel driver keep a
//! private sketch per terminal and combine them only at snapshot or
//! window boundaries instead of funneling every sample through a
//! shared slot.
//!
//! Memory: bucket count is `⌈64·ln2 / lnγ⌉ + 2` (≈ 2 221 `u64`s
//! ≈ 17 KiB at `α = 1%`) and covers the whole `u64` range — no
//! collapsing, no reallocation, `record` is one `ln` plus an
//! increment.

/// Default relative accuracy of recorder-managed sketches.
pub const DEFAULT_SKETCH_ALPHA: f64 = 0.01;

/// A mergeable DDSketch-style quantile sketch over `u64` samples.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    /// Relative accuracy bound `α`.
    alpha: f64,
    /// `1 / ln γ`, precomputed for `record`.
    inv_ln_gamma: f64,
    /// `γ = (1+α)/(1−α)`.
    gamma: f64,
    /// Count of zero-valued samples (index −∞ in log space).
    zero: u64,
    /// Counts for buckets `0..`, bucket `i` covering `(γ^(i−1), γ^i]`.
    counts: Box<[u64]>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new(DEFAULT_SKETCH_ALPHA)
    }
}

/// Number of buckets needed to cover `u64` at accuracy `alpha`.
fn bucket_count(inv_ln_gamma: f64) -> usize {
    // ⌈ln(2^64) / ln γ⌉, plus one for the i = 0 bucket
    (64.0 * std::f64::consts::LN_2 * inv_ln_gamma).ceil() as usize + 1
}

impl QuantileSketch {
    /// An empty sketch with relative accuracy `alpha` (clamped to
    /// `[0.0001, 0.25]`).
    #[must_use]
    pub fn new(alpha: f64) -> Self {
        let alpha = alpha.clamp(0.0001, 0.25);
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        let inv_ln_gamma = 1.0 / gamma.ln();
        Self {
            alpha,
            inv_ln_gamma,
            gamma,
            zero: 0,
            counts: vec![0; bucket_count(inv_ln_gamma)].into_boxed_slice(),
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The sketch's relative accuracy bound `α`: quantile estimates are
    /// within `α·v` of the exact sample `v` at the requested rank.
    #[must_use]
    pub fn relative_accuracy(&self) -> f64 {
        self.alpha
    }

    /// Bucket index for a nonzero value.
    #[inline]
    fn index_of(&self, v: u64) -> usize {
        // ⌈log_γ v⌉; v = 1 maps to bucket 0, and the table is sized so
        // u64::MAX stays in range. f64 rounding can shift a value that
        // sits exactly on a bucket boundary by one bucket; the
        // representative of the neighbouring bucket is still within α
        // of such a value, so the error bound survives.
        let i = ((v as f64).ln() * self.inv_ln_gamma).ceil() as isize;
        i.clamp(0, self.counts.len() as isize - 1) as usize
    }

    /// Representative value of bucket `i`, within `α` (relative) of
    /// every value the bucket covers.
    fn value_of(&self, i: usize) -> f64 {
        2.0 * self.gamma.powi(i as i32) / (self.gamma + 1.0)
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        if v == 0 {
            self.zero += 1;
        } else {
            self.counts[self.index_of(v)] += 1;
        }
        self.total += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True before the first sample.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact mean of all samples; NaN when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        self.sum as f64 / self.total as f64
    }

    /// Exact sum of all samples.
    #[must_use]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact maximum sample; 0 when empty.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact minimum sample; `u64::MAX` when empty.
    #[must_use]
    pub fn min(&self) -> u64 {
        self.min
    }

    /// The estimated value at quantile `q ∈ [0, 1]`: within relative
    /// error `α` of the exact sample at rank `⌈q·n⌉`, clamped to the
    /// exact observed `[min, max]` (so `quantile(1.0) == max()` and
    /// `quantile(0.0) == min()` exactly). NaN when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        // the extreme ranks are tracked exactly; return them as-is
        // rather than a bucket representative
        if rank == self.total {
            return self.max as f64;
        }
        if rank == 1 {
            return self.min as f64;
        }
        let mut seen = self.zero;
        if seen >= rank {
            return 0.0;
        }
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return self.value_of(i).clamp(self.min as f64, self.max as f64);
            }
        }
        unreachable!("rank <= total implies a bucket is found");
    }

    /// Merges another sketch into this one. Lossless and
    /// order-independent: the result is bit-identical to recording both
    /// sketches' samples into one, whatever the merge order.
    ///
    /// # Panics
    /// Panics when the accuracies differ (buckets would not align).
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert!(
            (self.alpha - other.alpha).abs() < f64::EPSILON,
            "merging sketches of different accuracy ({} vs {})",
            self.alpha,
            other.alpha
        );
        self.zero += other.zero;
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The window delta `newer − older`, where `older` is an earlier
    /// copy of the same monotonically-growing sketch: bucket-wise
    /// subtraction of counts. The delta's quantiles are exact for the
    /// samples recorded between the two copies (same `α` bound);
    /// its `min`/`max` are bucket-resolution estimates (an earlier
    /// extreme cannot be subtracted out), and its `mean` is exact.
    ///
    /// # Panics
    /// Panics when accuracies differ or `older` is not a prefix of
    /// `self` (some bucket would go negative).
    #[must_use]
    pub fn delta_since(&self, older: &QuantileSketch) -> QuantileSketch {
        assert!(
            (self.alpha - older.alpha).abs() < f64::EPSILON,
            "delta between sketches of different accuracy"
        );
        let mut out = QuantileSketch::new(self.alpha);
        out.zero = self
            .zero
            .checked_sub(older.zero)
            .expect("older sketch is a prefix");
        for ((o, &a), &b) in out
            .counts
            .iter_mut()
            .zip(self.counts.iter())
            .zip(older.counts.iter())
        {
            *o = a.checked_sub(b).expect("older sketch is a prefix");
        }
        out.total = self.total - older.total;
        out.sum = self.sum - older.sum;
        // exact extremes are not recoverable from a subtraction; use
        // the delta's own bucket range (still within α of the true
        // window extremes when they fall in surviving buckets)
        if out.zero > 0 {
            out.min = 0;
        }
        for (i, &c) in out.counts.iter().enumerate() {
            if c > 0 {
                let v = out.value_of(i);
                if (v as u64) < out.min {
                    out.min = out.min.min(v as u64);
                }
                out.max = out.max.max(v.ceil() as u64);
            }
        }
        if out.zero > 0 && out.total == out.zero {
            out.max = 0;
        }
        out
    }

    /// Raw `(bucket_index, count)` pairs for nonempty buckets (the
    /// zero bucket reports as index 0 value via [`Self::quantile`],
    /// not here).
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }
}

/// The summary row exported for one histogram/sketch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistSummary {
    /// Samples recorded.
    pub count: u64,
    /// Exact mean.
    pub mean: f64,
    /// Median estimate (within the sketch's relative accuracy).
    pub p50: f64,
    /// 95th percentile estimate.
    pub p95: f64,
    /// 99th percentile estimate.
    pub p99: f64,
    /// Exact maximum.
    pub max: u64,
}

impl HistSummary {
    /// Summarizes a sketch.
    #[must_use]
    pub fn of(s: &QuantileSketch) -> Self {
        Self {
            count: s.count(),
            mean: s.mean(),
            p50: s.quantile(0.50),
            p95: s.quantile(0.95),
            p99: s.quantile(0.99),
            max: s.max(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// splitmix64: tiny, seedable, good enough for test sample streams.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn f64(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// Asserts every probed quantile of `samples` is within the
    /// sketch's documented relative bound of the exact sample quantile.
    fn assert_rank_error_bound(samples: &mut [u64], alpha: f64, what: &str) {
        let mut s = QuantileSketch::new(alpha);
        for &v in samples.iter() {
            s.record(v);
        }
        samples.sort_unstable();
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999] {
            let exact = exact_quantile(samples, q) as f64;
            let approx = s.quantile(q);
            let err = (approx - exact).abs() / exact.max(1.0);
            assert!(
                err <= alpha * 1.0001,
                "{what} q={q}: approx {approx} vs exact {exact} (err {err:.5} > α {alpha})"
            );
        }
        assert_eq!(s.quantile(1.0), *samples.last().unwrap() as f64);
        assert_eq!(s.quantile(0.0), samples[0] as f64);
        let exact_mean = samples.iter().map(|&v| v as f64).sum::<f64>() / samples.len() as f64;
        assert!((s.mean() - exact_mean).abs() / exact_mean.max(1.0) < 1e-9);
    }

    fn uniform_samples(rng: &mut Rng, n: usize) -> Vec<u64> {
        (0..n).map(|_| rng.next() % 1_000_000).collect()
    }

    fn exponential_samples(rng: &mut Rng, n: usize) -> Vec<u64> {
        // mean 50 µs in ns, a latency-shaped heavy tail
        (0..n)
            .map(|_| (-rng.f64().max(1e-18).ln() * 50_000.0) as u64)
            .collect()
    }

    fn bimodal_samples(rng: &mut Rng, n: usize) -> Vec<u64> {
        // hit-vs-miss latencies: tight cluster at ~2 µs, wide at ~1 ms
        (0..n)
            .map(|_| {
                if rng.f64() < 0.8 {
                    1_500 + rng.next() % 1_000
                } else {
                    800_000 + rng.next() % 400_000
                }
            })
            .collect()
    }

    #[test]
    fn rank_error_bound_holds_across_distributions() {
        let mut rng = Rng(42);
        for alpha in [0.01, 0.02] {
            assert_rank_error_bound(&mut uniform_samples(&mut rng, 20_000), alpha, "uniform");
            assert_rank_error_bound(
                &mut exponential_samples(&mut rng, 20_000),
                alpha,
                "exponential",
            );
            assert_rank_error_bound(&mut bimodal_samples(&mut rng, 20_000), alpha, "bimodal");
        }
    }

    /// CI's seed-matrix variant (`--ignored stress`, TPCC_STRESS_SEED).
    #[test]
    #[ignore = "stress: run with --ignored, seeded via TPCC_STRESS_SEED"]
    fn stress_sketch_rank_error_bound_seed_matrix() {
        let seed = std::env::var("TPCC_STRESS_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(42u64);
        let mut rng = Rng(seed);
        for _ in 0..5 {
            assert_rank_error_bound(&mut uniform_samples(&mut rng, 100_000), 0.01, "uniform");
            assert_rank_error_bound(
                &mut exponential_samples(&mut rng, 100_000),
                0.01,
                "exponential",
            );
            assert_rank_error_bound(&mut bimodal_samples(&mut rng, 100_000), 0.01, "bimodal");
        }
    }

    #[test]
    fn merge_is_lossless_and_order_independent() {
        let mut rng = Rng(7);
        let xs = exponential_samples(&mut rng, 5_000);
        let ys = bimodal_samples(&mut rng, 5_000);
        let (mut a, mut b, mut one) = (
            QuantileSketch::new(0.01),
            QuantileSketch::new(0.01),
            QuantileSketch::new(0.01),
        );
        for &v in &xs {
            a.record(v);
            one.record(v);
        }
        for &v in &ys {
            b.record(v);
            one.record(v);
        }
        // merge(a,b) ≡ merge(b,a) ≡ recording everything in one sketch
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge commutes bit-for-bit");
        assert_eq!(ab, one, "merge is lossless vs. single-sketch record");
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(ab.quantile(q), one.quantile(q), "q={q}");
        }
    }

    #[test]
    fn merge_is_associative() {
        let mut rng = Rng(13);
        let parts: Vec<Vec<u64>> = (0..3).map(|_| uniform_samples(&mut rng, 2_000)).collect();
        let sketch_of = |samples: &[u64]| {
            let mut s = QuantileSketch::new(0.01);
            for &v in samples {
                s.record(v);
            }
            s
        };
        let (a, b, c) = (
            sketch_of(&parts[0]),
            sketch_of(&parts[1]),
            sketch_of(&parts[2]),
        );
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "(a·b)·c == a·(b·c)");
    }

    #[test]
    fn delta_since_recovers_window_quantiles() {
        let mut rng = Rng(21);
        let first = exponential_samples(&mut rng, 4_000);
        let mut second = exponential_samples(&mut rng, 4_000);
        let mut cumulative = QuantileSketch::new(0.01);
        for &v in &first {
            cumulative.record(v);
        }
        let checkpoint = cumulative.clone();
        for &v in &second {
            cumulative.record(v);
        }
        let window = cumulative.delta_since(&checkpoint);
        assert_eq!(window.count(), second.len() as u64);
        second.sort_unstable();
        for q in [0.5, 0.95, 0.99] {
            let exact = exact_quantile(&second, q) as f64;
            let err = (window.quantile(q) - exact).abs() / exact.max(1.0);
            assert!(err <= 0.0101, "window q={q} err {err}");
        }
        let exact_mean = second.iter().map(|&v| v as f64).sum::<f64>() / second.len() as f64;
        assert!((window.mean() - exact_mean).abs() / exact_mean < 1e-9);
    }

    #[test]
    fn zero_and_extreme_values_are_handled() {
        let mut s = QuantileSketch::new(0.01);
        for v in [0u64, 0, 1, u64::MAX] {
            s.record(v);
        }
        assert_eq!(s.count(), 4);
        assert_eq!(s.quantile(0.25), 0.0, "zeros occupy the low ranks");
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), u64::MAX);
        assert_eq!(s.quantile(1.0), u64::MAX as f64, "clamped to exact max");
        // a value of 1 must not be distorted below the exact minimum…
        let one_rank = s.quantile(0.75);
        assert!((one_rank - 1.0).abs() <= 0.011, "v=1 estimate {one_rank}");
    }

    #[test]
    fn empty_sketch_is_nan() {
        let s = QuantileSketch::default();
        assert!(s.mean().is_nan());
        assert!(s.quantile(0.5).is_nan());
        assert_eq!(s.count(), 0);
        assert_eq!(s.max(), 0);
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "different accuracy")]
    fn merging_mismatched_accuracies_panics() {
        let mut a = QuantileSketch::new(0.01);
        a.merge(&QuantileSketch::new(0.02));
    }
}
