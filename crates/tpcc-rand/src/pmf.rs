//! Probability mass functions over contiguous id ranges.
//!
//! The paper characterizes NURand by its PMF (Figures 3, 4, 6). We
//! support both the paper's Monte-Carlo route and exact enumeration, and
//! the tuple→page aggregations that turn a tuple-level PMF into a
//! page-level one (§3: sequential packing smears the skew; hotness-sorted
//! packing preserves it).

use crate::nurand::NuRand;
use crate::rng::Xoshiro256;

/// A discrete distribution over the ids `first_id ..= first_id + len − 1`.
///
/// Probabilities are kept normalized; constructors renormalize from raw
/// counts or weights.
///
/// ```
/// use tpcc_rand::{NuRand, Pmf};
///
/// // the exact distribution, no sampling noise
/// let pmf = Pmf::exact_nurand(&NuRand::new(15, 1, 64));
/// assert!((pmf.probs().iter().sum::<f64>() - 1.0).abs() < 1e-12);
/// // page-level view: 8 tuples per page, sequential load order
/// let pages = pmf.pack_sequential(8);
/// assert_eq!(pages.len(), 8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Pmf {
    first_id: u64,
    probs: Vec<f64>,
}

impl Pmf {
    /// Builds a PMF from raw observation counts starting at `first_id`.
    ///
    /// # Panics
    /// Panics if `counts` is empty or sums to zero.
    #[must_use]
    pub fn from_counts(first_id: u64, counts: &[u64]) -> Self {
        assert!(!counts.is_empty(), "PMF needs at least one id");
        let total: u128 = counts.iter().map(|&c| u128::from(c)).sum();
        assert!(total > 0, "PMF counts sum to zero");
        let probs = counts.iter().map(|&c| c as f64 / total as f64).collect();
        Self { first_id, probs }
    }

    /// Builds a PMF from non-negative weights, renormalizing.
    ///
    /// # Panics
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// value, or sums to zero.
    #[must_use]
    pub fn from_weights(first_id: u64, weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "PMF needs at least one id");
        let mut total = 0.0;
        for &w in weights {
            assert!(w.is_finite() && w >= 0.0, "invalid PMF weight {w}");
            total += w;
        }
        assert!(total > 0.0, "PMF weights sum to zero");
        let probs = weights.iter().map(|&w| w / total).collect();
        Self { first_id, probs }
    }

    /// The uniform distribution over `len` ids — the TPC-A baseline the
    /// paper contrasts against.
    ///
    /// # Panics
    /// Panics if `len == 0`.
    #[must_use]
    pub fn uniform(first_id: u64, len: usize) -> Self {
        assert!(len > 0, "PMF needs at least one id");
        Self {
            first_id,
            probs: vec![1.0 / len as f64; len],
        }
    }

    /// Exact PMF of a NURand distribution: the share of all
    /// `(rand(0,A), rand(x,y))` pairs behind each id — zero noise.
    ///
    /// When `A + 1` is a power of two `2^k` (every spec and engine
    /// constant) this takes `O(range + k · 2^k)`: an aligned block of
    /// `2^k` wide draws with base `b` puts `3^popcount(u)` pairs on the
    /// OR value `b + u` (each set bit of `u` comes from the narrow draw,
    /// the wide one or both), and a partial end block is a subset sum
    /// over the wide draws it holds. Any other `A` enumerates every pair,
    /// `O(A · range)`.
    #[must_use]
    pub fn exact_nurand(nu: &NuRand) -> Self {
        let len = nu.range_len() as usize;
        let mut counts = vec![0u64; len];
        match nu.a.checked_add(1).filter(|w| w.is_power_of_two()) {
            Some(width) => {
                let mask = width - 1;
                let full = or_pair_counts(width, 0, mask);
                let mut base = nu.x & !mask;
                loop {
                    let (first, last) = (nu.x.max(base) - base, nu.y.min(base | mask) - base);
                    let partial;
                    let pairs = if first == 0 && last == mask {
                        &full
                    } else {
                        partial = or_pair_counts(width, first, last);
                        &partial
                    };
                    for (u, &n) in pairs.iter().enumerate() {
                        counts[(nu.finish(base | u as u64) - nu.x) as usize] += n;
                    }
                    match base.checked_add(width) {
                        Some(next) if next <= nu.y => base = next,
                        _ => break,
                    }
                }
            }
            None => {
                for narrow in 0..=nu.a {
                    for wide in nu.x..=nu.y {
                        counts[(nu.combine(narrow, wide) - nu.x) as usize] += 1;
                    }
                }
            }
        }
        Self::from_counts(nu.x, &counts)
    }

    /// Monte-Carlo PMF estimate from `samples` draws (the paper used 10⁹).
    #[must_use]
    pub fn monte_carlo(nu: &NuRand, samples: u64, rng: &mut Xoshiro256) -> Self {
        let len = nu.range_len() as usize;
        let mut counts = vec![0u64; len];
        for _ in 0..samples {
            let v = nu.sample(rng);
            counts[(v - nu.x) as usize] += 1;
        }
        Self::from_counts(nu.x, &counts)
    }

    /// First id of the support.
    #[must_use]
    pub fn first_id(&self) -> u64 {
        self.first_id
    }

    /// Number of ids in the support.
    #[must_use]
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// Always false: constructors reject empty supports.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Probability of drawing `id`; zero outside the support.
    #[must_use]
    pub fn prob(&self, id: u64) -> f64 {
        if id < self.first_id {
            return 0.0;
        }
        self.probs
            .get((id - self.first_id) as usize)
            .copied()
            .unwrap_or(0.0)
    }

    /// The normalized probability vector, indexed from `first_id`.
    #[must_use]
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Iterator of `(id, probability)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.probs
            .iter()
            .enumerate()
            .map(move |(i, &p)| (self.first_id + i as u64, p))
    }

    /// Aggregates ids into groups (e.g. tuples into pages) via `group_of`,
    /// producing a PMF over group indices `0 .. n_groups`.
    ///
    /// # Panics
    /// Panics if `group_of` maps any id outside `0 .. n_groups`.
    #[must_use]
    pub fn aggregate<F>(&self, n_groups: usize, mut group_of: F) -> Pmf
    where
        F: FnMut(u64) -> usize,
    {
        assert!(n_groups > 0, "aggregation needs at least one group");
        let mut weights = vec![0.0f64; n_groups];
        for (id, p) in self.iter() {
            let g = group_of(id);
            assert!(
                g < n_groups,
                "group_of({id}) = {g} out of range 0..{n_groups}"
            );
            weights[g] += p;
        }
        Pmf::from_weights(0, &weights)
    }

    /// Page-level PMF under *sequential packing*: id `k` (0-based within
    /// the support) goes to page `k / tuples_per_page`.
    ///
    /// # Panics
    /// Panics if `tuples_per_page == 0`.
    #[must_use]
    pub fn pack_sequential(&self, tuples_per_page: usize) -> Pmf {
        assert!(tuples_per_page > 0, "tuples_per_page must be positive");
        let n_pages = self.len().div_ceil(tuples_per_page);
        let first = self.first_id;
        self.aggregate(n_pages, |id| ((id - first) as usize) / tuples_per_page)
    }

    /// Page-level PMF under *optimized packing*: tuples are sorted from
    /// hottest to coldest before being packed, so each page holds tuples
    /// of similar hotness (§3, bottom curve of Figure 5).
    ///
    /// # Panics
    /// Panics if `tuples_per_page == 0`.
    #[must_use]
    pub fn pack_hotness_sorted(&self, tuples_per_page: usize) -> Pmf {
        assert!(tuples_per_page > 0, "tuples_per_page must be positive");
        let mut sorted = self.probs.clone();
        // hottest first
        sorted.sort_unstable_by(|a, b| b.partial_cmp(a).expect("finite probs"));
        let n_pages = sorted.len().div_ceil(tuples_per_page);
        let mut weights = vec![0.0f64; n_pages];
        for (k, p) in sorted.iter().enumerate() {
            weights[k / tuples_per_page] += p;
        }
        Pmf::from_weights(0, &weights)
    }

    /// The permutation that sorts the support from hottest to coldest;
    /// `result[rank] = id`. This is the tuple→slot assignment a DBA would
    /// use to load the relation in optimized order.
    #[must_use]
    pub fn hotness_ranking(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = (self.first_id..self.first_id + self.len() as u64).collect();
        // stable: equally hot ids keep ascending id order
        ids.sort_by(|&a, &b| {
            let p = |id: u64| self.probs[(id - self.first_id) as usize];
            p(b).total_cmp(&p(a))
        });
        ids
    }

    /// Total-variation distance to another PMF on the same support,
    /// `½ Σ |p_i − q_i|` — used by tests to compare Monte-Carlo runs to
    /// exact enumerations.
    ///
    /// # Panics
    /// Panics if the supports differ.
    #[must_use]
    pub fn total_variation(&self, other: &Pmf) -> f64 {
        assert_eq!(self.first_id, other.first_id, "support mismatch");
        assert_eq!(self.len(), other.len(), "support mismatch");
        0.5 * self
            .probs
            .iter()
            .zip(&other.probs)
            .map(|(p, q)| (p - q).abs())
            .sum::<f64>()
    }
}

/// `result[u]` = how many pairs of a narrow draw in `0 .. width` and a
/// wide low part in `first ..= last` OR to `u` (`width` a power of
/// two). A low part `lo ⊆ u` pairs with the `2^popcount(lo)` narrow
/// draws that fill in `u`'s other bits, so the result is the subset sum
/// of those weights, one pass per bit.
fn or_pair_counts(width: u64, first: u64, last: u64) -> Vec<u64> {
    let mut counts: Vec<u64> = (0..width)
        .map(|lo| {
            if (first..=last).contains(&lo) {
                1 << lo.count_ones()
            } else {
                0
            }
        })
        .collect();
    let mut bit = 1;
    while bit < width {
        for u in 0..width as usize {
            if u & bit as usize != 0 {
                counts[u] += counts[u ^ bit as usize];
            }
        }
        bit <<= 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_normalized(p: &Pmf) {
        let s: f64 = p.probs().iter().sum();
        assert!((s - 1.0).abs() < 1e-9, "sum = {s}");
    }

    #[test]
    fn from_counts_normalizes() {
        let p = Pmf::from_counts(1, &[1, 3]);
        assert_normalized(&p);
        assert!((p.prob(1) - 0.25).abs() < 1e-12);
        assert!((p.prob(2) - 0.75).abs() < 1e-12);
        assert_eq!(p.prob(0), 0.0);
        assert_eq!(p.prob(3), 0.0);
    }

    #[test]
    #[should_panic(expected = "sum to zero")]
    fn zero_counts_rejected() {
        let _ = Pmf::from_counts(0, &[0, 0]);
    }

    #[test]
    fn uniform_is_flat() {
        let p = Pmf::uniform(10, 4);
        assert_normalized(&p);
        for id in 10..14 {
            assert!((p.prob(id) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn exact_enumeration_small_case() {
        // NU(1, 0, 1): narrow ∈ {0,1}, wide ∈ {0,1}; OR = 0 once, 1 thrice.
        let nu = NuRand::new(1, 0, 1);
        let p = Pmf::exact_nurand(&nu);
        assert!((p.prob(0) - 0.25).abs() < 1e-12);
        assert!((p.prob(1) - 0.75).abs() < 1e-12);
    }

    /// Every pair, counted one at a time: the reference the block
    /// enumeration must reproduce.
    fn brute_force(nu: &NuRand) -> Pmf {
        let mut counts = vec![0u64; nu.range_len() as usize];
        for narrow in 0..=nu.a {
            for wide in nu.x..=nu.y {
                counts[(nu.combine(narrow, wide) - nu.x) as usize] += 1;
            }
        }
        Pmf::from_counts(nu.x, &counts)
    }

    #[test]
    fn block_enumeration_equals_brute_force() {
        for nu in [
            NuRand::new(255, 0, 999),
            NuRand::new(1023, 0, 2999),
            NuRand::new(7, 3, 50).with_c(5),
            NuRand::new(63, 5, 700).with_paper_modulus(),
            // the narrow draw wider than the whole range
            NuRand::new(511, 0, 299),
        ] {
            assert_eq!(Pmf::exact_nurand(&nu), brute_force(&nu), "{nu:?}");
        }
        // an A + 1 that is no power of two takes the brute-force path
        let odd = NuRand::new(6, 1, 40);
        assert_eq!(Pmf::exact_nurand(&odd), brute_force(&odd));
    }

    #[test]
    fn monte_carlo_approaches_exact() {
        let nu = NuRand::new(15, 1, 64);
        let exact = Pmf::exact_nurand(&nu);
        let mut rng = Xoshiro256::seed_from_u64(4);
        let mc = Pmf::monte_carlo(&nu, 400_000, &mut rng);
        assert!(
            exact.total_variation(&mc) < 0.01,
            "tv = {}",
            exact.total_variation(&mc)
        );
    }

    #[test]
    fn sequential_packing_sums_chunks() {
        let p = Pmf::from_weights(1, &[0.1, 0.2, 0.3, 0.4]);
        let pages = p.pack_sequential(2);
        assert_eq!(pages.len(), 2);
        assert!((pages.prob(0) - 0.3).abs() < 1e-12);
        assert!((pages.prob(1) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn sequential_packing_partial_last_page() {
        let p = Pmf::uniform(0, 5);
        let pages = p.pack_sequential(2);
        assert_eq!(pages.len(), 3);
        assert!((pages.prob(2) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn hotness_packing_concentrates_mass() {
        // Alternating hot/cold tuples: sequential packing flattens the
        // page distribution; hotness packing keeps it skewed.
        let weights: Vec<f64> = (0..8).map(|i| if i % 2 == 0 { 0.9 } else { 0.1 }).collect();
        let p = Pmf::from_weights(0, &weights);
        let seq = p.pack_sequential(2);
        let opt = p.pack_hotness_sorted(2);
        let seq_max = seq.probs().iter().cloned().fold(0.0, f64::max);
        let opt_max = opt.probs().iter().cloned().fold(0.0, f64::max);
        assert!(opt_max > seq_max, "opt {opt_max} vs seq {seq_max}");
        assert_normalized(&seq);
        assert_normalized(&opt);
    }

    #[test]
    fn hotness_ranking_is_a_permutation_sorted_by_prob() {
        let p = Pmf::from_weights(5, &[0.1, 0.4, 0.2, 0.3]);
        let rank = p.hotness_ranking();
        assert_eq!(rank, vec![6, 8, 7, 5]);
    }

    #[test]
    fn aggregate_panics_on_bad_group() {
        let p = Pmf::uniform(0, 4);
        let r = std::panic::catch_unwind(|| p.aggregate(2, |_| 2));
        assert!(r.is_err());
    }

    #[test]
    fn total_variation_zero_on_self() {
        let nu = NuRand::new(7, 1, 32);
        let p = Pmf::exact_nurand(&nu);
        assert_eq!(p.total_variation(&p), 0.0);
    }
}
