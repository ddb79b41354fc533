//! The TPC-C non-uniform random number function `NURand` (paper §3, Eq. 1).
//!
//! ```text
//! NURand(A, x, y) = (((rand(0, A) | rand(x, y)) + C) % (y − x + 1)) + x
//! ```
//!
//! The bitwise OR of a narrow and a wide uniform variable biases the low
//! `⌈log₂ A⌉` bits towards 1, producing a periodic "hot band" pattern with
//! `⌊(y − x + 1) / (A + 1)⌋` cycles across the id range (12 cycles for the
//! stock/item distribution `NU(8191, 1, 100000)`).
//!
//! The paper's Eq. 1 prints the modulus as `(y − x)`; the TPC-C
//! specification — and the paper's own use of ids spanning the full
//! closed interval — require `(y − x + 1)`. We implement the spec form by
//! default and keep the paper's literal form available behind
//! [`NuRand::with_paper_modulus`] so the difference can be measured.

use crate::rng::Xoshiro256;

/// A fully-specified `NURand(A, x, y)` distribution with constant `C`.
///
/// ```
/// use tpcc_rand::{NuRand, Xoshiro256};
///
/// let nu = NuRand::item_id(); // NU(8191, 1, 100000)
/// let mut rng = Xoshiro256::seed_from_u64(7);
/// let id = nu.sample(&mut rng);
/// assert!((1..=100_000).contains(&id));
/// assert_eq!(nu.cycles(), 12); // the 12 hot bands of Figure 3
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NuRand {
    /// Bit-mask-ish width constant `A` (8191 for items, 1023 for
    /// customer ids, 255 for customer last names).
    pub a: u64,
    /// Inclusive lower bound of the id range.
    pub x: u64,
    /// Inclusive upper bound of the id range.
    pub y: u64,
    /// The run-time constant `C ∈ [0, A]`; the paper fixes `C = 0`.
    pub c: u64,
    /// Use the paper's literal `% (y − x)` instead of the spec's
    /// `% (y − x + 1)`.
    paper_modulus: bool,
}

impl NuRand {
    /// Creates `NURand(a, x, y)` with `C = 0`, the paper's choice.
    ///
    /// # Panics
    /// Panics if `x > y` or if the paper-modulus variant would divide by
    /// zero (`x == y`).
    #[must_use]
    pub fn new(a: u64, x: u64, y: u64) -> Self {
        assert!(x <= y, "NURand requires x <= y, got [{x}, {y}]");
        Self {
            a,
            x,
            y,
            c: 0,
            paper_modulus: false,
        }
    }

    /// The stock/item id distribution `NU(8191, 1, 100000)` (§2.2).
    #[must_use]
    pub fn item_id() -> Self {
        Self::new(8191, 1, 100_000)
    }

    /// The customer-id distribution `NU(1023, 1, 3000)` (§2.2).
    #[must_use]
    pub fn customer_id() -> Self {
        Self::new(1023, 1, 3000)
    }

    /// One of the paper's three by-name distributions
    /// `NU(255, lbound, ubound)` with `(lbound, ubound)` ∈
    /// {(1,1000), (1001,2000), (2001,3000)} chosen by `third` ∈ {0,1,2}.
    ///
    /// # Panics
    /// Panics if `third > 2`.
    #[must_use]
    pub fn customer_name_band(third: u8) -> Self {
        let (lo, hi) = match third {
            0 => (1, 1000),
            1 => (1001, 2000),
            2 => (2001, 3000),
            _ => panic!("customer name band must be 0, 1 or 2, got {third}"),
        };
        Self::new(255, lo, hi)
    }

    /// Sets the constant `C` (clause 2.1.6 allows any value in `[0, A]`).
    ///
    /// # Panics
    /// Panics if `c > a`.
    #[must_use]
    pub fn with_c(mut self, c: u64) -> Self {
        assert!(
            c <= self.a,
            "C must lie in [0, A] = [0, {}], got {c}",
            self.a
        );
        self.c = c;
        self
    }

    /// Switches to the paper's literal `% (y − x)` modulus (Eq. 1).
    ///
    /// # Panics
    /// Panics if `x == y` (modulo zero).
    #[must_use]
    pub fn with_paper_modulus(mut self) -> Self {
        assert!(
            self.y > self.x,
            "paper modulus (y - x) is zero for degenerate range"
        );
        self.paper_modulus = true;
        self
    }

    /// Number of ids in the range (`y − x + 1`).
    #[must_use]
    pub fn range_len(&self) -> u64 {
        self.y - self.x + 1
    }

    /// Number of full hot/cold cycles the PMF exhibits,
    /// `⌊range / (A + 1)⌋` (the paper reports 12 for the stock relation).
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.range_len() / (self.a + 1)
    }

    /// Draws one id.
    #[inline]
    pub fn sample(&self, rng: &mut Xoshiro256) -> u64 {
        let narrow = rng.uniform_inclusive(0, self.a);
        let wide = rng.uniform_inclusive(self.x, self.y);
        self.combine(narrow, wide)
    }

    /// The deterministic core of NURand: combines the two uniform draws.
    ///
    /// Exposed so the exact-PMF enumerator can iterate every `(narrow,
    /// wide)` pair without duplicating the formula.
    #[inline]
    #[must_use]
    pub fn combine(&self, narrow: u64, wide: u64) -> u64 {
        self.finish(narrow | wide)
    }

    /// The id an OR value `narrow | wide` maps to: add C, reduce by the
    /// modulus, shift by x.
    #[inline]
    pub(crate) fn finish(&self, or: u64) -> u64 {
        let modulus = if self.paper_modulus {
            self.y - self.x
        } else {
            self.y - self.x + 1
        };
        (or + self.c) % modulus + self.x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Xoshiro256 {
        Xoshiro256::seed_from_u64(0xDEAD_BEEF)
    }

    #[test]
    fn samples_stay_in_range() {
        let nu = NuRand::item_id();
        let mut r = rng();
        for _ in 0..100_000 {
            let v = nu.sample(&mut r);
            assert!((1..=100_000).contains(&v));
        }
    }

    #[test]
    fn customer_bands_cover_their_third() {
        let mut r = rng();
        for band in 0..3u8 {
            let nu = NuRand::customer_name_band(band);
            let lo = u64::from(band) * 1000 + 1;
            let hi = lo + 999;
            for _ in 0..10_000 {
                let v = nu.sample(&mut r);
                assert!((lo..=hi).contains(&v), "band {band} produced {v}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "band must be 0, 1 or 2")]
    fn invalid_band_panics() {
        let _ = NuRand::customer_name_band(3);
    }

    #[test]
    fn cycles_match_paper() {
        assert_eq!(NuRand::item_id().cycles(), 12);
        assert_eq!(NuRand::customer_id().cycles(), 2);
    }

    #[test]
    fn skew_favors_high_or_density_ids() {
        // Id 8192 maps back to OR-value 8191 = 0x1FFF (all 13 low bits
        // set — maximal OR density), while id 8193 maps to 8192 = 0x2000
        // (13 low zero bits — minimal density). The former must dominate.
        let nu = NuRand::item_id();
        let mut r = rng();
        let (mut hot, mut cold) = (0u32, 0u32);
        for _ in 0..2_000_000 {
            match nu.sample(&mut r) {
                8192 => hot += 1,
                8193 => cold += 1,
                _ => {}
            }
        }
        assert!(
            hot > 10 * cold.max(1),
            "expected strong skew, got hot={hot} cold={cold}"
        );
    }

    #[test]
    fn c_shifts_the_distribution() {
        let base = NuRand::new(15, 0, 63);
        let shifted = NuRand::new(15, 0, 63).with_c(5);
        // combine is a pure shift mod range
        for narrow in 0..=15 {
            for wide in 0..=63 {
                let b = base.combine(narrow, wide);
                let s = shifted.combine(narrow, wide);
                assert_eq!((b + 5) % 64, s);
            }
        }
    }

    #[test]
    #[should_panic(expected = "C must lie in [0, A]")]
    fn c_above_a_rejected() {
        let _ = NuRand::new(15, 0, 63).with_c(16);
    }

    #[test]
    fn paper_modulus_never_yields_y() {
        // With `% (y - x)` the value y is unreachable when C = 0 —
        // exactly the off-by-one the spec's +1 fixes.
        let nu = NuRand::new(7, 1, 100).with_paper_modulus();
        let mut r = rng();
        for _ in 0..200_000 {
            assert_ne!(nu.sample(&mut r), 100);
        }
    }
}
