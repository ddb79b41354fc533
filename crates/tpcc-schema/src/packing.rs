//! Tuple→page placement: sequential versus hotness-optimized loading
//! (paper §3 and §4).
//!
//! Sequential loading packs tuples in key order, scattering the NURand
//! hot tuples across every page of the relation. The optimized load
//! sorts each *load group* (a warehouse's stock rows, a district's
//! customers, the whole item relation) from hottest to coldest before
//! packing — legal under TPC-C clause 1.4.1 because the access
//! probabilities are known a priori and static.

use crate::relation::{PageSize, Relation};
use std::sync::Arc;
use tpcc_rand::{Mixture, Pmf};

/// The two loading strategies the paper compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Packing {
    /// Key-ordered load: tuple `k` of a group lands in slot `k`.
    Sequential,
    /// Hotness-ordered load: slots assigned hottest-first (§3's
    /// "optimized packing of tuples into pages").
    HotnessSorted,
}

/// Maps dense tuple ordinals of one relation to 0-based page indexes
/// within that relation's page space.
///
/// Tuples are organised in *groups* of `group_size` (each group starts on
/// a fresh page), and an optional permutation reorders tuples within the
/// group before they are packed `tuples_per_page` to a page.
#[derive(Debug, Clone)]
pub struct RelationLayout {
    relation: Relation,
    tuples_per_page: u64,
    group_size: u64,
    pages_per_group: u64,
    /// `slot_of_local[local_id] = slot` within the group; `None` ⇒ identity.
    slot_of_local: Option<Arc<Vec<u32>>>,
}

impl RelationLayout {
    /// Sequential layout for `relation` with the given load-group size.
    ///
    /// # Panics
    /// Panics if `group_size == 0` or exceeds `u32::MAX`.
    #[must_use]
    pub fn sequential(relation: Relation, page_size: PageSize, group_size: u64) -> Self {
        Self::build(relation, page_size, group_size, None)
    }

    /// Hotness-sorted layout: `hotness` is the access PMF over the
    /// `group_size` local ids of one group (identical for every group).
    ///
    /// # Panics
    /// Panics if the PMF length differs from `group_size`.
    #[must_use]
    pub fn hotness_sorted(
        relation: Relation,
        page_size: PageSize,
        group_size: u64,
        hotness: &Pmf,
    ) -> Self {
        assert_eq!(
            hotness.len() as u64,
            group_size,
            "hotness PMF must cover exactly one load group"
        );
        let ranking = hotness.hotness_ranking();
        let first = hotness.first_id();
        let mut slot_of_local = vec![0u32; group_size as usize];
        for (slot, &id) in ranking.iter().enumerate() {
            slot_of_local[(id - first) as usize] = u32::try_from(slot).expect("group fits in u32");
        }
        Self::build(
            relation,
            page_size,
            group_size,
            Some(Arc::new(slot_of_local)),
        )
    }

    /// Builds the layout the paper uses for a *static* relation.
    ///
    /// Load groups: Stock — one warehouse (hotness = the item NURand
    /// PMF); Customer — one district (hotness = the id/name mixture);
    /// Item — the whole relation; Warehouse and District — trivially
    /// sequential (they always fit in the buffer).
    ///
    /// `item_pmf` supplies the `NU(8191, 1, 100000)` distribution so
    /// callers can share one exact (or Monte-Carlo) enumeration across
    /// relations.
    ///
    /// # Panics
    /// Panics if `relation` is one of the growing relations (those are
    /// append-ordered; see [`RelationLayout::append_page`]) or if
    /// `item_pmf` does not have 100 000 entries.
    #[must_use]
    pub fn for_static(
        relation: Relation,
        packing: Packing,
        page_size: PageSize,
        item_pmf: &Pmf,
    ) -> Self {
        use crate::relation::{CUSTOMERS_PER_DISTRICT, ITEMS, STOCK_PER_WAREHOUSE};
        assert!(
            relation.is_static(),
            "{} grows at run time",
            relation.name()
        );
        match (relation, packing) {
            (Relation::Warehouse | Relation::District, _) => {
                // One group: hot enough to be irrelevant either way.
                Self::sequential(relation, page_size, u64::from(u32::MAX))
            }
            (Relation::Stock, Packing::Sequential) => {
                Self::sequential(relation, page_size, STOCK_PER_WAREHOUSE)
            }
            (Relation::Stock, Packing::HotnessSorted) => {
                assert_eq!(item_pmf.len() as u64, ITEMS, "item PMF must cover 100K ids");
                Self::hotness_sorted(relation, page_size, STOCK_PER_WAREHOUSE, item_pmf)
            }
            (Relation::Item, Packing::Sequential) => Self::sequential(relation, page_size, ITEMS),
            (Relation::Item, Packing::HotnessSorted) => {
                assert_eq!(item_pmf.len() as u64, ITEMS, "item PMF must cover 100K ids");
                Self::hotness_sorted(relation, page_size, ITEMS, item_pmf)
            }
            (Relation::Customer, Packing::Sequential) => {
                Self::sequential(relation, page_size, CUSTOMERS_PER_DISTRICT)
            }
            (Relation::Customer, Packing::HotnessSorted) => {
                let mixture = Mixture::customer_default().exact_pmf();
                Self::hotness_sorted(relation, page_size, CUSTOMERS_PER_DISTRICT, &mixture)
            }
            (r, _) => unreachable!("static relation {} handled above", r.name()),
        }
    }

    fn build(
        relation: Relation,
        page_size: PageSize,
        group_size: u64,
        slot_of_local: Option<Arc<Vec<u32>>>,
    ) -> Self {
        assert!(group_size > 0, "group size must be positive");
        assert!(group_size <= u64::from(u32::MAX), "group too large");
        let tuples_per_page = relation.tuples_per_page(page_size);
        Self {
            relation,
            tuples_per_page,
            group_size,
            pages_per_group: group_size.div_ceil(tuples_per_page),
            slot_of_local,
        }
    }

    /// The relation this layout places.
    #[must_use]
    pub fn relation(&self) -> Relation {
        self.relation
    }

    /// Whole tuples per page.
    #[must_use]
    pub fn tuples_per_page(&self) -> u64 {
        self.tuples_per_page
    }

    /// Page index (0-based, within this relation) holding tuple
    /// `ordinal`.
    #[inline]
    #[must_use]
    pub fn page_of(&self, ordinal: u64) -> u64 {
        let group = ordinal / self.group_size;
        let local = ordinal % self.group_size;
        let slot = match &self.slot_of_local {
            Some(perm) => u64::from(perm[local as usize]),
            None => local,
        };
        group * self.pages_per_group + slot / self.tuples_per_page
    }

    /// Total pages for a relation holding `cardinality` tuples.
    #[must_use]
    pub fn total_pages(&self, cardinality: u64) -> u64 {
        if cardinality == 0 {
            return 0;
        }
        let full_groups = cardinality / self.group_size;
        let tail = cardinality % self.group_size;
        full_groups * self.pages_per_group + tail.div_ceil(self.tuples_per_page)
    }

    /// Page index for the `counter`-th appended tuple of a growing
    /// relation (orders, order-lines, history, new-orders are written in
    /// arrival order).
    #[inline]
    #[must_use]
    pub fn append_page(relation: Relation, page_size: PageSize, counter: u64) -> u64 {
        counter / relation.tuples_per_page(page_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpcc_rand::{NuRand, Xoshiro256};

    #[test]
    fn sequential_layout_is_chunked() {
        let l = RelationLayout::sequential(Relation::Stock, PageSize::K4, 100_000);
        assert_eq!(l.page_of(0), 0);
        assert_eq!(l.page_of(12), 0);
        assert_eq!(l.page_of(13), 1);
        // second warehouse starts a fresh page group: ceil(100000/13)=7693
        assert_eq!(l.page_of(100_000), 7693);
    }

    #[test]
    fn total_pages_counts_partial_groups() {
        let l = RelationLayout::sequential(Relation::Stock, PageSize::K4, 100_000);
        assert_eq!(l.total_pages(100_000), 7693);
        assert_eq!(l.total_pages(200_000), 2 * 7693);
        assert_eq!(l.total_pages(100_013), 7693 + 1);
        assert_eq!(l.total_pages(0), 0);
    }

    #[test]
    fn hotness_layout_puts_hottest_tuples_on_page_zero() {
        // 6 ids, 2 per page, id 4 hottest then id 1.
        let pmf = Pmf::from_weights(0, &[0.1, 0.3, 0.05, 0.05, 0.4, 0.1]);
        let l = RelationLayout::hotness_sorted(Relation::Customer, PageSize::K4, 6, &pmf);
        assert_eq!(l.page_of(4), 0);
        assert_eq!(l.page_of(1), 0);
        // groups repeat the permutation: one page per 6-tuple group
        assert_eq!(l.page_of(6 + 4), 1);
    }

    #[test]
    fn hotness_layout_is_a_permutation() {
        let nu = NuRand::new(63, 0, 999);
        let pmf = Pmf::exact_nurand(&nu);
        let l = RelationLayout::hotness_sorted(Relation::Item, PageSize::K4, 1000, &pmf);
        // every page receives exactly tuples_per_page tuples (except tail)
        let tpp = l.tuples_per_page() as usize;
        let mut per_page = std::collections::HashMap::new();
        for t in 0..1000u64 {
            *per_page.entry(l.page_of(t)).or_insert(0usize) += 1;
        }
        let n_pages = 1000usize.div_ceil(tpp);
        assert_eq!(per_page.len(), n_pages);
        for (page, count) in per_page {
            if page as usize == n_pages - 1 {
                assert!(count <= tpp);
            } else {
                assert_eq!(count, tpp, "page {page}");
            }
        }
    }

    #[test]
    fn hotness_beats_sequential_on_page_skew() {
        // Under the NURand skew, the hottest page of the optimized
        // layout must carry more probability mass than the hottest page
        // of the sequential layout.
        let nu = NuRand::new(255, 0, 9999);
        let pmf = Pmf::exact_nurand(&nu);
        let seq = pmf.pack_sequential(13);
        let opt = pmf.pack_hotness_sorted(13);
        let max_seq = seq.probs().iter().cloned().fold(0.0, f64::max);
        let max_opt = opt.probs().iter().cloned().fold(0.0, f64::max);
        assert!(max_opt > 2.0 * max_seq, "opt {max_opt} vs seq {max_seq}");
    }

    #[test]
    fn for_static_monte_carlo_item_pmf_accepted() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        let approx = Pmf::monte_carlo(&NuRand::item_id(), 200_000, &mut rng);
        let l = RelationLayout::for_static(
            Relation::Stock,
            Packing::HotnessSorted,
            PageSize::K4,
            &approx,
        );
        assert_eq!(l.total_pages(200_000), 2 * 7693);
    }

    #[test]
    #[should_panic(expected = "grows at run time")]
    fn growing_relation_rejected() {
        let pmf = Pmf::uniform(1, 100_000);
        let _ =
            RelationLayout::for_static(Relation::Order, Packing::Sequential, PageSize::K4, &pmf);
    }

    #[test]
    fn append_pages_advance_with_counter() {
        assert_eq!(
            RelationLayout::append_page(Relation::Order, PageSize::K4, 0),
            0
        );
        assert_eq!(
            RelationLayout::append_page(Relation::Order, PageSize::K4, 169),
            0
        );
        assert_eq!(
            RelationLayout::append_page(Relation::Order, PageSize::K4, 170),
            1
        );
    }
}
