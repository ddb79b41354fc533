//! Relation catalogue: Table 1 of the paper.

/// Customers per district (clause 4.3 population rules).
pub const CUSTOMERS_PER_DISTRICT: u64 = 3000;
/// Districts per warehouse.
pub const DISTRICTS_PER_WAREHOUSE: u64 = 10;
/// Rows in the (non-scaling) Item relation.
pub const ITEMS: u64 = 100_000;
/// Stock rows per warehouse (one per item).
pub const STOCK_PER_WAREHOUSE: u64 = ITEMS;
/// Distinct customer last names per district; the remaining 2000
/// customers reuse these names, so a by-name lookup matches 3 rows on
/// average (paper §2.2, Payment transaction).
pub const UNIQUE_NAMES_PER_DISTRICT: u64 = 1000;

/// The nine TPC-C relations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Relation {
    /// One row per warehouse (89 bytes).
    Warehouse,
    /// Ten rows per warehouse (95 bytes).
    District,
    /// 30K rows per warehouse (655 bytes).
    Customer,
    /// 100K rows per warehouse (306 bytes).
    Stock,
    /// Fixed 100K rows (82 bytes).
    Item,
    /// Grows: one row per New-Order transaction (24 bytes).
    Order,
    /// Grows/shrinks: pending orders awaiting delivery (8 bytes).
    NewOrder,
    /// Grows: one row per ordered item (54 bytes).
    OrderLine,
    /// Grows: one row per Payment transaction (46 bytes).
    History,
}

impl Relation {
    /// All nine relations in Table 1 order.
    pub const ALL: [Relation; 9] = [
        Relation::Warehouse,
        Relation::District,
        Relation::Customer,
        Relation::Stock,
        Relation::Item,
        Relation::Order,
        Relation::NewOrder,
        Relation::OrderLine,
        Relation::History,
    ];

    /// Fixed tuple length in bytes (Table 1).
    #[must_use]
    pub const fn tuple_len(self) -> u64 {
        match self {
            Relation::Warehouse => 89,
            Relation::District => 95,
            Relation::Customer => 655,
            Relation::Stock => 306,
            Relation::Item => 82,
            Relation::Order => 24,
            Relation::NewOrder => 8,
            Relation::OrderLine => 54,
            Relation::History => 46,
        }
    }

    /// Dense index `0..9` in [`Relation::ALL`] order.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Relation::Warehouse => 0,
            Relation::District => 1,
            Relation::Customer => 2,
            Relation::Stock => 3,
            Relation::Item => 4,
            Relation::Order => 5,
            Relation::NewOrder => 6,
            Relation::OrderLine => 7,
            Relation::History => 8,
        }
    }

    /// Lowercase name as printed in Table 1.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Relation::Warehouse => "warehouse",
            Relation::District => "district",
            Relation::Customer => "customer",
            Relation::Stock => "stock",
            Relation::Item => "item",
            Relation::Order => "order",
            Relation::NewOrder => "new-order",
            Relation::OrderLine => "order-line",
            Relation::History => "history",
        }
    }

    /// True for the relations whose cardinality is fixed once `W` is
    /// chosen (everything except Order, New-Order, Order-Line, History).
    #[must_use]
    pub fn is_static(self) -> bool {
        !matches!(
            self,
            Relation::Order | Relation::NewOrder | Relation::OrderLine | Relation::History
        )
    }

    /// Cardinality for `warehouses` warehouses; `None` for the growing
    /// relations (Table 1 leaves those blank).
    #[must_use]
    pub fn cardinality(self, warehouses: u64) -> Option<u64> {
        match self {
            Relation::Warehouse => Some(warehouses),
            Relation::District => Some(warehouses * DISTRICTS_PER_WAREHOUSE),
            Relation::Customer => {
                Some(warehouses * DISTRICTS_PER_WAREHOUSE * CUSTOMERS_PER_DISTRICT)
            }
            Relation::Stock => Some(warehouses * STOCK_PER_WAREHOUSE),
            Relation::Item => Some(ITEMS),
            _ => None,
        }
    }

    /// Whole tuples per page of `page_size` bytes (integral packing,
    /// remainder wasted — paper §2.1).
    ///
    /// # Panics
    /// Panics if the page is smaller than one tuple.
    #[must_use]
    pub fn tuples_per_page(self, page_size: PageSize) -> u64 {
        let tpp = page_size.bytes() / self.tuple_len();
        assert!(tpp > 0, "page too small for one {} tuple", self.name());
        tpp
    }

    /// Pages needed to hold the static relation at `warehouses` scale.
    /// `None` for growing relations.
    #[must_use]
    pub fn pages(self, warehouses: u64, page_size: PageSize) -> Option<u64> {
        self.cardinality(warehouses)
            .map(|n| n.div_ceil(self.tuples_per_page(page_size)))
    }
}

/// A database page size in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageSize(u64);

impl PageSize {
    /// The paper's default 4-kilobyte page.
    pub const K4: PageSize = PageSize(4096);
    /// The 8-kilobyte variant of Figure 5.
    pub const K8: PageSize = PageSize(8192);

    /// An arbitrary page size.
    ///
    /// # Panics
    /// Panics unless `bytes >= 1024` (every Table 1 tuple must fit).
    #[must_use]
    pub fn new(bytes: u64) -> Self {
        assert!(bytes >= 1024, "page must be at least 1 KiB, got {bytes}");
        PageSize(bytes)
    }

    /// Size in bytes.
    #[must_use]
    pub fn bytes(self) -> u64 {
        self.0
    }
}

impl Default for PageSize {
    fn default() -> Self {
        PageSize::K4
    }
}

/// Scale configuration: warehouse count and page size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchemaConfig {
    /// Number of warehouses `W`.
    pub warehouses: u64,
    /// Page size (default 4K).
    pub page_size: PageSize,
}

impl SchemaConfig {
    /// The paper's buffer-study configuration: 20 warehouses, 4K pages.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            warehouses: 20,
            page_size: PageSize::K4,
        }
    }

    /// New configuration.
    ///
    /// # Panics
    /// Panics if `warehouses == 0`.
    #[must_use]
    pub fn new(warehouses: u64, page_size: PageSize) -> Self {
        assert!(warehouses > 0, "need at least one warehouse");
        Self {
            warehouses,
            page_size,
        }
    }

    /// Total bytes of the five static relations (the paper's "1.1
    /// Gbytes" for 20 warehouses), counting whole pages.
    #[must_use]
    pub fn static_storage_bytes(&self) -> u64 {
        Relation::ALL
            .iter()
            .filter_map(|r| r.pages(self.warehouses, self.page_size))
            .map(|p| p * self.page_size.bytes())
            .sum()
    }

    /// Bytes appended per New-Order transaction (1 order + `items`
    /// order-lines) — feeds the 180-day storage requirement of Figure 10.
    #[must_use]
    pub fn bytes_per_new_order(&self, items_per_order: u64) -> u64 {
        Relation::Order.tuple_len() + items_per_order * Relation::OrderLine.tuple_len()
    }

    /// Bytes appended per Payment transaction (1 history row).
    #[must_use]
    pub fn bytes_per_payment(&self) -> u64 {
        Relation::History.tuple_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_tuples_per_4k_page() {
        // The paper's Table 1, third column.
        let cases = [
            (Relation::Warehouse, 46),
            (Relation::District, 43),
            (Relation::Customer, 6),
            (Relation::Stock, 13),
            (Relation::Item, 49),
            (Relation::Order, 170),
            (Relation::NewOrder, 512),
            (Relation::OrderLine, 75),
            (Relation::History, 89),
        ];
        for (rel, expect) in cases {
            assert_eq!(rel.tuples_per_page(PageSize::K4), expect, "{}", rel.name());
        }
    }

    #[test]
    fn stock_doubles_on_8k_pages() {
        assert_eq!(Relation::Stock.tuples_per_page(PageSize::K8), 26);
        assert_eq!(Relation::Item.tuples_per_page(PageSize::K8), 99);
    }

    #[test]
    fn cardinalities_scale_with_warehouses() {
        assert_eq!(Relation::Warehouse.cardinality(20), Some(20));
        assert_eq!(Relation::District.cardinality(20), Some(200));
        assert_eq!(Relation::Customer.cardinality(20), Some(600_000));
        assert_eq!(Relation::Stock.cardinality(20), Some(2_000_000));
        assert_eq!(Relation::Item.cardinality(20), Some(100_000));
        assert_eq!(Relation::Item.cardinality(1), Some(100_000));
        assert_eq!(Relation::Order.cardinality(20), None);
    }

    #[test]
    fn static_storage_near_paper_estimate() {
        // Paper §5.2: "the space required is 1.1 Gbytes" at W = 20.
        let gb = SchemaConfig::paper_default().static_storage_bytes() as f64 / 1e9;
        assert!((1.0..1.2).contains(&gb), "static storage {gb} GB");
    }

    #[test]
    fn growing_bytes_match_tuple_lengths() {
        let cfg = SchemaConfig::paper_default();
        assert_eq!(cfg.bytes_per_new_order(10), 24 + 540);
        assert_eq!(cfg.bytes_per_payment(), 46);
    }

    #[test]
    #[should_panic(expected = "at least one warehouse")]
    fn zero_warehouses_rejected() {
        let _ = SchemaConfig::new(0, PageSize::K4);
    }

    #[test]
    fn page_count_rounds_up() {
        // 200 district tuples at 43/page -> 5 pages
        assert_eq!(Relation::District.pages(20, PageSize::K4), Some(5));
    }
}
