//! A workload driver: generates spec-shaped inputs and executes the
//! transaction mix against a loaded database, reporting throughput-side
//! counts and the measured buffer behaviour.
//!
//! Input generation is factored into [`InputGen`] so the serial
//! [`Driver`] and the multi-terminal `parallel::ParallelDriver` draw
//! from the *same* random sequence: a one-terminal parallel run with
//! the driver's seed replays a serial run decision-for-decision (and
//! the tests assert the final database images are byte-identical).

use crate::db::{DbConfig, TpccDb};
use crate::terminal::{OneNode, Terminal};
use crate::txns::{CustomerSelector, OrderLineReq};
use tpcc_rand::{NuRand, Xoshiro256};
use tpcc_schema::relation::Relation;
use tpcc_storage::BufferStats;

/// Transaction-type display names, in mix order.
pub const TX_NAMES: [&str; 5] = [
    "new_order",
    "payment",
    "order_status",
    "delivery",
    "stock_level",
];

/// Items per New-Order when [`DriverConfig::spec_item_counts`] is off
/// (the paper fixes 10).
const ITEMS_PER_ORDER: u64 = 10;

/// Driver configuration: the paper's mix and clause probabilities.
#[derive(Debug, Clone, Copy)]
pub struct DriverConfig {
    /// Mix fractions: New-Order, Payment, Order-Status, Delivery,
    /// Stock-Level (paper: 43/44/4/5/4).
    pub mix: [f64; 5],
    /// P(item supplied remotely)
    /// ([`tpcc_cost::distributed::REMOTE_STOCK_PROB`]).
    pub remote_stock_prob: f64,
    /// P(payment through a remote warehouse)
    /// ([`tpcc_cost::distributed::REMOTE_PAYMENT_PROB`]).
    pub remote_payment_prob: f64,
    /// P(customer selected by last name) (0.60).
    pub by_name_prob: f64,
    /// Draw the item count uniformly from 5–15 per clause 2.4.1.3
    /// instead of the paper's fixed 10. Off by default:
    /// the paper fixes 10 ("this assumption has no effect since we
    /// only report mean miss rates"), and the uniform draw has the
    /// same mean.
    pub spec_item_counts: bool,
    /// P(a New-Order carries an unused item and rolls back) — spec
    /// clause 2.4.1.4 says 1%; the paper ignores rollbacks, so the
    /// default here is 0.
    pub rollback_prob: f64,
}

impl Default for DriverConfig {
    fn default() -> Self {
        Self {
            mix: [0.43, 0.44, 0.04, 0.05, 0.04],
            // the clause probabilities come from the cost model's
            // shared constants, so the executed workload and the §5.3
            // distributed model cannot drift apart
            remote_stock_prob: tpcc_cost::distributed::REMOTE_STOCK_PROB,
            remote_payment_prob: tpcc_cost::distributed::REMOTE_PAYMENT_PROB,
            by_name_prob: 0.60,
            spec_item_counts: false,
            rollback_prob: 0.0,
        }
    }
}

impl DriverConfig {
    /// The spec's 1% New-Order rollback rate.
    #[must_use]
    pub fn with_spec_rollbacks(mut self) -> Self {
        self.rollback_prob = 0.01;
        self
    }

    /// Clause 2.4.1.3's uniform 5–15 items per order (mean 10, like
    /// the paper's fixed count).
    #[must_use]
    pub fn with_spec_item_counts(mut self) -> Self {
        self.spec_item_counts = true;
        self
    }

    /// Customer selections per transaction in one district's terms,
    /// `(by id, by last name)`: New-Order selects one by id, Delivery
    /// one in each of its ten districts, and Payment and Order-Status
    /// one each, by name with `by_name_prob`. A by-name selection reads
    /// every owner of the name. The loader ranks customers by these.
    pub(crate) fn customer_selections(&self) -> (f64, f64) {
        let [new_order, payment, order_status, delivery, _] = self.mix;
        let choosing = payment + order_status;
        (
            new_order + (1.0 - self.by_name_prob) * choosing + 10.0 * delivery,
            self.by_name_prob * choosing,
        )
    }
}

/// One generated transaction request — everything random about it is
/// already decided, so executing it is deterministic.
#[derive(Debug, Clone)]
pub enum TxnInput {
    /// A New-Order request; a rollback round carries one unused item id
    /// in its last line (clause 2.4.1.4) and will abort on validation.
    NewOrder {
        /// Home warehouse.
        w: u64,
        /// District.
        d: u64,
        /// Customer placing the order.
        c: u64,
        /// Order lines.
        lines: Vec<OrderLineReq>,
    },
    /// A Payment request.
    Payment {
        /// Terminal's warehouse.
        w: u64,
        /// Terminal's district.
        d: u64,
        /// Customer's warehouse (≠ `w` for remote payments).
        cw: u64,
        /// Customer's district.
        cd: u64,
        /// Customer selection.
        selector: CustomerSelector,
        /// Amount charged.
        amount: f64,
    },
    /// An Order-Status request.
    OrderStatus {
        /// Warehouse.
        w: u64,
        /// District.
        d: u64,
        /// Customer selection.
        selector: CustomerSelector,
    },
    /// A Delivery request (all ten districts of `w`).
    Delivery {
        /// Warehouse.
        w: u64,
        /// Carrier assigned.
        carrier: u8,
    },
    /// A Stock-Level request.
    StockLevel {
        /// Warehouse.
        w: u64,
        /// District.
        d: u64,
        /// Low-stock threshold.
        threshold: i32,
    },
}

impl TxnInput {
    /// The (global) home warehouse the request is routed by.
    pub(crate) fn home_warehouse(&self) -> u64 {
        match self {
            TxnInput::NewOrder { w, .. }
            | TxnInput::Payment { w, .. }
            | TxnInput::OrderStatus { w, .. }
            | TxnInput::Delivery { w, .. }
            | TxnInput::StockLevel { w, .. } => *w,
        }
    }

    /// Index into [`TX_NAMES`] / mix arrays.
    #[must_use]
    pub fn type_index(&self) -> usize {
        match self {
            TxnInput::NewOrder { .. } => 0,
            TxnInput::Payment { .. } => 1,
            TxnInput::OrderStatus { .. } => 2,
            TxnInput::Delivery { .. } => 3,
            TxnInput::StockLevel { .. } => 4,
        }
    }
}

/// Generates spec-shaped transaction inputs. One instance = one
/// terminal's random stream; the draw order is part of the crate's
/// compatibility contract (seeded runs replay identically).
pub struct InputGen {
    cfg: DriverConfig,
    rng: Xoshiro256,
    customer_nu: NuRand,
    item_nu: NuRand,
    name_nu: NuRand,
    warehouses: u64,
    items: u64,
}

impl InputGen {
    /// A generator whose NURand ranges match the database's scale.
    #[must_use]
    pub fn new(db: &TpccDb, cfg: DriverConfig, seed: u64) -> Self {
        Self::with_scale(cfg, seed, db.config().warehouses, db.config())
    }

    /// A generator over `warehouses` warehouses of `scale`'s size — the
    /// cluster driver spans warehouses across several node databases,
    /// so no single [`TpccDb`] carries the global warehouse count.
    #[must_use]
    pub(crate) fn with_scale(
        cfg: DriverConfig,
        seed: u64,
        warehouses: u64,
        scale: &DbConfig,
    ) -> Self {
        Self {
            cfg,
            rng: Xoshiro256::seed_from_u64(seed),
            customer_nu: scale.customer_nurand(),
            item_nu: scale.item_nurand(),
            name_nu: scale.name_nurand(),
            warehouses,
            items: scale.items,
        }
    }

    /// Draws the next transaction of the mix.
    pub fn next_input(&mut self) -> TxnInput {
        match self.pick_type() {
            0 => self.gen_new_order(),
            1 => self.gen_payment(),
            2 => {
                let w = self.uniform_warehouse();
                let d = self.rng.uniform_inclusive(0, 9);
                let selector = self.selector();
                TxnInput::OrderStatus { w, d, selector }
            }
            3 => TxnInput::Delivery {
                w: self.uniform_warehouse(),
                carrier: self.rng.uniform_inclusive(1, 10) as u8,
            },
            _ => TxnInput::StockLevel {
                w: self.uniform_warehouse(),
                d: self.rng.uniform_inclusive(0, 9),
                threshold: self.rng.uniform_inclusive(10, 20) as i32,
            },
        }
    }

    fn pick_type(&mut self) -> usize {
        let mut u = self.rng.f64();
        for (i, &f) in self.cfg.mix.iter().enumerate() {
            if u < f {
                return i;
            }
            u -= f;
        }
        self.cfg.mix.len() - 1
    }

    fn uniform_warehouse(&mut self) -> u64 {
        self.rng.uniform_inclusive(0, self.warehouses - 1)
    }

    fn maybe_remote(&mut self, home: u64, prob: f64) -> u64 {
        let w = self.warehouses;
        if w > 1 && self.rng.chance(prob) {
            let other = self.rng.uniform_inclusive(0, w - 2);
            if other >= home {
                other + 1
            } else {
                other
            }
        } else {
            home
        }
    }

    fn selector(&mut self) -> CustomerSelector {
        if self.rng.chance(self.cfg.by_name_prob) {
            CustomerSelector::ByName(self.name_nu.sample(&mut self.rng))
        } else {
            CustomerSelector::ById(self.customer_nu.sample(&mut self.rng))
        }
    }

    fn gen_new_order(&mut self) -> TxnInput {
        let w = self.uniform_warehouse();
        let d = self.rng.uniform_inclusive(0, 9);
        let c = self.customer_nu.sample(&mut self.rng);
        let count = if self.cfg.spec_item_counts {
            self.rng.uniform_inclusive(5, 15)
        } else {
            ITEMS_PER_ORDER
        };
        let mut lines: Vec<OrderLineReq> = (0..count)
            .map(|_| OrderLineReq {
                item: self.item_nu.sample(&mut self.rng),
                supply_warehouse: self.maybe_remote(w, self.cfg.remote_stock_prob),
                quantity: self.rng.uniform_inclusive(1, 10) as u16,
            })
            .collect();
        if self.rng.chance(self.cfg.rollback_prob) {
            // clause 2.4.1.4: the last line names an unused item
            lines.last_mut().expect("at least one line").item = self.items;
        }
        TxnInput::NewOrder { w, d, c, lines }
    }

    fn gen_payment(&mut self) -> TxnInput {
        let w = self.uniform_warehouse();
        let d = self.rng.uniform_inclusive(0, 9);
        let cw = self.maybe_remote(w, self.cfg.remote_payment_prob);
        let cd = if cw == w {
            d
        } else {
            self.rng.uniform_inclusive(0, 9)
        };
        let selector = self.selector();
        let amount = self.rng.uniform_inclusive(100, 500_000) as f64 / 100.0;
        TxnInput::Payment {
            w,
            d,
            cw,
            cd,
            selector,
            amount,
        }
    }
}

/// Run summary.
#[derive(Debug, Clone, Default)]
pub struct DriverReport {
    /// Transactions executed per type (mix order).
    pub executed: [u64; 5],
    /// New orders placed.
    pub new_orders: u64,
    /// Orders delivered.
    pub deliveries: u64,
    /// New-Orders that rolled back on an unused item.
    pub rollbacks: u64,
    /// Buffer statistics per relation heap.
    pub relation_stats: Vec<(Relation, BufferStats)>,
    /// Aggregate index buffer statistics.
    pub index_stats: BufferStats,
}

impl DriverReport {
    /// Fills in `db`'s buffer statistics as the run left them.
    fn with_buffer_stats(mut self, db: &TpccDb) -> Self {
        self.relation_stats = Relation::ALL
            .iter()
            .map(|&r| (r, db.relation_stats(r)))
            .collect();
        self.index_stats = db.index_stats();
        self
    }

    /// Miss ratio for one relation's heap accesses; NaN when that
    /// relation was never accessed (render as "n/a", don't compare).
    #[must_use]
    pub fn miss_ratio(&self, relation: Relation) -> f64 {
        self.relation_stats
            .iter()
            .find(|(r, _)| *r == relation)
            .map_or(f64::NAN, |(_, s)| s.miss_ratio())
    }
}

/// Drives a database with randomized spec-shaped inputs: one
/// `terminal::Terminal` on the single-node placement, with no logical locks
/// (the driver holds the database exclusively) and Delivery as the one
/// ten-district transaction [`TpccDb::delivery`] defines.
pub struct Driver {
    gen: InputGen,
}

impl Driver {
    /// Creates a driver whose NURand ranges match the database's scale.
    #[must_use]
    pub fn new(db: &TpccDb, cfg: DriverConfig, seed: u64) -> Self {
        Self {
            gen: InputGen::new(db, cfg, seed),
        }
    }

    /// Executes `transactions` mixed transactions. With an
    /// observability handle attached to `db`, per-type executed /
    /// rollback counters are kept and each transaction's wall-clock
    /// latency lands in a per-type histogram (`txn_latency_ns/<type>`)
    /// when the call returns.
    pub fn run(&mut self, db: &mut TpccDb, transactions: u64) -> DriverReport {
        let place = OneNode { db, lm: None };
        let mut terminal = Terminal::new(&place);
        terminal.one_delivery = true;
        let tally = terminal.run(&mut self.gen, transactions);
        DriverReport {
            executed: tally.executed,
            new_orders: tally.new_orders,
            deliveries: tally.deliveries,
            rollbacks: tally.rollbacks,
            ..DriverReport::default()
        }
        .with_buffer_stats(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::DbConfig;
    use crate::loader;

    #[test]
    fn customer_selections_follow_the_mix() {
        let cfg = DriverConfig::default();
        let (by_id, by_name) = cfg.customer_selections();
        // New-Order 0.43, 40 % of (0.44 + 0.04), Delivery 10 × 0.05
        assert!((by_id - 1.122).abs() < 1e-12, "{by_id}");
        assert!((by_name - 0.288).abs() < 1e-12, "{by_name}");
        let by_id_only = DriverConfig {
            by_name_prob: 0.0,
            ..cfg
        };
        assert_eq!(by_id_only.customer_selections().1, 0.0);
    }

    #[test]
    fn mixed_run_completes_and_counts() {
        let mut db = loader::load(DbConfig::small(), 11);
        let mut driver = Driver::new(&db, DriverConfig::default(), 12);
        let report = driver.run(&mut db, 2000);
        assert_eq!(report.executed.iter().sum::<u64>(), 2000);
        assert!(
            report.executed.iter().all(|&c| c > 0),
            "{:?}",
            report.executed
        );
        assert_eq!(report.new_orders, report.executed[0]);
        assert_eq!(report.rollbacks, 0, "rollbacks disabled by default");
        assert!(report.deliveries > 0);
    }

    #[test]
    fn spec_rollback_rate_observed() {
        let mut db = loader::load(DbConfig::small(), 17);
        let mut driver = Driver::new(&db, DriverConfig::default().with_spec_rollbacks(), 18);
        let report = driver.run(&mut db, 4000);
        let attempts = report.new_orders + report.rollbacks;
        let rate = report.rollbacks as f64 / attempts as f64;
        assert!((rate - 0.01).abs() < 0.01, "rollback rate {rate}");
        assert!(report.rollbacks > 0);
    }

    #[test]
    fn spec_item_counts_draw_uniform_5_to_15_with_mean_10() {
        let db = loader::load(DbConfig::small(), 19);
        let mut gen = InputGen::new(&db, DriverConfig::default().with_spec_item_counts(), 20);
        let mut counts: Vec<usize> = Vec::new();
        while counts.len() < 2000 {
            if let TxnInput::NewOrder { lines, .. } = gen.next_input() {
                counts.push(lines.len());
            }
        }
        assert!(counts.iter().all(|&n| (5..=15).contains(&n)));
        assert!(counts.iter().any(|&n| n != 10), "counts actually vary");
        let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
        assert!((mean - 10.0).abs() < 0.25, "mean {mean} ≈ 10 per 2.4.1.3");
    }

    #[test]
    fn fixed_item_count_is_the_default() {
        let db = loader::load(DbConfig::small(), 19);
        let mut gen = InputGen::new(&db, DriverConfig::default(), 20);
        for _ in 0..200 {
            if let TxnInput::NewOrder { lines, .. } = gen.next_input() {
                assert_eq!(lines.len(), 10);
            }
        }
    }

    #[test]
    fn buffer_stats_populated() {
        let mut db = loader::load(DbConfig::small(), 13);
        db.reset_stats();
        let mut driver = Driver::new(&db, DriverConfig::default(), 14);
        let report = driver.run(&mut db, 1000);
        let customer = report.miss_ratio(Relation::Customer);
        assert!((0.0..=1.0).contains(&customer));
        let total: u64 = report
            .relation_stats
            .iter()
            .map(|(_, s)| s.hits + s.misses)
            .sum();
        assert!(total > 1000, "heap accesses recorded: {total}");
        assert!(report.index_stats.hits + report.index_stats.misses > 0);
    }

    #[test]
    fn new_order_relation_stays_bounded_with_paper_mix() {
        let mut db = loader::load(DbConfig::small(), 15);
        let pending_before = db.relation_pages(Relation::NewOrder);
        let mut driver = Driver::new(&db, DriverConfig::default(), 16);
        let _ = driver.run(&mut db, 3000);
        // 5% deliveries x 10 >= 43% inserts: pages grow slowly if at all
        let pending_after = db.relation_pages(Relation::NewOrder);
        assert!(
            pending_after <= pending_before + 4,
            "new-order grew {pending_before} -> {pending_after}"
        );
    }

    #[test]
    fn observed_run_exports_latency_percentiles_and_relation_counters() {
        use std::sync::Arc;
        use tpcc_obs::{MemoryRecorder, Obs};

        let recorder = Arc::new(MemoryRecorder::new());
        let mut cfg = DbConfig::small();
        cfg.buffer_frames = 48; // small pool: force misses and evictions
        let mut db = loader::load(cfg, 31);
        db.set_obs(Obs::new(recorder.clone()));
        db.reset_stats();
        let mut driver = Driver::new(&db, DriverConfig::default(), 32);
        let report = driver.run(&mut db, 1200);
        assert_eq!(report.executed.iter().sum::<u64>(), 1200);

        let last = recorder.snapshot().to_json_line(0, 1200, 0.0);
        // per-transaction-type latency percentiles
        for tx in TX_NAMES {
            assert!(
                last.contains(&format!("\"txn_latency_ns/{tx}\":{{\"count\":")),
                "{tx} histogram exported"
            );
        }
        assert!(last.contains("\"p50\":"));
        assert!(last.contains("\"p95\":"));
        assert!(last.contains("\"p99\":"));
        // per-relation buffer counters under relation names
        for key in [
            "\"buf_hits/stock\":",
            "\"buf_hits/customer\":",
            "\"buf_misses/order-line\":",
            "\"buf_hits/idx_customer\":",
            "\"buf_evictions/",
            "\"buf_writebacks/",
        ] {
            assert!(last.contains(key), "missing {key}");
        }
        // span hierarchy reached the storage layer
        assert!(last.contains("\"new_order/btree_lookup\":"));
        // histograms agree with the report
        let h = recorder
            .histogram("txn_latency_ns", tpcc_obs::Label::Name("new_order"))
            .expect("recorded");
        assert_eq!(h.count(), report.executed[0]);
    }

    #[test]
    fn unattached_db_reports_unobserved_miss_ratio_as_nan() {
        let db = loader::load(DbConfig::small(), 41);
        let report = DriverReport {
            executed: [0; 5],
            new_orders: 0,
            deliveries: 0,
            rollbacks: 0,
            relation_stats: Vec::new(),
            index_stats: db.index_stats(),
        };
        assert!(report.miss_ratio(Relation::Stock).is_nan());
        assert!(BufferStats::default().miss_ratio().is_nan());
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut db = loader::load(DbConfig::small(), 21);
            let mut driver = Driver::new(&db, DriverConfig::default(), seed);
            driver.run(&mut db, 500).executed
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}
