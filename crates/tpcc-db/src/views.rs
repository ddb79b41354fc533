//! Incremental materialized views fed by the WAL change stream.
//!
//! [`CdcPipeline`] bundles a [`CdcSubscriber`] (the physical decoder
//! in `tpcc-storage::cdc`) with a [`ViewRegistry`] (heap file →
//! relation attribution) and three derived aggregates:
//!
//! * [`DistrictRevenueView`] — per-district `D_YTD` (Payment deltas,
//!   replace semantics) and summed order-line revenue in integer cents
//!   (New-Order inserts / Delivery updates).
//! * [`OpenOrdersView`] — pending NEW-ORDER rows per district
//!   (New-Order inserts minus Delivery deletes).
//! * [`StockThresholdView`] — everything Stock-Level's 200-row join
//!   needs, maintained incrementally: per-warehouse stock quantities,
//!   per-district `next_o_id`, and the item sets of the last-20-order
//!   window; [`StockThresholdView::stock_level`] answers the query
//!   without touching base tables.
//!
//! # Replay equivalence
//!
//! The correctness contract — enforced by `tests/cdc_equivalence.rs`
//! and `tests/view_vs_verifier.rs` — is that at any quiesced harvest
//! point the incrementally-maintained state is **byte-equal**
//! ([`MaterializedViews::encode`]) to [`MaterializedViews::rescan`]
//! over a fresh flush of the base tables. Two design rules make exact
//! equality possible with float columns in play:
//!
//! * replaced columns (`D_YTD`, `S_QUANTITY`, `D_NEXT_O_ID`) store the
//!   decoded value of the *latest* row image — both paths read the
//!   same record bytes, so the bits agree no matter how many updates
//!   were folded;
//! * accumulated columns (order-line revenue) are summed in integer
//!   cents (`round(amount × 100)`), which is associative and
//!   order-independent, unlike `f64` addition.
//!
//! # Recoverability
//!
//! A view is a pure function of (checkpoint disk, WAL prefix): the
//! pipeline seeds itself by rescanning the subscriber's shadow disk,
//! so [`CdcPipeline::resume`] from any [`CdcCheckpoint`] — including
//! one that lost a race with a crash (`cdc_checkpoint` fault site) —
//! rebuilds exactly the state a never-crashed pipeline would hold at
//! that cursor. The crashpoint sweep (`inject::cdc_checkpoint_sweep`)
//! proves this at every committed prefix.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use tpcc_obs::Label;
use tpcc_schema::relation::Relation;
use tpcc_storage::cdc::{CdcCheckpoint, RowChange};
use tpcc_storage::cdc::{CdcLag, CdcStats, CdcSubscriber, ChangeBatch, RowOp};
use tpcc_storage::page::live_slots;
use tpcc_storage::{DiskManager, FaultHook, FileId};

use crate::db::TpccDb;
use crate::keys;
use crate::records::{
    CustomerRec, DistrictRec, HistoryRec, ItemRec, NewOrderRec, OrderLineRec, OrderRec, StockRec,
    WarehouseRec,
};

/// Schema version stamped on every exported change-event line.
pub const EVENT_SCHEMA: u32 = 1;

/// Maps heap page files to the relation stored in them, so physical
/// [`RowChange`]s can be attributed to tables and primary keys.
#[derive(Debug, Clone)]
pub struct ViewRegistry {
    by_file: BTreeMap<FileId, Relation>,
}

impl ViewRegistry {
    /// Reads the attribution map off a database's heap catalog.
    #[must_use]
    pub fn from_db(db: &TpccDb) -> Self {
        let h = &db.heaps;
        let by_file = BTreeMap::from([
            (h.warehouse.file(), Relation::Warehouse),
            (h.district.file(), Relation::District),
            (h.customer.file(), Relation::Customer),
            (h.stock.file(), Relation::Stock),
            (h.item.file(), Relation::Item),
            (h.order.file(), Relation::Order),
            (h.new_order.file(), Relation::NewOrder),
            (h.order_line.file(), Relation::OrderLine),
            (h.history.file(), Relation::History),
        ]);
        Self { by_file }
    }

    /// The relation stored in `file`, if it is a registered heap.
    #[must_use]
    pub fn relation(&self, file: FileId) -> Option<Relation> {
        self.by_file.get(&file).copied()
    }

    /// Every registered heap file (what a subscriber should watch).
    pub fn files(&self) -> impl Iterator<Item = FileId> + '_ {
        self.by_file.keys().copied()
    }

    /// The heap file holding `rel`.
    #[must_use]
    pub fn file_of(&self, rel: Relation) -> FileId {
        *self
            .by_file
            .iter()
            .find(|(_, r)| **r == rel)
            .map(|(f, _)| f)
            .expect("every relation is registered")
    }
}

/// One logical change event: a [`RowChange`] attributed to a table and
/// primary key. The JSON form is the golden-tested export format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChangeEvent {
    /// Relation the row belongs to.
    pub table: Relation,
    /// Packed primary key (the `keys` module encoding; ORDER rows
    /// carry no district in the heap tuple, so their key is the bare
    /// `o_id`).
    pub key: u64,
    /// "insert" / "update" / "delete".
    pub op: &'static str,
    /// Transaction timestamp of the enclosing batch's boundary marker.
    pub txn: u64,
}

impl ChangeEvent {
    /// Schema-versioned JSON line, stable across runs of the same
    /// seeded workload.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"v\":{},\"txn\":{},\"table\":\"{}\",\"key\":{},\"op\":\"{}\"}}",
            EVENT_SCHEMA,
            self.txn,
            self.table.name(),
            self.key,
            self.op
        )
    }
}

/// Packs the primary key out of a decoded row image.
fn row_key(rel: Relation, bytes: &[u8]) -> u64 {
    match rel {
        Relation::Warehouse => keys::warehouse(u64::from(WarehouseRec::decode(bytes).w_id)),
        Relation::District => {
            let r = DistrictRec::decode(bytes);
            keys::district(u64::from(r.w_id), u64::from(r.d_id))
        }
        Relation::Customer => {
            let r = CustomerRec::decode(bytes);
            keys::customer(u64::from(r.w_id), u64::from(r.d_id), u64::from(r.c_id))
        }
        Relation::Stock => {
            let r = StockRec::decode(bytes);
            keys::stock(u64::from(r.w_id), u64::from(r.i_id))
        }
        Relation::Item => keys::item(u64::from(ItemRec::decode(bytes).i_id)),
        // ORDER heap tuples carry no (w, d): the key is the bare o_id
        Relation::Order => u64::from(OrderRec::decode(bytes).o_id),
        Relation::NewOrder => {
            let r = NewOrderRec::decode(bytes);
            keys::order(u64::from(r.w_id), u64::from(r.d_id), u64::from(r.o_id))
        }
        Relation::OrderLine => {
            let r = OrderLineRec::decode(bytes);
            keys::order_line(
                u64::from(r.w_id),
                u64::from(r.d_id),
                u64::from(r.o_id),
                u64::from(r.number),
            )
        }
        Relation::History => {
            let r = HistoryRec::decode(bytes);
            keys::customer(u64::from(r.c_w_id), u64::from(r.c_d_id), u64::from(r.c_id))
        }
    }
}

/// Attributes one batch's physical row changes to logical events.
/// Changes to unregistered files (B+Tree pages) never reach here —
/// the subscriber only watches registered heaps.
#[must_use]
pub fn decode_events(registry: &ViewRegistry, batch: &ChangeBatch) -> Vec<ChangeEvent> {
    batch
        .changes
        .iter()
        .filter_map(|c| {
            let rel = registry.relation(c.file)?;
            let (op, bytes) = match &c.op {
                RowOp::Insert { after } => ("insert", after),
                RowOp::Update { after, .. } => ("update", after),
                RowOp::Delete { before } => ("delete", before),
            };
            Some(ChangeEvent {
                table: rel,
                key: row_key(rel, bytes),
                op,
                txn: batch.txn,
            })
        })
        .collect()
}

/// `f64` money → integer cents (order-independent accumulation).
fn cents(amount: f64) -> i64 {
    (amount * 100.0).round() as i64
}

/// Per-district revenue: the latest `D_YTD` (bit-exact replace
/// semantics) plus summed order-line revenue in cents.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DistrictRevenueView {
    /// (w, d) → latest `D_YTD` bits.
    ytd_bits: BTreeMap<(u64, u64), u64>,
    /// (w, d) → Σ cents(`OL_AMOUNT`) over live order lines.
    line_cents: BTreeMap<(u64, u64), i64>,
}

impl DistrictRevenueView {
    /// The district's year-to-date payment total.
    #[must_use]
    pub fn ytd(&self, w: u64, d: u64) -> f64 {
        f64::from_bits(*self.ytd_bits.get(&(w, d)).unwrap_or(&0))
    }

    /// Summed order-line revenue (cents) booked in the district.
    #[must_use]
    pub fn line_revenue_cents(&self, w: u64, d: u64) -> i64 {
        *self.line_cents.get(&(w, d)).unwrap_or(&0)
    }

    /// Districts tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ytd_bits.len()
    }

    /// True when no district has been seen.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ytd_bits.is_empty()
    }
}

/// Pending (undelivered) order counts per district.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OpenOrdersView {
    /// (w, d) → live NEW-ORDER rows. Zero-count districts are pruned
    /// so the map equals what a rescan of live rows builds.
    pending: BTreeMap<(u64, u64), u64>,
}

impl OpenOrdersView {
    /// Pending orders in the district.
    #[must_use]
    pub fn pending(&self, w: u64, d: u64) -> u64 {
        *self.pending.get(&(w, d)).unwrap_or(&0)
    }

    /// Total pending orders across all districts.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.pending.values().sum()
    }
}

/// The state Stock-Level (§2.2) needs, maintained incrementally:
/// stock quantities, district order cursors, and the item sets of each
/// district's last-20-order window. Deliberately not `PartialEq`:
/// the incremental path retains a slack of settled-but-out-of-window
/// orders, so compare states via [`MaterializedViews::encode`], which
/// canonicalizes to the exact window.
#[derive(Debug, Clone, Default)]
pub struct StockThresholdView {
    /// (w, i) → latest `S_QUANTITY`.
    qty: BTreeMap<(u64, u64), i32>,
    /// (w, d) → latest `D_NEXT_O_ID`.
    next_o_id: BTreeMap<(u64, u64), u64>,
    /// (w, d) → o_id → distinct items ordered. Admission is
    /// unconditional and pruning keeps a generous slack behind
    /// `next_o_id`: the tracked `next_o_id` is *physical* state at a
    /// commit marker, so under a concurrent workload it can transiently
    /// run ahead of its final value (uncommitted increments that a
    /// later batch compensates away). Filtering to the exact last-20
    /// window happens at read time, when `next_o_id` is settled.
    recent: BTreeMap<(u64, u64), BTreeMap<u64, BTreeSet<u64>>>,
}

/// Orders kept behind `next_o_id` before slack pruning drops them.
/// Must exceed the worst transient inflation of the physical
/// `next_o_id` (bounded by concurrently in-flight transactions) plus
/// the 20-order query window; anything this far behind is settled.
const RECENT_SLACK: u64 = 256;

impl StockThresholdView {
    /// Answers Stock-Level from the view alone: distinct items in the
    /// district's last 20 orders whose stock is below `threshold`.
    #[must_use]
    pub fn stock_level(&self, w: u64, d: u64, threshold: i32) -> u64 {
        let Some(orders) = self.recent.get(&(w, d)) else {
            return 0;
        };
        let from = self.next_o_id(w, d).saturating_sub(20);
        let mut low = BTreeSet::new();
        for (_, items) in orders.range(from..) {
            for &i in items {
                if *self.qty.get(&(w, i)).unwrap_or(&0) < threshold {
                    low.insert(i);
                }
            }
        }
        low.len() as u64
    }

    /// The district's next order id, as the view last saw it.
    #[must_use]
    pub fn next_o_id(&self, w: u64, d: u64) -> u64 {
        *self.next_o_id.get(&(w, d)).unwrap_or(&0)
    }

    /// Memory bound: drop orders more than [`RECENT_SLACK`] behind the
    /// district cursor. Deliberately *not* the exact query window —
    /// see the `recent` field docs for why exact pruning here races.
    fn prune_slack(&mut self) {
        self.recent.retain(|&(w, d), orders| {
            let keep_from = self
                .next_o_id
                .get(&(w, d))
                .copied()
                .unwrap_or(0)
                .saturating_sub(RECENT_SLACK);
            orders.retain(|&o, _| o >= keep_from);
            !orders.is_empty()
        });
    }

    /// The exact last-20-order window per district — what
    /// [`MaterializedViews::encode`] canonicalizes and a rescan builds
    /// directly.
    fn windowed(&self) -> BTreeMap<(u64, u64), BTreeMap<u64, BTreeSet<u64>>> {
        let mut out = BTreeMap::new();
        for (&(w, d), orders) in &self.recent {
            let from = self.next_o_id(w, d).saturating_sub(20);
            let win: BTreeMap<u64, BTreeSet<u64>> = orders
                .range(from..)
                .map(|(&o, items)| (o, items.clone()))
                .collect();
            if !win.is_empty() {
                out.insert((w, d), win);
            }
        }
        out
    }
}

/// The three incremental views plus the shared apply/rescan machinery.
/// State comparison goes through [`MaterializedViews::encode`] (see
/// [`StockThresholdView`] for why there is no `PartialEq`).
#[derive(Debug, Clone, Default)]
pub struct MaterializedViews {
    /// Per-district revenue.
    pub district_revenue: DistrictRevenueView,
    /// Pending order counts.
    pub open_orders: OpenOrdersView,
    /// Stock-Level answering state.
    pub stock_threshold: StockThresholdView,
}

impl MaterializedViews {
    /// Folds one change batch into all three views.
    pub fn apply(&mut self, registry: &ViewRegistry, batch: &ChangeBatch) {
        for change in &batch.changes {
            if let Some(rel) = registry.relation(change.file) {
                self.apply_change(rel, change);
            }
        }
        self.stock_threshold.prune_slack();
    }

    /// Under a concurrent workload a slot can be freed and reused by a
    /// *different* logical row between two commit boundaries; the
    /// physical diff then reports one `Update` whose before/after
    /// images belong to different keys. Decomposing every update into
    /// remove(before) + add(after) makes the fold correct regardless —
    /// for replace-semantics columns the remove is a no-op and the add
    /// is the replace.
    fn apply_change(&mut self, rel: Relation, change: &RowChange) {
        match &change.op {
            RowOp::Insert { after } => self.add_row(rel, after),
            RowOp::Delete { before } => self.remove_row(rel, before),
            RowOp::Update { before, after } => {
                self.remove_row(rel, before);
                self.add_row(rel, after);
            }
        }
    }

    fn add_row(&mut self, rel: Relation, bytes: &[u8]) {
        match rel {
            Relation::District => {
                let r = DistrictRec::decode(bytes);
                let key = (u64::from(r.w_id), u64::from(r.d_id));
                self.district_revenue.ytd_bits.insert(key, r.ytd.to_bits());
                self.stock_threshold
                    .next_o_id
                    .insert(key, u64::from(r.next_o_id));
            }
            Relation::OrderLine => {
                let r = OrderLineRec::decode(bytes);
                let key = (u64::from(r.w_id), u64::from(r.d_id));
                *self.district_revenue.line_cents.entry(key).or_insert(0) += cents(r.amount);
                // unconditional admission: the view's `next_o_id` can
                // be transiently ahead here, so a window check would
                // wrongly reject in-window lines (windowing happens at
                // read time instead)
                self.stock_threshold
                    .recent
                    .entry(key)
                    .or_default()
                    .entry(u64::from(r.o_id))
                    .or_default()
                    .insert(u64::from(r.i_id));
            }
            Relation::NewOrder => {
                let r = NewOrderRec::decode(bytes);
                let key = (u64::from(r.w_id), u64::from(r.d_id));
                *self.open_orders.pending.entry(key).or_insert(0) += 1;
            }
            Relation::Stock => {
                let r = StockRec::decode(bytes);
                self.stock_threshold
                    .qty
                    .insert((u64::from(r.w_id), u64::from(r.i_id)), r.quantity);
            }
            // warehouse / customer / item / order / history feed no view
            _ => {}
        }
    }

    fn remove_row(&mut self, rel: Relation, bytes: &[u8]) {
        match rel {
            Relation::OrderLine => {
                let r = OrderLineRec::decode(bytes);
                let key = (u64::from(r.w_id), u64::from(r.d_id));
                *self.district_revenue.line_cents.entry(key).or_insert(0) -= cents(r.amount);
                if let Some(orders) = self.stock_threshold.recent.get_mut(&key) {
                    if let Some(items) = orders.get_mut(&u64::from(r.o_id)) {
                        items.remove(&u64::from(r.i_id));
                        if items.is_empty() {
                            orders.remove(&u64::from(r.o_id));
                        }
                    }
                    if self
                        .stock_threshold
                        .recent
                        .get(&key)
                        .is_some_and(BTreeMap::is_empty)
                    {
                        self.stock_threshold.recent.remove(&key);
                    }
                }
            }
            Relation::NewOrder => {
                let r = NewOrderRec::decode(bytes);
                let key = (u64::from(r.w_id), u64::from(r.d_id));
                if let Some(n) = self.open_orders.pending.get_mut(&key) {
                    *n -= 1;
                    if *n == 0 {
                        self.open_orders.pending.remove(&key);
                    }
                }
            }
            // replace-semantics rows (district, stock) are never
            // logically deleted: the paired add is the replace
            _ => {}
        }
    }

    /// Builds all three views by scanning a raw disk image's base
    /// tables — the ground truth incremental maintenance must equal.
    #[must_use]
    pub fn rescan(disk: &mut DiskManager, registry: &ViewRegistry) -> Self {
        let mut v = Self::default();
        // districts first: the last-20 window bound for order lines
        scan_heap(disk, registry.file_of(Relation::District), |bytes| {
            let r = DistrictRec::decode(bytes);
            let key = (u64::from(r.w_id), u64::from(r.d_id));
            v.district_revenue.ytd_bits.insert(key, r.ytd.to_bits());
            v.stock_threshold
                .next_o_id
                .insert(key, u64::from(r.next_o_id));
        });
        scan_heap(disk, registry.file_of(Relation::OrderLine), |bytes| {
            let r = OrderLineRec::decode(bytes);
            let key = (u64::from(r.w_id), u64::from(r.d_id));
            *v.district_revenue.line_cents.entry(key).or_insert(0) += cents(r.amount);
            let from = v.stock_threshold.next_o_id(key.0, key.1).saturating_sub(20);
            if u64::from(r.o_id) >= from {
                v.stock_threshold
                    .recent
                    .entry(key)
                    .or_default()
                    .entry(u64::from(r.o_id))
                    .or_default()
                    .insert(u64::from(r.i_id));
            }
        });
        scan_heap(disk, registry.file_of(Relation::NewOrder), |bytes| {
            let r = NewOrderRec::decode(bytes);
            let key = (u64::from(r.w_id), u64::from(r.d_id));
            *v.open_orders.pending.entry(key).or_insert(0) += 1;
        });
        scan_heap(disk, registry.file_of(Relation::Stock), |bytes| {
            let r = StockRec::decode(bytes);
            v.stock_threshold
                .qty
                .insert((u64::from(r.w_id), u64::from(r.i_id)), r.quantity);
        });
        v
    }

    /// Rescans the live database: flushes dirty pages and scans the
    /// flushed disk image. Quiesce the workload first — this is the
    /// harvest-point ground truth of the replay-equivalence tests.
    #[must_use]
    pub fn rescan_live(db: &TpccDb, registry: &ViewRegistry) -> Self {
        db.flush();
        let mut disk = db.bm.disk_snapshot();
        Self::rescan(&mut disk, registry)
    }

    /// Canonical byte encoding: every map in key order, fixed-width
    /// little-endian. Two view states are equal iff their encodings
    /// are byte-equal — the form the equivalence tests compare.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let tag = |out: &mut Vec<u8>, t: u8, n: usize| {
            out.push(t);
            out.extend_from_slice(&(n as u64).to_le_bytes());
        };
        tag(&mut out, 1, self.district_revenue.ytd_bits.len());
        for (&(w, d), &bits) in &self.district_revenue.ytd_bits {
            out.extend_from_slice(&w.to_le_bytes());
            out.extend_from_slice(&d.to_le_bytes());
            out.extend_from_slice(&bits.to_le_bytes());
        }
        tag(&mut out, 2, self.district_revenue.line_cents.len());
        for (&(w, d), &c) in &self.district_revenue.line_cents {
            out.extend_from_slice(&w.to_le_bytes());
            out.extend_from_slice(&d.to_le_bytes());
            out.extend_from_slice(&c.to_le_bytes());
        }
        tag(&mut out, 3, self.open_orders.pending.len());
        for (&(w, d), &n) in &self.open_orders.pending {
            out.extend_from_slice(&w.to_le_bytes());
            out.extend_from_slice(&d.to_le_bytes());
            out.extend_from_slice(&n.to_le_bytes());
        }
        tag(&mut out, 4, self.stock_threshold.qty.len());
        for (&(w, i), &q) in &self.stock_threshold.qty {
            out.extend_from_slice(&w.to_le_bytes());
            out.extend_from_slice(&i.to_le_bytes());
            out.extend_from_slice(&q.to_le_bytes());
        }
        tag(&mut out, 5, self.stock_threshold.next_o_id.len());
        for (&(w, d), &n) in &self.stock_threshold.next_o_id {
            out.extend_from_slice(&w.to_le_bytes());
            out.extend_from_slice(&d.to_le_bytes());
            out.extend_from_slice(&n.to_le_bytes());
        }
        let recent = self.stock_threshold.windowed();
        tag(&mut out, 6, recent.len());
        for ((w, d), orders) in &recent {
            out.extend_from_slice(&w.to_le_bytes());
            out.extend_from_slice(&d.to_le_bytes());
            out.extend_from_slice(&(orders.len() as u64).to_le_bytes());
            for (o, items) in orders {
                out.extend_from_slice(&o.to_le_bytes());
                out.extend_from_slice(&(items.len() as u64).to_le_bytes());
                for i in items {
                    out.extend_from_slice(&i.to_le_bytes());
                }
            }
        }
        out
    }
}

/// Applies `f` to every live record of a heap file in a raw disk
/// image, in (page, slot) order.
fn scan_heap(disk: &mut DiskManager, file: FileId, mut f: impl FnMut(&[u8])) {
    let page_size = disk.page_size();
    let mut buf = vec![0u8; page_size];
    for page in 0..disk.pages(file) {
        if disk.is_free(file, page) {
            continue;
        }
        disk.read_page(file, page, &mut buf);
        for (_, (off, len)) in live_slots(&buf) {
            f(&buf[off..off + len]);
        }
    }
}

/// The end-to-end CDC consumer: subscriber + attribution + views, with
/// lag/throughput telemetry.
pub struct CdcPipeline {
    sub: CdcSubscriber,
    registry: ViewRegistry,
    views: MaterializedViews,
}

impl std::fmt::Debug for CdcPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CdcPipeline")
            .field("cursor", &self.sub.cursor())
            .field("stats", &self.sub.stats())
            .finish()
    }
}

impl CdcPipeline {
    /// Attaches to a WAL-mode database: the subscriber's shadow starts
    /// from the post-load checkpoint and the views from a rescan of it.
    ///
    /// # Panics
    /// When the database runs without WAL (no checkpoint to seed from).
    #[must_use]
    pub fn new(db: &TpccDb) -> Self {
        let base = db
            .checkpoint_snapshot()
            .expect("CDC requires WAL mode (post-load checkpoint)");
        let registry = ViewRegistry::from_db(db);
        let mut sub = CdcSubscriber::new(base);
        for file in registry.files() {
            sub.watch(file);
        }
        Self::seed(sub, registry)
    }

    /// Re-attaches from a checkpoint: cursor and shadow come from the
    /// checkpoint, the views from a rescan of the shadow — proving the
    /// view is a pure function of (checkpoint, WAL prefix).
    #[must_use]
    pub fn resume(db: &TpccDb, checkpoint: CdcCheckpoint) -> Self {
        let registry = ViewRegistry::from_db(db);
        let mut sub = CdcSubscriber::resume(checkpoint);
        for file in registry.files() {
            sub.watch(file);
        }
        Self::seed(sub, registry)
    }

    fn seed(sub: CdcSubscriber, registry: ViewRegistry) -> Self {
        let mut shadow = sub.shadow().snapshot();
        let views = MaterializedViews::rescan(&mut shadow, &registry);
        Self {
            sub,
            registry,
            views,
        }
    }

    /// Bounds how far the durable committed prefix may run ahead
    /// before [`CdcPipeline::poll`] returns [`CdcLag`].
    pub fn set_max_lag(&mut self, max_lag: Option<usize>) {
        self.sub.set_max_lag(max_lag);
    }

    /// Routes checkpoint-taking through a fault hook (the
    /// `cdc_checkpoint` crash site).
    pub fn set_fault_hook(&mut self, hook: Arc<FaultHook>) {
        self.sub.set_fault_hook(hook);
    }

    /// Consumes everything up to the durable committed prefix and
    /// folds it into the views. Records `cdc_events` / `cdc_batches`
    /// counters and the pre-poll lag (entries) into the database's
    /// observability recorder.
    ///
    /// # Errors
    /// [`CdcLag`] when the configured bound is exceeded; nothing is
    /// consumed and the cursor holds its position.
    pub fn poll(&mut self, db: &TpccDb) -> Result<Vec<ChangeBatch>, CdcLag> {
        let (lag, polled) = db
            .with_wal(|wal| (self.sub.lag(wal), self.sub.poll(wal)))
            .expect("CDC requires WAL mode");
        let obs = db.bm.obs();
        obs.histogram_handle("cdc_lag_entries", Label::None)
            .record(lag as u64);
        let batches = polled?;
        let events: usize = batches.iter().map(|b| b.changes.len()).sum();
        obs.counter_handle("cdc_events", Label::None)
            .add(events as u64);
        obs.counter_handle("cdc_batches", Label::None)
            .add(batches.len() as u64);
        for batch in &batches {
            self.views.apply(&self.registry, batch);
        }
        Ok(batches)
    }

    /// [`CdcPipeline::poll`] ignoring the lag bound — the catch-up
    /// path after a [`CdcLag`] error; no events are missed because the
    /// cursor never moved.
    pub fn poll_unbounded(&mut self, db: &TpccDb) -> Vec<ChangeBatch> {
        let batches = db
            .with_wal(|wal| self.sub.poll_unbounded(wal))
            .expect("CDC requires WAL mode");
        let obs = db.bm.obs();
        let events: usize = batches.iter().map(|b| b.changes.len()).sum();
        obs.counter_handle("cdc_events", Label::None)
            .add(events as u64);
        obs.counter_handle("cdc_batches", Label::None)
            .add(batches.len() as u64);
        for batch in &batches {
            self.views.apply(&self.registry, batch);
        }
        batches
    }

    /// Takes a cursor checkpoint (fires the `cdc_checkpoint` fault
    /// site; `None` when a crash plan trips there — the checkpoint is
    /// lost, the previous one stays authoritative).
    #[must_use]
    pub fn checkpoint(&mut self) -> Option<CdcCheckpoint> {
        self.sub.checkpoint()
    }

    /// The maintained views.
    #[must_use]
    pub fn views(&self) -> &MaterializedViews {
        &self.views
    }

    /// Attribution registry (for event decoding).
    #[must_use]
    pub fn registry(&self) -> &ViewRegistry {
        &self.registry
    }

    /// WAL entries consumed.
    #[must_use]
    pub fn cursor(&self) -> usize {
        self.sub.cursor()
    }

    /// Entries the durable committed prefix is ahead of the cursor.
    #[must_use]
    pub fn lag(&self, db: &TpccDb) -> usize {
        db.with_wal(|wal| self.sub.lag(wal)).unwrap_or(0)
    }

    /// Subscriber throughput counters.
    #[must_use]
    pub fn stats(&self) -> CdcStats {
        self.sub.stats()
    }
}
