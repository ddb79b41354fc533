//! The five TPC-C transactions, executed against the storage engine
//! (paper §2.2's call sequences, with real record contents).

use crate::cluster::MsgKind;
use crate::db::TpccDb;
use crate::keys;
use crate::mvcc::TreeId;
use crate::records::{
    CustomerRec, DistrictRec, HistoryRec, ItemRec, NewOrderRec, OrderLineRec, OrderRec, Row,
    StockRec, WarehouseRec,
};
use crate::terminal::{OneNode, Placement};
use tpcc_schema::relation::Relation;
use tpcc_storage::undo::Snapshot;
use tpcc_storage::RecordId;

/// One ordered line of a New-Order request.
#[derive(Debug, Clone, Copy)]
pub struct OrderLineReq {
    /// Item ordered.
    pub item: u64,
    /// Supplying warehouse.
    pub supply_warehouse: u64,
    /// Quantity (spec: uniform 1–10).
    pub quantity: u16,
}

/// New-Order output.
#[derive(Debug, Clone)]
pub struct NewOrderResult {
    /// Assigned order number.
    pub o_id: u64,
    /// Total order amount after discount and taxes.
    pub total_amount: f64,
    /// Per-line amounts.
    pub line_amounts: Vec<f64>,
}

/// Payment output.
#[derive(Debug, Clone)]
pub struct PaymentResult {
    /// The customer charged (resolved id for by-name requests).
    pub c_id: u64,
    /// Customer balance after the payment.
    pub balance: f64,
    /// Rows the customer selection touched (1 by id, ~3 by name).
    pub rows_matched: usize,
}

/// Order-Status output.
#[derive(Debug, Clone)]
pub struct OrderStatusResult {
    /// Resolved customer.
    pub c_id: u64,
    /// Their most recent order, if any.
    pub o_id: Option<u64>,
    /// `(item, quantity, amount, delivery_date)` per line.
    pub lines: Vec<(u64, u16, f64, u64)>,
}

/// Delivery output.
#[derive(Debug, Clone)]
pub struct DeliveryResult {
    /// Orders delivered (≤ 10; districts with an empty queue skip).
    pub delivered: u64,
    /// The order number delivered per district (None = queue empty).
    pub per_district: [Option<u64>; 10],
}

/// Stock-Level output.
#[derive(Debug, Clone, Copy)]
pub struct StockLevelResult {
    /// Distinct items under the threshold among the last 20 orders.
    pub low_stock: u64,
    /// Order-line rows scanned (the paper's ~200).
    pub lines_scanned: u64,
}

/// A New-Order abort: clause 2.4.1.4's "unused item number" rollback
/// (1% of New-Order transactions are given one invalid item id and
/// must roll back after their reads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NewOrderAborted {
    /// Index of the offending line.
    pub bad_line: usize,
}

impl std::fmt::Display for NewOrderAborted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "new-order aborted: line {} names an unused item",
            self.bad_line
        )
    }
}

impl std::error::Error for NewOrderAborted {}

/// How Payment / Order-Status select the customer.
#[derive(Debug, Clone, Copy)]
pub enum CustomerSelector {
    /// Unique select by customer id.
    ById(u64),
    /// Non-unique select by last-name id; the median-by-first-name row
    /// (clause 2.5.2.2) is the one charged.
    ByName(u64),
}

/// The New-Order write sequence (§2.2), once for every executor: the
/// order lands on the home node of `w`; each line's item is read on its
/// owning node and each line's stock row updated on its supplying node
/// — through the home write context when that is the home node, as a
/// 2PC participant write otherwise. `Ok(None)` is a failed 2PC vote or
/// decide (everything rolled back; never on one node).
///
/// # Errors
/// [`NewOrderAborted`] when a line names an unused item (clause
/// 2.4.1.4); every prior write, home and remote, is undone first.
pub(crate) fn new_order<P: Placement>(
    p: &P,
    w: u64,
    d: u64,
    c: u64,
    lines: &[OrderLineReq],
) -> Result<Option<NewOrderResult>, NewOrderAborted> {
    assert!(!lines.is_empty(), "an order needs at least one line");
    let (hn, lw) = p.locate(w);
    let h = p.db(hn);
    let _span = h.bm.obs().span("new_order");
    h.check_scale(lw, d, Some(c));
    if !h.cfg.mvcc {
        // no undo log to unwind through: decide the rollback by the
        // id range (every id below `items` is loaded) before any write
        if let Some(bad_line) = lines.iter().position(|l| l.item >= h.cfg.items) {
            return Err(NewOrderAborted { bad_line });
        }
    }
    h.begin_write();
    let mut parts = P::Parts::default();

    // 1. warehouse tax
    let warehouse: WarehouseRec = h.select(keys::warehouse(lw));

    // 2-3. district: read and bump next_o_id under one fix
    let d_rid = h.rid_of(Relation::District, keys::district(lw, d));
    let (o_id, district_tax) = h.update_row(d_rid, |district: &mut DistrictRec| {
        district.next_o_id += 1;
        (u64::from(district.next_o_id - 1), district.tax)
    });

    // 4. customer discount
    let customer: CustomerRec = h.select(keys::customer(lw, d, c));

    // 5-6. order + new-order rows, under the home node's local keys
    let entry_d = h.tick();
    let all_local = lines.iter().all(|l| l.supply_warehouse == w);
    let order = OrderRec {
        o_id: o_id as u32,
        c_id: c as u32,
        entry_d,
        carrier_id: 0,
        ol_cnt: lines.len() as u8,
        all_local: u8::from(all_local),
    };
    let o_heap_rid = h.heap_insert(Relation::Order, &order.encode());
    h.index_insert(
        TreeId::Order,
        &[(keys::order(lw, d, o_id), o_heap_rid.to_u64())],
    );
    h.last_order_upsert(keys::last_order(lw, d, c), o_id);
    let no = NewOrderRec {
        o_id: o_id as u32,
        d_id: d as u16,
        w_id: lw as u16,
    };
    let no_rid = h.heap_insert(Relation::NewOrder, &no.encode());
    h.index_insert(
        TreeId::NewOrder,
        &[(keys::order(lw, d, o_id), no_rid.to_u64())],
    );

    // 7. per item: item read, stock read+update, order-line insert;
    // the order-line index entries ascend and go in as one run last
    let mut line_amounts = Vec::with_capacity(lines.len());
    let mut ol_entries = Vec::with_capacity(lines.len());
    for (number, line) in lines.iter().enumerate() {
        if line.item >= h.cfg.items {
            // clause 2.4.1.4: discovered at the item read, after this
            // transaction already wrote — unwind home and remote
            // writes, leaving no 2PC trace (presumed abort)
            p.abort(hn, parts);
            return Err(NewOrderAborted { bad_line: number });
        }
        let own = p.item_node(hn, line.item);
        if own != hn {
            p.msg(own, MsgKind::ItemRead);
        }
        let item: ItemRec = p.db(own).select(keys::item(line.item));

        let (sn, ls) = p.locate(line.supply_warehouse);
        let sdb = p.db(sn);
        sdb.check_scale(ls, d, None);
        if sn != hn {
            p.msg(sn, MsgKind::StockRead);
        }
        // stock read + update under one fix
        let s_rid = sdb.rid_of(Relation::Stock, keys::stock(ls, line.item));
        let take = |stock: &mut StockRec| {
            // clause 2.4.2.2: restock when the level would fall below 10
            if stock.quantity >= i32::from(line.quantity) + 10 {
                stock.quantity -= i32::from(line.quantity);
            } else {
                stock.quantity += 91 - i32::from(line.quantity);
            }
            stock.ytd += u64::from(line.quantity);
            stock.order_cnt += 1;
            if line.supply_warehouse != w {
                stock.remote_cnt += 1;
            }
            stock.dist_info[d as usize].clone()
        };
        let dist_info = if sn == hn {
            h.update_row(s_rid, take)
        } else {
            p.msg(sn, MsgKind::StockWrite);
            p.remote_update(&mut parts, sn, s_rid, take)
        };

        let amount = f64::from(line.quantity) * item.price;
        line_amounts.push(amount);
        let ol = OrderLineRec {
            o_id: o_id as u32,
            d_id: d as u16,
            w_id: lw as u16,
            number: number as u16,
            i_id: line.item as u32,
            supply_w_id: line.supply_warehouse as u16,
            delivery_d: 0,
            quantity: line.quantity,
            amount,
            dist_info,
        };
        let ol_rid = h.heap_insert(Relation::OrderLine, &ol.encode());
        ol_entries.push((
            keys::order_line(lw, d, o_id, number as u64),
            ol_rid.to_u64(),
        ));
    }
    h.index_insert(TreeId::OrderLine, &ol_entries);
    let subtotal: f64 = line_amounts.iter().sum();
    let total_amount = subtotal * (1.0 - customer.discount) * (1.0 + warehouse.tax + district_tax);
    Ok(p.commit(hn, parts).then_some(NewOrderResult {
        o_id,
        total_amount,
        line_amounts,
    }))
}

/// The Payment write sequence (§2.2), once for every executor:
/// warehouse/district ytd and the history row land on the home node of
/// `w`, the customer update on the node of `cw` — a 2PC participant
/// write when that is another node. `None` is a failed 2PC vote or
/// decide (everything rolled back; never on one node).
pub(crate) fn payment<P: Placement>(
    p: &P,
    w: u64,
    d: u64,
    cw: u64,
    cd: u64,
    selector: CustomerSelector,
    amount: f64,
) -> Option<PaymentResult> {
    let (hn, lw) = p.locate(w);
    let h = p.db(hn);
    h.check_scale(lw, d, None);
    let _span = h.bm.obs().span("payment");
    h.begin_write();
    let mut parts = P::Parts::default();

    // warehouse and district ytd: each read and updated under one fix
    let w_rid = h.rid_of(Relation::Warehouse, keys::warehouse(lw));
    h.update_row(w_rid, |warehouse: &mut WarehouseRec| {
        warehouse.ytd += amount
    });
    let d_rid = h.rid_of(Relation::District, keys::district(lw, d));
    h.update_row(d_rid, |district: &mut DistrictRec| district.ytd += amount);

    let (cn, lcw) = p.locate(cw);
    let cdb = p.db(cn);
    let (c_rid, customer, rows_matched) = cdb.resolve_customer_at(lcw, cd, selector, None);
    let charge = |customer: &mut CustomerRec| {
        customer.balance -= amount;
        customer.ytd_payment += amount;
        customer.payment_cnt += 1;
        customer.balance
    };
    let balance = if cn == hn {
        h.update_row(c_rid, charge)
    } else {
        // the selection touched `rows_matched` remote rows (~3 by
        // name), each a message, plus one write-back — the model's
        // remote-payment call counts
        for _ in 0..rows_matched {
            p.msg(cn, MsgKind::CustomerRead);
        }
        p.msg(cn, MsgKind::CustomerWrite);
        p.remote_update(&mut parts, cn, c_rid, charge)
    };

    let date = h.tick();
    let history = HistoryRec {
        c_id: customer.c_id,
        c_d_id: cd as u16,
        c_w_id: cw as u16,
        d_id: d as u16,
        w_id: lw as u16,
        date,
        amount,
        data: "payment".into(),
    };
    h.heap_insert(Relation::History, &history.encode());
    p.commit(hn, parts).then_some(PaymentResult {
        c_id: u64::from(customer.c_id),
        balance,
        rows_matched,
    })
}

impl TpccDb {
    /// The rid a unique index select (§2.2's `select`) finds for `key`.
    ///
    /// # Panics
    /// Panics when no row has the key (ids are scale-checked first).
    #[inline]
    fn rid_of(&self, rel: Relation, key: u64) -> RecordId {
        self.pk_lookup(rel, key)
            .unwrap_or_else(|| panic!("no {rel:?} row under key {key}"))
    }

    /// One indexed unique select, decoded from the latched row.
    #[inline]
    fn select<T: Row>(&self, key: u64) -> T {
        let rid = self.rid_of(T::REL, key);
        self.heaps
            .for_relation(T::REL)
            .read_with(&self.bm, rid, |row| {
                T::decode(row.expect("indexed row is live"))
            })
    }

    fn read_customer_at(&self, rid: RecordId, snap: Option<&Snapshot>) -> CustomerRec {
        let buf = self
            .read_row_at(Relation::Customer, rid, snap)
            .expect("live customer");
        CustomerRec::decode(&buf)
    }

    /// Resolves a selector to the target customer `(rid, record)`,
    /// implementing the by-name path: fetch all matches via the name
    /// index, sort by first name, take the median row. The name index
    /// and the names themselves are immutable after load, so only the
    /// row reads need the snapshot.
    fn resolve_customer_at(
        &self,
        w: u64,
        d: u64,
        selector: CustomerSelector,
        snap: Option<&Snapshot>,
    ) -> (RecordId, CustomerRec, usize) {
        match selector {
            CustomerSelector::ById(c) => {
                self.check_scale(w, d, Some(c));
                let rid = self
                    .pk_lookup(Relation::Customer, keys::customer(w, d, c))
                    .expect("customer exists");
                let rec = self.read_customer_at(rid, snap);
                (rid, rec, 1)
            }
            CustomerSelector::ByName(name_id) => {
                let (lo, hi) = keys::customer_name_range(w, d, name_id);
                let mut rids: Vec<RecordId> = Vec::new();
                self.idx.customer_name.scan_range(&self.bm, lo, hi, |_, v| {
                    rids.push(RecordId::from_u64(v));
                    true
                });
                assert!(
                    !rids.is_empty(),
                    "every name id has at least one owner by construction"
                );
                let mut matches: Vec<(RecordId, CustomerRec)> = rids
                    .into_iter()
                    .map(|rid| (rid, self.read_customer_at(rid, snap)))
                    .collect();
                matches.sort_by(|a, b| a.1.first.cmp(&b.1.first));
                let n = matches.len();
                let median = n.div_ceil(2) - 1; // position ⌈n/2⌉, 1-based
                let (rid, rec) = matches.swap_remove(median);
                (rid, rec, n)
            }
        }
    }

    /// Resolves a selector to the target customer id without executing
    /// a transaction. The answer is stable under concurrency: by-name
    /// resolution orders the (immutable) first names of an (immutable
    /// after load) match set, so the parallel driver can pre-resolve
    /// the id to lock before acquiring anything.
    pub(crate) fn resolve_customer_id(&self, w: u64, d: u64, selector: CustomerSelector) -> u64 {
        match selector {
            CustomerSelector::ById(c) => c,
            CustomerSelector::ByName(_) => {
                let (_, rec, _) = self.resolve_customer_at(w, d, selector, None);
                u64::from(rec.c_id)
            }
        }
    }

    /// New-Order (§2.2): places an order of `lines` items for customer
    /// `(w, d, c)`.
    ///
    /// # Panics
    /// Panics on ids beyond the configured scale, an unused item id, or
    /// an empty line list.
    pub fn new_order(&self, w: u64, d: u64, c: u64, lines: &[OrderLineReq]) -> NewOrderResult {
        self.new_order_checked(w, d, c, lines)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// New-Order with the spec's rollback semantics: if any line names
    /// an item that does not exist, the transaction aborts leaving no
    /// logical writes (clause 2.4.1.4).
    ///
    /// With MVCC on, this is a real abort: the transaction executes
    /// normally, discovers the unused item at that line's read, and
    /// unwinds its district bump, order/index inserts, and stock
    /// updates through the undo log (`TpccDb::abort_write`) — the
    /// compensating writes are ordinary WAL-logged page deltas, so the
    /// disk carries the abort's physical trace but no committed
    /// effect. With MVCC off there is no undo log to unwind through
    /// (capturing one costs ~12 % tps, so it stays gated on
    /// `cfg.mvcc`): the rollback is decided by the item-id range
    /// before the first write, and a rolled-back order fixes no page.
    ///
    /// # Errors
    /// [`NewOrderAborted`] naming the first invalid line.
    pub fn new_order_checked(
        &self,
        w: u64,
        d: u64,
        c: u64,
        lines: &[OrderLineReq],
    ) -> Result<NewOrderResult, NewOrderAborted> {
        let placed = new_order(&OneNode { db: self, lm: None }, w, d, c, lines)?;
        Ok(placed.expect("one node never runs 2PC"))
    }

    /// Payment (§2.2): charges `amount` to the selected customer of
    /// `(cw, cd)` through the terminal's `(w, d)`.
    pub fn payment(
        &self,
        w: u64,
        d: u64,
        cw: u64,
        cd: u64,
        selector: CustomerSelector,
        amount: f64,
    ) -> PaymentResult {
        payment(
            &OneNode { db: self, lm: None },
            w,
            d,
            cw,
            cd,
            selector,
            amount,
        )
        .expect("one node never runs 2PC")
    }

    /// Order-Status (§2.2): the customer's most recent order and its
    /// lines.
    pub fn order_status(&self, w: u64, d: u64, selector: CustomerSelector) -> OrderStatusResult {
        self.order_status_inner(w, d, selector, None)
    }

    /// Order-Status against a pinned snapshot ([`TpccDb::snapshot`]):
    /// reads resolve through the version chains, so the result is a
    /// consistent cut as of the pin and the caller needs **no logical
    /// locks** — concurrent Payments/Deliveries to the same customer
    /// are invisible rather than blocking.
    pub fn order_status_at(
        &self,
        snap: &Snapshot<'_>,
        w: u64,
        d: u64,
        selector: CustomerSelector,
    ) -> OrderStatusResult {
        self.order_status_inner(w, d, selector, Some(snap))
    }

    fn order_status_inner(
        &self,
        w: u64,
        d: u64,
        selector: CustomerSelector,
        snap: Option<&Snapshot>,
    ) -> OrderStatusResult {
        let _span = self.bm.obs().span("order_status");
        let (_, customer, _) = self.resolve_customer_at(w, d, selector, snap);
        let c = u64::from(customer.c_id);
        let Some(o_id) = self.last_order_at(keys::last_order(w, d, c), snap) else {
            return OrderStatusResult {
                c_id: c,
                o_id: None,
                lines: Vec::new(),
            };
        };
        // single indexed select for the Max(order-id) row (§2.2);
        // pk entries are insert-only, so the entry for an order visible
        // at the snapshot always exists
        let o_rid = self
            .pk_lookup(Relation::Order, keys::order(w, d, o_id))
            .expect("last order row exists");
        let order = OrderRec::decode(
            &self
                .read_row_at(Relation::Order, o_rid, snap)
                .expect("live"),
        );
        let (lo, hi) = keys::order_line_range(w, d, o_id);
        let mut rids = Vec::with_capacity(usize::from(order.ol_cnt));
        self.idx.order_line.scan_range(&self.bm, lo, hi, |_, v| {
            rids.push(RecordId::from_u64(v));
            true
        });
        // the lines, read by page run
        let mut lines = Vec::with_capacity(rids.len());
        self.read_rows_at(Relation::OrderLine, &rids, snap, |row| {
            let ol = OrderLineRec::decode(row);
            lines.push((u64::from(ol.i_id), ol.quantity, ol.amount, ol.delivery_d));
        });
        OrderStatusResult {
            c_id: c,
            o_id: Some(o_id),
            lines,
        }
    }

    /// Delivery (§2.2): delivers the oldest pending order of every
    /// district of `w`.
    pub fn delivery(&self, w: u64, carrier_id: u8) -> DeliveryResult {
        self.check_scale(w, 0, None);
        let _span = self.bm.obs().span("delivery");
        self.begin_write();
        let mut per_district = [None; 10];
        let mut delivered = 0;
        for d in 0..10u64 {
            per_district[d as usize] = self.delivery_district(w, d, carrier_id);
            delivered += u64::from(per_district[d as usize].is_some());
        }
        self.commit();
        DeliveryResult {
            delivered,
            per_district,
        }
    }

    /// The oldest pending order of district `(w, d)` and its customer,
    /// without delivering it — the parallel driver peeks here to build
    /// the lockset for one per-district delivery sub-transaction.
    pub(crate) fn peek_oldest_pending(&self, w: u64, d: u64) -> Option<(u64, u64)> {
        let (no_key, _) = self
            .idx
            .new_order
            .min_at_or_after(&self.bm, keys::order_lo(w, d))
            .filter(|(k, _)| *k < keys::order_hi(w, d))?;
        let o_id = keys::order_number(no_key);
        let o_rid = self.pk_lookup(Relation::Order, keys::order(w, d, o_id))?;
        let order = OrderRec::decode(&self.heaps.order.get(&self.bm, o_rid).expect("live"));
        Some((o_id, u64::from(order.c_id)))
    }

    /// One district's slice of a Delivery: deliver the oldest pending
    /// order of `(w, d)`, or skip when the queue is empty. Returns the
    /// delivered order number. [`TpccDb::delivery`] runs this for all
    /// ten districts; the parallel driver runs each district as its own
    /// sub-transaction (locked and committed separately), which is how
    /// the spec frames deferred delivery anyway.
    pub(crate) fn delivery_district(&self, w: u64, d: u64, carrier_id: u8) -> Option<u64> {
        // min-select on the New-Order index
        let (no_key, no_val) = self
            .idx
            .new_order
            .min_at_or_after(&self.bm, keys::order_lo(w, d))
            .filter(|(k, _)| *k < keys::order_hi(w, d))?;
        let o_id = keys::order_number(no_key);
        // delete the pending marker (index + heap row) — raw calls:
        // NEW-ORDER is unversioned (no snapshot reader touches it) and
        // Delivery never aborts
        self.idx.new_order.delete(&self.bm, no_key);
        self.heaps
            .new_order
            .delete(&self.bm, RecordId::from_u64(no_val));

        // order: read + set carrier under one fix
        let o_rid = self.rid_of(Relation::Order, keys::order(w, d, o_id));
        let (c_id, ol_cnt) = self.update_row(o_rid, |order: &mut OrderRec| {
            order.carrier_id = carrier_id;
            (order.c_id, order.ol_cnt)
        });

        // order lines: read + stamp delivery date, sum amounts — one fix
        // per page run
        let date = self.tick();
        let (lo, hi) = keys::order_line_range(w, d, o_id);
        let mut rids = Vec::with_capacity(usize::from(ol_cnt));
        self.idx.order_line.scan_range(&self.bm, lo, hi, |_, v| {
            rids.push(RecordId::from_u64(v));
            true
        });
        let mut total = 0.0;
        self.update_rows(Relation::OrderLine, &rids, |row| {
            total += OrderLineRec::recode(row, |ol| {
                ol.delivery_d = date;
                ol.amount
            });
        });

        // customer: credit the balance
        let c_rid = self.rid_of(Relation::Customer, keys::customer(w, d, u64::from(c_id)));
        self.update_row(c_rid, |customer: &mut CustomerRec| {
            customer.balance += total;
            customer.delivery_cnt += 1;
        });

        Some(o_id)
    }

    /// Stock-Level (§2.2): distinct items of the district's last 20
    /// orders whose stock is below `threshold`.
    pub fn stock_level(&self, w: u64, d: u64, threshold: i32) -> StockLevelResult {
        self.stock_level_inner(w, d, threshold, None)
    }

    /// Stock-Level against a pinned snapshot ([`TpccDb::snapshot`]):
    /// the 200-row join runs lock-free against the consistent cut at
    /// the pin. The scanned window `[next-20, next)` is derived from
    /// the district version visible at the snapshot; every order in it
    /// committed at or before the pin (id allocation is serialized by
    /// the district writers, and aborts un-burn their ids), and
    /// in-flight orders sort at or beyond `next` — outside the scan.
    pub fn stock_level_at(
        &self,
        snap: &Snapshot<'_>,
        w: u64,
        d: u64,
        threshold: i32,
    ) -> StockLevelResult {
        self.stock_level_inner(w, d, threshold, Some(snap))
    }

    fn stock_level_inner(
        &self,
        w: u64,
        d: u64,
        threshold: i32,
        snap: Option<&Snapshot>,
    ) -> StockLevelResult {
        self.check_scale(w, d, None);
        let _span = self.bm.obs().span("stock_level");
        let d_rid = self
            .pk_lookup(Relation::District, keys::district(w, d))
            .expect("district exists");
        let district = DistrictRec::decode(
            &self
                .read_row_at(Relation::District, d_rid, snap)
                .expect("live"),
        );
        let next = u64::from(district.next_o_id);
        let from = next.saturating_sub(20);

        // join: range-scan the order lines and read them by page run,
        // then probe STOCK once per distinct item, in key order
        let (lo, _) = keys::order_line_range(w, d, from);
        let (hi, _) = keys::order_line_range(w, d, next);
        let mut ol_rids = Vec::new();
        self.idx.order_line.scan_range(&self.bm, lo, hi, |_, v| {
            ol_rids.push(RecordId::from_u64(v));
            true
        });
        let mut stock_keys = Vec::with_capacity(ol_rids.len());
        self.read_rows_at(Relation::OrderLine, &ol_rids, snap, |row| {
            stock_keys.push(keys::stock(w, u64::from(OrderLineRec::decode(row).i_id)));
        });
        stock_keys.sort_unstable();
        stock_keys.dedup();
        let mut s_rids = Vec::with_capacity(stock_keys.len());
        self.idx.stock.get_sorted(&self.bm, &stock_keys, |_, v| {
            s_rids.push(RecordId::from_u64(v.expect("stock exists")));
        });
        let mut low_stock = 0;
        self.read_rows_at(Relation::Stock, &s_rids, snap, |row| {
            low_stock += u64::from(StockRec::decode(row).quantity < threshold);
        });
        StockLevelResult {
            low_stock,
            lines_scanned: ol_rids.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::DbConfig;
    use crate::loader;

    fn db() -> TpccDb {
        loader::load(DbConfig::small(), 7)
    }

    fn lines(items: &[u64]) -> Vec<OrderLineReq> {
        items
            .iter()
            .map(|&item| OrderLineReq {
                item,
                supply_warehouse: 0,
                quantity: 5,
            })
            .collect()
    }

    #[test]
    fn new_order_assigns_sequential_ids_and_totals() {
        let db = db();
        let first = db.new_order(0, 2, 5, &lines(&[1, 2, 3]));
        let second = db.new_order(0, 2, 6, &lines(&[4]));
        assert_eq!(second.o_id, first.o_id + 1);
        assert_eq!(first.line_amounts.len(), 3);
        assert!(first.total_amount > 0.0);
    }

    #[test]
    fn new_order_updates_stock_and_order_lines() {
        let db = db();
        let s_rid = db
            .pk_lookup(Relation::Stock, keys::stock(0, 9))
            .expect("stock");
        let before = StockRec::decode(&db.heaps.stock.get(&db.bm, s_rid).expect("live"));
        let r = db.new_order(0, 0, 0, &lines(&[9]));
        let after = StockRec::decode(&db.heaps.stock.get(&db.bm, s_rid).expect("live"));
        assert_eq!(after.order_cnt, before.order_cnt + 1);
        assert_ne!(after.quantity, before.quantity);
        // order line findable through the index
        let (lo, hi) = keys::order_line_range(0, 0, r.o_id);
        let mut n = 0;
        db.idx.order_line.scan_range(&db.bm, lo, hi, |_, _| {
            n += 1;
            true
        });
        assert_eq!(n, 1);
    }

    #[test]
    fn payment_by_id_updates_balances() {
        let db = db();
        let r = db.payment(0, 1, 0, 1, CustomerSelector::ById(3), 42.5);
        assert_eq!(r.c_id, 3);
        assert_eq!(r.rows_matched, 1);
        assert!((r.balance - (-10.0 - 42.5)).abs() < 1e-9);
        // second payment compounds
        let r2 = db.payment(0, 1, 0, 1, CustomerSelector::ById(3), 7.5);
        assert!((r2.balance - (-60.0)).abs() < 1e-9);
    }

    #[test]
    fn payment_by_name_picks_median_by_first_name() {
        let db = db();
        let r = db.payment(0, 0, 0, 0, CustomerSelector::ByName(0), 10.0);
        assert!(r.rows_matched >= 1);
        // the selected customer really has name id 0's last name
        let rec_rid = db
            .pk_lookup(Relation::Customer, keys::customer(0, 0, r.c_id))
            .expect("chosen customer");
        let rec = CustomerRec::decode(&db.heaps.customer.get(&db.bm, rec_rid).expect("live"));
        assert_eq!(rec.last, crate::names::last_name(0));
    }

    #[test]
    fn order_status_sees_latest_order() {
        let db = db();
        let placed = db.new_order(0, 4, 8, &lines(&[10, 11]));
        let status = db.order_status(0, 4, CustomerSelector::ById(8));
        assert_eq!(status.o_id, Some(placed.o_id));
        assert_eq!(status.lines.len(), 2);
        assert_eq!(status.lines[0].0, 10);
        assert_eq!(status.lines[0].3, 0, "undelivered");
    }

    #[test]
    fn delivery_processes_oldest_and_credits_customer() {
        let db = db();
        let oldest = db
            .idx
            .new_order
            .min_at_or_after(&db.bm, keys::order_lo(0, 0))
            .map(|(k, _)| keys::order_number(k))
            .expect("pending orders loaded");
        let r = db.delivery(0, 3);
        assert_eq!(r.delivered, 10, "all districts had pending orders");
        assert_eq!(r.per_district[0], Some(oldest));
        // delivered order now has a carrier and stamped lines
        let o_rid = db
            .pk_lookup(Relation::Order, keys::order(0, 0, oldest))
            .expect("order");
        let order = OrderRec::decode(&db.heaps.order.get(&db.bm, o_rid).expect("live"));
        assert_eq!(order.carrier_id, 3);
        let status = db.order_status(0, 0, CustomerSelector::ById(u64::from(order.c_id)));
        if status.o_id == Some(oldest) {
            assert!(status.lines.iter().all(|l| l.3 > 0), "lines stamped");
        }
    }

    #[test]
    fn delivery_on_drained_district_skips() {
        let db = db();
        let pending = db.idx.new_order.len(&db.bm) as u64;
        let mut total = 0;
        for _ in 0..((pending / 10) + 2) {
            total += db.delivery(0, 1).delivered;
        }
        assert_eq!(total, pending, "every pending order delivered exactly once");
        let r = db.delivery(0, 1);
        assert_eq!(r.delivered, 0);
        assert!(r.per_district.iter().all(Option::is_none));
    }

    #[test]
    fn stock_level_counts_distinct_low_items() {
        let db = db();
        let all = db.stock_level(0, 0, i32::MAX);
        let none = db.stock_level(0, 0, 0);
        assert_eq!(none.low_stock, 0);
        assert!(all.low_stock >= 1);
        assert!(all.lines_scanned >= 20 * 10, "last 20 orders x 10 lines");
        // distinct: can't exceed scanned lines or the item count
        assert!(all.low_stock <= all.lines_scanned);
        assert!(all.low_stock <= db.config().items);
    }

    #[test]
    fn stock_level_reflects_new_orders() {
        let db = db();
        // drain item 42's stock low via repeated big orders
        for _ in 0..3 {
            db.new_order(
                0,
                9,
                1,
                &[OrderLineReq {
                    item: 42,
                    supply_warehouse: 0,
                    quantity: 10,
                }],
            );
        }
        let r = db.stock_level(0, 9, 101);
        assert!(r.low_stock >= 1, "item 42 was just ordered and is < 101");
    }

    #[test]
    fn checked_new_order_aborts_on_unused_item_without_writes() {
        let mut db = db();
        let d_rid = db
            .pk_lookup(Relation::District, keys::district(0, 2))
            .expect("district");
        let before = DistrictRec::decode(&db.heaps.district.get(&db.bm, d_rid).expect("live"));
        let mut bad = lines(&[1, 2]);
        bad.push(OrderLineReq {
            item: db.config().items + 7, // unused item number
            supply_warehouse: 0,
            quantity: 1,
        });
        db.reset_stats();
        let err = db.new_order_checked(0, 2, 5, &bad).expect_err("must abort");
        assert_eq!(err.bad_line, 2);
        // without MVCC the rollback is decided by the item id range
        // before anything is read: no page was fixed
        let fixes = Relation::ALL
            .iter()
            .map(|&r| db.relation_stats(r))
            .fold(db.index_stats(), |a, s| a.merged(s));
        assert_eq!(fixes.hits + fixes.misses, 0);
        // no writes: next_o_id unchanged, no order row appeared
        let after = DistrictRec::decode(&db.heaps.district.get(&db.bm, d_rid).expect("live"));
        assert_eq!(after.next_o_id, before.next_o_id);
        assert!(db
            .pk_lookup(
                Relation::Order,
                keys::order(0, 2, u64::from(before.next_o_id))
            )
            .is_none());
    }

    /// The paper's Table 3 profile: a New-Order of m lines issues
    /// 3 + 2m unique index selects (warehouse, district, customer, then
    /// item + stock per line) — one descent per row read, with or
    /// without MVCC.
    #[test]
    fn committed_new_order_performs_the_table_3_index_selects() {
        for mvcc in [false, true] {
            let rec = std::sync::Arc::new(tpcc_obs::MemoryRecorder::new());
            let mut db = loader::load(
                DbConfig {
                    mvcc,
                    ..DbConfig::small()
                },
                7,
            );
            db.set_obs(tpcc_obs::Obs::new(rec.clone()));
            let ten: Vec<u64> = (1..=10).collect();
            db.new_order_checked(0, 2, 5, &lines(&ten))
                .expect("valid items commit");
            let selects: u64 = rec
                .snapshot()
                .spans
                .iter()
                .filter(|(path, _)| path.ends_with("btree_lookup"))
                .map(|(_, stat)| stat.count)
                .sum();
            assert_eq!(selects, 3 + 2 * 10, "mvcc {mvcc}");
        }
    }

    #[test]
    fn checked_new_order_succeeds_on_valid_items() {
        let db = db();
        let r = db
            .new_order_checked(0, 1, 3, &lines(&[5, 6]))
            .expect("valid");
        assert_eq!(r.line_amounts.len(), 2);
    }

    #[test]
    #[should_panic(expected = "beyond scale")]
    fn scale_violation_caught() {
        let db = db();
        let _ = db.new_order(5, 0, 0, &lines(&[1]));
    }

    fn mvcc_db() -> TpccDb {
        let cfg = DbConfig {
            mvcc: true,
            ..DbConfig::small()
        };
        loader::load(cfg, 7)
    }

    #[test]
    fn mvcc_snapshot_order_status_is_repeatable_under_later_writes() {
        let db = mvcc_db();
        let first = db.new_order(0, 3, 7, &lines(&[1, 2]));
        let snap = db.snapshot();
        let before = db.order_status_at(&snap, 0, 3, CustomerSelector::ById(7));
        assert_eq!(before.o_id, Some(first.o_id));

        // a later order and a payment are invisible to the pin
        let second = db.new_order(0, 3, 7, &lines(&[3]));
        db.payment(0, 3, 0, 3, CustomerSelector::ById(7), 10.0);
        let pinned = db.order_status_at(&snap, 0, 3, CustomerSelector::ById(7));
        assert_eq!(pinned.o_id, Some(first.o_id), "snapshot is repeatable");
        assert_eq!(pinned.lines.len(), 2);

        let live = db.order_status(0, 3, CustomerSelector::ById(7));
        assert_eq!(live.o_id, Some(second.o_id), "live read sees the head");
        drop(snap);
        let fresh = db.snapshot();
        let after = db.order_status_at(&fresh, 0, 3, CustomerSelector::ById(7));
        assert_eq!(after.o_id, Some(second.o_id));
    }

    #[test]
    fn mvcc_snapshot_stock_level_is_stable_while_stock_drains() {
        let db = mvcc_db();
        let snap = db.snapshot();
        let pinned_before = db.stock_level_at(&snap, 0, 9, 101);
        for _ in 0..3 {
            db.new_order(
                0,
                9,
                1,
                &[OrderLineReq {
                    item: 42,
                    supply_warehouse: 0,
                    quantity: 10,
                }],
            );
        }
        let pinned_after = db.stock_level_at(&snap, 0, 9, 101);
        assert_eq!(
            pinned_before.low_stock, pinned_after.low_stock,
            "the pinned join is a consistent cut"
        );
        assert_eq!(pinned_before.lines_scanned, pinned_after.lines_scanned);
        let live = db.stock_level(0, 9, 101);
        assert!(live.low_stock >= 1, "item 42 drained below threshold");
    }

    #[test]
    fn mvcc_abort_restores_every_row_and_index() {
        let db = mvcc_db();
        // place one real order first so last_order has a prior value
        let placed = db.new_order(0, 2, 5, &lines(&[4]));
        let d_rid = db
            .pk_lookup(Relation::District, keys::district(0, 2))
            .expect("district");
        let district_before = db.heaps.district.get(&db.bm, d_rid).expect("live");
        let s_rid = db
            .pk_lookup(Relation::Stock, keys::stock(0, 1))
            .expect("stock");
        let stock_before = db.heaps.stock.get(&db.bm, s_rid).expect("live");
        let next_o = u64::from(DistrictRec::decode(&district_before).next_o_id);

        let mut bad = lines(&[1, 2]);
        bad.push(OrderLineReq {
            item: db.config().items + 7,
            supply_warehouse: 0,
            quantity: 1,
        });
        let err = db.new_order_checked(0, 2, 5, &bad).expect_err("must abort");
        assert_eq!(err.bad_line, 2);

        // district bump unwound, stock restored byte-for-byte
        assert_eq!(
            db.heaps.district.get(&db.bm, d_rid).expect("live"),
            district_before
        );
        assert_eq!(
            db.heaps.stock.get(&db.bm, s_rid).expect("live"),
            stock_before
        );
        // order/new-order rows and index entries gone
        assert!(db
            .pk_lookup(Relation::Order, keys::order(0, 2, next_o))
            .is_none());
        assert!(db
            .pk_lookup(Relation::NewOrder, keys::order(0, 2, next_o))
            .is_none());
        assert!(db
            .pk_lookup(Relation::OrderLine, keys::order_line(0, 2, next_o, 0))
            .is_none());
        // last_order points back at the prior order
        let status = db.order_status(0, 2, CustomerSelector::ById(5));
        assert_eq!(status.o_id, Some(placed.o_id));
        // the id was un-burned: the next order reuses it
        let next = db.new_order(0, 2, 5, &lines(&[3]));
        assert_eq!(next.o_id, next_o);
        assert!(db.verify_consistency().is_consistent());
    }

    #[test]
    fn mvcc_abort_interplays_with_wal_recovery() {
        let cfg = DbConfig {
            mvcc: true,
            enable_wal: true,
            ..DbConfig::small()
        };
        let mut db = loader::load(cfg, 7);
        let mut bad = lines(&[1, 2]);
        bad.push(OrderLineReq {
            item: db.config().items + 1,
            supply_warehouse: 0,
            quantity: 1,
        });
        db.new_order_checked(0, 0, 3, &bad).expect_err("abort");
        db.new_order_checked(0, 1, 4, &bad).expect_err("abort");
        // commit last: the aborts' forward + compensating deltas are
        // inside the committed prefix and must replay to the exact
        // live image (residue *after* the last commit is legitimately
        // dropped at a crash, like any uncommitted transaction)
        db.new_order(0, 0, 3, &lines(&[5]));
        assert!(
            db.crash_recovery_check(),
            "forward + compensating deltas replay to the live image"
        );
    }

    #[test]
    fn mvcc_snapshot_sees_pre_delivery_state() {
        let db = mvcc_db();
        let (o_id, c_id) = db.peek_oldest_pending(0, 0).expect("pending orders");
        let snap = db.snapshot();
        db.delivery(0, 3);
        // at the pin, the order was undelivered and the customer
        // uncredited
        let pinned = db.order_status_at(&snap, 0, 0, CustomerSelector::ById(c_id));
        if pinned.o_id == Some(o_id) {
            assert!(
                pinned.lines.iter().all(|l| l.3 == 0),
                "delivery is invisible to the pin"
            );
        }
        drop(snap);
        let fresh = db.snapshot();
        let live = db.order_status_at(&fresh, 0, 0, CustomerSelector::ById(c_id));
        if live.o_id == Some(o_id) {
            assert!(live.lines.iter().all(|l| l.3 > 0), "now delivered");
        }
    }

    #[test]
    fn mvcc_off_snapshot_panics() {
        let db = db();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| db.snapshot()));
        assert!(result.is_err(), "snapshot() requires DbConfig::mvcc");
    }
}
