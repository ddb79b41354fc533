//! Fixed-length record encodings matching Table 1's tuple lengths
//! exactly (89 / 95 / 655 / 306 / 82 / 24 / 8 / 54 / 46 bytes).
//!
//! Encoding is positional little-endian with fixed-width text fields
//! (NUL-padded); every `encode` asserts the byte length against the
//! schema so the physical database and the analytic model can never
//! drift apart.

use tpcc_schema::relation::Relation;

/// Cursor-style writer that enforces the target length.
struct W {
    buf: Vec<u8>,
    target: usize,
}

impl W {
    fn new(relation: Relation) -> Self {
        let target = relation.tuple_len() as usize;
        Self {
            buf: Vec::with_capacity(target),
            target,
        }
    }

    fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    fn f64(&mut self, v: f64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    fn text(&mut self, s: &str, width: usize) -> &mut Self {
        let bytes = s.as_bytes();
        assert!(
            bytes.len() <= width,
            "text '{s}' exceeds field width {width}"
        );
        self.buf.extend_from_slice(bytes);
        self.buf
            .extend(std::iter::repeat_n(0u8, width - bytes.len()));
        self
    }

    fn finish(mut self) -> Vec<u8> {
        assert!(
            self.buf.len() <= self.target,
            "record overflows tuple length: {} > {}",
            self.buf.len(),
            self.target
        );
        self.buf.resize(self.target, 0);
        self.buf
    }
}

/// Cursor-style reader.
struct R<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> R<'a> {
    fn new(buf: &'a [u8], relation: Relation) -> Self {
        assert_eq!(
            buf.len(),
            relation.tuple_len() as usize,
            "record length mismatch for {}",
            relation.name()
        );
        Self { buf, pos: 0 }
    }

    fn u8(&mut self) -> u8 {
        let v = self.buf[self.pos];
        self.pos += 1;
        v
    }

    fn u16(&mut self) -> u16 {
        let v = u16::from_le_bytes(self.buf[self.pos..self.pos + 2].try_into().expect("u16"));
        self.pos += 2;
        v
    }

    fn u32(&mut self) -> u32 {
        let v = u32::from_le_bytes(self.buf[self.pos..self.pos + 4].try_into().expect("u32"));
        self.pos += 4;
        v
    }

    fn u64(&mut self) -> u64 {
        let v = u64::from_le_bytes(self.buf[self.pos..self.pos + 8].try_into().expect("u64"));
        self.pos += 8;
        v
    }

    fn f64(&mut self) -> f64 {
        let v = f64::from_le_bytes(self.buf[self.pos..self.pos + 8].try_into().expect("f64"));
        self.pos += 8;
        v
    }

    fn text(&mut self, width: usize) -> String {
        let raw = &self.buf[self.pos..self.pos + width];
        self.pos += width;
        let end = raw.iter().position(|&b| b == 0).unwrap_or(width);
        String::from_utf8_lossy(&raw[..end]).into_owned()
    }
}

/// Warehouse row (89 bytes).
#[derive(Debug, Clone, PartialEq)]
pub struct WarehouseRec {
    /// Warehouse id.
    pub w_id: u32,
    /// Company name (≤ 10 chars).
    pub name: String,
    /// City (≤ 20 chars).
    pub city: String,
    /// State code (2 chars).
    pub state: String,
    /// Zip code (≤ 9 chars).
    pub zip: String,
    /// Sales tax.
    pub tax: f64,
    /// Year-to-date balance (updated by Payment).
    pub ytd: f64,
}

impl WarehouseRec {
    /// Serializes to exactly 89 bytes.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = W::new(Relation::Warehouse);
        w.u32(self.w_id)
            .text(&self.name, 10)
            .text(&self.city, 20)
            .text(&self.state, 2)
            .text(&self.zip, 9)
            .f64(self.tax)
            .f64(self.ytd);
        w.finish()
    }

    /// Deserializes.
    #[must_use]
    pub fn decode(buf: &[u8]) -> Self {
        let mut r = R::new(buf, Relation::Warehouse);
        Self {
            w_id: r.u32(),
            name: r.text(10),
            city: r.text(20),
            state: r.text(2),
            zip: r.text(9),
            tax: r.f64(),
            ytd: r.f64(),
        }
    }
}

/// District row (95 bytes).
#[derive(Debug, Clone, PartialEq)]
pub struct DistrictRec {
    /// District id within the warehouse.
    pub d_id: u32,
    /// Owning warehouse.
    pub w_id: u32,
    /// District name (≤ 10 chars).
    pub name: String,
    /// City (≤ 20 chars).
    pub city: String,
    /// Sales tax.
    pub tax: f64,
    /// Year-to-date balance.
    pub ytd: f64,
    /// Next order number to assign (read by Stock-Level, bumped by
    /// New-Order).
    pub next_o_id: u32,
}

impl DistrictRec {
    /// Serializes to exactly 95 bytes.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = W::new(Relation::District);
        w.u32(self.d_id)
            .u32(self.w_id)
            .text(&self.name, 10)
            .text(&self.city, 20)
            .f64(self.tax)
            .f64(self.ytd)
            .u32(self.next_o_id);
        w.finish()
    }

    /// Deserializes.
    #[must_use]
    pub fn decode(buf: &[u8]) -> Self {
        let mut r = R::new(buf, Relation::District);
        Self {
            d_id: r.u32(),
            w_id: r.u32(),
            name: r.text(10),
            city: r.text(20),
            tax: r.f64(),
            ytd: r.f64(),
            next_o_id: r.u32(),
        }
    }
}

/// Customer row (655 bytes).
#[derive(Debug, Clone, PartialEq)]
pub struct CustomerRec {
    /// Customer id within the district.
    pub c_id: u32,
    /// District.
    pub d_id: u32,
    /// Warehouse.
    pub w_id: u32,
    /// First name (≤ 16).
    pub first: String,
    /// Middle initials (2).
    pub middle: String,
    /// Last name (≤ 16, syllable-composed).
    pub last: String,
    /// Street address (≤ 40).
    pub street: String,
    /// City (≤ 20).
    pub city: String,
    /// Phone (≤ 16).
    pub phone: String,
    /// Credit status ("GC" / "BC").
    pub credit: String,
    /// Credit limit.
    pub credit_lim: f64,
    /// Discount rate.
    pub discount: f64,
    /// Balance (updated by Payment and Delivery).
    pub balance: f64,
    /// Year-to-date payment.
    pub ytd_payment: f64,
    /// Payments made.
    pub payment_cnt: u32,
    /// Deliveries received.
    pub delivery_cnt: u32,
    /// Miscellaneous data (≤ 491 after fixed fields).
    pub data: String,
}

impl CustomerRec {
    /// Serializes to exactly 655 bytes.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = W::new(Relation::Customer);
        w.u32(self.c_id)
            .u32(self.d_id)
            .u32(self.w_id)
            .text(&self.first, 16)
            .text(&self.middle, 2)
            .text(&self.last, 16)
            .text(&self.street, 40)
            .text(&self.city, 20)
            .text(&self.phone, 16)
            .text(&self.credit, 2)
            .f64(self.credit_lim)
            .f64(self.discount)
            .f64(self.balance)
            .f64(self.ytd_payment)
            .u32(self.payment_cnt)
            .u32(self.delivery_cnt)
            .text(&self.data, 491);
        w.finish()
    }

    /// Deserializes.
    #[must_use]
    pub fn decode(buf: &[u8]) -> Self {
        let mut r = R::new(buf, Relation::Customer);
        Self {
            c_id: r.u32(),
            d_id: r.u32(),
            w_id: r.u32(),
            first: r.text(16),
            middle: r.text(2),
            last: r.text(16),
            street: r.text(40),
            city: r.text(20),
            phone: r.text(16),
            credit: r.text(2),
            credit_lim: r.f64(),
            discount: r.f64(),
            balance: r.f64(),
            ytd_payment: r.f64(),
            payment_cnt: r.u32(),
            delivery_cnt: r.u32(),
            data: r.text(491),
        }
    }
}

/// Stock row (306 bytes).
#[derive(Debug, Clone, PartialEq)]
pub struct StockRec {
    /// Item id.
    pub i_id: u32,
    /// Warehouse id.
    pub w_id: u32,
    /// Quantity on hand (decremented by New-Order, the Stock-Level
    /// threshold target).
    pub quantity: i32,
    /// Year-to-date quantity ordered.
    pub ytd: u64,
    /// Orders served.
    pub order_cnt: u32,
    /// Orders served for remote warehouses.
    pub remote_cnt: u32,
    /// Per-district info strings (10 × ≤ 24).
    pub dist_info: [String; 10],
    /// Miscellaneous data (≤ 30).
    pub data: String,
}

impl StockRec {
    /// Serializes to exactly 306 bytes.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = W::new(Relation::Stock);
        w.u32(self.i_id)
            .u32(self.w_id)
            .u32(self.quantity as u32)
            .u64(self.ytd)
            .u32(self.order_cnt)
            .u32(self.remote_cnt);
        for d in &self.dist_info {
            w.text(d, 24);
        }
        w.text(&self.data, 30);
        w.finish()
    }

    /// Deserializes.
    #[must_use]
    pub fn decode(buf: &[u8]) -> Self {
        let mut r = R::new(buf, Relation::Stock);
        let i_id = r.u32();
        let w_id = r.u32();
        let quantity = r.u32() as i32;
        let ytd = r.u64();
        let order_cnt = r.u32();
        let remote_cnt = r.u32();
        let dist_info = std::array::from_fn(|_| r.text(24));
        Self {
            i_id,
            w_id,
            quantity,
            ytd,
            order_cnt,
            remote_cnt,
            dist_info,
            data: r.text(30),
        }
    }
}

/// Item row (82 bytes).
#[derive(Debug, Clone, PartialEq)]
pub struct ItemRec {
    /// Item id.
    pub i_id: u32,
    /// Image id.
    pub im_id: u32,
    /// Price.
    pub price: f64,
    /// Name (≤ 24).
    pub name: String,
    /// Data (≤ 40; "ORIGINAL" in 10% per spec).
    pub data: String,
}

impl ItemRec {
    /// Serializes to exactly 82 bytes.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = W::new(Relation::Item);
        w.u32(self.i_id)
            .u32(self.im_id)
            .f64(self.price)
            .text(&self.name, 24)
            .text(&self.data, 40);
        w.finish()
    }

    /// Deserializes.
    #[must_use]
    pub fn decode(buf: &[u8]) -> Self {
        let mut r = R::new(buf, Relation::Item);
        Self {
            i_id: r.u32(),
            im_id: r.u32(),
            price: r.f64(),
            name: r.text(24),
            data: r.text(40),
        }
    }
}

/// Order row (24 bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderRec {
    /// Order number within the district.
    pub o_id: u32,
    /// Ordering customer.
    pub c_id: u32,
    /// Entry timestamp (logical clock).
    pub entry_d: u64,
    /// Carrier assigned at delivery (0 = undelivered).
    pub carrier_id: u8,
    /// Number of order lines.
    pub ol_cnt: u8,
    /// 1 when every line is supplied locally.
    pub all_local: u8,
}

impl OrderRec {
    /// Serializes to exactly 24 bytes.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = W::new(Relation::Order);
        w.u32(self.o_id)
            .u32(self.c_id)
            .u64(self.entry_d)
            .u8(self.carrier_id)
            .u8(self.ol_cnt)
            .u8(self.all_local);
        w.finish()
    }

    /// Deserializes.
    #[must_use]
    pub fn decode(buf: &[u8]) -> Self {
        let mut r = R::new(buf, Relation::Order);
        Self {
            o_id: r.u32(),
            c_id: r.u32(),
            entry_d: r.u64(),
            carrier_id: r.u8(),
            ol_cnt: r.u8(),
            all_local: r.u8(),
        }
    }
}

/// New-Order row (8 bytes): the pending-delivery marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NewOrderRec {
    /// Order number.
    pub o_id: u32,
    /// District.
    pub d_id: u16,
    /// Warehouse.
    pub w_id: u16,
}

impl NewOrderRec {
    /// Serializes to exactly 8 bytes.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = W::new(Relation::NewOrder);
        w.u32(self.o_id).u16(self.d_id).u16(self.w_id);
        w.finish()
    }

    /// Deserializes.
    #[must_use]
    pub fn decode(buf: &[u8]) -> Self {
        let mut r = R::new(buf, Relation::NewOrder);
        Self {
            o_id: r.u32(),
            d_id: r.u16(),
            w_id: r.u16(),
        }
    }
}

/// Order-Line row (54 bytes).
#[derive(Debug, Clone, PartialEq)]
pub struct OrderLineRec {
    /// Order number.
    pub o_id: u32,
    /// District.
    pub d_id: u16,
    /// Warehouse.
    pub w_id: u16,
    /// Line number within the order.
    pub number: u16,
    /// Ordered item.
    pub i_id: u32,
    /// Supplying warehouse.
    pub supply_w_id: u16,
    /// Delivery timestamp (0 = undelivered).
    pub delivery_d: u64,
    /// Quantity.
    pub quantity: u16,
    /// Line amount.
    pub amount: f64,
    /// District info copied from stock (≤ 20).
    pub dist_info: String,
}

impl OrderLineRec {
    /// Serializes to exactly 54 bytes.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = W::new(Relation::OrderLine);
        w.u32(self.o_id)
            .u16(self.d_id)
            .u16(self.w_id)
            .u16(self.number)
            .u32(self.i_id)
            .u16(self.supply_w_id)
            .u64(self.delivery_d)
            .u16(self.quantity)
            .f64(self.amount)
            .text(&self.dist_info, 20);
        w.finish()
    }

    /// Deserializes.
    #[must_use]
    pub fn decode(buf: &[u8]) -> Self {
        let mut r = R::new(buf, Relation::OrderLine);
        Self {
            o_id: r.u32(),
            d_id: r.u16(),
            w_id: r.u16(),
            number: r.u16(),
            i_id: r.u32(),
            supply_w_id: r.u16(),
            delivery_d: r.u64(),
            quantity: r.u16(),
            amount: r.f64(),
            dist_info: r.text(20),
        }
    }
}

/// History row (46 bytes).
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryRec {
    /// Paying customer.
    pub c_id: u32,
    /// Customer's district.
    pub c_d_id: u16,
    /// Customer's warehouse.
    pub c_w_id: u16,
    /// Payment district.
    pub d_id: u16,
    /// Payment warehouse.
    pub w_id: u16,
    /// Timestamp.
    pub date: u64,
    /// Amount paid.
    pub amount: f64,
    /// Data (≤ 18 after fixed fields).
    pub data: String,
}

impl HistoryRec {
    /// Serializes to exactly 46 bytes.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = W::new(Relation::History);
        w.u32(self.c_id)
            .u16(self.c_d_id)
            .u16(self.c_w_id)
            .u16(self.d_id)
            .u16(self.w_id)
            .u64(self.date)
            .f64(self.amount)
            .text(&self.data, 18);
        w.finish()
    }

    /// Deserializes.
    #[must_use]
    pub fn decode(buf: &[u8]) -> Self {
        let mut r = R::new(buf, Relation::History);
        Self {
            c_id: r.u32(),
            c_d_id: r.u16(),
            c_w_id: r.u16(),
            d_id: r.u16(),
            w_id: r.u16(),
            date: r.u64(),
            amount: r.f64(),
            data: r.text(18),
        }
    }
}

/// A record type kept in one relation's heap: what the database's row
/// updates decode a latched row into and encode it back from.
pub(crate) trait Row: Sized {
    /// The relation whose heap holds these rows.
    const REL: Relation;
    /// Deserializes.
    fn decode(buf: &[u8]) -> Self;
    /// Serializes to exactly the relation's tuple length.
    fn encode(&self) -> Vec<u8>;

    /// Decodes `bytes`, lets `f` change the record, and encodes it back
    /// in place; returns what `f` returns.
    fn recode<R>(bytes: &mut [u8], f: impl FnOnce(&mut Self) -> R) -> R {
        let mut row = Self::decode(bytes);
        let out = f(&mut row);
        bytes.copy_from_slice(&row.encode());
        out
    }
}

macro_rules! rows {
    ($($rec:ty => $rel:ident),* $(,)?) => {$(
        impl Row for $rec {
            const REL: Relation = Relation::$rel;
            fn decode(buf: &[u8]) -> Self {
                <$rec>::decode(buf)
            }
            fn encode(&self) -> Vec<u8> {
                <$rec>::encode(self)
            }
        }
    )*};
}

rows! {
    WarehouseRec => Warehouse,
    DistrictRec => District,
    CustomerRec => Customer,
    StockRec => Stock,
    ItemRec => Item,
    OrderRec => Order,
    OrderLineRec => OrderLine,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_record_matches_table1_length() {
        assert_eq!(sample_warehouse().encode().len(), 89);
        assert_eq!(sample_district().encode().len(), 95);
        assert_eq!(sample_customer().encode().len(), 655);
        assert_eq!(sample_stock().encode().len(), 306);
        assert_eq!(sample_item().encode().len(), 82);
        assert_eq!(sample_order().encode().len(), 24);
        assert_eq!(
            NewOrderRec {
                o_id: 7,
                d_id: 3,
                w_id: 1
            }
            .encode()
            .len(),
            8
        );
        assert_eq!(sample_order_line().encode().len(), 54);
        assert_eq!(sample_history().encode().len(), 46);
    }

    #[test]
    fn round_trips() {
        let w = sample_warehouse();
        assert_eq!(WarehouseRec::decode(&w.encode()), w);
        let d = sample_district();
        assert_eq!(DistrictRec::decode(&d.encode()), d);
        let c = sample_customer();
        assert_eq!(CustomerRec::decode(&c.encode()), c);
        let s = sample_stock();
        assert_eq!(StockRec::decode(&s.encode()), s);
        let i = sample_item();
        assert_eq!(ItemRec::decode(&i.encode()), i);
        let o = sample_order();
        assert_eq!(OrderRec::decode(&o.encode()), o);
        let ol = sample_order_line();
        assert_eq!(OrderLineRec::decode(&ol.encode()), ol);
        let h = sample_history();
        assert_eq!(HistoryRec::decode(&h.encode()), h);
    }

    #[test]
    #[should_panic(expected = "exceeds field width")]
    fn oversized_text_rejected() {
        let mut w = sample_warehouse();
        w.name = "WAY TOO LONG A NAME".into();
        let _ = w.encode();
    }

    #[test]
    #[should_panic(expected = "record length mismatch")]
    fn wrong_length_decode_rejected() {
        let _ = WarehouseRec::decode(&[0u8; 88]);
    }

    fn sample_warehouse() -> WarehouseRec {
        WarehouseRec {
            w_id: 3,
            name: "Wh3".into(),
            city: "Yorktown".into(),
            state: "NY".into(),
            zip: "105980000".into(),
            tax: 0.0725,
            ytd: 300_000.0,
        }
    }

    fn sample_district() -> DistrictRec {
        DistrictRec {
            d_id: 4,
            w_id: 3,
            name: "D4".into(),
            city: "Hampton".into(),
            tax: 0.01,
            ytd: 30_000.0,
            next_o_id: 3001,
        }
    }

    fn sample_customer() -> CustomerRec {
        CustomerRec {
            c_id: 42,
            d_id: 4,
            w_id: 3,
            first: "Ada".into(),
            middle: "OE".into(),
            last: "BARBARBAR".into(),
            street: "1 Main St".into(),
            city: "Hampton".into(),
            phone: "5551234567890123".into(),
            credit: "GC".into(),
            credit_lim: 50_000.0,
            discount: 0.3,
            balance: -10.0,
            ytd_payment: 10.0,
            payment_cnt: 1,
            delivery_cnt: 0,
            data: "misc".into(),
        }
    }

    fn sample_stock() -> StockRec {
        StockRec {
            i_id: 7,
            w_id: 3,
            quantity: 55,
            ytd: 0,
            order_cnt: 0,
            remote_cnt: 0,
            dist_info: std::array::from_fn(|i| format!("dist{i}")),
            data: "stockdata".into(),
        }
    }

    fn sample_item() -> ItemRec {
        ItemRec {
            i_id: 7,
            im_id: 7000,
            price: 9.99,
            name: "widget".into(),
            data: "ORIGINAL".into(),
        }
    }

    fn sample_order() -> OrderRec {
        OrderRec {
            o_id: 3000,
            c_id: 42,
            entry_d: 123,
            carrier_id: 0,
            ol_cnt: 10,
            all_local: 1,
        }
    }

    fn sample_order_line() -> OrderLineRec {
        OrderLineRec {
            o_id: 3000,
            d_id: 4,
            w_id: 3,
            number: 2,
            i_id: 7,
            supply_w_id: 3,
            delivery_d: 0,
            quantity: 5,
            amount: 49.95,
            dist_info: "dist4".into(),
        }
    }

    fn sample_history() -> HistoryRec {
        HistoryRec {
            c_id: 42,
            c_d_id: 4,
            c_w_id: 3,
            d_id: 4,
            w_id: 3,
            date: 9,
            amount: 100.0,
            data: "payment".into(),
        }
    }
}
