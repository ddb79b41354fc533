//! Fixed-length record encodings matching Table 1's tuple lengths
//! exactly (89 / 95 / 655 / 306 / 82 / 24 / 8 / 54 / 46 bytes).
//!
//! Each relation's row format is stated once, as a declaration of its
//! fields in on-page order with their kinds and widths, closed by a zero
//! pad. The declaration expands to the record struct, its `encode` /
//! `decode` pair and a compile-time check that widths plus pad equal
//! [`Relation::tuple_len`], so the physical database and the analytic
//! model cannot drift apart. Numbers are little-endian; text is
//! fixed-width and NUL-padded.

use tpcc_schema::relation::Relation;

/// Appends `s` NUL-padded to `width` bytes.
fn put_text(out: &mut Vec<u8>, s: &str, width: usize) {
    let bytes = s.as_bytes();
    assert!(
        bytes.len() <= width,
        "text '{s}' exceeds field width {width}"
    );
    out.extend_from_slice(bytes);
    out.resize(out.len() + width - bytes.len(), 0);
}

/// Splits the next `N` bytes off `rest`.
fn take<'a, const N: usize>(rest: &mut &'a [u8]) -> &'a [u8; N] {
    let (head, tail) = rest.split_first_chunk().expect("decode checked the length");
    *rest = tail;
    head
}

/// Splits the next `width` bytes off `rest` as NUL-terminated text.
fn get_text(rest: &mut &[u8], width: usize) -> String {
    let (raw, tail) = rest.split_at(width);
    *rest = tail;
    let end = raw.iter().position(|&b| b == 0).unwrap_or(width);
    String::from_utf8_lossy(&raw[..end]).into_owned()
}

/// Declares one relation's row. A field's kind is its Rust type for a
/// little-endian number (`u8`, `u16`, `u32`, `u64`, `i32`, `f64`),
/// `text(W)` for a `String` stored in W NUL-padded bytes, or
/// `text(W) * N` for `[String; N]`; `pad P` closes the row with P zero
/// bytes. It expands to the struct, `encode`, `decode`, the [`Row`]
/// impl and the Table 1 length check.
macro_rules! row {
    (
        $(#[$meta:meta])*
        pub struct $name:ident in $rel:ident {
            $($(#[$doc:meta])* pub $f:ident: $k:ident $(($w:literal))? $(* $n:literal)?,)*
            $(pad $pad:literal)?
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$doc])* pub $f: row!(@type $k $(($w))? $(* $n)?),)*
        }

        impl $name {
            /// Row length: the declared widths plus the pad.
            const LEN: usize = 0 $(+ row!(@width $k $(($w))? $(* $n)?))* $(+ $pad)?;

            /// Serializes to exactly the relation's Table 1 tuple length.
            #[must_use]
            pub fn encode(&self) -> Vec<u8> {
                let mut out = Vec::with_capacity(Self::LEN);
                $(row!(@put out, self.$f, $k $(($w))? $(* $n)?);)*
                $(out.extend_from_slice(&[0; $pad]);)?
                out
            }

            /// Deserializes.
            #[must_use]
            pub fn decode(buf: &[u8]) -> Self {
                let name = Relation::$rel.name();
                assert_eq!(buf.len(), Self::LEN, "record length mismatch for {name}");
                let mut rest = buf;
                Self { $($f: row!(@get rest, $k $(($w))? $(* $n)?),)* }
            }
        }

        const _: () = assert!(
            $name::LEN as u64 == Relation::$rel.tuple_len(),
            concat!(stringify!($name), " does not sum to its Table 1 tuple length")
        );

        impl Row for $name {
            const REL: Relation = Relation::$rel;
            fn decode(buf: &[u8]) -> Self {
                <$name>::decode(buf)
            }
            fn encode(&self) -> Vec<u8> {
                <$name>::encode(self)
            }
        }
    };
    (@type text($w:literal)) => { String };
    (@type text($w:literal) * $n:literal) => { [String; $n] };
    (@type $num:ident) => { $num };
    (@width text($w:literal)) => { $w };
    (@width text($w:literal) * $n:literal) => { $w * $n };
    (@width $num:ident) => { ::std::mem::size_of::<$num>() };
    (@put $out:ident, $v:expr, text($w:literal)) => { put_text(&mut $out, &$v, $w) };
    (@put $out:ident, $v:expr, text($w:literal) * $n:literal) => {
        for s in &$v {
            put_text(&mut $out, s, $w);
        }
    };
    (@put $out:ident, $v:expr, $num:ident) => { $out.extend_from_slice(&$v.to_le_bytes()) };
    (@get $rest:ident, text($w:literal)) => { get_text(&mut $rest, $w) };
    (@get $rest:ident, text($w:literal) * $n:literal) => {
        std::array::from_fn(|_| get_text(&mut $rest, $w))
    };
    (@get $rest:ident, $num:ident) => { $num::from_le_bytes(*take(&mut $rest)) };
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

row! {
    /// Warehouse row (89 bytes).
    #[derive(Debug, Clone, PartialEq)]
    pub struct WarehouseRec in Warehouse {
        /// Warehouse id.
        pub w_id: u32,
        /// Company name (≤ 10 chars).
        pub name: text(10),
        /// City (≤ 20 chars).
        pub city: text(20),
        /// State code (2 chars).
        pub state: text(2),
        /// Zip code (≤ 9 chars).
        pub zip: text(9),
        /// Sales tax.
        pub tax: f64,
        /// Year-to-date balance (updated by Payment).
        pub ytd: f64,
        pad 28
    }
}

row! {
    /// District row (95 bytes).
    #[derive(Debug, Clone, PartialEq)]
    pub struct DistrictRec in District {
        /// District id within the warehouse.
        pub d_id: u32,
        /// Owning warehouse.
        pub w_id: u32,
        /// District name (≤ 10 chars).
        pub name: text(10),
        /// City (≤ 20 chars).
        pub city: text(20),
        /// Sales tax.
        pub tax: f64,
        /// Year-to-date balance.
        pub ytd: f64,
        /// Next order number to assign (read by Stock-Level, bumped by
        /// New-Order).
        pub next_o_id: u32,
        pad 37
    }
}

row! {
    /// Customer row (655 bytes).
    #[derive(Debug, Clone, PartialEq)]
    pub struct CustomerRec in Customer {
        /// Customer id within the district.
        pub c_id: u32,
        /// District.
        pub d_id: u32,
        /// Warehouse.
        pub w_id: u32,
        /// First name (≤ 16).
        pub first: text(16),
        /// Middle initials (2).
        pub middle: text(2),
        /// Last name (≤ 16, syllable-composed).
        pub last: text(16),
        /// Street address (≤ 40).
        pub street: text(40),
        /// City (≤ 20).
        pub city: text(20),
        /// Phone (≤ 16).
        pub phone: text(16),
        /// Credit status ("GC" / "BC").
        pub credit: text(2),
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
        pub data: text(491),
    }
}

row! {
    /// Stock row (306 bytes).
    #[derive(Debug, Clone, PartialEq)]
    pub struct StockRec in Stock {
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
        pub dist_info: text(24) * 10,
        /// Miscellaneous data (≤ 30).
        pub data: text(30),
        pad 8
    }
}

row! {
    /// Item row (82 bytes).
    #[derive(Debug, Clone, PartialEq)]
    pub struct ItemRec in Item {
        /// Item id.
        pub i_id: u32,
        /// Image id.
        pub im_id: u32,
        /// Price.
        pub price: f64,
        /// Name (≤ 24).
        pub name: text(24),
        /// Data (≤ 40; "ORIGINAL" in 10% per spec).
        pub data: text(40),
        pad 2
    }
}

row! {
    /// Order row (24 bytes).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct OrderRec in Order {
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
        pad 5
    }
}

row! {
    /// New-Order row (8 bytes): the pending-delivery marker.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct NewOrderRec in NewOrder {
        /// Order number.
        pub o_id: u32,
        /// District.
        pub d_id: u16,
        /// Warehouse.
        pub w_id: u16,
    }
}

row! {
    /// Order-Line row (54 bytes).
    #[derive(Debug, Clone, PartialEq)]
    pub struct OrderLineRec in OrderLine {
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
        pub dist_info: text(20),
    }
}

row! {
    /// History row (46 bytes).
    #[derive(Debug, Clone, PartialEq)]
    pub struct HistoryRec in History {
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
        pub data: text(18),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reference::Reference;
    use tpcc_rand::Xoshiro256;

    #[test]
    fn every_record_matches_table1_length() {
        // Table 1's lengths, written out so that a change to a
        // declaration and to `tuple_len` together still fails here
        let rows = [
            (
                Relation::Warehouse,
                89,
                WarehouseRec::LEN,
                sample_warehouse().encode(),
            ),
            (
                Relation::District,
                95,
                DistrictRec::LEN,
                sample_district().encode(),
            ),
            (
                Relation::Customer,
                655,
                CustomerRec::LEN,
                sample_customer().encode(),
            ),
            (Relation::Stock, 306, StockRec::LEN, sample_stock().encode()),
            (Relation::Item, 82, ItemRec::LEN, sample_item().encode()),
            (Relation::Order, 24, OrderRec::LEN, sample_order().encode()),
            (
                Relation::NewOrder,
                8,
                NewOrderRec::LEN,
                sample_new_order().encode(),
            ),
            (
                Relation::OrderLine,
                54,
                OrderLineRec::LEN,
                sample_order_line().encode(),
            ),
            (
                Relation::History,
                46,
                HistoryRec::LEN,
                sample_history().encode(),
            ),
        ];
        for (rel, table1, declared, bytes) in rows {
            assert_eq!(rel.tuple_len(), table1, "{} tuple_len", rel.name());
            assert_eq!(declared, table1 as usize, "{} declaration", rel.name());
            assert_eq!(bytes.len(), table1 as usize, "{} encoding", rel.name());
        }
    }

    /// Encodes `row` under both codecs, and decodes the bytes and
    /// `noise` (arbitrary bytes of the row's length) under both.
    fn check_against_reference<T: Row + Reference + std::fmt::Debug>(row: &T, noise: &[u8]) {
        let bytes = row.encode();
        assert_eq!(bytes, row.ref_encode(), "encoding of {row:?}");
        let back = T::decode(&bytes);
        assert_eq!(back.encode(), bytes, "byte round trip of {row:?}");
        // Debug text tells -0.0 from 0.0 and compares NaN as equal
        let back = format!("{back:?}");
        assert_eq!(back, format!("{row:?}"), "round trip");
        assert_eq!(back, format!("{:?}", T::ref_decode(&bytes)));
        let (new, old) = (T::decode(noise), T::ref_decode(noise));
        assert_eq!(format!("{new:?}"), format!("{old:?}"), "decoding {noise:?}");
    }

    /// Random field values, biased to the edges: empty and full-width
    /// text (multi-byte characters included), 0 / all-ones / sign-bit
    /// integers, and ±0.0, extremes, subnormals, infinities and NaN.
    struct Gen(Xoshiro256);

    impl Gen {
        fn below(&mut self, n: u64) -> u64 {
            self.0.uniform_inclusive(0, n - 1)
        }

        fn int(&mut self) -> u64 {
            const EDGES: [u64; 4] = [0, u64::MAX, 0x8000_0000, 0x7fff_ffff];
            match self.below(3) {
                0 => EDGES[self.below(4) as usize],
                _ => self.0.next_u64(),
            }
        }

        fn f64(&mut self) -> f64 {
            const EDGES: [f64; 9] = [
                0.0,
                -0.0,
                f64::MAX,
                f64::MIN,
                f64::MIN_POSITIVE,
                -5e-324,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NAN,
            ];
            match self.below(3) {
                0 => EDGES[self.below(9) as usize],
                1 => f64::from_bits(self.0.next_u64()),
                _ => self.0.next_u64() as i64 as f64 / 100.0,
            }
        }

        fn text(&mut self, width: usize) -> String {
            let len = match self.below(3) {
                0 => 0,
                1 => width,
                _ => self.below(width as u64 + 1) as usize,
            };
            let mut s = String::with_capacity(len);
            while s.len() < len {
                let c = ['a', 'Z', '7', ' ', '~', 'é', '€'][self.below(7) as usize];
                s.push(if s.len() + c.len_utf8() <= len {
                    c
                } else {
                    'x'
                });
            }
            s
        }

        fn noise(&mut self, rel: Relation) -> Vec<u8> {
            (0..rel.tuple_len())
                .map(|_| match self.below(4) {
                    0 => 0,
                    _ => self.0.next_u64() as u8,
                })
                .collect()
        }
    }

    #[test]
    fn codec_matches_the_hand_written_reference() {
        let mut g = Gen(Xoshiro256::seed_from_u64(42));
        for _ in 0..2_000 {
            let w = WarehouseRec {
                w_id: g.int() as u32,
                name: g.text(10),
                city: g.text(20),
                state: g.text(2),
                zip: g.text(9),
                tax: g.f64(),
                ytd: g.f64(),
            };
            check_against_reference(&w, &g.noise(Relation::Warehouse));
            let d = DistrictRec {
                d_id: g.int() as u32,
                w_id: g.int() as u32,
                name: g.text(10),
                city: g.text(20),
                tax: g.f64(),
                ytd: g.f64(),
                next_o_id: g.int() as u32,
            };
            check_against_reference(&d, &g.noise(Relation::District));
            let c = CustomerRec {
                c_id: g.int() as u32,
                d_id: g.int() as u32,
                w_id: g.int() as u32,
                first: g.text(16),
                middle: g.text(2),
                last: g.text(16),
                street: g.text(40),
                city: g.text(20),
                phone: g.text(16),
                credit: g.text(2),
                credit_lim: g.f64(),
                discount: g.f64(),
                balance: g.f64(),
                ytd_payment: g.f64(),
                payment_cnt: g.int() as u32,
                delivery_cnt: g.int() as u32,
                data: g.text(491),
            };
            check_against_reference(&c, &g.noise(Relation::Customer));
            let s = StockRec {
                i_id: g.int() as u32,
                w_id: g.int() as u32,
                quantity: g.int() as i32,
                ytd: g.int(),
                order_cnt: g.int() as u32,
                remote_cnt: g.int() as u32,
                dist_info: std::array::from_fn(|_| g.text(24)),
                data: g.text(30),
            };
            check_against_reference(&s, &g.noise(Relation::Stock));
            let i = ItemRec {
                i_id: g.int() as u32,
                im_id: g.int() as u32,
                price: g.f64(),
                name: g.text(24),
                data: g.text(40),
            };
            check_against_reference(&i, &g.noise(Relation::Item));
            let o = OrderRec {
                o_id: g.int() as u32,
                c_id: g.int() as u32,
                entry_d: g.int(),
                carrier_id: g.int() as u8,
                ol_cnt: g.int() as u8,
                all_local: g.int() as u8,
            };
            check_against_reference(&o, &g.noise(Relation::Order));
            let n = NewOrderRec {
                o_id: g.int() as u32,
                d_id: g.int() as u16,
                w_id: g.int() as u16,
            };
            check_against_reference(&n, &g.noise(Relation::NewOrder));
            let ol = OrderLineRec {
                o_id: g.int() as u32,
                d_id: g.int() as u16,
                w_id: g.int() as u16,
                number: g.int() as u16,
                i_id: g.int() as u32,
                supply_w_id: g.int() as u16,
                delivery_d: g.int(),
                quantity: g.int() as u16,
                amount: g.f64(),
                dist_info: g.text(20),
            };
            check_against_reference(&ol, &g.noise(Relation::OrderLine));
            let h = HistoryRec {
                c_id: g.int() as u32,
                c_d_id: g.int() as u16,
                c_w_id: g.int() as u16,
                d_id: g.int() as u16,
                w_id: g.int() as u16,
                date: g.int(),
                amount: g.f64(),
                data: g.text(18),
            };
            check_against_reference(&h, &g.noise(Relation::History));
        }
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

    fn sample_new_order() -> NewOrderRec {
        NewOrderRec {
            o_id: 7,
            d_id: 3,
            w_id: 1,
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

    /// The hand-written codec the row declarations replaced, kept as the
    /// oracle the declarations must match byte for byte.
    mod reference {
        use super::*;

        /// One record's reference encode and decode.
        pub(super) trait Reference: Sized {
            fn ref_encode(&self) -> Vec<u8>;
            fn ref_decode(buf: &[u8]) -> Self;
        }

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
                let v =
                    u16::from_le_bytes(self.buf[self.pos..self.pos + 2].try_into().expect("u16"));
                self.pos += 2;
                v
            }

            fn u32(&mut self) -> u32 {
                let v =
                    u32::from_le_bytes(self.buf[self.pos..self.pos + 4].try_into().expect("u32"));
                self.pos += 4;
                v
            }

            fn u64(&mut self) -> u64 {
                let v =
                    u64::from_le_bytes(self.buf[self.pos..self.pos + 8].try_into().expect("u64"));
                self.pos += 8;
                v
            }

            fn f64(&mut self) -> f64 {
                let v =
                    f64::from_le_bytes(self.buf[self.pos..self.pos + 8].try_into().expect("f64"));
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

        impl Reference for WarehouseRec {
            fn ref_encode(&self) -> Vec<u8> {
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

            fn ref_decode(buf: &[u8]) -> Self {
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

        impl Reference for DistrictRec {
            fn ref_encode(&self) -> Vec<u8> {
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

            fn ref_decode(buf: &[u8]) -> Self {
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

        impl Reference for CustomerRec {
            fn ref_encode(&self) -> Vec<u8> {
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

            fn ref_decode(buf: &[u8]) -> Self {
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

        impl Reference for StockRec {
            fn ref_encode(&self) -> Vec<u8> {
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

            fn ref_decode(buf: &[u8]) -> Self {
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

        impl Reference for ItemRec {
            fn ref_encode(&self) -> Vec<u8> {
                let mut w = W::new(Relation::Item);
                w.u32(self.i_id)
                    .u32(self.im_id)
                    .f64(self.price)
                    .text(&self.name, 24)
                    .text(&self.data, 40);
                w.finish()
            }

            fn ref_decode(buf: &[u8]) -> Self {
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

        impl Reference for OrderRec {
            fn ref_encode(&self) -> Vec<u8> {
                let mut w = W::new(Relation::Order);
                w.u32(self.o_id)
                    .u32(self.c_id)
                    .u64(self.entry_d)
                    .u8(self.carrier_id)
                    .u8(self.ol_cnt)
                    .u8(self.all_local);
                w.finish()
            }

            fn ref_decode(buf: &[u8]) -> Self {
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

        impl Reference for NewOrderRec {
            fn ref_encode(&self) -> Vec<u8> {
                let mut w = W::new(Relation::NewOrder);
                w.u32(self.o_id).u16(self.d_id).u16(self.w_id);
                w.finish()
            }

            fn ref_decode(buf: &[u8]) -> Self {
                let mut r = R::new(buf, Relation::NewOrder);
                Self {
                    o_id: r.u32(),
                    d_id: r.u16(),
                    w_id: r.u16(),
                }
            }
        }

        impl Reference for OrderLineRec {
            fn ref_encode(&self) -> Vec<u8> {
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

            fn ref_decode(buf: &[u8]) -> Self {
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

        impl Reference for HistoryRec {
            fn ref_encode(&self) -> Vec<u8> {
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

            fn ref_decode(buf: &[u8]) -> Self {
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
    }
}
