//! Initial database population (clause 4.3, scale-configurable).

use crate::db::{DbConfig, TpccDb};
use crate::keys;
use crate::names;
use crate::records::{
    CustomerRec, DistrictRec, ItemRec, NewOrderRec, OrderLineRec, OrderRec, StockRec, WarehouseRec,
};
use tpcc_rand::Xoshiro256;

/// Populates an empty database per the spec's load rules:
/// items, warehouses, districts, customers (first `name_count` get
/// their own last name, the rest draw NURand names), stock, and
/// `initial_orders_per_district` historical orders per district of
/// which the newest `initial_pending_per_district` are undelivered.
///
/// Returns the loaded database with buffer statistics reset, so the
/// first measured access pattern is the transaction workload's.
#[must_use]
pub fn load(cfg: DbConfig, seed: u64) -> TpccDb {
    let mut db = TpccDb::create(cfg);
    let mut rng = Xoshiro256::seed_from_u64(seed);

    load_items(&mut db, &mut rng);
    for w in 0..cfg.warehouses {
        load_warehouse(&mut db, w, &mut rng);
    }
    db.bm.flush_all();
    db.reset_stats();
    if cfg.enable_wal {
        db.checkpoint = Some(db.bm.disk_snapshot());
        db.bm.enable_wal();
        if let Some(gc) = cfg.group_commit {
            db.bm.enable_group_commit(gc);
        }
    }
    // the simulated I/O service time applies to the measured workload
    // only, never to the (serial, write-mostly) load itself
    db.bm.set_io_delay_us(cfg.io_delay_us);
    db
}

fn load_items(db: &mut TpccDb, rng: &mut Xoshiro256) {
    for i in 0..db.cfg.items {
        let rec = ItemRec {
            i_id: i as u32,
            im_id: rng.uniform_inclusive(1, 10_000) as u32,
            price: rng.uniform_inclusive(100, 10_000) as f64 / 100.0,
            name: format!("item-{i}"),
            data: if rng.chance(0.10) {
                "ORIGINAL".into()
            } else {
                format!("data-{}", rng.next_u64() % 100_000)
            },
        };
        let rid = db.heaps.item.insert(&db.bm, &rec.encode());
        db.idx.item.insert(&db.bm, keys::item(i), rid.to_u64());
    }
}

fn load_warehouse(db: &mut TpccDb, w: u64, rng: &mut Xoshiro256) {
    let rec = WarehouseRec {
        w_id: w as u32,
        name: format!("W{w}"),
        city: "Hampton".into(),
        state: "VA".into(),
        zip: "236810001".into(),
        tax: rng.uniform_inclusive(0, 2000) as f64 / 10_000.0,
        ytd: 300_000.0,
    };
    let rid = db.heaps.warehouse.insert(&db.bm, &rec.encode());
    db.idx
        .warehouse
        .insert(&db.bm, keys::warehouse(w), rid.to_u64());

    for i in 0..db.cfg.items {
        let rec = StockRec {
            i_id: i as u32,
            w_id: w as u32,
            quantity: rng.uniform_inclusive(10, 100) as i32,
            ytd: 0,
            order_cnt: 0,
            remote_cnt: 0,
            dist_info: std::array::from_fn(|d| format!("s{w}d{d}")),
            data: if rng.chance(0.10) {
                "ORIGINAL".into()
            } else {
                "stockdata".into()
            },
        };
        let rid = db.heaps.stock.insert(&db.bm, &rec.encode());
        db.idx.stock.insert(&db.bm, keys::stock(w, i), rid.to_u64());
    }

    for d in 0..10 {
        load_district(db, w, d, rng);
    }
}

fn load_district(db: &mut TpccDb, w: u64, d: u64, rng: &mut Xoshiro256) {
    let cfg = db.cfg;
    let rec = DistrictRec {
        d_id: d as u32,
        w_id: w as u32,
        name: format!("D{d}"),
        city: "Hampton".into(),
        tax: rng.uniform_inclusive(0, 2000) as f64 / 10_000.0,
        ytd: 30_000.0,
        next_o_id: cfg.initial_orders_per_district as u32,
    };
    let rid = db.heaps.district.insert(&db.bm, &rec.encode());
    db.idx
        .district
        .insert(&db.bm, keys::district(w, d), rid.to_u64());

    // customers
    let name_count = cfg.name_count();
    for c in 0..cfg.customers_per_district {
        let name_id = if c < name_count {
            c
        } else {
            // NURand over the scaled name space (spec: NURand(255,0,999))
            tpcc_rand::NuRand::new(255, 0, name_count - 1).sample(rng)
        };
        let rec = CustomerRec {
            c_id: c as u32,
            d_id: d as u32,
            w_id: w as u32,
            first: format!("F{:06}", rng.next_u64() % 1_000_000),
            middle: "OE".into(),
            last: names::last_name(name_id),
            street: "1 Benchmark Way".into(),
            city: "Hampton".into(),
            phone: format!("{:016}", rng.next_u64() % 10_000_000_000_000_000),
            credit: if rng.chance(0.10) {
                "BC".into()
            } else {
                "GC".into()
            },
            credit_lim: 50_000.0,
            discount: rng.uniform_inclusive(0, 5000) as f64 / 10_000.0,
            balance: -10.0,
            ytd_payment: 10.0,
            payment_cnt: 1,
            delivery_cnt: 0,
            data: "customer data".into(),
        };
        let rid = db.heaps.customer.insert(&db.bm, &rec.encode());
        db.idx
            .customer
            .insert(&db.bm, keys::customer(w, d, c), rid.to_u64());
        db.idx
            .customer_name
            .insert(&db.bm, keys::customer_name(w, d, name_id, c), rid.to_u64());
    }

    // historical orders
    let orders = cfg.initial_orders_per_district;
    let pending_from = orders - cfg.initial_pending_per_district;
    for o in 0..orders {
        let c = o % cfg.customers_per_district;
        let entry_d = db.tick();
        let delivered = o < pending_from;
        let ol_cnt = 10u8;
        let order_rec = OrderRec {
            o_id: o as u32,
            c_id: c as u32,
            entry_d,
            carrier_id: if delivered {
                rng.uniform_inclusive(1, 10) as u8
            } else {
                0
            },
            ol_cnt,
            all_local: 1,
        };
        let rid = db.heaps.order.insert(&db.bm, &order_rec.encode());
        db.idx
            .order
            .insert(&db.bm, keys::order(w, d, o), rid.to_u64());
        db.idx
            .last_order
            .insert(&db.bm, keys::last_order(w, d, c), o);
        for line in 0..u64::from(ol_cnt) {
            let ol = OrderLineRec {
                o_id: o as u32,
                d_id: d as u16,
                w_id: w as u16,
                number: line as u16,
                i_id: rng.uniform_inclusive(0, cfg.items - 1) as u32,
                supply_w_id: w as u16,
                delivery_d: if delivered { entry_d } else { 0 },
                quantity: 5,
                amount: if delivered {
                    rng.uniform_inclusive(1, 999_999) as f64 / 100.0
                } else {
                    0.0
                },
                dist_info: format!("d{d}"),
            };
            let rid = db.heaps.order_line.insert(&db.bm, &ol.encode());
            db.idx
                .order_line
                .insert(&db.bm, keys::order_line(w, d, o, line), rid.to_u64());
        }
        if !delivered {
            let no = NewOrderRec {
                o_id: o as u32,
                d_id: d as u16,
                w_id: w as u16,
            };
            let rid = db.heaps.new_order.insert(&db.bm, &no.encode());
            db.idx
                .new_order
                .insert(&db.bm, keys::order(w, d, o), rid.to_u64());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpcc_schema::relation::Relation;

    #[test]
    fn small_load_has_expected_cardinalities() {
        let cfg = DbConfig::small();
        let db = load(cfg, 1);
        assert_eq!(db.idx.item.len(&db.bm), cfg.items as usize);
        assert_eq!(
            db.idx.customer.len(&db.bm),
            (cfg.customers_per_district * 10) as usize
        );
        assert_eq!(
            db.idx.stock.len(&db.bm),
            cfg.items as usize,
            "one warehouse"
        );
        assert_eq!(
            db.idx.order.len(&db.bm),
            (cfg.initial_orders_per_district * 10) as usize
        );
        assert_eq!(
            db.idx.new_order.len(&db.bm),
            (cfg.initial_pending_per_district * 10) as usize
        );
        assert_eq!(
            db.idx.order_line.len(&db.bm),
            (cfg.initial_orders_per_district * 10 * 10) as usize
        );
    }

    #[test]
    fn loaded_records_decode() {
        let db = load(DbConfig::small(), 2);
        let rid = db
            .pk_lookup(Relation::Customer, keys::customer(0, 3, 7))
            .expect("customer exists");
        let rec = db.heaps.customer.get(&db.bm, rid).expect("live");
        let c = CustomerRec::decode(&rec);
        assert_eq!(c.c_id, 7);
        assert_eq!(c.d_id, 3);
        assert!(!c.last.is_empty());
    }

    #[test]
    fn name_index_finds_about_three_matches() {
        let db = load(DbConfig::small(), 3);
        // name 0 exists (customer 0 owns it plus NURand extras)
        let (lo, hi) = keys::customer_name_range(0, 0, 0);
        let mut matches = 0;
        db.idx.customer_name.scan_range(&db.bm, lo, hi, |_, _| {
            matches += 1;
            true
        });
        assert!(matches >= 1, "name 0 must have its guaranteed owner");
        assert!(matches <= 12, "suspiciously many matches: {matches}");
    }

    #[test]
    fn stats_reset_after_load() {
        let db = load(DbConfig::small(), 4);
        assert_eq!(db.relation_stats(Relation::Customer).misses, 0);
        assert_eq!(db.index_stats().hits, 0);
    }
}
