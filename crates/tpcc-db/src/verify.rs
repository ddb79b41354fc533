//! The TPC-C consistency conditions (spec §3.3.2), checked against the
//! live database. The paper takes ACID properties as given ("we do not
//! consider … ACID properties"); the executable substrate can actually
//! prove the four structural invariants hold after any workload.

use crate::db::TpccDb;
use crate::keys;
use crate::records::{DistrictRec, OrderRec, WarehouseRec};
use tpcc_schema::relation::Relation;
use tpcc_storage::RecordId;

/// Outcome of a consistency check.
#[derive(Debug, Clone, Default)]
pub struct ConsistencyReport {
    /// Human-readable violations; empty means fully consistent.
    pub violations: Vec<String>,
}

impl ConsistencyReport {
    /// True when no condition was violated.
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        self.violations.is_empty()
    }
}

impl TpccDb {
    /// Checks the four TPC-C consistency conditions:
    ///
    /// 1. `W_YTD = Σ D_YTD` within each warehouse.
    /// 2. `D_NEXT_O_ID − 1 = max(O_ID) = max(NO_O_ID)` per district
    ///    (the New-Order clause only when pending orders exist).
    /// 3. New-Order order ids are contiguous per district
    ///    (`max − min + 1 = count`).
    /// 4. `Σ O_OL_CNT = count(Order-Line rows)` per district.
    pub fn verify_consistency(&self) -> ConsistencyReport {
        let mut report = ConsistencyReport::default();
        let warehouses = self.config().warehouses;
        for w in 0..warehouses {
            self.check_c1(w, &mut report);
            for d in 0..10 {
                self.check_c2_c3(w, d, &mut report);
                self.check_c4(w, d, &mut report);
            }
        }
        report
    }

    /// Condition 1: warehouse YTD equals the sum of its districts'.
    fn check_c1(&self, w: u64, report: &mut ConsistencyReport) {
        let w_rid = self
            .pk_lookup(Relation::Warehouse, keys::warehouse(w))
            .expect("warehouse exists");
        let warehouse =
            WarehouseRec::decode(&self.heaps.warehouse.get(&self.bm, w_rid).expect("live"));
        let mut district_sum = 0.0;
        for d in 0..10 {
            district_sum += self.district(w, d).ytd;
        }
        if (warehouse.ytd - district_sum).abs() > 1e-6 * warehouse.ytd.abs().max(1.0) {
            report.violations.push(format!(
                "C1: warehouse {w} ytd {} != district sum {district_sum}",
                warehouse.ytd
            ));
        }
    }

    /// Conditions 2 and 3 for one district.
    fn check_c2_c3(&self, w: u64, d: u64, report: &mut ConsistencyReport) {
        let district = self.district(w, d);
        let next = u64::from(district.next_o_id);

        // max order id in the Order relation
        let mut max_order = None;
        self.idx.order.scan_range(
            &self.bm,
            keys::order_lo(w, d),
            keys::order_hi(w, d),
            |k, _| {
                max_order = Some(keys::order_number(k));
                true
            },
        );
        match max_order {
            Some(max) if max + 1 != next => report.violations.push(format!(
                "C2: district ({w},{d}) next_o_id {next} but max order id {max}"
            )),
            None if next != 0 => report.violations.push(format!(
                "C2: district ({w},{d}) next_o_id {next} with no orders"
            )),
            _ => {}
        }

        // New-Order contiguity + max
        let mut no_ids: Vec<u64> = Vec::new();
        self.idx.new_order.scan_range(
            &self.bm,
            keys::order_lo(w, d),
            keys::order_hi(w, d),
            |k, _| {
                no_ids.push(keys::order_number(k));
                true
            },
        );
        if let (Some(&min), Some(&max)) = (no_ids.first(), no_ids.last()) {
            if max + 1 != next {
                report.violations.push(format!(
                    "C2: district ({w},{d}) newest pending order {max} != next_o_id {next} - 1"
                ));
            }
            if max - min + 1 != no_ids.len() as u64 {
                report.violations.push(format!(
                    "C3: district ({w},{d}) pending ids not contiguous: [{min},{max}] holds {}",
                    no_ids.len()
                ));
            }
        }
    }

    /// Condition 4: order-line counts match the orders' `ol_cnt`.
    fn check_c4(&self, w: u64, d: u64, report: &mut ConsistencyReport) {
        let mut declared = 0u64;
        let mut order_rids: Vec<RecordId> = Vec::new();
        self.idx.order.scan_range(
            &self.bm,
            keys::order_lo(w, d),
            keys::order_hi(w, d),
            |_, v| {
                order_rids.push(RecordId::from_u64(v));
                true
            },
        );
        for rid in order_rids {
            let order = OrderRec::decode(&self.heaps.order.get(&self.bm, rid).expect("live"));
            declared += u64::from(order.ol_cnt);
        }
        let mut stored = 0u64;
        self.idx.order_line.scan_range(
            &self.bm,
            keys::order_line(w, d, 0, 0),
            keys::order_hi(w, d) << 4,
            |_, _| {
                stored += 1;
                true
            },
        );
        if declared != stored {
            report.violations.push(format!(
                "C4: district ({w},{d}) declares {declared} order lines but stores {stored}"
            ));
        }
    }

    fn district(&self, w: u64, d: u64) -> DistrictRec {
        let rid = self
            .pk_lookup(Relation::District, keys::district(w, d))
            .expect("district exists");
        DistrictRec::decode(&self.heaps.district.get(&self.bm, rid).expect("live"))
    }

    /// Corrupts one district's YTD (test helper for the verifier
    /// itself): returns the old value.
    #[doc(hidden)]
    pub fn corrupt_district_ytd(&self, w: u64, d: u64, ytd: f64) -> f64 {
        let rid = self
            .pk_lookup(Relation::District, keys::district(w, d))
            .expect("district exists");
        let mut rec = DistrictRec::decode(&self.heaps.district.get(&self.bm, rid).expect("live"));
        let old = rec.ytd;
        rec.ytd = ytd;
        self.heaps.district.update(&self.bm, rid, &rec.encode());
        old
    }

    /// Deletes a pending New-Order marker out of FIFO order (test
    /// helper): breaks contiguity on purpose.
    #[doc(hidden)]
    pub fn corrupt_pending_queue(&self, w: u64, d: u64) -> bool {
        // remove the *second* oldest pending order, leaving a hole
        let mut seen = 0;
        let mut target = None;
        self.idx.new_order.scan_range(
            &self.bm,
            keys::order_lo(w, d),
            keys::order_hi(w, d),
            |k, v| {
                seen += 1;
                if seen == 2 {
                    target = Some((k, v));
                    false
                } else {
                    true
                }
            },
        );
        let Some((key, val)) = target else {
            return false;
        };
        self.idx.new_order.delete(&self.bm, key);
        self.heaps
            .new_order
            .delete(&self.bm, RecordId::from_u64(val));
        true
    }
}

#[cfg(test)]
mod tests {
    use crate::db::DbConfig;
    use crate::driver::{Driver, DriverConfig};
    use crate::loader;
    use crate::txns::OrderLineReq;

    #[test]
    fn fresh_load_is_consistent() {
        let db = loader::load(DbConfig::small(), 31);
        let report = db.verify_consistency();
        assert!(report.is_consistent(), "{:?}", report.violations);
    }

    #[test]
    fn consistency_survives_a_mixed_workload() {
        let mut db = loader::load(DbConfig::small(), 32);
        let mut driver = Driver::new(&db, DriverConfig::default().with_spec_rollbacks(), 33);
        let _ = driver.run(&mut db, 3000);
        let report = db.verify_consistency();
        assert!(report.is_consistent(), "{:?}", report.violations);
    }

    #[test]
    fn crash_recovery_reproduces_committed_state() {
        let mut cfg = DbConfig::small();
        cfg.enable_wal = true;
        // a pool small enough that many dirty pages are unflushed at
        // "crash" time, so recovery is doing real work
        cfg.buffer_frames = 64;
        let mut db = loader::load(cfg, 51);
        let mut driver = Driver::new(&db, DriverConfig::default(), 52);
        let _ = driver.run(&mut db, 1500);
        let (entries, redo_bytes, commits) = db.wal_stats().expect("wal enabled");
        assert!(entries > 1000, "log has real volume: {entries} entries");
        assert!(redo_bytes > 10_000);
        assert!(commits > 500);
        assert!(
            db.crash_recovery_check(),
            "replaying the redo log over the checkpoint must reproduce              the flushed disk byte-for-byte"
        );
        // the database keeps working after the check, and a second
        // epoch recovers too
        let _ = driver.run(&mut db, 300);
        assert!(db.crash_recovery_check());
        assert!(db.verify_consistency().is_consistent());
    }

    /// `crash_recovery_check` re-arms the log with a new log manager;
    /// commits after it still reach the recorder attached before it.
    #[test]
    fn commits_after_a_recovery_check_reach_the_recorder() {
        let mut cfg = DbConfig::small();
        cfg.enable_wal = true;
        let mut db = loader::load(cfg, 53);
        let recorder = std::sync::Arc::new(tpcc_obs::MemoryRecorder::new());
        db.set_obs(tpcc_obs::Obs::new(recorder.clone()));
        let mut driver = Driver::new(&db, DriverConfig::default(), 54);
        let _ = driver.run(&mut db, 50);
        assert!(db.crash_recovery_check());
        let flushes = recorder.counter_total("wal_flushes");
        assert!(flushes > 0, "each commit flushed before the check");

        let _ = driver.run(&mut db, 50);
        let commits = db.wal_stats().expect("re-armed").2;
        assert!(commits > 0);
        assert_eq!(
            recorder.counter_total("wal_flushes") - flushes,
            commits,
            "every commit since the re-arm flushed into the recorder"
        );
        assert!(db.crash_recovery_check());
    }

    #[test]
    fn recovery_replays_only_to_the_last_complete_commit() {
        let mut cfg = DbConfig::small();
        cfg.enable_wal = true;
        let lines: Vec<OrderLineReq> = (0..8)
            .map(|i| OrderLineReq {
                item: 10 + i * 7,
                supply_warehouse: 0,
                quantity: 3,
            })
            .collect();

        // reference: the same load, but only the first order ever runs
        let ref_db = loader::load(cfg, 91);
        ref_db.new_order(0, 0, 5, &lines);
        ref_db.flush();

        // torn run: a second order starts but the log is cut mid-flight,
        // losing its commit marker and a suffix of its page deltas
        let mut db = loader::load(cfg, 91);
        db.new_order(0, 0, 5, &lines);
        let committed = db.wal_stats().expect("wal enabled").0;
        db.new_order(0, 0, 6, &lines);
        let full = db.bm.take_wal().expect("wal enabled");
        let mut torn = full.clone();
        assert!(full.len() > committed + 2, "second txn logged real work");
        torn.truncate(committed + (full.len() - committed) / 2);

        let checkpoint = db.checkpoint.take().expect("checkpoint");
        let recovered_torn = torn
            .try_recover(checkpoint.snapshot())
            .expect("torn log applies");
        let recovered_full = full.try_recover(checkpoint).expect("full log applies");

        assert!(
            ref_db
                .bm
                .with_disk(|disk| recovered_torn.contents_equal(disk)),
            "torn-log recovery must equal the last complete commit exactly"
        );
        db.flush();
        assert!(
            db.bm.with_disk(|disk| recovered_full.contents_equal(disk)),
            "the intact log still recovers the full run"
        );
        assert!(
            !recovered_full.contents_equal(&recovered_torn),
            "the in-flight transaction's effects must be discarded"
        );
    }

    #[test]
    fn verifier_catches_ytd_drift() {
        let db = loader::load(DbConfig::small(), 34);
        db.corrupt_district_ytd(0, 3, 1_000_000.0);
        let report = db.verify_consistency();
        assert!(!report.is_consistent());
        assert!(report.violations.iter().any(|v| v.starts_with("C1")));
    }

    #[test]
    fn verifier_catches_pending_queue_hole() {
        let db = loader::load(DbConfig::small(), 35);
        assert!(db.corrupt_pending_queue(0, 0));
        let report = db.verify_consistency();
        assert!(
            report.violations.iter().any(|v| v.starts_with("C3")),
            "{:?}",
            report.violations
        );
    }
}
