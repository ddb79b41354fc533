//! An executable TPC-C database built on the `tpcc-storage` engine.
//!
//! Where `tpcc-workload` *models* the benchmark's page-reference
//! behaviour, this crate *runs* it: records with the exact Table 1
//! tuple lengths in heap files, B+Tree indexes on every access path the
//! paper assumes (including the multi-key indexes behind the
//! `Max(order-id)` / `Min(order-id)` selects), the spec's customer
//! last-name generation (syllable-composed, NURand-selected, median
//! row by first name), and full implementations of all five
//! transactions.
//!
//! The measured buffer statistics of a driver run cross-validate the
//! abstract trace model — see the workspace integration tests.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cluster;
pub mod db;
pub mod driver;
pub mod inject;
pub mod keys;
pub mod loader;
pub mod mvcc;
pub mod names;
pub mod parallel;
pub mod records;
mod terminal;
pub mod txns;
pub mod verify;
pub mod views;

pub use cluster::{
    two_pc_crash_sweep, Cluster, ClusterConfig, ClusterReport, ItemPlacement, MsgKind, NodeReport,
    TwoPcSweepConfig, TwoPcSweepReport, MSG_KINDS,
};
pub use db::{DbConfig, TpccDb};
pub use driver::{Driver, DriverConfig, DriverReport, InputGen, TxnInput};
pub use inject::{
    cdc_checkpoint_sweep, crashpoint_sweep, torn_tail_byte_sweep, verify_record_boundaries,
    BoundaryReport, CdcSweepReport, FaultRunReport, SweepConfig, SweepReport, TornTailReport,
};
pub use parallel::{ParallelDriver, ParallelReport, TerminalGroup};
pub use txns::{
    DeliveryResult, NewOrderAborted, NewOrderResult, OrderStatusResult, PaymentResult,
    StockLevelResult,
};
pub use verify::ConsistencyReport;
pub use views::{
    decode_events, CdcPipeline, ChangeEvent, DistrictRevenueView, MaterializedViews,
    OpenOrdersView, StockThresholdView, ViewRegistry, EVENT_SCHEMA,
};

// Fault-injection, group-commit, MVCC, and CDC vocabulary, re-exported
// so harness users don't need a direct `tpcc-storage` dependency.
pub use tpcc_storage::cdc::{CdcCheckpoint, CdcLag, CdcStats, CdcSubscriber, ChangeBatch, RowOp};
pub use tpcc_storage::{
    FaultHook, FaultPlan, FaultSite, FaultStats, GroupCommitConfig, GroupCommitStats, SiteRecord,
    Snapshot, UndoStore, FAULT_SITES,
};
