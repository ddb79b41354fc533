//! A small page-based storage engine — the substrate the paper's
//! "typical DBMS" assumptions presuppose but never build.
//!
//! Components:
//!
//! * [`page`] — slotted pages with insert / read / update / delete of
//!   variable-length records.
//! * [`disk`] — an in-memory "disk" of page files with per-file I/O
//!   accounting (the simulated device under the buffer pool).
//! * [`bufmgr`] — a buffer manager: fixed frame pool, LRU
//!   replacement, dirty-page write-back, hit/miss statistics.
//! * [`heap`] — heap files of records over slotted pages.
//! * [`btree`] — a page-based B+Tree mapping `u64` keys to `u64`
//!   values (record ids / encoded payloads), with range scans.
//! * [`fault`] — deterministic fault injection: numbered fault sites
//!   at every WAL append, page free, write-back, miss-load and WAL
//!   flush, with seeded crash and soft-fault plans (zero-cost when
//!   uninstalled).
//! * [`logmgr`] — the log manager: sole owner of the live WAL and of
//!   the one durability rule (a record is durable once a flush covers
//!   it), with commit tickets and a window/batch group-commit pipeline
//!   over a simulated log device; without group commit each commit
//!   forces its own flush.
//! * [`cdc`] — change-data-capture over the WAL: a subscription API
//!   that decodes the durable committed prefix into typed row changes
//!   (insert/update/delete with before/after images) via a shadow
//!   replay disk, with per-subscriber cursors, bounded-lag
//!   backpressure and resumable checkpoints.
//! * [`undo`] — MVCC undo version chains: volatile pre-image chains
//!   keyed by a global commit timestamp, giving read-only
//!   transactions lock-free consistent snapshots and writers an
//!   in-transaction rollback path, with GC at the oldest-active-
//!   snapshot watermark.
//!
//! `tpcc-db` builds the executable TPC-C database on top; its measured
//! buffer behaviour cross-validates the abstract trace model in
//! `tpcc-workload`/`tpcc-buffer`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod btree;
pub mod bufmgr;
pub mod cdc;
pub mod disk;
pub mod fault;
pub mod heap;
pub mod logmgr;
pub mod page;
pub mod undo;
pub mod wal;

pub use btree::BTree;
pub use bufmgr::{
    BufferManager, BufferStats, LatchStats, PageReadGuard, PageWriteGuard, Replacement,
};
pub use cdc::{CdcCheckpoint, CdcLag, CdcStats, CdcSubscriber, ChangeBatch, RowChange, RowOp};
pub use disk::{DiskManager, FileId};
pub use fault::{FaultHook, FaultPlan, FaultSite, FaultStats, SiteRecord, SoftFault, FAULT_SITES};
pub use heap::{HeapFile, RecordId};
pub use logmgr::{CommitReceipt, GroupCommitConfig, GroupCommitStats, LogManager};
pub use page::SlottedPage;
pub use undo::{Snapshot, UndoStore, VersionKey};
pub use wal::{apply_entry, page_deltas, RecoveryError, Wal, WalEntry};
