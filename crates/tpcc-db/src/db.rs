//! The database instance: heap files, indexes, buffer pool, catalog.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tpcc_obs::Obs;
use tpcc_schema::relation::Relation;
use tpcc_storage::{
    BTree, BufferManager, BufferStats, DiskManager, FaultHook, FaultPlan, FaultStats, FileId,
    GroupCommitConfig, GroupCommitStats, HeapFile, RecordId, RecoveryError, UndoStore, Wal,
};

/// Scale and resource configuration.
///
/// `paper()` is the full benchmark population; `small()` keeps tests
/// fast. District count is fixed at 10 (structural in TPC-C).
#[derive(Debug, Clone, Copy)]
pub struct DbConfig {
    /// Warehouses.
    pub warehouses: u64,
    /// Customers per district (spec: 3000).
    pub customers_per_district: u64,
    /// Items / stock rows per warehouse (spec: 100 000).
    pub items: u64,
    /// Orders pre-loaded per district (spec: 3000).
    pub initial_orders_per_district: u64,
    /// Of those, undelivered at load end (spec: 900).
    pub initial_pending_per_district: u64,
    /// Page size in bytes.
    pub page_size: usize,
    /// Buffer pool frames.
    pub buffer_frames: usize,
    /// Enable redo logging (checkpoint taken after load; see
    /// [`TpccDb::crash_recovery_check`]).
    pub enable_wal: bool,
    /// Buffer-pool mapping shards, each with its own mutex and its own
    /// (approximate) LRU order. 1 (the default) is the exact global LRU
    /// the paper's miss-ratio figures assume. More shards have not been
    /// measured to pay: in the committed `results/shard_sweep.jsonl`
    /// (4 warehouses, 100 µs read I/O) tps at 4–64 shards stays within
    /// −8 % … +6 % of one shard at every count of 1–8 threads, with no
    /// trend, while 64 shards raise the 1-thread misses 9 421 → 10 244.
    pub buffer_shards: usize,
    /// Simulated read-I/O service time in microseconds per page fault
    /// (0 = in-memory, the default). Applied after load; puts the
    /// workload in the paper's I/O-bound operating region, where
    /// multiple terminals overlap their I/O waits.
    pub io_delay_us: u64,
    /// Group-commit pipeline knobs (`None` = synchronous durability,
    /// the default). Requires `enable_wal`; applied after load like
    /// `io_delay_us`, so load-time traffic is not batched. See
    /// `tpcc_storage::logmgr` for the leader-follower ticket protocol.
    pub group_commit: Option<GroupCommitConfig>,
    /// Enable MVCC snapshot reads (off by default). The switch gates
    /// undo capture, which cost `serial-wal` 8 344 → 7 342 tps when
    /// every writer paid it unconditionally. When on, writers stamp
    /// pre-images into undo version chains at commit, read-only
    /// transactions ([`TpccDb::order_status_at`],
    /// [`TpccDb::stock_level_at`]) run against a pinned snapshot with
    /// zero lock acquisitions, and `new_order_checked` rolls back via
    /// a real undo-backed abort instead of deciding the rollback by the
    /// item-id range before its first write. See
    /// `tpcc_storage::undo` and DESIGN.md §11.
    pub mvcc: bool,
}

impl DbConfig {
    /// Full spec-scale population for `warehouses` warehouses.
    #[must_use]
    pub fn paper(warehouses: u64, buffer_frames: usize) -> Self {
        Self {
            warehouses,
            customers_per_district: 3000,
            items: 100_000,
            initial_orders_per_district: 3000,
            initial_pending_per_district: 900,
            page_size: 4096,
            buffer_frames,
            enable_wal: false,
            buffer_shards: 1,
            io_delay_us: 0,
            group_commit: None,
            mvcc: false,
        }
    }

    /// A miniature database for tests (1 warehouse, 90 customers and
    /// 300 items per district).
    #[must_use]
    pub fn small() -> Self {
        Self {
            warehouses: 1,
            customers_per_district: 90,
            items: 300,
            initial_orders_per_district: 60,
            initial_pending_per_district: 18,
            page_size: 4096,
            buffer_frames: 512,
            enable_wal: false,
            buffer_shards: 1,
            io_delay_us: 0,
            group_commit: None,
            mvcc: false,
        }
    }

    /// Distinct last names in a district (spec: 1000; scaled down with
    /// the customer count so ~3 customers share a name).
    #[must_use]
    pub fn name_count(&self) -> u64 {
        (self.customers_per_district / 3).clamp(1, 1000)
    }
}

pub(crate) struct Heaps {
    pub warehouse: HeapFile,
    pub district: HeapFile,
    pub customer: HeapFile,
    pub stock: HeapFile,
    pub item: HeapFile,
    pub order: HeapFile,
    pub new_order: HeapFile,
    pub order_line: HeapFile,
    pub history: HeapFile,
}

impl Heaps {
    pub(crate) fn for_relation(&self, relation: Relation) -> &HeapFile {
        match relation {
            Relation::Warehouse => &self.warehouse,
            Relation::District => &self.district,
            Relation::Customer => &self.customer,
            Relation::Stock => &self.stock,
            Relation::Item => &self.item,
            Relation::Order => &self.order,
            Relation::NewOrder => &self.new_order,
            Relation::OrderLine => &self.order_line,
            Relation::History => &self.history,
        }
    }
}

pub(crate) struct Indexes {
    /// `(w)` → warehouse rid.
    pub warehouse: BTree,
    /// `(w, d)` → district rid.
    pub district: BTree,
    /// `(w, d, c)` → customer rid.
    pub customer: BTree,
    /// `(w, d, name, c)` → customer rid (the by-name access path).
    pub customer_name: BTree,
    /// `(w, i)` → stock rid.
    pub stock: BTree,
    /// `(i)` → item rid.
    pub item: BTree,
    /// `(w, d, o)` → order rid.
    pub order: BTree,
    /// `(w, d, o)` → new-order rid (min scan = oldest pending).
    pub new_order: BTree,
    /// `(w, d, o, line)` → order-line rid.
    pub order_line: BTree,
    /// `(w, d, c)` → last order number (the multi-key index behind the
    /// paper's one-call `Max(order-id)` assumption).
    pub last_order: BTree,
}

/// An open TPC-C database.
///
/// All transaction methods take `&self`: the storage layer is
/// internally latched, so a `TpccDb` can be shared across terminal
/// threads (see `parallel::ParallelDriver`, which adds the logical
/// locks that make concurrent execution serializable).
///
/// ```
/// use tpcc_db::{loader, DbConfig};
/// use tpcc_db::txns::OrderLineReq;
///
/// let mut db = loader::load(DbConfig::small(), 1);
/// let placed = db.new_order(0, 0, 5, &[OrderLineReq {
///     item: 7,
///     supply_warehouse: 0,
///     quantity: 3,
/// }]);
/// assert!(placed.total_amount > 0.0);
/// assert!(db.verify_consistency().is_consistent());
/// ```
pub struct TpccDb {
    pub(crate) bm: BufferManager,
    pub(crate) cfg: DbConfig,
    pub(crate) heaps: Heaps,
    pub(crate) idx: Indexes,
    /// Logical timestamp for entry/delivery dates.
    pub(crate) clock: AtomicU64,
    /// Post-load disk image for crash recovery (WAL mode only).
    pub(crate) checkpoint: Option<DiskManager>,
    /// MVCC undo version chains (unused unless `cfg.mvcc`).
    pub(crate) undo: UndoStore,
}

impl TpccDb {
    /// Creates an empty database (no rows; see `loader::load`).
    #[must_use]
    pub fn create(cfg: DbConfig) -> Self {
        let disk = DiskManager::new(cfg.page_size);
        let bm = BufferManager::new_sharded(disk, cfg.buffer_frames, cfg.buffer_shards);
        let heaps = Heaps {
            warehouse: HeapFile::create(&bm),
            district: HeapFile::create(&bm),
            customer: HeapFile::create(&bm),
            stock: HeapFile::create(&bm),
            item: HeapFile::create(&bm),
            order: HeapFile::create(&bm),
            new_order: HeapFile::create(&bm),
            order_line: HeapFile::create(&bm),
            history: HeapFile::create(&bm),
        };
        let idx = Indexes {
            warehouse: BTree::create(&bm),
            district: BTree::create(&bm),
            customer: BTree::create(&bm),
            customer_name: BTree::create(&bm),
            stock: BTree::create(&bm),
            item: BTree::create(&bm),
            order: BTree::create(&bm),
            new_order: BTree::create(&bm),
            order_line: BTree::create(&bm),
            last_order: BTree::create(&bm),
        };
        Self {
            bm,
            cfg,
            heaps,
            idx,
            clock: AtomicU64::new(0),
            checkpoint: None,
            undo: UndoStore::new(16),
        }
    }

    /// Marks a transaction boundary: appends a commit record when
    /// logging is enabled and, under group commit, blocks until the
    /// record is in the durably flushed prefix. Returns the
    /// nanoseconds spent waiting on the commit ticket (0 otherwise).
    pub(crate) fn commit(&self) -> u64 {
        let txn = self.clock.load(Ordering::Relaxed);
        let wait = self.bm.log_commit(txn);
        // durable first, visible second: the undo clock publishes this
        // transaction's versions only after its commit record is logged
        self.finish_write();
        wait
    }

    /// WAL-mode self-test: "crash" (pretend every unflushed dirty page
    /// is lost), recover by replaying the redo log over the post-load
    /// checkpoint, and compare byte-for-byte against what a clean flush
    /// of the live pool produces. Returns `true` when recovery is
    /// exact; the database remains usable afterwards with a fresh
    /// checkpoint.
    ///
    /// # Panics
    /// Panics if the database was not loaded with `enable_wal`, or if
    /// the log fails to apply (see
    /// [`TpccDb::try_crash_recovery_check`] for the non-panicking
    /// variant).
    pub fn crash_recovery_check(&mut self) -> bool {
        match self.try_crash_recovery_check() {
            Ok(equal) => equal,
            Err(e) => panic!("{e}"),
        }
    }

    /// Like [`TpccDb::crash_recovery_check`], but a log that fails to
    /// apply (torn tail, mismatched checkpoint) surfaces as a typed
    /// [`RecoveryError`] instead of a panic deep inside replay.
    ///
    /// # Errors
    /// Returns the [`RecoveryError`] that stopped replay.
    ///
    /// # Panics
    /// Panics if the database was not loaded with `enable_wal`.
    pub fn try_crash_recovery_check(&mut self) -> Result<bool, RecoveryError> {
        // quiesce the group-commit tail first: the check compares
        // against a clean flush of the live pool, so every appended
        // commit must be inside the durable prefix
        self.bm.flush_log();
        let wal = self
            .bm
            .take_wal()
            .expect("crash_recovery_check requires enable_wal");
        let checkpoint = self
            .checkpoint
            .take()
            .expect("WAL mode always holds a checkpoint");
        let recovered = wal.try_recover(checkpoint);
        // the log is spent: free it before the workload resumes
        drop(wal);
        let recovered = recovered?;
        self.bm.flush_all();
        let equal = self.bm.with_disk(|disk| recovered.contents_equal(disk));
        // re-arm for continued use: a handle copy of the flushed disk
        self.checkpoint = Some(self.bm.disk_snapshot());
        self.bm.enable_wal();
        Ok(equal)
    }

    /// Installs a fault-injection plan on the storage layer (WAL,
    /// disk, and buffer pool) and returns the shared hook for
    /// inspecting what fired. Install after `loader::load` so load-time
    /// I/O is not counted as fault sites; see [`crate::inject`] for the
    /// sweep harnesses built on top.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) -> Arc<FaultHook> {
        let hook = self.bm.install_fault_hook(plan);
        self.undo.set_fault_hook(hook.clone());
        hook
    }

    /// Fault counters from the installed hook (`None` when no plan has
    /// been installed).
    #[must_use]
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.bm.fault_hook().map(|h| h.stats())
    }

    /// Redo-log statistics, when logging is enabled: `(entries,
    /// redo bytes, commits)` (see `WalEntry::redo_bytes`).
    #[must_use]
    pub fn wal_stats(&self) -> Option<(usize, u64, u64)> {
        self.bm.with_wal(|w| (w.len(), w.redo_bytes(), w.commits()))
    }

    /// Durable-prefix statistics, when logging is enabled:
    /// `(durable entries, durable commits)`. Equal to the totals under
    /// synchronous durability; under group commit the volatile tail is
    /// excluded.
    #[must_use]
    pub fn wal_durable_stats(&self) -> Option<(usize, u64)> {
        self.bm.with_wal(|w| (w.durable_len(), w.durable_commits()))
    }

    /// Group-commit pipeline counters (`None` when group commit is
    /// off): flushes, commits flushed, cap-triggered flushes.
    #[must_use]
    pub fn group_commit_stats(&self) -> Option<GroupCommitStats> {
        self.bm.group_commit().map(|lm| lm.stats())
    }

    /// Flushes any pending group-commit tail (quiesce points; no-op
    /// under synchronous durability).
    pub fn flush_log(&self) {
        self.bm.flush_log();
    }

    /// Detaches and returns the redo log (fault harnesses recover from
    /// it offline; [`TpccDb::try_crash_recovery_check`] re-arms
    /// logging).
    pub fn take_wal(&mut self) -> Option<Wal> {
        self.bm.take_wal()
    }

    /// Detaches and returns the post-load checkpoint image (WAL mode
    /// only — the base recovery replays over).
    pub fn take_checkpoint(&mut self) -> Option<DiskManager> {
        self.checkpoint.take()
    }

    /// Clones the post-load checkpoint image without detaching it (WAL
    /// mode only) — the base a CDC subscriber's shadow replay starts
    /// from.
    #[must_use]
    pub fn checkpoint_snapshot(&self) -> Option<DiskManager> {
        self.checkpoint.as_ref().map(DiskManager::snapshot)
    }

    /// Runs `f` against the live WAL under its lock (`None` when WAL
    /// mode is off). CDC subscribers poll through this.
    pub fn with_wal<R>(&self, f: impl FnOnce(&Wal) -> R) -> Option<R> {
        self.bm.with_wal(f)
    }

    /// True when this database's flushed disk image equals `disk`
    /// (flush first; used to compare against a recovered image).
    #[must_use]
    pub fn disk_contents_equal(&self, disk: &DiskManager) -> bool {
        self.bm.with_disk(|d| d.contents_equal(disk))
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &DbConfig {
        &self.cfg
    }

    /// Advances and returns the logical clock.
    pub(crate) fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Writes every dirty buffered page back to the disk image.
    pub fn flush(&self) {
        self.bm.flush_all();
    }

    /// True when both databases' flushed disk images hold the same
    /// pages (used by tests to compare a parallel run against a serial
    /// one). Flush both sides first.
    #[must_use]
    pub fn contents_equal(&self, other: &TpccDb) -> bool {
        self.bm
            .with_disk(|a| other.bm.with_disk(|b| a.contents_equal(b)))
    }

    /// Buffer statistics for one relation's heap file.
    #[must_use]
    pub fn relation_stats(&self, relation: Relation) -> BufferStats {
        self.bm.stats(self.heaps.for_relation(relation).file())
    }

    /// Aggregate buffer statistics across all index files.
    #[must_use]
    pub fn index_stats(&self) -> BufferStats {
        [
            &self.idx.warehouse,
            &self.idx.district,
            &self.idx.customer,
            &self.idx.customer_name,
            &self.idx.stock,
            &self.idx.item,
            &self.idx.order,
            &self.idx.new_order,
            &self.idx.order_line,
            &self.idx.last_order,
        ]
        .iter()
        .map(|t| self.bm.stats(t.file()))
        .fold(BufferStats::default(), |a, s| a.merged(s))
    }

    /// Clears buffer statistics (between load/warm-up and measurement).
    pub fn reset_stats(&mut self) {
        self.bm.reset_stats();
    }

    /// Frame-latch acquisition/contention counters since the last
    /// [`TpccDb::reset_stats`].
    #[must_use]
    pub fn latch_stats(&self) -> tpcc_storage::LatchStats {
        self.bm.latch_stats()
    }

    /// Every heap and index file with its display name (`stock`,
    /// `idx_customer`, …), for per-file reports over buffer statistics
    /// or log records.
    #[must_use]
    pub fn file_names(&self) -> Vec<(FileId, &'static str)> {
        let heaps = Relation::ALL.map(|r| (self.heaps.for_relation(r).file(), r.name()));
        let indexes = [
            (&self.idx.warehouse, "idx_warehouse"),
            (&self.idx.district, "idx_district"),
            (&self.idx.customer, "idx_customer"),
            (&self.idx.customer_name, "idx_customer_name"),
            (&self.idx.stock, "idx_stock"),
            (&self.idx.item, "idx_item"),
            (&self.idx.order, "idx_order"),
            (&self.idx.new_order, "idx_new_order"),
            (&self.idx.order_line, "idx_order_line"),
            (&self.idx.last_order, "idx_last_order"),
        ]
        .map(|(tree, name)| (tree.file(), name));
        heaps.into_iter().chain(indexes).collect()
    }

    /// Attaches an observability handle to the storage layer and
    /// registers every file's display name with it, so per-file
    /// metrics export as `buf_hits/stock` or `buf_misses/idx_customer`
    /// rather than raw file ids.
    pub fn set_obs(&mut self, obs: Obs) {
        for (file, name) in self.file_names() {
            obs.register_index(file.0, name);
        }
        self.bm.set_obs(obs);
        // pre-resolve per-index counters against the new recorder
        let obs = self.bm.obs().clone();
        for tree in [
            &mut self.idx.warehouse,
            &mut self.idx.district,
            &mut self.idx.customer,
            &mut self.idx.customer_name,
            &mut self.idx.stock,
            &mut self.idx.item,
            &mut self.idx.order,
            &mut self.idx.new_order,
            &mut self.idx.order_line,
            &mut self.idx.last_order,
        ] {
            tree.attach_obs(&obs);
        }
        self.undo.attach_obs(&obs);
    }

    /// The attached observability handle (disabled unless
    /// [`TpccDb::set_obs`] was called).
    #[must_use]
    pub fn obs(&self) -> &Obs {
        self.bm.obs()
    }

    /// Pages in a relation's heap-file extent (high-water mark; never
    /// shrinks).
    #[must_use]
    pub fn relation_pages(&self, relation: Relation) -> u32 {
        self.heaps.for_relation(relation).pages(&self.bm)
    }

    /// Live pages of a relation's heap file (extent minus pages freed
    /// by drain deletes).
    #[must_use]
    pub fn relation_allocated_pages(&self, relation: Relation) -> u32 {
        self.heaps.for_relation(relation).allocated_pages(&self.bm)
    }

    /// Live pages and height of a relation's primary-key index — the
    /// steady-state footprint the Delivery soak asserts on.
    ///
    /// # Panics
    /// Panics for `History` (no index).
    #[must_use]
    pub fn index_footprint(&self, relation: Relation) -> (u32, usize) {
        let tree = self.pk_tree(relation);
        (tree.allocated_pages(&self.bm), tree.height())
    }

    /// Live pages summed across every heap and index file.
    #[must_use]
    pub fn total_allocated_pages(&self) -> u64 {
        self.bm.total_allocated_pages()
    }

    /// Pages returned to the free list over the run (leaf merges, root
    /// collapses, drained heap pages).
    #[must_use]
    pub fn pages_freed(&self) -> u64 {
        self.bm.pages_freed()
    }

    /// Freed pages later handed back out by the allocator.
    #[must_use]
    pub fn pages_reused(&self) -> u64 {
        self.bm.pages_reused()
    }

    fn pk_tree(&self, relation: Relation) -> &BTree {
        match relation {
            Relation::Warehouse => &self.idx.warehouse,
            Relation::District => &self.idx.district,
            Relation::Customer => &self.idx.customer,
            Relation::Stock => &self.idx.stock,
            Relation::Item => &self.idx.item,
            Relation::Order => &self.idx.order,
            Relation::NewOrder => &self.idx.new_order,
            Relation::OrderLine => &self.idx.order_line,
            Relation::History => panic!("history has no index"),
        }
    }

    /// Looks up one record rid by primary key in the relation's index.
    pub(crate) fn pk_lookup(&self, relation: Relation, key: u64) -> Option<RecordId> {
        let tree = self.pk_tree(relation);
        let _span = self.bm.obs().span("btree_lookup");
        tree.get(&self.bm, key).map(RecordId::from_u64)
    }

    /// Validates ids against the configured scale.
    pub(crate) fn check_scale(&self, w: u64, d: u64, c: Option<u64>) {
        assert!(w < self.cfg.warehouses, "warehouse {w} beyond scale");
        assert!(d < 10, "district {d} beyond scale");
        if let Some(c) = c {
            assert!(
                c < self.cfg.customers_per_district,
                "customer {c} beyond scale"
            );
        }
    }
}
