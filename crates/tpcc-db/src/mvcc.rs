//! MVCC write/read plumbing over `tpcc_storage::undo`: the write-side
//! transaction context (pre-image capture + in-transaction rollback)
//! and the snapshot-aware read helpers.
//!
//! # Write side
//!
//! A writer transaction (New-Order, Payment, Delivery) opens a
//! thread-local `WriteCtx` via `TpccDb::begin_write`. Every write
//! then goes through the wrappers below, which — only when `cfg.mvcc`
//! is on and a context is open — capture two things *before* mutating
//! the live bytes:
//!
//! * a **version chain** pre-image ([`UndoStore::record`]) for rows
//!   snapshot readers can reach (the versioned relations plus the
//!   `last_order` index values), and
//! * a logical **undo op** for *every* write, so
//!   `TpccDb::abort_write` can unwind the transaction in reverse —
//!   the restoring writes go through the ordinary heap/tree calls and
//!   are therefore WAL-logged page deltas themselves (compensation by
//!   redo: replaying forward + compensating deltas reproduces the
//!   abort, keeping crash sweeps exact).
//!
//! `TpccDb::commit` consumes the context after the commit record is
//! logged: [`UndoStore::commit`] stamps the pending chain entries and
//! publishes the new snapshot timestamp.
//!
//! With `cfg.mvcc` off (the default) every wrapper compiles down to
//! the raw storage call — the historical execution is preserved
//! byte-for-byte.
//!
//! # Read side
//!
//! [`TpccDb::snapshot`] pins a timestamp; `TpccDb::read_row_at` /
//! `TpccDb::last_order_at` read the live bytes first (under the
//! page's frame latch) and then resolve through the version chain, so
//! a reader holding only a [`Snapshot`] — and **zero logical locks** —
//! sees the newest committed version at or before its pin.
//!
//! Lock-order note: chain shard mutexes are only ever taken *after*
//! releasing page latches (reads) or *before* taking them (writer
//! record), never nested inside the lock manager's queues, so MVCC
//! adds no edge to the existing latch/lock order argument (DESIGN.md
//! §11).

use std::cell::RefCell;

use crate::db::TpccDb;
use tpcc_schema::relation::Relation;
use tpcc_storage::undo::{Snapshot, UndoStore, VersionKey};
use tpcc_storage::{BTree, RecordId};

/// Relations whose rows a snapshot reader can reach, and which
/// therefore carry version chains. `new_order` (delete-heavy, read
/// only by writers), `history` (never read), and `item` (immutable
/// after load) are exempt.
fn versioned(rel: Relation) -> bool {
    matches!(
        rel,
        Relation::Warehouse
            | Relation::District
            | Relation::Customer
            | Relation::Stock
            | Relation::Order
            | Relation::OrderLine
    )
}

/// The indexes writers insert into mid-transaction (abort must be able
/// to remove the fresh entries).
#[derive(Debug, Clone, Copy)]
pub(crate) enum TreeId {
    Order,
    NewOrder,
    OrderLine,
}

/// One logical write, recorded in execution order; abort replays the
/// list in reverse.
#[derive(Debug)]
enum UndoOp {
    /// In-place row update: restore `before`.
    HeapUpdate {
        rel: Relation,
        rid: RecordId,
        before: Vec<u8>,
    },
    /// Fresh row insert: delete it.
    HeapInsert { rel: Relation, rid: RecordId },
    /// Fresh index entry: delete it.
    IdxInsert { tree: TreeId, key: u64 },
    /// `last_order` value upsert: restore `prev` (delete if absent).
    LastOrderUpsert { key: u64, prev: Option<u64> },
}

/// Per-thread state of the writer transaction currently executing.
struct WriteCtx {
    /// Undo-store token owning this transaction's pending entries.
    token: u64,
    /// Logical writes, in order, for reverse-replay on abort.
    ops: Vec<UndoOp>,
    /// Version-chain keys touched (stamped at commit, GC'd after).
    keys: Vec<VersionKey>,
}

thread_local! {
    static CTX: RefCell<Option<WriteCtx>> = const { RefCell::new(None) };
}

/// Runs `f` on the open write context, if any.
fn with_ctx<R>(f: impl FnOnce(&mut WriteCtx) -> R) -> Option<R> {
    CTX.with(|c| c.borrow_mut().as_mut().map(f))
}

impl TpccDb {
    /// Pins a snapshot of the database as of the last committed writer.
    /// Reads through [`TpccDb::order_status_at`] /
    /// [`TpccDb::stock_level_at`] against the returned handle are
    /// repeatable and acquire no logical locks; dropping it releases
    /// the GC watermark pin.
    ///
    /// # Panics
    /// Panics unless the database was configured with
    /// [`crate::DbConfig::mvcc`].
    #[must_use]
    pub fn snapshot(&self) -> Snapshot<'_> {
        assert!(self.cfg.mvcc, "snapshot() requires DbConfig::mvcc");
        self.undo.pin()
    }

    /// The undo store (bench/test introspection: GC footprint, clock).
    #[must_use]
    pub fn undo_store(&self) -> &UndoStore {
        &self.undo
    }

    /// Opens the thread's write transaction (no-op with MVCC off).
    /// Every writer path calls this before its first write; the
    /// matching [`TpccDb::commit`] or [`TpccDb::abort_write`] closes
    /// it.
    pub(crate) fn begin_write(&self) {
        if !self.cfg.mvcc {
            return;
        }
        let token = self.undo.begin();
        CTX.with(|c| {
            let prev = c.borrow_mut().replace(WriteCtx {
                token,
                ops: Vec::new(),
                keys: Vec::new(),
            });
            debug_assert!(prev.is_none(), "nested write transaction");
        });
    }

    /// Commit-side half of the context: stamp + publish the pending
    /// versions. Called from [`TpccDb::commit`] after the commit record
    /// is logged; no-op when no context is open (MVCC off, loader,
    /// read-only paths).
    pub(crate) fn finish_write(&self) {
        let Some(ctx) = CTX.with(|c| c.borrow_mut().take()) else {
            return;
        };
        self.undo.commit(ctx.token, &ctx.keys);
    }

    /// Rolls the open write transaction back: replays the recorded ops
    /// in reverse through the ordinary (WAL-logged) write path, then
    /// drops the pending version-chain entries. Restoring the live
    /// bytes *before* unhooking the chain keeps concurrent snapshot
    /// readers correct at every instant of the abort.
    ///
    /// # Panics
    /// Panics when no write transaction is open, or when a restoring
    /// write fails (a bug: the rows were written by this very
    /// transaction under its own locks).
    pub(crate) fn abort_write(&self) {
        let ctx = CTX
            .with(|c| c.borrow_mut().take())
            .expect("abort_write without begin_write");
        for op in ctx.ops.iter().rev() {
            match op {
                UndoOp::HeapUpdate { rel, rid, before } => {
                    let ok = self.heaps.for_relation(*rel).update(&self.bm, *rid, before);
                    assert!(ok, "abort restore of {rel:?} row must succeed");
                }
                UndoOp::HeapInsert { rel, rid } => {
                    let ok = self.heaps.for_relation(*rel).delete(&self.bm, *rid);
                    assert!(ok, "abort delete of fresh {rel:?} row must succeed");
                }
                UndoOp::IdxInsert { tree, key } => {
                    let prev = self.tree(*tree).delete(&self.bm, *key);
                    debug_assert!(prev.is_some(), "fresh index entry must exist");
                }
                UndoOp::LastOrderUpsert { key, prev } => match prev {
                    Some(p) => {
                        self.idx.last_order.insert(&self.bm, *key, *p);
                    }
                    None => {
                        self.idx.last_order.delete(&self.bm, *key);
                    }
                },
            }
        }
        self.undo.abort(ctx.token, &ctx.keys);
    }

    fn tree(&self, t: TreeId) -> &BTree {
        match t {
            TreeId::Order => &self.idx.order,
            TreeId::NewOrder => &self.idx.new_order,
            TreeId::OrderLine => &self.idx.order_line,
        }
    }

    /// In-place row update, capturing the pre-image (chain + undo op)
    /// when a write transaction is open.
    pub(crate) fn heap_update(&self, rel: Relation, rid: RecordId, after: &[u8]) -> bool {
        let heap = self.heaps.for_relation(rel);
        if self.cfg.mvcc {
            with_ctx(|ctx| {
                let before = heap.get(&self.bm, rid).expect("live row under update");
                if versioned(rel) {
                    let key = (heap.file(), rid.to_u64());
                    self.undo.record(ctx.token, key, Some(&before));
                    ctx.keys.push(key);
                }
                ctx.ops.push(UndoOp::HeapUpdate { rel, rid, before });
            });
        }
        heap.update(&self.bm, rid, after)
    }

    /// Row insert, recorded for abort. Fresh rows need no version
    /// chain: snapshot readers reach rows only through index entries
    /// that existed at their pin, and an in-flight order's ids sort
    /// outside every pinned reader's scan range (DESIGN.md §11).
    pub(crate) fn heap_insert(&self, rel: Relation, bytes: &[u8]) -> RecordId {
        let rid = self.heaps.for_relation(rel).insert(&self.bm, bytes);
        if self.cfg.mvcc {
            with_ctx(|ctx| ctx.ops.push(UndoOp::HeapInsert { rel, rid }));
        }
        rid
    }

    /// Fresh primary-index entry, recorded for abort.
    pub(crate) fn index_insert(&self, tree: TreeId, key: u64, rid: u64) {
        let prev = self.tree(tree).insert(&self.bm, key, rid);
        debug_assert!(prev.is_none(), "pk index insert must be fresh");
        if self.cfg.mvcc {
            with_ctx(|ctx| ctx.ops.push(UndoOp::IdxInsert { tree, key }));
        }
    }

    /// `last_order` value upsert. The index *value* is versioned (the
    /// only index whose values snapshot readers interpret), so the
    /// previous value is chained before the overwrite.
    pub(crate) fn last_order_upsert(&self, key: u64, o_id: u64) {
        if self.cfg.mvcc {
            with_ctx(|ctx| {
                let prev = self.idx.last_order.get(&self.bm, key);
                let vkey = (self.idx.last_order.file(), key);
                let enc = prev.map(u64::to_le_bytes);
                self.undo
                    .record(ctx.token, vkey, enc.as_ref().map(|b| b.as_slice()));
                ctx.keys.push(vkey);
                ctx.ops.push(UndoOp::LastOrderUpsert { key, prev });
            });
        }
        self.idx.last_order.insert(&self.bm, key, o_id);
    }

    /// Reads a row as of `snap` (live read when `None` or the relation
    /// is unversioned): live bytes first, then the version chain.
    pub(crate) fn read_row_at(
        &self,
        rel: Relation,
        rid: RecordId,
        snap: Option<&Snapshot>,
    ) -> Option<Vec<u8>> {
        let heap = self.heaps.for_relation(rel);
        let live = heap.get(&self.bm, rid);
        match snap {
            Some(s) if versioned(rel) => {
                self.undo.visible((heap.file(), rid.to_u64()), s.ts(), live)
            }
            _ => live,
        }
    }

    /// Reads a customer's `last_order` value as of `snap`.
    pub(crate) fn last_order_at(&self, key: u64, snap: Option<&Snapshot>) -> Option<u64> {
        let live = self.idx.last_order.get(&self.bm, key);
        match snap {
            Some(s) => self
                .undo
                .visible(
                    (self.idx.last_order.file(), key),
                    s.ts(),
                    live.map(|v| v.to_le_bytes().to_vec()),
                )
                .map(|b| u64::from_le_bytes(b.as_slice().try_into().expect("8-byte value"))),
            None => live,
        }
    }
}
