//! Distributed scale-out (paper §5.3, figures 11–12): warehouses
//! partitioned across N simulated nodes, each node a full [`TpccDb`]
//! with its own buffer pool, WAL, and lock manager; cross-node work
//! routed through an in-process message layer; and cross-node
//! transactions committed with two-phase commit.
//!
//! # Partitioning and routing
//!
//! Global warehouse `w` lives on node `w / warehouses_per_node` as
//! local warehouse `w % warehouses_per_node`. The paper's two remote
//! clauses drive all cross-node traffic: 1% of New-Order lines name a
//! remote supplying warehouse, and 15% of Payments go through a remote
//! customer warehouse. The Item table follows
//! [`ItemPlacement`]: `Replicated` reads items on the home node,
//! `Partitioned` owns item `i` on node `i % nodes` and charges one
//! [`MsgKind::ItemRead`] per non-owned fetch — exactly the two layouts
//! whose model throughputs figure 12 compares.
//!
//! # Two-phase commit
//!
//! A cross-node transaction executes its home half through the normal
//! MVCC write context and its remote writes through per-node
//! *participant* records (raw heap writes with hand-recorded undo
//! pre-images). Commit is presumed-abort 2PC over the nodes' redo
//! logs:
//!
//! 1. every participant logs `Prepare{ts}` (a durable-ack vote; a
//!    crashed node's dropped record reads as "no"),
//! 2. the coordinator's durable `Decide{ts, commit:true}` is the
//!    commit point,
//! 3. participants log their own `Decide` and publish their versions.
//!
//! An abort — clause 2.4.1.4 rollback, failed vote, or failed
//! coordinator decide — compensates participant writes in reverse
//! *before* any `Decide{abort}` lands on that node's log, so a replay
//! boundary after the decision always covers the compensations.
//! Clause rollbacks leave **zero** 2PC records (presumed abort).
//! Recovery resolves an in-doubt `Prepare` by asking the coordinator's
//! log ([`tpcc_storage::Wal::try_recover_resolved`]); the crash sweep
//! [`two_pc_crash_sweep`] drives every reachable 2PC crash site and
//! asserts each in-doubt transaction resolves to the coordinator's
//! durable decision.
//!
//! # Deadlock freedom across nodes
//!
//! Locksets are sorted by `(node, space, key)` and acquired in
//! ascending node order, so no transaction ever waits on node `a`
//! while holding locks on node `b > a` — cross-node wait cycles cannot
//! form. Intra-node cycles are prevented by wound-wait as ever, with
//! all nodes' lock managers fed from one cluster-wide timestamp source
//! so priorities are globally consistent; retries keep their original
//! timestamp (aging, no starvation).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::db::{DbConfig, TpccDb};
use crate::driver::DriverConfig;
use crate::loader;
use crate::records::Row;
use crate::terminal::{even_seats, lock_manager, run_terminals, Placement, Tally};
use crate::txns::{self, CustomerSelector, NewOrderAborted, OrderLineReq};
use tpcc_lock::{LockManager, Ts};
use tpcc_obs::QuantileSketch;
use tpcc_schema::relation::Relation;
use tpcc_storage::{FaultHook, FaultPlan, FaultSite, RecordId, VersionKey, WalEntry};

pub use tpcc_cost::distributed::ItemPlacement;

/// Message kinds crossing the simulated network, mirroring the §5.3
/// model's per-transaction remote call counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgKind {
    /// Remote stock row fetch (one per remote New-Order line).
    StockRead,
    /// Remote stock row write-back (one per remote New-Order line).
    StockWrite,
    /// Remote customer row fetch (one per row the selection touches).
    CustomerRead,
    /// Remote customer row write-back (one per remote Payment).
    CustomerWrite,
    /// Item fetch from its owning node (partitioned placement only).
    ItemRead,
    /// 2PC phase-1 prepare request (one per participant).
    Prepare,
    /// 2PC phase-2 decision delivery (one per participant).
    Decide,
}

/// Number of [`MsgKind`] variants (inbox array width).
pub const MSG_KINDS: usize = 7;

impl MsgKind {
    /// All kinds, in inbox-index order.
    pub const ALL: [MsgKind; MSG_KINDS] = [
        MsgKind::StockRead,
        MsgKind::StockWrite,
        MsgKind::CustomerRead,
        MsgKind::CustomerWrite,
        MsgKind::ItemRead,
        MsgKind::Prepare,
        MsgKind::Decide,
    ];

    /// Index into a node's inbox counters.
    #[must_use]
    pub fn idx(self) -> usize {
        self as usize
    }

    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MsgKind::StockRead => "stock_read",
            MsgKind::StockWrite => "stock_write",
            MsgKind::CustomerRead => "customer_read",
            MsgKind::CustomerWrite => "customer_write",
            MsgKind::ItemRead => "item_read",
            MsgKind::Prepare => "prepare",
            MsgKind::Decide => "decide",
        }
    }
}

/// Cluster topology and workload knobs.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Simulated nodes.
    pub nodes: u64,
    /// Warehouses each node owns.
    pub warehouses_per_node: u64,
    /// Per-node database configuration (`warehouses` is overridden with
    /// `warehouses_per_node`, and MVCC is forced on — participant
    /// pre-images ride the undo store).
    pub node_db: DbConfig,
    /// Workload mix and clause probabilities.
    pub driver: DriverConfig,
    /// Where the Item table lives (§5.3's replicated-vs-partitioned
    /// comparison, figure 12).
    pub placement: ItemPlacement,
    /// Simulated one-way network delay per message, in microseconds
    /// (busy-wait, so it costs CPU like the model charges it).
    pub network_delay_us: u64,
}

impl ClusterConfig {
    /// A small test cluster: `nodes` × 1 warehouse on
    /// [`DbConfig::small`], replicated items, zero network delay.
    #[must_use]
    pub fn small(nodes: u64) -> Self {
        Self {
            nodes,
            warehouses_per_node: 1,
            node_db: DbConfig::small(),
            driver: DriverConfig::default(),
            placement: ItemPlacement::Replicated,
            network_delay_us: 0,
        }
    }
}

/// The seed node `n` loads with under cluster seed `seed`. Node 0
/// keeps the seed itself, so a 1-node cluster is byte-identical to a
/// plain database loaded with `seed`.
fn node_seed(seed: u64, n: u64) -> u64 {
    seed ^ n.wrapping_mul(0xA24B_AED4_963E_E407)
}

struct Node {
    db: TpccDb,
    /// Messages received, by [`MsgKind`].
    inbox: [AtomicU64; MSG_KINDS],
}

/// One remote node's write-set inside a cross-node transaction: the
/// undo token its pre-images were recorded under, the version-chain
/// keys to publish at commit, and the before-images for compensation
/// on abort. Remote writes bypass the home thread's MVCC write context
/// (which belongs to the home node's transaction) and record undo by
/// hand — [`Placement::remote_update`] is the only writer.
pub(crate) struct Participant {
    node: usize,
    token: u64,
    keys: Vec<VersionKey>,
    /// `(relation, rid, before)` in execution order; compensation
    /// replays in reverse.
    ops: Vec<(Relation, RecordId, Vec<u8>)>,
}

/// A partitioned TPC-C cluster: N node databases, a router, a message
/// layer, and a 2PC coordinator.
pub struct Cluster {
    cfg: ClusterConfig,
    nodes: Vec<Node>,
    /// Cluster-wide timestamp source: lock priorities on every node and
    /// 2PC transaction ids draw from the same counter, so both are
    /// globally unique and consistently ordered.
    next_ts: AtomicU64,
    /// 2PC transaction id → coordinator node, the recovery oracle an
    /// in-doubt participant asks. (In a real cluster this rides in the
    /// Prepare message; here the map stands in for that field.)
    coordinators: Mutex<HashMap<u64, usize>>,
    prepares: AtomicU64,
    commit_decides: AtomicU64,
    abort_decides: AtomicU64,
}

impl Cluster {
    /// Loads `cfg.nodes` node databases, each seeded from `seed` (node
    /// 0 keeps `seed` itself).
    ///
    /// # Panics
    /// Panics on a zero node or warehouse count.
    #[must_use]
    pub fn new(cfg: ClusterConfig, seed: u64) -> Self {
        assert!(cfg.nodes >= 1, "a cluster needs at least one node");
        assert!(cfg.warehouses_per_node >= 1, "a node needs a warehouse");
        let mut node_cfg = cfg.node_db;
        node_cfg.warehouses = cfg.warehouses_per_node;
        // participant pre-images and cross-node aborts ride the undo
        // store, so the cluster always runs with MVCC on
        node_cfg.mvcc = true;
        let nodes = (0..cfg.nodes)
            .map(|n| Node {
                db: loader::load(node_cfg, node_seed(seed, n)),
                inbox: std::array::from_fn(|_| AtomicU64::new(0)),
            })
            .collect();
        Self {
            cfg,
            nodes,
            next_ts: AtomicU64::new(0),
            coordinators: Mutex::new(HashMap::new()),
            prepares: AtomicU64::new(0),
            commit_decides: AtomicU64::new(0),
            abort_decides: AtomicU64::new(0),
        }
    }

    /// The cluster configuration.
    #[must_use]
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Warehouses across the whole cluster.
    #[must_use]
    pub fn total_warehouses(&self) -> u64 {
        self.cfg.nodes * self.cfg.warehouses_per_node
    }

    /// The node owning global warehouse `w`.
    #[must_use]
    pub fn node_of(&self, w: u64) -> usize {
        usize::try_from(w / self.cfg.warehouses_per_node).expect("node index fits usize")
    }

    /// Global warehouse `w` as its owning node's local warehouse id.
    #[must_use]
    pub fn local_w(&self, w: u64) -> u64 {
        w % self.cfg.warehouses_per_node
    }

    /// Whether two global warehouses live on different nodes.
    #[must_use]
    pub fn is_remote(&self, a: u64, b: u64) -> bool {
        self.node_of(a) != self.node_of(b)
    }

    /// The node that serves a read of item `i` for a transaction homed
    /// on `home`: the home node under replication (every node holds the
    /// full table), `i % nodes` under partitioning.
    #[must_use]
    pub fn item_node(&self, home: usize, i: u64) -> usize {
        match self.cfg.placement {
            ItemPlacement::Replicated => home,
            ItemPlacement::Partitioned => {
                usize::try_from(i % self.cfg.nodes).expect("node index fits usize")
            }
        }
    }

    /// Node `n`'s database.
    #[must_use]
    pub fn node_db(&self, n: usize) -> &TpccDb {
        &self.nodes[n].db
    }

    /// Node `n`'s database, mutably (WAL/checkpoint teardown in crash
    /// harnesses).
    pub fn node_db_mut(&mut self, n: usize) -> &mut TpccDb {
        &mut self.nodes[n].db
    }

    /// Installs a fault plan on node `n`'s storage engine (see
    /// [`TpccDb::install_fault_plan`]).
    pub fn install_node_fault_plan(&mut self, n: usize, plan: FaultPlan) -> Arc<FaultHook> {
        self.nodes[n].db.install_fault_plan(plan)
    }

    /// Messages node `n` has received of `kind` since construction.
    #[must_use]
    pub fn inbox_count(&self, n: usize, kind: MsgKind) -> u64 {
        self.nodes[n].inbox[kind.idx()].load(Ordering::Relaxed)
    }

    /// `(prepares, commit decides, abort decides)` logged by the 2PC
    /// coordinator since construction.
    #[must_use]
    pub fn two_pc_counts(&self) -> (u64, u64, u64) {
        (
            self.prepares.load(Ordering::Relaxed),
            self.commit_decides.load(Ordering::Relaxed),
            self.abort_decides.load(Ordering::Relaxed),
        )
    }

    /// Runs every node's consistency check.
    #[must_use]
    pub fn consistent(&self) -> bool {
        self.nodes
            .iter()
            .all(|n| n.db.verify_consistency().is_consistent())
    }

    /// Delivers one message to node `to`: bump its inbox counter and
    /// charge the simulated one-way delay.
    fn msg(&self, to: usize, kind: MsgKind) {
        self.nodes[to].inbox[kind.idx()].fetch_add(1, Ordering::Relaxed);
        let us = self.cfg.network_delay_us;
        if us > 0 {
            let dur = Duration::from_micros(us);
            let t0 = Instant::now();
            while t0.elapsed() < dur {
                std::hint::spin_loop();
            }
        }
    }

    /// Rolls a cross-node transaction back: compensate each
    /// participant's writes in reverse, then — for a 2PC round
    /// `decided = Some((ts, prepared))` that got as far as voting — log
    /// `Decide{abort}` on the first `prepared` participants and the
    /// home node. Compensations land **before** that node's abort
    /// record, so a recovery boundary at the Decide always covers
    /// them. Clause rollbacks pass `None`: presumed abort leaves no
    /// 2PC trace.
    fn abort_cross(&self, hn: usize, parts: &[Participant], decided: Option<(u64, usize)>) {
        for (i, p) in parts.iter().enumerate() {
            let rdb = &self.nodes[p.node].db;
            for (rel, rid, before) in p.ops.iter().rev() {
                let ok = rdb.heaps.for_relation(*rel).update(&rdb.bm, *rid, before);
                assert!(ok, "participant compensation must land");
            }
            rdb.undo.abort(p.token, &p.keys);
            if let Some((ts, _)) = decided.filter(|&(_, prepared)| i < prepared) {
                self.msg(p.node, MsgKind::Decide);
                let _ = rdb.bm.log_decide(ts, false);
                self.abort_decides.fetch_add(1, Ordering::Relaxed);
            }
        }
        let h = &self.nodes[hn].db;
        h.abort_write();
        if let Some((ts, _)) = decided {
            let _ = h.bm.log_decide(ts, false);
            self.abort_decides.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A New-Order routed across the cluster with no logical locks
    /// (`txns::new_order` on the cluster's placement): the order
    /// lands on the home node; each line's item is read from its owning
    /// node and each line's stock row is updated on its supplying node
    /// (remote rows through a participant record). Returns
    /// `Ok(committed)` or the clause 2.4.1.4 rollback.
    ///
    /// # Errors
    /// [`NewOrderAborted`] when a line names an unused item; every
    /// prior write (home and remote) is compensated first.
    pub fn new_order_cluster(
        &self,
        w: u64,
        d: u64,
        c: u64,
        lines: &[OrderLineReq],
    ) -> Result<bool, NewOrderAborted> {
        txns::new_order(&Routed::unlocked(self), w, d, c, lines).map(|placed| placed.is_some())
    }

    /// A Payment routed across the cluster with no logical locks
    /// (`txns::payment` on the cluster's placement): warehouse/district
    /// ytd and the history row land on the home node, the customer
    /// update on the customer's node (a 2PC participant when remote).
    /// Returns whether the transaction committed.
    pub fn payment_cluster(
        &self,
        w: u64,
        d: u64,
        cw: u64,
        cd: u64,
        selector: CustomerSelector,
        amount: f64,
    ) -> bool {
        txns::payment(&Routed::unlocked(self), w, d, cw, cd, selector, amount).is_some()
    }

    /// Runs `transactions` across `terminals` threads against the
    /// cluster (logical locks on, like the parallel driver). Each call
    /// creates one lock manager per node, reporting to that node's
    /// `db.obs()` as attached at this moment — like
    /// [`ParallelDriver::run`](crate::ParallelDriver::run), concurrent
    /// calls on one cluster do not see each other's locks.
    #[must_use]
    pub fn run(&self, terminals: u64, transactions: u64, seed: u64) -> ClusterReport {
        let lms = self
            .nodes
            .iter()
            .map(|node| lock_manager(node.db.obs()))
            .collect();
        self.run_inner(terminals, transactions, seed, lms)
    }

    /// Runs `transactions` on one terminal with no logical locks — the
    /// deterministic serial driver the crash sweep and the 1-node
    /// equivalence tests build on.
    #[must_use]
    pub fn run_serial(&self, transactions: u64, seed: u64) -> ClusterReport {
        self.run_inner(1, transactions, seed, Vec::new())
    }

    fn run_inner(
        &self,
        terminals: u64,
        transactions: u64,
        seed: u64,
        lms: Vec<LockManager>,
    ) -> ClusterReport {
        let inbox0: Vec<[u64; MSG_KINDS]> = self
            .nodes
            .iter()
            .map(|node| std::array::from_fn(|i| node.inbox[i].load(Ordering::Relaxed)))
            .collect();
        let (p0, c0, a0) = self.two_pc_counts();
        let seats = even_seats(self.cfg.driver, terminals.max(1), transactions, seed);
        let (tallies, elapsed) = run_terminals(&Routed { cl: self, lms }, &seats);
        let mut report = ClusterReport {
            per_node: vec![NodeReport::default(); self.nodes.len()],
            elapsed,
            ..ClusterReport::default()
        };
        for tally in &tallies {
            report.absorb(tally);
        }
        for (i, node) in self.nodes.iter().enumerate() {
            for (m, slot) in report.per_node[i].msgs.iter_mut().enumerate() {
                *slot = node.inbox[m].load(Ordering::Relaxed) - inbox0[i][m];
            }
        }
        let (p1, c1, a1) = self.two_pc_counts();
        report.prepares = p1 - p0;
        report.commit_decides = c1 - c0;
        report.abort_decides = a1 - a0;
        report
    }
}

/// The cluster as the executor sees it: warehouses partitioned across
/// the nodes, items per [`ItemPlacement`], cross-node commits through
/// presumed-abort 2PC.
struct Routed<'a> {
    cl: &'a Cluster,
    /// One lock manager per node; empty = no logical locks.
    lms: Vec<LockManager>,
}

impl<'a> Routed<'a> {
    fn unlocked(cl: &'a Cluster) -> Self {
        Self {
            cl,
            lms: Vec::new(),
        }
    }
}

impl Placement for Routed<'_> {
    type Parts = Vec<Participant>;

    fn nodes(&self) -> usize {
        self.cl.nodes.len()
    }
    fn warehouses(&self) -> u64 {
        self.cl.total_warehouses()
    }
    fn locate(&self, w: u64) -> (usize, u64) {
        (self.cl.node_of(w), self.cl.local_w(w))
    }
    fn item_node(&self, home: usize, i: u64) -> usize {
        self.cl.item_node(home, i)
    }
    fn db(&self, node: usize) -> &TpccDb {
        &self.cl.nodes[node].db
    }
    fn lm(&self, node: usize) -> Option<&LockManager> {
        self.lms.get(node)
    }
    /// Lock priorities and 2PC ids draw from one cluster-wide counter.
    fn draw_ts(&self) -> Ts {
        self.cl.next_ts.fetch_add(1, Ordering::Relaxed) + 1
    }
    fn msg(&self, to: usize, kind: MsgKind) {
        self.cl.msg(to, kind);
    }

    /// One remote row update inside a cross-node transaction: open the
    /// node's participant record (and undo token) on first touch, then,
    /// under one exclusive fix of the row, record its pre-image in the
    /// owning node's undo store (version chain + compensation list) and
    /// let `f` change it.
    fn remote_update<T: Row, R>(
        &self,
        parts: &mut Vec<Participant>,
        node: usize,
        rid: RecordId,
        f: impl FnOnce(&mut T) -> R,
    ) -> R {
        let db = self.db(node);
        let i = parts
            .iter()
            .position(|p| p.node == node)
            .unwrap_or_else(|| {
                parts.push(Participant {
                    node,
                    token: db.undo.begin(),
                    keys: Vec::new(),
                    ops: Vec::new(),
                });
                parts.len() - 1
            });
        let p = &mut parts[i];
        let heap = db.heaps.for_relation(T::REL);
        let key: VersionKey = (heap.file(), rid.to_u64());
        heap.modify_with(&db.bm, rid, |row| {
            let row = row.expect("participant update of a live row must land");
            db.undo.record(p.token, key, Some(row));
            p.keys.push(key);
            p.ops.push((T::REL, rid, row.to_vec()));
            T::recode(row, f)
        })
    }

    /// Commits a cross-node transaction: one-phase when only the home
    /// node wrote, presumed-abort 2PC otherwise. Returns whether the
    /// transaction committed (`false` = a vote or the coordinator's
    /// decide failed durably and everything was rolled back).
    fn commit(&self, hn: usize, parts: Vec<Participant>) -> bool {
        let cl = self.cl;
        let h = &cl.nodes[hn].db;
        if parts.is_empty() {
            // item-only cross traffic (partitioned reads) needs no 2PC
            h.commit();
            return true;
        }
        let ts = self.draw_ts();
        cl.coordinators
            .lock()
            .expect("coordinator map")
            .insert(ts, hn);
        // phase 1: every participant votes by durably logging Prepare
        for (prepared, p) in parts.iter().enumerate() {
            cl.msg(p.node, MsgKind::Prepare);
            cl.prepares.fetch_add(1, Ordering::Relaxed);
            if !cl.nodes[p.node].db.bm.log_prepare(ts) {
                cl.abort_cross(hn, &parts, Some((ts, prepared)));
                return false;
            }
        }
        // commit point: the coordinator's durable Decide{commit}
        if !h.bm.log_decide(ts, true) {
            cl.abort_cross(hn, &parts, Some((ts, parts.len())));
            return false;
        }
        cl.commit_decides.fetch_add(1, Ordering::Relaxed);
        h.finish_write();
        // phase 2: deliver the decision; a participant's dropped Decide
        // leaves an in-doubt Prepare that recovery resolves against the
        // coordinator's log
        for p in &parts {
            cl.msg(p.node, MsgKind::Decide);
            let rdb = &cl.nodes[p.node].db;
            let _ = rdb.bm.log_decide(ts, true);
            rdb.undo.commit(p.token, &p.keys);
        }
        true
    }

    /// A clause 2.4.1.4 rollback: presumed abort, no 2PC records.
    fn abort(&self, home: usize, parts: Vec<Participant>) {
        self.cl.abort_cross(home, &parts, None);
    }
}

/// Per-node slice of a cluster run.
#[derive(Debug, Clone, Default)]
pub struct NodeReport {
    /// Transactions homed on this node.
    pub executed: u64,
    /// New orders placed with this node as home.
    pub new_orders: u64,
    /// Messages this node received, by [`MsgKind`] index.
    pub msgs: [u64; MSG_KINDS],
}

/// Cluster run summary.
#[derive(Debug, Clone, Default)]
pub struct ClusterReport {
    /// Transactions completed per type (mix order).
    pub executed: [u64; 5],
    /// New orders placed cluster-wide.
    pub new_orders: u64,
    /// Orders delivered.
    pub deliveries: u64,
    /// New-Orders rolled back on an unused item (clause 2.4.1.4).
    pub rollbacks: u64,
    /// Cross-node transactions aborted by 2PC (failed vote or decide);
    /// zero without fault injection.
    pub two_pc_aborts: u64,
    /// Wound-induced retries per type.
    pub retries: [u64; 5],
    /// Per-type latency in nanoseconds.
    pub latency_ns: [QuantileSketch; 5],
    /// Latency of transactions that touched a remote node.
    pub remote_latency_ns: QuantileSketch,
    /// New-Orders that touched a remote node.
    pub remote_new_orders: u64,
    /// Payments that touched a remote node.
    pub remote_payments: u64,
    /// 2PC prepares logged during the run.
    pub prepares: u64,
    /// 2PC coordinator commit decisions logged during the run.
    pub commit_decides: u64,
    /// 2PC abort decisions logged during the run.
    pub abort_decides: u64,
    /// Per-node breakdown.
    pub per_node: Vec<NodeReport>,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
}

impl ClusterReport {
    /// Total transactions completed.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.executed.iter().sum()
    }

    /// Completed transactions per second, cluster-wide.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        self.total() as f64 / self.elapsed.as_secs_f64().max(f64::MIN_POSITIVE)
    }

    /// Executed tpm-C: committed New-Orders per minute, cluster-wide.
    #[must_use]
    pub fn cluster_tpm(&self) -> f64 {
        self.new_orders as f64 * 60.0 / self.elapsed.as_secs_f64().max(f64::MIN_POSITIVE)
    }

    /// Total messages delivered across all nodes.
    #[must_use]
    pub fn messages(&self) -> u64 {
        self.per_node
            .iter()
            .map(|n| n.msgs.iter().sum::<u64>())
            .sum()
    }

    fn absorb(&mut self, tally: &Tally) {
        for t in 0..5 {
            self.executed[t] += tally.executed[t];
            self.retries[t] += tally.retries[t];
        }
        tally.merge_latency(&mut self.latency_ns);
        self.new_orders += tally.new_orders;
        self.deliveries += tally.deliveries;
        self.rollbacks += tally.rollbacks;
        self.two_pc_aborts += tally.two_pc_aborts;
        self.remote_latency_ns.merge(&tally.remote_latency_ns);
        self.remote_new_orders += tally.remote_new_orders;
        self.remote_payments += tally.remote_payments;
        for (mine, theirs) in self.per_node.iter_mut().zip(&tally.per_node) {
            mine.executed += theirs.executed;
            mine.new_orders += theirs.new_orders;
        }
    }
}

/// Configuration of a [`two_pc_crash_sweep`].
#[derive(Debug, Clone, Copy)]
pub struct TwoPcSweepConfig {
    /// Cluster under test (WAL is forced on, group commit off).
    pub cluster: ClusterConfig,
    /// Transactions per run.
    pub transactions: u64,
    /// Load + workload + fault-plan seed.
    pub seed: u64,
}

/// What a [`two_pc_crash_sweep`] observed.
#[derive(Debug, Clone, Copy, Default)]
pub struct TwoPcSweepReport {
    /// 2PC crash sites observed (prepare + decide appends, all nodes).
    pub sites: u64,
    /// Of those, `Prepare` appends.
    pub prepare_sites: u64,
    /// Of those, `Decide` appends.
    pub decide_sites: u64,
    /// In-doubt transactions found across all crashed-node logs.
    pub in_doubt_seen: u64,
    /// In-doubt transactions the coordinator's log resolved to commit.
    pub resolved_commit: u64,
    /// In-doubt transactions resolved to abort (presumed abort
    /// included).
    pub resolved_abort: u64,
    /// Recovery failures — must be zero.
    pub unrecovered: u64,
}

/// Crashes every reachable 2PC log append, one run per site: an
/// observation pass finds each node's `Prepare`/`Decide` append
/// sequence numbers, then each `(node, seq)` gets a fresh cluster, a
/// crash latched at exactly that append, the same serial workload, and
/// a full recovery check:
///
/// - at most one transaction is in doubt per crashed log (serial
///   driving),
/// - every in-doubt transaction resolves against its **coordinator's**
///   durable decision, and the crashed log replays cleanly under that
///   resolution ([`tpcc_storage::Wal::try_recover_resolved`]),
/// - a durable participant-side `Decide{commit}` always has a matching
///   coordinator commit decision (no unilateral commits).
///
/// # Panics
/// Panics when any of those invariants fails.
#[must_use]
pub fn two_pc_crash_sweep(cfg: &TwoPcSweepConfig) -> TwoPcSweepReport {
    let mut ccfg = cfg.cluster;
    ccfg.node_db.enable_wal = true;
    ccfg.node_db.group_commit = None;
    ccfg.network_delay_us = 0;
    let n_nodes = usize::try_from(ccfg.nodes).expect("node count fits usize");

    // observation pass: where do the 2PC appends land on each node?
    let mut sites: Vec<(usize, u64, FaultSite)> = Vec::new();
    {
        let mut cl = Cluster::new(ccfg, cfg.seed);
        let hooks: Vec<Arc<FaultHook>> = (0..n_nodes)
            .map(|n| cl.install_node_fault_plan(n, FaultPlan::observe(cfg.seed)))
            .collect();
        let _ = cl.run_serial(cfg.transactions, cfg.seed);
        for (n, hook) in hooks.iter().enumerate() {
            for rec in hook.take_records() {
                if matches!(rec.site, FaultSite::TwoPcPrepare | FaultSite::TwoPcDecide) {
                    sites.push((n, rec.seq, rec.site));
                }
            }
        }
    }

    let mut report = TwoPcSweepReport {
        sites: sites.len() as u64,
        ..TwoPcSweepReport::default()
    };
    for &(node, seq, site) in &sites {
        match site {
            FaultSite::TwoPcPrepare => report.prepare_sites += 1,
            FaultSite::TwoPcDecide => report.decide_sites += 1,
            _ => {}
        }
        let mut cl = Cluster::new(ccfg, cfg.seed);
        let hook = cl.install_node_fault_plan(node, FaultPlan::crash_at(cfg.seed, seq));
        let _ = cl.run_serial(cfg.transactions, cfg.seed);
        assert!(hook.crashed(), "the observed 2PC site must fire");

        for n in 0..n_nodes {
            cl.node_db(n).flush_log();
        }
        let coords: HashMap<u64, usize> = cl.coordinators.lock().expect("coordinator map").clone();
        let mut wals = Vec::with_capacity(n_nodes);
        let mut checkpoints = Vec::with_capacity(n_nodes);
        for n in 0..n_nodes {
            let db = cl.node_db_mut(n);
            wals.push(db.take_wal().expect("WAL on"));
            checkpoints.push(db.take_checkpoint().expect("post-load checkpoint"));
        }

        for (m, checkpoint) in checkpoints.into_iter().enumerate() {
            let wal = &wals[m];
            let in_doubt = wal.in_doubt();
            assert!(
                in_doubt.len() <= 1,
                "serial driving leaves at most one in-doubt txn, found {in_doubt:?}"
            );
            for &txn in &in_doubt {
                report.in_doubt_seen += 1;
                let cn = *coords.get(&txn).expect("in-doubt txn has a coordinator");
                assert_ne!(cn, m, "a coordinator is never in doubt about its own txn");
                if wals[cn].durable_decision(txn) == Some(true) {
                    report.resolved_commit += 1;
                } else {
                    report.resolved_abort += 1;
                }
            }
            // no unilateral commits: a participant's durable commit
            // decision always matches its coordinator's
            for entry in &wal.entries()[..wal.durable_len()] {
                if let WalEntry::Decide { txn, commit: true } = entry {
                    if let Some(&cn) = coords.get(txn) {
                        if cn != m {
                            assert_eq!(
                                wals[cn].durable_decision(*txn),
                                Some(true),
                                "participant committed txn {txn} without its coordinator"
                            );
                        }
                    }
                }
            }
            let wals_ref = &wals;
            let resolver = |txn: u64| {
                coords
                    .get(&txn)
                    .is_some_and(|&cn| cn != m && wals_ref[cn].durable_decision(txn) == Some(true))
            };
            if wal.try_recover_resolved(checkpoint, resolver).is_err() {
                report.unrecovered += 1;
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys;
    use crate::records::{CustomerRec, StockRec};

    /// Satellite 1, executed half: at 1 node the router never
    /// classifies anything as remote, under either placement.
    #[test]
    fn one_node_router_degenerates_to_single_node() {
        for placement in [ItemPlacement::Replicated, ItemPlacement::Partitioned] {
            let cfg = ClusterConfig {
                warehouses_per_node: 4,
                placement,
                ..ClusterConfig::small(1)
            };
            let cl = Cluster::new(cfg, 9);
            assert_eq!(cl.total_warehouses(), 4);
            for w in 0..4 {
                assert_eq!(cl.node_of(w), 0);
                assert_eq!(cl.local_w(w), w);
                for other in 0..4 {
                    assert!(!cl.is_remote(w, other));
                }
            }
            for i in 0..cl.node_db(0).config().items {
                assert_eq!(
                    cl.item_node(0, i),
                    0,
                    "1-node {placement:?} owns every item"
                );
            }
            let report = cl.run_serial(200, 10);
            assert_eq!(report.total(), 200);
            assert_eq!(report.remote_new_orders, 0);
            assert_eq!(report.remote_payments, 0);
            assert_eq!(report.messages(), 0, "no traffic ever leaves the node");
            assert_eq!(report.prepares, 0);
            assert_eq!(report.commit_decides, 0);
            assert!(cl.consistent());
        }
    }

    /// Two nodes with remote traffic: the run completes, every node
    /// stays consistent, and the message/2PC counters line up with the
    /// protocol (every prepare answered, no aborts without faults).
    #[test]
    fn two_nodes_commit_remote_traffic_consistently() {
        let cl = Cluster::new(ClusterConfig::small(2), 21);
        let report = cl.run(2, 800, 22);
        assert_eq!(report.total(), 800);
        assert!(report.remote_new_orders > 0, "1%/line over 800 txns fires");
        assert!(report.remote_payments > 0, "15% of payments are remote");
        assert!(report.messages() > 0);
        assert_eq!(report.two_pc_aborts, 0, "no faults, no 2PC aborts");
        assert_eq!(report.abort_decides, 0);
        let prepare_msgs: u64 = report
            .per_node
            .iter()
            .map(|n| n.msgs[MsgKind::Prepare.idx()])
            .sum();
        let decide_msgs: u64 = report
            .per_node
            .iter()
            .map(|n| n.msgs[MsgKind::Decide.idx()])
            .sum();
        assert_eq!(report.prepares, prepare_msgs);
        assert_eq!(
            decide_msgs, prepare_msgs,
            "every prepared participant decided"
        );
        assert!(report.commit_decides > 0);
        assert!(
            report.commit_decides <= report.prepares,
            "one coordinator decide per cross txn, at least one participant each"
        );
        assert_eq!(
            report.per_node.iter().map(|n| n.executed).sum::<u64>(),
            800,
            "every transaction homed somewhere"
        );
        assert!(cl.consistent());
        // replicated items: no item fetch ever crosses the network
        assert_eq!(cl.inbox_count(0, MsgKind::ItemRead), 0);
        assert_eq!(cl.inbox_count(1, MsgKind::ItemRead), 0);
    }

    /// Cluster terminals keep the series `ParallelDriver` terminals
    /// keep, resolved from each node's `db.obs()` when the run starts —
    /// so a recorder attached after construction (as the benchmark's
    /// traced run does) sees the lock managers too.
    #[test]
    fn traced_run_records_lock_and_transaction_series() {
        use crate::driver::TX_NAMES;
        use tpcc_obs::{Label, MemoryRecorder, Obs};

        let rec = Arc::new(MemoryRecorder::new());
        let mut cl = Cluster::new(ClusterConfig::small(2), 21);
        for n in 0..2 {
            cl.node_db_mut(n).set_obs(Obs::new(rec.clone()));
        }
        let report = cl.run(2, 400, 22);
        assert_eq!(report.total(), 400);
        assert!(rec.counter_total("lock_acquires") > 0);
        for (t, name) in TX_NAMES.into_iter().enumerate() {
            let label = Label::Name(name);
            assert_eq!(rec.counter_value("txn_executed", label), report.executed[t]);
            assert_eq!(rec.counter_value("txn_retries", label), report.retries[t]);
            let latency = rec.histogram("txn_latency_ns", label).expect("recorded");
            assert_eq!(latency.count(), report.executed[t], "{name} latency");
        }
        assert_eq!(rec.counter_total("txn_executed"), report.total());
        assert_eq!(rec.counter_total("txn_rollbacks"), report.rollbacks);
    }

    /// Partitioned items route reads to the owning node (figure 12's
    /// extra message class) and nothing else changes.
    #[test]
    fn partitioned_items_route_reads_by_owner() {
        let cfg = ClusterConfig {
            placement: ItemPlacement::Partitioned,
            ..ClusterConfig::small(2)
        };
        let cl = Cluster::new(cfg, 31);
        let report = cl.run_serial(400, 32);
        assert_eq!(report.total(), 400);
        let item_reads: u64 = (0..2).map(|n| cl.inbox_count(n, MsgKind::ItemRead)).sum();
        assert!(
            item_reads > 0,
            "~half of all item fetches leave the home node"
        );
        assert!(cl.consistent());
    }

    /// A cross-node New-Order commits durably on both nodes: the
    /// remote stock write is inside the participant's recovered image
    /// (its Decide is a replay boundary), the home half inside the
    /// coordinator's.
    #[test]
    fn cross_node_new_order_is_durable_on_both_nodes() {
        let cfg = ClusterConfig {
            node_db: DbConfig {
                enable_wal: true,
                ..DbConfig::small()
            },
            ..ClusterConfig::small(2)
        };
        let mut cl = Cluster::new(cfg, 41);
        let lines = [
            OrderLineReq {
                item: 5,
                supply_warehouse: 0,
                quantity: 3,
            },
            OrderLineReq {
                item: 7,
                supply_warehouse: 1, // node 1: the 2PC participant
                quantity: 4,
            },
        ];
        let committed = cl.new_order_cluster(0, 2, 5, &lines).expect("valid items");
        assert!(committed);
        let (prepares, commits, aborts) = cl.two_pc_counts();
        assert_eq!((prepares, commits, aborts), (1, 1, 0));
        // remote stock row took the update
        let rdb = cl.node_db(1);
        let s_rid = rdb
            .pk_lookup(Relation::Stock, keys::stock(0, 7))
            .expect("stock");
        let stock = StockRec::decode(&rdb.heaps.stock.get(&rdb.bm, s_rid).expect("live"));
        assert_eq!(stock.remote_cnt, 1);
        assert_eq!(stock.order_cnt, 1);
        // both logs replay to their live images
        for n in 0..2 {
            cl.node_db(n).flush_log();
            assert!(
                cl.node_db_mut(n).crash_recovery_check(),
                "node {n} must recover to its live image"
            );
        }
        assert!(cl.consistent());
    }

    /// A clause 2.4.1.4 rollback that already wrote on a remote node
    /// compensates everything and leaves zero 2PC records (presumed
    /// abort).
    #[test]
    fn clause_rollback_compensates_remote_writes_with_no_2pc_trace() {
        let cl = Cluster::new(ClusterConfig::small(2), 43);
        let rdb = cl.node_db(1);
        let s_rid = rdb
            .pk_lookup(Relation::Stock, keys::stock(0, 7))
            .expect("stock");
        let before = rdb.heaps.stock.get(&rdb.bm, s_rid).expect("live");
        let lines = [
            OrderLineReq {
                item: 7,
                supply_warehouse: 1, // remote write happens first…
                quantity: 4,
            },
            OrderLineReq {
                item: cl.node_db(0).config().items + 3, // …then the unused item
                supply_warehouse: 0,
                quantity: 1,
            },
        ];
        let err = cl.new_order_cluster(0, 2, 5, &lines).expect_err("rollback");
        assert_eq!(err.bad_line, 1);
        assert_eq!(
            rdb.heaps.stock.get(&rdb.bm, s_rid).expect("live"),
            before,
            "remote stock restored byte-for-byte"
        );
        assert_eq!(cl.two_pc_counts(), (0, 0, 0), "presumed abort: no records");
        assert!(cl.consistent());
    }

    /// A participant that crashes at its Prepare append votes no: the
    /// transaction aborts globally and the cluster keeps running.
    #[test]
    fn participant_prepare_crash_aborts_globally() {
        let cfg = ClusterConfig {
            node_db: DbConfig {
                enable_wal: true,
                ..DbConfig::small()
            },
            ..ClusterConfig::small(2)
        };
        // observe node 1's first Prepare append
        let seq = {
            let mut cl = Cluster::new(cfg, 45);
            let hook = cl.install_node_fault_plan(1, FaultPlan::observe(45));
            let _ = cl.run_serial(300, 46);
            hook.take_records()
                .into_iter()
                .find(|r| r.site == FaultSite::TwoPcPrepare)
                .expect("a cross txn prepared on node 1")
                .seq
        };
        let mut cl = Cluster::new(cfg, 45);
        let hook = cl.install_node_fault_plan(1, FaultPlan::crash_at(45, seq));
        let report = cl.run_serial(300, 46);
        assert!(hook.crashed());
        assert_eq!(report.total(), 300, "the cluster keeps executing");
        assert!(report.two_pc_aborts > 0, "the crashed vote aborted its txn");
        let (_, _, aborts) = cl.two_pc_counts();
        assert!(aborts > 0);
        assert!(cl.consistent(), "aborted txns left no partial effects");
    }

    /// Satellite 3 in miniature: every reachable 2PC crash site on a
    /// 2-node cluster recovers with zero unresolved transactions.
    #[test]
    fn small_two_pc_crash_sweep_resolves_every_in_doubt_txn() {
        let report = two_pc_crash_sweep(&TwoPcSweepConfig {
            cluster: ClusterConfig::small(2),
            transactions: 120,
            seed: 7,
        });
        eprintln!("two_pc_crash_sweep: {report:?}");
        assert!(report.sites > 0, "the workload must exercise 2PC");
        assert!(report.prepare_sites > 0);
        assert!(report.decide_sites > 0);
        assert_eq!(report.unrecovered, 0, "{report:?}");
        assert_eq!(
            report.in_doubt_seen,
            report.resolved_commit + report.resolved_abort
        );
    }

    /// Remote work is counted where it lands: per-node inboxes mirror
    /// the model's call-count accounting for one hand-built Payment.
    #[test]
    fn remote_payment_message_counts_match_the_model_shape() {
        let cl = Cluster::new(ClusterConfig::small(2), 47);
        let committed = cl.payment_cluster(0, 3, 1, 4, CustomerSelector::ById(8), 12.5);
        assert!(committed);
        assert_eq!(
            cl.inbox_count(1, MsgKind::CustomerRead),
            1,
            "by-id reads 1 row"
        );
        assert_eq!(cl.inbox_count(1, MsgKind::CustomerWrite), 1);
        assert_eq!(cl.inbox_count(1, MsgKind::Prepare), 1);
        assert_eq!(cl.inbox_count(1, MsgKind::Decide), 1);
        assert_eq!(
            cl.inbox_count(0, MsgKind::CustomerRead),
            0,
            "home is silent"
        );
        // the remote balance moved, the home history row exists
        let rdb = cl.node_db(1);
        let c_rid = rdb
            .pk_lookup(Relation::Customer, keys::customer(0, 4, 8))
            .expect("customer");
        let cust = CustomerRec::decode(&rdb.heaps.customer.get(&rdb.bm, c_rid).expect("live"));
        assert!((cust.balance - (-10.0 - 12.5)).abs() < 1e-9);
        assert!(cl.consistent());
    }

    /// Release-mode stress sweep (CI runs `--ignored` with a seed
    /// matrix via `TPCC_STRESS_SEED`): satellite 3's full acceptance —
    /// crash between prepare and decide on both coordinator and
    /// participant sides, zero unrecovered.
    #[test]
    #[ignore = "stress: run with --ignored, seeded via TPCC_STRESS_SEED"]
    fn stress_two_pc_crash_sweep() {
        let seed = std::env::var("TPCC_STRESS_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(42u64);
        let report = two_pc_crash_sweep(&TwoPcSweepConfig {
            cluster: ClusterConfig::small(2),
            transactions: 400,
            seed,
        });
        eprintln!("two_pc_crash_sweep[seed {seed}]: {report:?}");
        assert!(report.sites > 0);
        assert!(report.prepare_sites > 0);
        assert!(report.decide_sites > 0);
        assert_eq!(report.unrecovered, 0, "{report:?}");
        assert_eq!(
            report.in_doubt_seen,
            report.resolved_commit + report.resolved_abort
        );
    }
}
