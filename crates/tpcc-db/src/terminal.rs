//! The one terminal executor: input → lockset → wound-retry → execute
//! → report, generic over a [`Placement`] that says where rows live.
//!
//! [`Driver`](crate::Driver), [`ParallelDriver`](crate::ParallelDriver)
//! and [`Cluster`](crate::Cluster) are constructors over
//! [`Terminal`]: the first two run it on [`OneNode`] (everything is
//! node 0, nothing is ever remote, and the compiler folds the routing
//! away), the cluster on its router. The transaction bodies themselves
//! live in `txns.rs`, written once against the same trait.
//!
//! # Locking protocol
//!
//! Every transaction **predeclares** its lockset (no upgrades: the
//! strongest mode is taken up front), acquires it, executes, and
//! releases on drop (strict 2PL). A wound ([`tpcc_lock::Wounded`])
//! aborts the attempt before any write — the acquisition phase
//! performs no database mutations, so retry is just "drop the lock
//! contexts and go again", **keeping the original timestamp** so a
//! retried transaction ages and cannot starve.
//!
//! | transaction | lockset |
//! |---|---|
//! | New-Order | S warehouse; X district; X customer; X each supplying stock row (on its node) |
//! | Payment | X warehouse; X district; X customer (pre-resolved for by-name, on its node) |
//! | Order-Status | S customer (pre-resolved) — **empty** under MVCC |
//! | Delivery | per district: X district, then X order + X customer of the peeked oldest pending order |
//! | Stock-Level | S district — **empty** under MVCC |
//!
//! Locksets are sorted by `(node, space, key)` and acquired in
//! ascending node order through one wound-wait context per node, all
//! opened at the same timestamp, so no transaction ever waits on node
//! `a` while holding locks on node `b > a`. A placement without lock
//! managers ([`Placement::lm`] is `None`: the serial driver, which
//! holds the database exclusively, and `Cluster::run_serial`) skips
//! lockset construction and acquisition altogether.
//!
//! With [`DbConfig::mvcc`](crate::DbConfig) on, the two read-only
//! types bypass the lock manager entirely: they pin a snapshot
//! ([`TpccDb::snapshot`]) and run `order_status_at` /
//! `stock_level_at` against the undo version chains — zero lock
//! acquisitions, no wound/wait traffic, and no interference with the
//! writer types (the §4 response-time model's assumption, which
//! S-locks could not honor).
//!
//! Delivery runs as ten per-district sub-transactions (the spec frames
//! deferred delivery that way); each peeks the oldest pending order
//! *after* holding the district lock, so the peek cannot race another
//! delivery or a New-Order insert. Stock-Level reads stock rows
//! without stock locks — clause 3.3.2 explicitly relaxes its isolation
//! (it may see concurrent quantity updates, never torn records, which
//! the buffer pool's frame latches rule out).

use std::time::{Duration, Instant};

use crate::cluster::MsgKind;
use crate::db::TpccDb;
use crate::driver::{DriverConfig, InputGen, TxnInput, TX_NAMES};
use crate::keys;
use crate::records::Row;
use crate::txns;
use tpcc_lock::{LockKey, LockManager, LockMode, Ts, Txn, Wounded};
use tpcc_obs::{CounterHandle, HistogramHandle, Label, Obs, QuantileSketch, TraceHandle};
use tpcc_storage::RecordId;

/// Lock spaces, one per logically lockable relation. (Item records are
/// immutable after load and history is append-only with no readers, so
/// neither needs a space.)
mod space {
    pub const WAREHOUSE: u32 = 0;
    pub const DISTRICT: u32 = 1;
    pub const CUSTOMER: u32 = 2;
    pub const STOCK: u32 = 3;
    pub const ORDER: u32 = 4;
}

/// `lock_waiters` gauge labels, indexed by lock space.
const SPACE_LABELS: [Label; 5] = [
    Label::Name("warehouse"),
    Label::Name("district"),
    Label::Name("customer"),
    Label::Name("stock"),
    Label::Name("order"),
];

/// A lock manager reporting to `obs` under [`SPACE_LABELS`].
pub(crate) fn lock_manager(obs: &Obs) -> LockManager {
    let mut lm = LockManager::new();
    lm.set_obs(obs, &SPACE_LABELS);
    lm
}

/// One lockset entry: the node whose lock manager owns the key.
type Lock = (usize, LockKey, LockMode);

fn shared(node: usize, space: u32, key: u64) -> Lock {
    (node, LockKey { space, key }, LockMode::Shared)
}

fn exclusive(node: usize, space: u32, key: u64) -> Lock {
    (node, LockKey { space, key }, LockMode::Exclusive)
}

/// The seed of terminal `t` under driver seed `seed`. Terminal 0 keeps
/// the seed itself, so a one-terminal parallel run replays the serial
/// driver's stream exactly.
#[must_use]
pub fn terminal_seed(seed: u64, terminal: u64) -> u64 {
    seed ^ terminal.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Where rows live and how a transaction that leaves its home node
/// commits. Warehouse ids handed to a placement are global; it answers
/// with the owning node and that node's local id.
pub(crate) trait Placement: Sync {
    /// The remote nodes' write-sets of one transaction (2PC
    /// participants); `()` where nothing is ever remote.
    type Parts: Default;

    /// Nodes (each a full [`TpccDb`]).
    fn nodes(&self) -> usize;
    /// Warehouses across all nodes.
    fn warehouses(&self) -> u64;
    /// `(owning node, node-local warehouse id)` of global warehouse `w`.
    fn locate(&self, w: u64) -> (usize, u64);
    /// The node serving reads of item `i` for a transaction homed on
    /// `home`.
    fn item_node(&self, home: usize, i: u64) -> usize;
    /// Node `node`'s database.
    fn db(&self, node: usize) -> &TpccDb;
    /// Node `node`'s lock manager; `None` (on every node alike) when
    /// the run takes no logical locks.
    fn lm(&self, node: usize) -> Option<&LockManager>;
    /// A timestamp unique across every node's lock manager.
    fn draw_ts(&self) -> Ts;
    /// Delivers one message to node `to`.
    fn msg(&self, to: usize, kind: MsgKind);
    /// Updates a row on a node other than the transaction's home, as
    /// [`TpccDb::update_row`] does on the home node, recording what
    /// commit or abort of `parts` needs; returns what `f` returns.
    fn remote_update<T: Row, R>(
        &self,
        parts: &mut Self::Parts,
        node: usize,
        rid: RecordId,
        f: impl FnOnce(&mut T) -> R,
    ) -> R;
    /// Commits the transaction homed on `home`; `false` when a 2PC
    /// vote or decide failed and everything was rolled back.
    fn commit(&self, home: usize, parts: Self::Parts) -> bool;
    /// Rolls the transaction back on `home` and every participant.
    fn abort(&self, home: usize, parts: Self::Parts);
}

/// The single-node placement: every row is on node 0, no message is
/// ever sent, commit is the database's own.
pub(crate) struct OneNode<'a> {
    pub db: &'a TpccDb,
    /// `None`: no logical locks (the caller is the only writer).
    pub lm: Option<&'a LockManager>,
}

impl Placement for OneNode<'_> {
    type Parts = ();

    fn nodes(&self) -> usize {
        1
    }
    fn warehouses(&self) -> u64 {
        self.db.cfg.warehouses
    }
    #[inline]
    fn locate(&self, w: u64) -> (usize, u64) {
        (0, w)
    }
    #[inline]
    fn item_node(&self, home: usize, _: u64) -> usize {
        home
    }
    #[inline]
    fn db(&self, _: usize) -> &TpccDb {
        self.db
    }
    #[inline]
    fn lm(&self, _: usize) -> Option<&LockManager> {
        self.lm
    }
    fn draw_ts(&self) -> Ts {
        self.lm.map_or(0, LockManager::draw_ts)
    }
    fn msg(&self, _: usize, _: MsgKind) {
        unreachable!("one node sends no messages");
    }
    fn remote_update<T: Row, R>(
        &self,
        (): &mut (),
        _: usize,
        _: RecordId,
        _: impl FnOnce(&mut T) -> R,
    ) -> R {
        unreachable!("one node has no remote rows");
    }
    #[inline]
    fn commit(&self, _: usize, (): ()) -> bool {
        self.db.commit();
        true
    }
    fn abort(&self, _: usize, (): ()) {
        self.db.abort_write();
    }
}

/// What one node saw of a terminal's run.
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeTally {
    /// Transactions homed on the node.
    pub executed: u64,
    /// New orders placed with the node as home.
    pub new_orders: u64,
    /// Per-type latency of the transactions homed on the node.
    pub latency_ns: [QuantileSketch; 5],
}

/// One terminal's counts, the common source of [`DriverReport`],
/// [`ParallelReport`] and [`ClusterReport`].
///
/// [`DriverReport`]: crate::DriverReport
/// [`ParallelReport`]: crate::ParallelReport
/// [`ClusterReport`]: crate::ClusterReport
#[derive(Debug, Clone, Default)]
pub(crate) struct Tally {
    pub executed: [u64; 5],
    pub new_orders: u64,
    pub deliveries: u64,
    pub rollbacks: u64,
    pub two_pc_aborts: u64,
    pub retries: [u64; 5],
    pub remote_latency_ns: QuantileSketch,
    pub remote_new_orders: u64,
    pub remote_payments: u64,
    pub per_node: Vec<NodeTally>,
}

impl Tally {
    /// Merges every node's per-type latency into `into` (lossless, so
    /// the result is bit-identical to single-sketch recording).
    pub(crate) fn merge_latency(&self, into: &mut [QuantileSketch; 5]) {
        for node in &self.per_node {
            for (mine, theirs) in into.iter_mut().zip(&node.latency_ns) {
                mine.merge(theirs);
            }
        }
    }
}

/// One node's transaction series, resolved from its `db.obs()` once
/// per run: the per-transaction hot path is an atomic add, not a name
/// lookup.
struct Series {
    executed: [CounterHandle; 5],
    retries: [CounterHandle; 5],
    latency: [HistogramHandle; 5],
    rollbacks: CounterHandle,
    trace: TraceHandle,
}

impl Series {
    fn resolve(obs: &Obs) -> Self {
        let counters = |name: &'static str| {
            std::array::from_fn(|t| obs.counter_handle(name, Label::Name(TX_NAMES[t])))
        };
        Self {
            executed: counters("txn_executed"),
            retries: counters("txn_retries"),
            latency: std::array::from_fn(|t| {
                obs.histogram_handle("txn_latency_ns", Label::Name(TX_NAMES[t]))
            }),
            rollbacks: obs.counter_handle("txn_rollbacks", Label::Name(TX_NAMES[0])),
            trace: obs.trace_handle("txn"),
        }
    }
}

/// The lock contexts of one attempt: one wound-wait context per node,
/// all opened at the attempt's timestamp. Dropping it releases
/// everything (strict 2PL).
struct Locks<'p, P: Placement> {
    p: &'p P,
    ts: Ts,
    held: Vec<(usize, Txn<'p>)>,
}

impl<P: Placement> Locks<'_, P> {
    /// Takes one lock; a no-op when the placement has no lock
    /// managers. Callers lock in ascending node order.
    fn lock(&mut self, (node, key, mode): Lock) -> Result<(), Wounded> {
        let Some(lm) = self.p.lm(node) else {
            return Ok(());
        };
        if self.held.last().map(|(n, _)| *n) != Some(node) {
            self.held.push((node, lm.begin_at(self.ts)));
        }
        let (_, txn) = self.held.last_mut().expect("context just opened");
        txn.lock(key, mode)
    }
}

/// One terminal's execution context: where it runs, its pre-resolved
/// metric handles, and its running counts.
pub(crate) struct Terminal<'p, P: Placement> {
    p: &'p P,
    series: Vec<Series>,
    tally: Tally,
    /// Run Delivery as the one ten-district transaction
    /// ([`TpccDb::delivery`]) the serial driver defines it as, instead
    /// of ten per-district sub-transactions.
    pub one_delivery: bool,
    /// Post-transaction sleep (µs), outside the latency window.
    pub think_us: u64,
}

impl<'p, P: Placement> Terminal<'p, P> {
    pub(crate) fn new(p: &'p P) -> Self {
        Self {
            p,
            series: (0..p.nodes())
                .map(|n| Series::resolve(p.db(n).obs()))
                .collect(),
            tally: Tally {
                per_node: vec![NodeTally::default(); p.nodes()],
                ..Tally::default()
            },
            one_delivery: false,
            think_us: 0,
        }
    }

    /// Executes the next `transactions` inputs of `gen`.
    pub(crate) fn run(mut self, gen: &mut InputGen, transactions: u64) -> Tally {
        for _ in 0..transactions {
            let input = gen.next_input();
            let t = input.type_index();
            let (hn, lw) = self.p.locate(input.home_warehouse());
            self.tally.executed[t] += 1;
            self.tally.per_node[hn].executed += 1;
            self.series[hn].executed[t].add(1);
            let t0 = Instant::now();
            let remote = self.execute(input, hn, lw);
            let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            // latency lands only in this terminal's private sketch —
            // no shared-slot traffic on the hot path; the recorder
            // receives a lossless merge after the loop
            self.tally.per_node[hn].latency_ns[t].record(ns);
            if remote {
                self.tally.remote_latency_ns.record(ns);
            }
            self.series[hn].trace.record(TX_NAMES[t], t0);
            if self.think_us > 0 {
                std::thread::sleep(Duration::from_micros(self.think_us));
            }
        }
        for (series, node) in self.series.iter().zip(&self.tally.per_node) {
            for (handle, sketch) in series.latency.iter().zip(&node.latency_ns) {
                if !sketch.is_empty() {
                    handle.merge(sketch);
                }
            }
        }
        self.tally
    }

    /// Acquires `lockset()`, then runs `body` under it; `body` may take
    /// further locks through the contexts it is handed. This is the
    /// one wound-retry loop: a wounded attempt — while acquiring or
    /// inside `body`, which must not have written yet — drops its
    /// contexts and goes again under the original timestamp. Without
    /// lock managers the lockset is never built and `body` runs once.
    fn locked<R>(
        &mut self,
        t: usize,
        hn: usize,
        lockset: impl FnOnce() -> Vec<Lock>,
        body: impl Fn(&mut Locks<'p, P>) -> Result<R, Wounded>,
    ) -> R {
        let p = self.p;
        let (lockset, ts) = match p.lm(hn) {
            Some(_) => (lockset(), p.draw_ts()),
            None => (Vec::new(), 0),
        };
        loop {
            let mut locks = Locks {
                p,
                ts,
                held: Vec::new(),
            };
            let attempt = lockset
                .iter()
                .try_for_each(|&l| locks.lock(l))
                .and_then(|()| body(&mut locks));
            match attempt {
                Ok(done) => return done,
                Err(Wounded) => {
                    self.tally.retries[t] += 1;
                    self.series[hn].retries[t].add(1);
                }
            }
        }
    }

    /// Executes one transaction homed on node `hn` as local warehouse
    /// `lw`; returns whether it touched another node.
    fn execute(&mut self, input: TxnInput, hn: usize, lw: u64) -> bool {
        let p = self.p;
        let h = p.db(hn);
        match input {
            TxnInput::NewOrder { w, d, c, lines } => {
                let items = h.cfg.items;
                // an unused item (clause 2.4.1.4) has no stock row
                let stocked = || lines.iter().filter(|l| l.item < items);
                let remote = stocked()
                    .any(|l| p.locate(l.supply_warehouse).0 != hn || p.item_node(hn, l.item) != hn);
                let lockset = || {
                    let mut set = vec![
                        shared(hn, space::WAREHOUSE, keys::warehouse(lw)),
                        exclusive(hn, space::DISTRICT, keys::district(lw, d)),
                        exclusive(hn, space::CUSTOMER, keys::customer(lw, d, c)),
                    ];
                    set.extend(stocked().map(|l| {
                        let (sn, ls) = p.locate(l.supply_warehouse);
                        exclusive(sn, space::STOCK, keys::stock(ls, l.item))
                    }));
                    set.sort_by_key(|&(n, key, _)| (n, key));
                    set.dedup_by_key(|&mut (n, key, _)| (n, key)); // all stock locks are X
                    set
                };
                let placed =
                    self.locked(0, hn, lockset, |_| Ok(txns::new_order(p, w, d, c, &lines)));
                match placed {
                    Ok(Some(_)) => {
                        self.tally.new_orders += 1;
                        self.tally.per_node[hn].new_orders += 1;
                    }
                    Ok(None) => self.tally.two_pc_aborts += 1,
                    Err(_) => {
                        self.tally.rollbacks += 1;
                        self.series[hn].rollbacks.add(1);
                    }
                }
                self.tally.remote_new_orders += u64::from(remote);
                remote
            }
            TxnInput::Payment {
                w,
                d,
                cw,
                cd,
                selector,
                amount,
            } => {
                let (cn, lcw) = p.locate(cw);
                let lockset = || {
                    // by-name resolution is stable (immutable names), so
                    // the customer to lock is known before acquiring
                    // anything
                    let c_id = p.db(cn).resolve_customer_id(lcw, cd, selector);
                    let mut set = vec![
                        exclusive(hn, space::WAREHOUSE, keys::warehouse(lw)),
                        exclusive(hn, space::DISTRICT, keys::district(lw, d)),
                        exclusive(cn, space::CUSTOMER, keys::customer(lcw, cd, c_id)),
                    ];
                    set.sort_by_key(|&(n, key, _)| (n, key));
                    set
                };
                let paid = self.locked(1, hn, lockset, |_| {
                    Ok(txns::payment(p, w, d, cw, cd, selector, amount))
                });
                self.tally.two_pc_aborts += u64::from(paid.is_none());
                self.tally.remote_payments += u64::from(cn != hn);
                cn != hn
            }
            // the two read-only types are always home (the generator
            // keys them to the terminal's warehouse)
            TxnInput::OrderStatus { d, selector, .. } => {
                if h.cfg.mvcc {
                    // lock-free: the snapshot pin is the whole isolation
                    let snap = h.snapshot();
                    h.order_status_at(&snap, lw, d, selector);
                } else {
                    let lockset = || {
                        let c_id = h.resolve_customer_id(lw, d, selector);
                        vec![shared(hn, space::CUSTOMER, keys::customer(lw, d, c_id))]
                    };
                    self.locked(2, hn, lockset, |_| Ok(h.order_status(lw, d, selector)));
                }
                false
            }
            TxnInput::Delivery { carrier, .. } => {
                if self.one_delivery {
                    self.tally.deliveries += h.delivery(lw, carrier).delivered;
                } else {
                    for d in 0..10 {
                        self.deliver_district(hn, lw, d, carrier);
                    }
                }
                false
            }
            TxnInput::StockLevel { d, threshold, .. } => {
                if h.cfg.mvcc {
                    let snap = h.snapshot();
                    h.stock_level_at(&snap, lw, d, threshold);
                } else {
                    let lockset = || vec![shared(hn, space::DISTRICT, keys::district(lw, d))];
                    self.locked(4, hn, lockset, |_| Ok(h.stock_level(lw, d, threshold)));
                }
                false
            }
        }
    }

    /// One per-district delivery sub-transaction on the home node. The
    /// oldest-pending peek happens under the district X lock, so its
    /// result stays valid until commit; the order and customer locks
    /// are then added incrementally (wound-wait tolerates any
    /// acquisition order).
    fn deliver_district(&mut self, hn: usize, lw: u64, d: u64, carrier: u8) {
        let h = self.p.db(hn);
        let lockset = || vec![exclusive(hn, space::DISTRICT, keys::district(lw, d))];
        let delivered = self.locked(3, hn, lockset, |locks| {
            let Some((o_id, c_id)) = h.peek_oldest_pending(lw, d) else {
                return Ok(false); // empty queue: the spec's skipped delivery
            };
            locks.lock(exclusive(hn, space::ORDER, keys::order(lw, d, o_id)))?;
            locks.lock(exclusive(hn, space::CUSTOMER, keys::customer(lw, d, c_id)))?;
            // all locks held: open the undo context for this district's
            // sub-transaction (no-op with MVCC off)
            h.begin_write();
            let delivered = h.delivery_district(lw, d, carrier);
            h.commit();
            Ok(delivered.is_some())
        });
        self.tally.deliveries += u64::from(delivered);
    }
}

/// One terminal thread of a run.
pub(crate) struct Seat {
    /// The mix and knobs the terminal draws inputs from.
    pub cfg: DriverConfig,
    /// Its input-stream seed.
    pub seed: u64,
    /// Transactions it executes.
    pub transactions: u64,
    /// Sleep between transactions (µs).
    pub think_us: u64,
}

/// `terminals` seats sharing `transactions` as evenly as possible,
/// seat `t` seeded [`terminal_seed`]`(seed, t)`.
pub(crate) fn even_seats(
    cfg: DriverConfig,
    terminals: u64,
    transactions: u64,
    seed: u64,
) -> Vec<Seat> {
    (0..terminals)
        .map(|t| Seat {
            cfg,
            seed: terminal_seed(seed, t),
            transactions: transactions / terminals + u64::from(t < transactions % terminals),
            think_us: 0,
        })
        .collect()
}

/// Runs one terminal thread per seat against `p`; returns their
/// tallies in seat order and the wall-clock time of the run.
pub(crate) fn run_terminals<P: Placement>(p: &P, seats: &[Seat]) -> (Vec<Tally>, Duration) {
    let start = Instant::now();
    let tallies = std::thread::scope(|scope| {
        let threads: Vec<_> = seats
            .iter()
            .map(|seat| {
                scope.spawn(move || {
                    let mut terminal = Terminal::new(p);
                    terminal.think_us = seat.think_us;
                    let scale = p.db(0).config();
                    let mut gen = InputGen::with_scale(
                        seat.cfg,
                        seat.seed,
                        p.warehouses(),
                        scale.customers_per_district,
                        scale.items,
                        scale.name_count(),
                    );
                    terminal.run(&mut gen, seat.transactions)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|thread| thread.join().expect("terminal thread panicked"))
            .collect()
    });
    (tallies, start.elapsed())
}

#[cfg(test)]
mod tests {
    use crate::cluster::{Cluster, ClusterConfig};
    use crate::db::{DbConfig, TpccDb};
    use crate::driver::{Driver, DriverConfig};
    use crate::loader;
    use crate::parallel::ParallelDriver;

    /// What one executor reports of a run: `(executed, new orders,
    /// deliveries, rollbacks, retries)`.
    type Counts = ([u64; 5], u64, u64, u64, [u64; 5]);

    /// The degenerate cases that license one executor: on the same
    /// seeded stream the serial `Driver`, a 1-terminal `ParallelDriver`,
    /// a 1-node 1-terminal `Cluster::run` and `Cluster::run_serial`
    /// report the same counts and leave byte-identical flushed disk
    /// images — with MVCC off and on (snapshot reads, undo recording and
    /// the undo-backed rollback), under spec rollbacks and spec item
    /// counts. The cluster forces MVCC on, so its rows run there only.
    #[test]
    fn serial_one_terminal_and_one_node_runs_are_byte_identical() {
        let rollbacks = DriverConfig::default().with_spec_rollbacks();
        for (mvcc, dcfg) in [
            (false, rollbacks),
            (false, rollbacks.with_spec_item_counts()),
            (true, rollbacks),
            (true, rollbacks.with_spec_item_counts()),
        ] {
            let row = format!("mvcc {mvcc}, item counts {}", dcfg.spec_item_counts);
            let cfg = DbConfig {
                mvcc,
                ..DbConfig::small()
            };
            let mut serial_db = loader::load(cfg, 51);
            let serial = Driver::new(&serial_db, dcfg, 77).run(&mut serial_db, 600);
            serial_db.flush();
            let expected: Counts = (
                serial.executed,
                serial.new_orders,
                serial.deliveries,
                serial.rollbacks,
                [0; 5], // one terminal never conflicts
            );
            assert!(serial.rollbacks > 0, "{row}: the abort path ran");
            let check = |name: &str, counts: Counts, db: &TpccDb| {
                assert_eq!(counts, expected, "{row}: {name} counts");
                db.flush();
                assert!(
                    serial_db.contents_equal(db),
                    "{row}: {name} disk image diverges from the serial driver's"
                );
            };

            let db = loader::load(cfg, 51);
            let r = ParallelDriver::new(dcfg, 1, 77).run(&db, 600);
            let counts = (
                r.executed,
                r.new_orders,
                r.deliveries,
                r.rollbacks,
                r.retries,
            );
            check("1-terminal ParallelDriver", counts, &db);

            if mvcc {
                let ccfg = ClusterConfig {
                    driver: dcfg,
                    ..ClusterConfig::small(1)
                };
                let locked = Cluster::new(ccfg, 51);
                let r = locked.run(1, 600, 77);
                let counts = (
                    r.executed,
                    r.new_orders,
                    r.deliveries,
                    r.rollbacks,
                    r.retries,
                );
                check("1-node Cluster::run", counts, locked.node_db(0));

                let unlocked = Cluster::new(ccfg, 51);
                let r = unlocked.run_serial(600, 77);
                let counts = (
                    r.executed,
                    r.new_orders,
                    r.deliveries,
                    r.rollbacks,
                    r.retries,
                );
                check("1-node Cluster::run_serial", counts, unlocked.node_db(0));
            }
        }
    }
}
