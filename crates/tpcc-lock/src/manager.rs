//! The lock manager: shared/exclusive key locks, per-key FIFO wait
//! queues, wound-wait deadlock avoidance.
//!
//! # Protocol
//!
//! Transactions acquire logical locks on `(space, key)` pairs (a space
//! is a relation; a key is the packed primary key). Grants are strict
//! FIFO: a request that cannot be granted immediately queues, and the
//! queue's longest compatible prefix is promoted whenever the lock
//! state changes — a reader arriving behind a queued writer waits
//! behind it rather than starving it.
//!
//! Deadlocks are *avoided*, not detected, with **wound-wait** by
//! transaction timestamp (Rosenkrantz, Stearns & Lewis 1978): when a
//! requester conflicts with a granted or queued transaction, it
//! compares timestamps — an **older** requester *wounds* every younger
//! conflicting transaction (marks it for abort) and waits; a
//! **younger** requester simply waits. A wounded transaction observes
//! the mark at its next acquisition attempt (or inside its wait loop)
//! and aborts with [`Wounded`]; the caller releases everything and
//! retries **keeping its original timestamp**, so it ages and cannot
//! starve. Waits therefore never form a cycle (the optional
//! [wait-for-graph snapshot](LockManager::wait_for_snapshot)
//! cross-checks this invariant in tests).
//!
//! The shard mutexes here are leaves in the system's latch order:
//! nothing else is acquired while one is held.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use tpcc_buffer::fxhash::FxHashMap;
use tpcc_obs::{CounterHandle, GaugeHandle, HistogramHandle, Label, Obs, TraceHandle};

/// A transaction timestamp: smaller is older, and older wins conflicts.
pub type Ts = u64;

/// How long a waiter sleeps between wound-flag polls. A wound raised
/// from another shard has no condvar to signal, so this bounds the
/// latency of noticing it.
const WOUND_POLL: Duration = Duration::from_micros(200);

/// The lockable unit: a key within a lock space (relation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LockKey {
    /// The lock space, typically a relation index.
    pub space: u32,
    /// The packed key within the space.
    pub key: u64,
}

/// Lock mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared: concurrent with other shared holders.
    Shared,
    /// Exclusive: conflicts with everything.
    Exclusive,
}

impl LockMode {
    /// True when two holders in these modes may coexist.
    #[must_use]
    pub fn compatible(self, other: LockMode) -> bool {
        matches!((self, other), (LockMode::Shared, LockMode::Shared))
    }

    /// True when a holder in `self` already satisfies a request for
    /// `req` (no upgrade needed).
    #[must_use]
    pub fn covers(self, req: LockMode) -> bool {
        self == LockMode::Exclusive || req == LockMode::Shared
    }
}

/// The transaction was wounded by an older conflicting transaction and
/// must release all locks and retry (with its original timestamp).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wounded;

impl std::fmt::Display for Wounded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "transaction wounded by an older conflicting transaction")
    }
}

impl std::error::Error for Wounded {}

#[derive(Debug)]
struct TxnCore {
    ts: Ts,
    wounded: AtomicBool,
}

/// One transaction's lock context. Dropping it releases every held
/// lock (strict two-phase locking: the release phase is the drop).
#[derive(Debug)]
pub struct Txn<'lm> {
    lm: &'lm LockManager,
    core: Arc<TxnCore>,
    held: Vec<(LockKey, LockMode)>,
}

impl Txn<'_> {
    /// This transaction's timestamp (retry with
    /// [`LockManager::begin_at`] to keep it across an abort).
    #[must_use]
    pub fn ts(&self) -> Ts {
        self.core.ts
    }

    /// True when an older transaction has wounded this one; the next
    /// [`Txn::lock`] call will fail with [`Wounded`].
    #[must_use]
    pub fn is_wounded(&self) -> bool {
        self.core.wounded.load(Ordering::Acquire)
    }

    /// Keys currently held (lock, mode) — diagnostic.
    #[must_use]
    pub fn held(&self) -> &[(LockKey, LockMode)] {
        &self.held
    }

    /// Acquires `key` in `mode`, blocking FIFO behind conflicting
    /// transactions. Re-requesting a held key is a no-op when the held
    /// mode covers the request.
    ///
    /// # Errors
    /// [`Wounded`] when an older transaction claimed a conflicting
    /// lock; release everything (drop this `Txn`) and retry with the
    /// same timestamp.
    ///
    /// # Panics
    /// Panics on a Shared→Exclusive upgrade request: upgrades can
    /// deadlock two readers against each other, so the workload
    /// acquires `Exclusive` up front instead (predeclared locksets).
    pub fn lock(&mut self, key: LockKey, mode: LockMode) -> Result<(), Wounded> {
        self.lm.acquire(&self.core, &mut self.held, key, mode)
    }

    /// Releases every held lock now (otherwise done on drop).
    pub fn release_all(&mut self) {
        let held = std::mem::take(&mut self.held);
        self.lm.release(&self.core, &held);
    }
}

impl Drop for Txn<'_> {
    fn drop(&mut self) {
        self.release_all();
    }
}

#[derive(Debug, Default)]
struct LockState {
    granted: Vec<(Arc<TxnCore>, LockMode)>,
    queue: VecDeque<(Arc<TxnCore>, LockMode)>,
}

impl LockState {
    /// Moves the longest grantable FIFO prefix of the queue into the
    /// grant set. Returns true when anything was promoted.
    fn promote(&mut self) -> bool {
        let mut any = false;
        while let Some((_, mode)) = self.queue.front() {
            let mode = *mode;
            if self.granted.iter().all(|(_, g)| g.compatible(mode)) {
                let (core, mode) = self.queue.pop_front().expect("nonempty front");
                self.granted.push((core, mode));
                any = true;
            } else {
                break;
            }
        }
        any
    }

    fn is_idle(&self) -> bool {
        self.granted.is_empty() && self.queue.is_empty()
    }
}

#[derive(Debug)]
struct LockShard {
    state: Mutex<FxHashMap<LockKey, LockState>>,
    cv: Condvar,
}

/// Per-space observability: a contention gauge plus the waiter count
/// feeding it.
#[derive(Debug, Default)]
struct SpaceObs {
    waiters: AtomicU64,
    gauge: GaugeHandle,
}

/// The lock manager. Shared across terminal threads by reference; all
/// methods take `&self`.
#[derive(Debug)]
pub struct LockManager {
    shards: Box<[LockShard]>,
    next_ts: AtomicU64,
    spaces: Box<[SpaceObs]>,
    wait_hist: HistogramHandle,
    wounds: CounterHandle,
    acquires: CounterHandle,
    waits: CounterHandle,
    trace: TraceHandle,
    wait_names: Box<[&'static str]>,
}

impl Default for LockManager {
    fn default() -> Self {
        Self::new()
    }
}

impl LockManager {
    /// A lock manager with a default shard count.
    #[must_use]
    pub fn new() -> Self {
        Self::with_shards(64)
    }

    /// A lock manager with `shards` hash shards (clamped to ≥ 1).
    #[must_use]
    pub fn with_shards(shards: usize) -> Self {
        Self {
            shards: (0..shards.max(1))
                .map(|_| LockShard {
                    state: Mutex::new(FxHashMap::default()),
                    cv: Condvar::new(),
                })
                .collect(),
            next_ts: AtomicU64::new(0),
            spaces: Box::new([]),
            wait_hist: HistogramHandle::disabled(),
            wounds: CounterHandle::disabled(),
            acquires: CounterHandle::disabled(),
            waits: CounterHandle::disabled(),
            trace: TraceHandle::disabled(),
            wait_names: Box::new([]),
        }
    }

    /// Attaches observability: `lock_wait_ns` histogram, `lock_wounds`
    /// / `lock_acquires` / `lock_waits` counters, one `lock_waiters`
    /// contention gauge per entry of `space_labels` (index = lock
    /// space), and — when the recorder carries a trace collector —
    /// per-wait events on the waiting thread's `lock` timeline, named
    /// after the space's label.
    pub fn set_obs(&mut self, obs: &Obs, space_labels: &[Label]) {
        self.wait_hist = obs.histogram_handle("lock_wait_ns", Label::None);
        self.wounds = obs.counter_handle("lock_wounds", Label::None);
        self.acquires = obs.counter_handle("lock_acquires", Label::None);
        self.waits = obs.counter_handle("lock_waits", Label::None);
        self.trace = obs.trace_handle("lock");
        self.wait_names = space_labels
            .iter()
            .map(|label| match label {
                Label::Name(n) => *n,
                _ => "lock_wait",
            })
            .collect();
        self.spaces = space_labels
            .iter()
            .map(|label| SpaceObs {
                waiters: AtomicU64::new(0),
                gauge: obs.gauge_handle("lock_waiters", *label),
            })
            .collect();
    }

    /// Starts a transaction with a fresh (monotonically increasing)
    /// timestamp.
    #[must_use]
    pub fn begin(&self) -> Txn<'_> {
        self.begin_at(self.draw_ts())
    }

    /// Draws the next fresh timestamp without opening a transaction —
    /// for a caller that opens it later with
    /// [`LockManager::begin_at`] and keeps the timestamp across
    /// retries.
    pub fn draw_ts(&self) -> Ts {
        self.next_ts.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Starts a transaction with a caller-chosen timestamp — used to
    /// **retry after a wound with the original timestamp**, which is
    /// what makes wound-wait starvation-free: a transaction only ever
    /// ages, so it eventually becomes the oldest and cannot be wounded.
    ///
    /// Timestamps must be unique across live transactions (equal
    /// timestamps never wound each other).
    #[must_use]
    pub fn begin_at(&self, ts: Ts) -> Txn<'_> {
        self.next_ts.fetch_max(ts, Ordering::Relaxed);
        Txn {
            lm: self,
            core: Arc::new(TxnCore {
                ts,
                wounded: AtomicBool::new(false),
            }),
            held: Vec::new(),
        }
    }

    fn shard_for(&self, key: LockKey) -> &LockShard {
        let h = (u64::from(key.space) << 56 ^ key.key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(h >> 33) as usize % self.shards.len()]
    }

    fn space_enqueue(&self, space: u32) {
        if let Some(s) = self.spaces.get(space as usize) {
            let n = s.waiters.fetch_add(1, Ordering::Relaxed) + 1;
            s.gauge.set(n as f64);
        }
    }

    fn space_dequeue(&self, space: u32) {
        if let Some(s) = self.spaces.get(space as usize) {
            let n = s.waiters.fetch_sub(1, Ordering::Relaxed) - 1;
            s.gauge.set(n as f64);
        }
    }

    fn acquire(
        &self,
        core: &Arc<TxnCore>,
        held: &mut Vec<(LockKey, LockMode)>,
        key: LockKey,
        mode: LockMode,
    ) -> Result<(), Wounded> {
        if core.wounded.load(Ordering::Acquire) {
            return Err(Wounded);
        }
        if let Some((_, held_mode)) = held.iter().find(|(k, _)| *k == key) {
            assert!(
                held_mode.covers(mode),
                "lock upgrade (S→X) unsupported: predeclare Exclusive"
            );
            return Ok(());
        }
        let shard = self.shard_for(key);
        let mut map = shard.state.lock().expect("lock shard");
        let st = map.entry(key).or_default();
        if st.queue.is_empty() && st.granted.iter().all(|(_, g)| g.compatible(mode)) {
            st.granted.push((Arc::clone(core), mode));
            held.push((key, mode));
            self.acquires.add(1);
            return Ok(());
        }

        // Conflict. Wound-wait sweep: everything younger that conflicts
        // with this request — granted holders *and* queued waiters (a
        // younger queued writer must not make an older reader wait
        // behind it forever) — is marked for abort.
        let mut wounds = 0u64;
        for (other, other_mode) in st.granted.iter().chain(st.queue.iter()) {
            if !other_mode.compatible(mode)
                && other.ts > core.ts
                && !other.wounded.swap(true, Ordering::AcqRel)
            {
                wounds += 1;
            }
        }
        self.wounds.add(wounds);

        st.queue.push_back((Arc::clone(core), mode));
        st.promote();
        self.space_enqueue(key.space);
        let start = Instant::now();
        let granted = loop {
            let st = map.entry(key).or_default();
            if st.granted.iter().any(|(t, _)| Arc::ptr_eq(t, core)) {
                break true;
            }
            if core.wounded.load(Ordering::Acquire) {
                // withdraw; our departure may unblock the queue prefix
                st.queue.retain(|(t, _)| !Arc::ptr_eq(t, core));
                if st.promote() {
                    shard.cv.notify_all();
                }
                if st.is_idle() {
                    map.remove(&key);
                }
                break false;
            }
            let (next, _) = shard
                .cv
                .wait_timeout(map, WOUND_POLL)
                .expect("lock shard wait");
            map = next;
        };
        drop(map);
        self.space_dequeue(key.space);
        self.waits.add(1);
        self.wait_hist
            .record(start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
        self.trace.record(
            self.wait_names
                .get(key.space as usize)
                .copied()
                .unwrap_or("lock_wait"),
            start,
        );
        if granted {
            held.push((key, mode));
            self.acquires.add(1);
            Ok(())
        } else {
            Err(Wounded)
        }
    }

    fn release(&self, core: &Arc<TxnCore>, held: &[(LockKey, LockMode)]) {
        if held.is_empty() {
            return;
        }
        // group by shard so each shard mutex is taken once
        for (i, shard) in self.shards.iter().enumerate() {
            let mut map = None;
            for (key, _) in held {
                let h = (u64::from(key.space) << 56 ^ key.key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                if (h >> 33) as usize % self.shards.len() != i {
                    continue;
                }
                let map = map.get_or_insert_with(|| shard.state.lock().expect("lock shard"));
                if let Some(st) = map.get_mut(key) {
                    st.granted.retain(|(t, _)| !Arc::ptr_eq(t, core));
                    st.promote();
                    if st.is_idle() {
                        map.remove(key);
                    }
                }
            }
            if map.is_some() {
                shard.cv.notify_all();
            }
        }
    }

    /// Locks every shard and snapshots the blocking relation for the
    /// deadlock cross-check: an edge `w → h` means *w waits for h* —
    /// `h` is a conflicting holder of `w`'s wanted key, or any earlier
    /// waiter in its FIFO queue. Waiters already wounded are excluded
    /// (they are aborting, not waiting). Wound-wait guarantees this
    /// graph is acyclic at every instant; tests assert it.
    #[must_use]
    pub fn wait_for_snapshot(&self) -> crate::graph::WaitForGraph {
        let guards: Vec<MutexGuard<'_, FxHashMap<LockKey, LockState>>> = self
            .shards
            .iter()
            .map(|s| s.state.lock().expect("lock shard"))
            .collect();
        let mut graph = crate::graph::WaitForGraph::default();
        for map in &guards {
            for st in map.values() {
                for (i, (waiter, wmode)) in st.queue.iter().enumerate() {
                    if waiter.wounded.load(Ordering::Acquire) {
                        continue;
                    }
                    for (holder, hmode) in &st.granted {
                        if !hmode.compatible(*wmode) {
                            graph.add_edge(waiter.ts, holder.ts);
                        }
                    }
                    // strict FIFO: a waiter is also blocked by every
                    // earlier waiter, conflicting or not
                    for (earlier, _) in st.queue.iter().take(i) {
                        graph.add_edge(waiter.ts, earlier.ts);
                    }
                }
            }
        }
        graph
    }
}
