//! Elastic RC connection pooling with shadow-QP activation.
//!
//! §3.3: connection setup costs tens of milliseconds, so the DNE maintains
//! a pool of pre-established connections per `(tenant, peer node)` pair.
//! Following RoGUE's "shadow QP" mechanism, pooled QPs are *active* only
//! while they have work queued; inactive QPs consume no RNIC cache, so the
//! node only has to bound the number of simultaneously active QPs to avoid
//! cache thrashing.
//!
//! Under elastic multi-tenancy (Swift: the control plane, not the data
//! plane, is what collapses) the pool additionally:
//!
//! - keeps O(1) activation bookkeeping per pick — membership lives on the
//!   connection's metadata (`active_slot`), and reaping swap-removes from
//!   the active set, so pick cost never grows with the active population.
//!   A pick does one keyed lookup (`(tenant, peer)` → its pool, which also
//!   carries that pair's hit/miss counters), one fabric read covering the
//!   pool's QPs, and one index into the metadata table (QP ids are
//!   fabric-wide counters, so the table is indexed by id, not hashed);
//! - deduplicates handles on insert: the same QP registered under two
//!   `(tenant, peer)` keys would otherwise be visited twice by audits and
//!   double-counted by the deactivation counters;
//! - bounds the active set (`ElasticConfig::active_capacity`) with LRU
//!   eviction of drained connections, modeling an RNIC QP cache that the
//!   engine refuses to thrash;
//! - lazily tears down connections idle past an age threshold
//!   (`ElasticConfig::idle_teardown_age`), releasing fabric state instead
//!   of holding a million tenants' QPs forever.
//!
//! The engine builds its pool with [`ConnPool::new`] — no bound, no
//! teardown — and never reconfigures it; the capacity bound and the
//! teardown sweep run in `nadino::churn` (`BENCH_churn.json`) and in
//! `tests/elastic_properties.rs`, which build theirs with
//! [`ConnPool::with_config`].

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

use membuf::tenant::TenantId;
use rdma_sim::fabric::QpHandle;
use rdma_sim::{Fabric, NodeId, QpLoad};
use simcore::{IdTable, SimDuration, SimTime};

/// Elastic lifecycle knobs for a [`ConnPool`]. The defaults (`0`/`None`)
/// reproduce the pre-elastic behavior exactly: unbounded active set, no
/// teardown.
#[derive(Debug, Clone, Copy, Default)]
pub struct ElasticConfig {
    /// Maximum simultaneously active (cache-charged) QPs; `0` = unbounded.
    /// When an activation would exceed the bound, the least-recently-used
    /// *drained* active QP is returned to shadow state (an eviction). Busy
    /// QPs are never evicted, so the bound can be transiently overshot
    /// rather than strand an in-flight send.
    pub active_capacity: usize,
    /// Tear down pooled connections that have sat in shadow state longer
    /// than this (`None` = keep forever). Teardown destroys the QP pair in
    /// the fabric — the next use pays a claim or a cold connect.
    pub idle_teardown_age: Option<SimDuration>,
}

/// Per-connection metadata: the activation slot (O(1) membership — bugfix
/// for the old per-pick linear `active.contains` scan) and recency marks
/// for LRU eviction and idle-age teardown.
#[derive(Debug, Clone, Copy)]
struct ConnMeta<K> {
    /// The endpoint's node: QP ids index the table, the node completes the
    /// handle.
    node: NodeId,
    key: (K, NodeId),
    /// Index into the active vec while activated; `None` in shadow state.
    active_slot: Option<usize>,
    /// Last pick (or drain) instant — the idle-age clock.
    last_used: SimTime,
    /// Monotone pick counter — the LRU ordering key (strictly increasing,
    /// so eviction order is deterministic even within one instant).
    last_tick: u64,
}

/// The connections of one `(tenant, peer)` pair and that pair's share of
/// the pick counters.
#[derive(Debug, Default)]
struct PeerPool {
    handles: Vec<QpHandle>,
    /// Picks that found the chosen QP already active.
    hits: Cell<u64>,
    /// Picks that had to activate a shadow QP.
    misses: Cell<u64>,
}

/// Pool-wide per-connection metadata, indexed by QP id.
type MetaTable<K> = IdTable<ConnMeta<K>>;

fn meta_of<K>(meta: &mut MetaTable<K>, qp: QpHandle) -> Option<&mut ConnMeta<K>> {
    meta.get_mut(qp.qp.0).filter(|m| m.node == qp.node)
}

fn bump(counter: &Cell<u64>, by: u64) {
    counter.set(counter.get() + by);
}

/// A pool of established RC connections keyed by `(tenant, peer node)`.
///
/// Generic over the tenant key so the million-tenant churn model (whose
/// population exceeds the engine's on-wire `u16` tenant ids) can reuse the
/// exact same machinery with a wider key; the engine uses the default.
#[derive(Debug, Default)]
pub struct ConnPool<K: Copy + Eq + Hash + Ord = TenantId> {
    conns: HashMap<(K, NodeId), PeerPool>,
    /// Also the dedupe set for `add`.
    meta: RefCell<MetaTable<K>>,
    /// QPs this pool has activated and not yet reaped. Unordered (reaping
    /// swap-removes); each entry's position is mirrored in its meta slot.
    active: RefCell<Vec<QpHandle>>,
    /// Shadow-state recency queue for idle-age teardown: `(idle-since,
    /// handle)` appended on add and on every deactivation — but only while
    /// `idle_teardown_age` is set, since nothing else ever drains it.
    /// Entries are validated lazily against `meta.last_used` when popped,
    /// so a QP re-used after going idle just leaves a stale entry behind.
    idle_queue: RefCell<VecDeque<(SimTime, QpHandle)>>,
    /// Monotone pick counter backing the LRU marks.
    tick: Cell<u64>,
    /// Picks that found the chosen QP already active (no RNIC-cache charge).
    hits: Cell<u64>,
    /// Picks that had to activate a shadow QP (a potential cache thrash).
    misses: Cell<u64>,
    /// Shadow QPs this pool transitioned to active.
    activations: Cell<u64>,
    /// Idle QPs returned to shadow state by the completion reaper or an
    /// LRU eviction. Counts only pool-tracked activations, so
    /// `deactivations <= activations` always holds.
    deactivations: Cell<u64>,
    /// Active QPs demoted to shadow state by the capacity bound.
    evictions: Cell<u64>,
    /// Connections destroyed by idle-age teardown.
    teardowns: Cell<u64>,
    /// Membership probes performed across all picks. Each pick does exactly
    /// one O(1) probe; the pre-fix code scanned the whole active set, so
    /// this counter is the regression guard for the quadratic-pick bug.
    membership_probes: Cell<u64>,
    cfg: ElasticConfig,
}

impl<K: Copy + Eq + Hash + Ord> ConnPool<K> {
    /// Creates an empty pool with pre-elastic defaults (unbounded active
    /// set, no teardown).
    pub fn new() -> Self {
        ConnPool::with_config(ElasticConfig::default())
    }

    /// Creates an empty pool with the given elastic lifecycle config.
    pub fn with_config(cfg: ElasticConfig) -> Self {
        ConnPool {
            conns: HashMap::new(),
            meta: RefCell::new(IdTable::new()),
            active: RefCell::new(Vec::new()),
            idle_queue: RefCell::new(VecDeque::new()),
            tick: Cell::new(0),
            hits: Cell::new(0),
            misses: Cell::new(0),
            activations: Cell::new(0),
            deactivations: Cell::new(0),
            evictions: Cell::new(0),
            teardowns: Cell::new(0),
            membership_probes: Cell::new(0),
            cfg,
        }
    }

    /// Records that `qp` entered shadow state at `now`, for the teardown
    /// sweep. A no-op while teardown is off: nothing would ever pop it.
    fn note_idle(&self, now: SimTime, qp: QpHandle) {
        if self.cfg.idle_teardown_age.is_some() {
            self.idle_queue.borrow_mut().push_back((now, qp));
        }
    }

    /// Adds an established connection for `(tenant, peer)`, idle as of
    /// `now` (a never-picked connection ages toward teardown from its add
    /// instant).
    ///
    /// A handle already pooled — under this key or any other — is rejected
    /// (returns `false`): one QP endpoint has exactly one owner, and
    /// duplicates would make the full-sweep audit visit it twice and
    /// double-count deactivations.
    pub fn add(&mut self, tenant: K, peer: NodeId, qp: QpHandle, now: SimTime) -> bool {
        let meta = self.meta.get_mut();
        if meta.contains(qp.qp.0) {
            return false;
        }
        meta.insert(
            qp.qp.0,
            ConnMeta {
                node: qp.node,
                key: (tenant, peer),
                active_slot: None,
                last_used: now,
                last_tick: 0,
            },
        );
        self.conns
            .entry((tenant, peer))
            .or_default()
            .handles
            .push(qp);
        self.note_idle(now, qp);
        true
    }

    /// Returns the connections for `(tenant, peer)`.
    pub fn conns(&self, tenant: K, peer: NodeId) -> &[QpHandle] {
        self.conns
            .get(&(tenant, peer))
            .map_or(&[], |p| p.handles.as_slice())
    }

    /// Returns the number of pooled connections for `(tenant, peer)`.
    pub fn count(&self, tenant: K, peer: NodeId) -> usize {
        self.conns(tenant, peer).len()
    }

    /// Returns the total number of pooled connections.
    pub fn pooled_total(&self) -> usize {
        self.meta.borrow().len()
    }

    /// Returns the number of QPs this pool currently tracks as active.
    pub fn active_total(&self) -> usize {
        self.active.borrow().len()
    }

    /// Returns `true` when `qp` is pooled under any key.
    pub fn contains(&self, qp: QpHandle) -> bool {
        let meta = self.meta.borrow();
        meta.get(qp.qp.0).is_some_and(|m| m.node == qp.node)
    }

    /// Picks the least-congested ready connection (smallest SQ backlog) and
    /// marks it active.
    ///
    /// Returns `None` when no connection to the peer is ready yet.
    pub fn pick_least_congested(
        &self,
        fabric: &Fabric,
        now: SimTime,
        tenant: K,
        peer: NodeId,
    ) -> Option<QpHandle> {
        self.pick_least_congested_excluding(fabric, now, tenant, peer, None)
    }

    /// Like [`ConnPool::pick_least_congested`] but avoids `avoid` — the
    /// shadow-QP failover path: a retry should ride a different connection
    /// than the one whose send just failed. Falls back to `avoid` when it is
    /// the only ready connection left.
    pub fn pick_least_congested_excluding(
        &self,
        fabric: &Fabric,
        now: SimTime,
        tenant: K,
        peer: NodeId,
        avoid: Option<rdma_sim::QpId>,
    ) -> Option<QpHandle> {
        let pool = self.conns.get(&(tenant, peer))?;
        // First least-loaded ready QP other than `avoid`; `avoid` itself
        // only if nothing else is ready.
        let mut best: Option<(QpHandle, QpLoad)> = None;
        let mut fallback = None;
        fabric.qp_loads(&pool.handles, |qp, load| {
            if !load.ready {
                return;
            }
            if Some(qp.qp) == avoid {
                fallback = fallback.or(Some((qp, load)));
            } else if best.is_none_or(|(_, b)| load.sq_depth < b.sq_depth) {
                best = Some((qp, load));
            }
        });
        let (best, load) = best.or(fallback)?;
        if load.active {
            bump(&self.hits, 1);
            bump(&pool.hits, 1);
        } else {
            bump(&self.misses, 1);
            bump(&pool.misses, 1);
            // Activation is what charges the QP against the RNIC cache.
            let _ = fabric.set_qp_active(best, true);
        }
        self.touch_active(fabric, now, best);
        Some(best)
    }

    /// Tracks `best` as active, refreshing its recency marks. One O(1)
    /// metadata probe per pick — never a scan of the active set.
    fn touch_active(&self, fabric: &Fabric, now: SimTime, best: QpHandle) {
        let tick = self.tick.get() + 1;
        self.tick.set(tick);
        bump(&self.membership_probes, 1);
        let mut meta = self.meta.borrow_mut();
        let Some(m) = meta_of(&mut meta, best) else {
            return; // picked from a list the pool no longer tracks
        };
        m.last_used = now;
        m.last_tick = tick;
        if m.active_slot.is_some() {
            return;
        }
        let mut active = self.active.borrow_mut();
        m.active_slot = Some(active.len());
        active.push(best);
        bump(&self.activations, 1);
        let cap = self.cfg.active_capacity;
        if cap > 0 && active.len() > cap {
            self.evict_lru(fabric, now, &mut meta, &mut active, best);
        }
    }

    /// Returns the least-recently-used *drained* active QP to shadow state.
    /// Scans the active set (bounded by `active_capacity + 1`), skipping
    /// busy QPs and the just-activated one — eviction never strands an
    /// in-flight send.
    fn evict_lru(
        &self,
        fabric: &Fabric,
        now: SimTime,
        meta: &mut MetaTable<K>,
        active: &mut Vec<QpHandle>,
        keep: QpHandle,
    ) {
        let mut victim: Option<(u64, QpHandle)> = None;
        fabric.qp_loads(active, |qp, load| {
            let tick = meta.get(qp.qp.0).map_or(0, |m| m.last_tick);
            if qp != keep && load.sq_depth == 0 && victim.is_none_or(|(t, _)| tick < t) {
                victim = Some((tick, qp));
            }
        });
        let Some((_, victim)) = victim else {
            return; // every other active QP is busy: overshoot the bound
        };
        let _ = fabric.set_qp_active(victim, false);
        self.to_shadow(now, meta, active, victim);
        bump(&self.evictions, 1);
        bump(&self.deactivations, 1);
    }

    /// Swap-removes `qp` from the active vec, fixing the moved entry's
    /// mirrored slot index. Returns `false` if it was not tracked active.
    fn untrack(meta: &mut MetaTable<K>, active: &mut Vec<QpHandle>, qp: QpHandle) -> bool {
        let Some(slot) = meta_of(meta, qp).and_then(|m| m.active_slot.take()) else {
            return false;
        };
        active.swap_remove(slot);
        if let Some(moved) = active.get(slot).and_then(|&moved| meta_of(meta, moved)) {
            moved.active_slot = Some(slot);
        }
        true
    }

    /// Moves a tracked-active QP to shadow state in the pool's books,
    /// starting its idle-age clock.
    fn to_shadow(
        &self,
        now: SimTime,
        meta: &mut MetaTable<K>,
        active: &mut Vec<QpHandle>,
        qp: QpHandle,
    ) {
        if Self::untrack(meta, active, qp) {
            if let Some(m) = meta_of(meta, qp) {
                m.last_used = now;
            }
            self.note_idle(now, qp);
        }
    }

    /// Returns `(hits, misses)`: picks that found the chosen QP already
    /// active vs. picks that had to activate one. A low hit rate under load
    /// signals shadow-QP churn (QP-cache thrash).
    pub fn hit_miss(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
    }

    /// Returns how many shadow QPs this pool has transitioned to active.
    pub fn activations(&self) -> u64 {
        self.activations.get()
    }

    /// Returns how many pool-activated QPs have been returned to shadow
    /// state (reaped idle or LRU-evicted). Never exceeds
    /// [`ConnPool::activations`].
    pub fn deactivations(&self) -> u64 {
        self.deactivations.get()
    }

    /// Returns how many activations were demoted by the capacity bound.
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }

    /// Returns how many connections idle-age teardown has destroyed.
    pub fn teardowns(&self) -> u64 {
        self.teardowns.get()
    }

    /// Returns how many O(1) membership probes picks have performed —
    /// exactly one per successful pick. The pre-fix implementation scanned
    /// the whole active set per pick instead.
    pub fn membership_probes(&self) -> u64 {
        self.membership_probes.get()
    }

    /// Returns `(hits, misses)` for one tenant's picks, summed over the
    /// peers it currently has connections pooled for (a pair whose last
    /// connection was torn down takes its counts with it).
    pub fn hit_miss_of(&self, tenant: K) -> (u64, u64) {
        self.conns
            .iter()
            .filter(|((t, _), _)| *t == tenant)
            .fold((0, 0), |(h, m), (_, p)| {
                (h + p.hits.get(), m + p.misses.get())
            })
    }

    /// Deactivates every active QP whose send queue has drained, returning
    /// how many were deactivated. The DNE calls this when reaping send
    /// completions; the sweep walks only the tracked active set, not every
    /// pooled QP of every tenant.
    pub fn deactivate_idle(&self, fabric: &Fabric, now: SimTime) -> usize {
        let mut active = self.active.borrow_mut();
        let mut meta = self.meta.borrow_mut();
        let mut deactivated = 0;
        let mut slot = 0;
        while slot < active.len() {
            let qp = active[slot];
            let load = fabric.qp_load(qp);
            if load.active && load.sq_depth != 0 {
                slot += 1;
                continue;
            }
            // Drained — or deactivated behind our back (e.g. an injected
            // QP error released the cache charge), which is untracked
            // without counting.
            if load.active {
                let _ = fabric.set_qp_active(qp, false);
                deactivated += 1;
            }
            self.to_shadow(now, &mut meta, &mut active, qp);
        }
        bump(&self.deactivations, deactivated as u64);
        deactivated
    }

    /// Full-sweep reap: deactivates every drained active QP in the pool,
    /// tracked or not. Unlike [`ConnPool::deactivate_idle`] this walks
    /// every pooled QP, catching connections activated behind the pool's
    /// back (a tenant abusing direct fabric access) — an audit for an
    /// operator to run, not something the engine does per completion.
    /// Untracked reaps stay out of the deactivation counter — the pool never
    /// activated them, so counting them would break the
    /// `deactivations <= activations` invariant.
    pub fn reap_all_idle(&self, fabric: &Fabric, now: SimTime) -> usize {
        let tracked = self.deactivate_idle(fabric, now);
        let mut untracked = 0;
        for &qp in self.conns.values().flat_map(|p| &p.handles) {
            let load = fabric.qp_load(qp);
            if load.active && load.sq_depth == 0 {
                let _ = fabric.set_qp_active(qp, false);
                untracked += 1;
            }
        }
        tracked + untracked
    }

    /// Lazy teardown: destroys pooled connections that have sat in shadow
    /// state past `ElasticConfig::idle_teardown_age`, releasing their
    /// fabric QP state. Amortized O(expired): the idle queue is consumed
    /// front-first and entries stale-checked against the connection's
    /// recency mark, so re-used QPs cost one pop, not a sweep. Returns how
    /// many connections were destroyed.
    pub fn teardown_idle(&mut self, fabric: &Fabric, now: SimTime) -> usize {
        let Some(age) = self.cfg.idle_teardown_age else {
            return 0;
        };
        let mut torn = 0;
        while let Some(&(idle_since, qp)) = self.idle_queue.get_mut().front() {
            if now.saturating_since(idle_since) < age {
                break; // queue is append-ordered: the rest is younger
            }
            self.idle_queue.get_mut().pop_front();
            let Some(m) = meta_of(self.meta.get_mut(), qp).map(|m| *m) else {
                continue; // already removed under another entry
            };
            // Stale entry: the QP was used (or re-idled) after this entry
            // was queued; a fresher entry exists or it is active again.
            if m.active_slot.is_some() || m.last_used != idle_since {
                continue;
            }
            // Defensive: never strand an in-flight send.
            if fabric.sq_depth(qp) != 0 {
                continue;
            }
            self.remove_conn(qp, m.key);
            let _ = fabric.destroy_qp(qp);
            torn += 1;
        }
        bump(&self.teardowns, torn as u64);
        torn
    }

    /// Drops every connection pooled for `(tenant, peer)`, deactivating any
    /// still-active ones, and returns the handles (the caller owns the
    /// fabric-side teardown — e.g. a departing tenant destroying its QPs).
    pub fn remove_peer(&mut self, fabric: &Fabric, tenant: K, peer: NodeId) -> Vec<QpHandle> {
        let Some(pool) = self.conns.remove(&(tenant, peer)) else {
            return Vec::new();
        };
        let meta = self.meta.get_mut();
        let active = self.active.get_mut();
        let mut deactivated = 0;
        for &qp in &pool.handles {
            if Self::untrack(meta, active, qp) && fabric.qp_is_active(qp) {
                let _ = fabric.set_qp_active(qp, false);
                deactivated += 1;
            }
            meta.remove(qp.qp.0);
        }
        bump(&self.deactivations, deactivated);
        pool.handles
    }

    /// Removes one connection from the pool's bookkeeping (teardown path;
    /// the handle is already known to be inactive).
    fn remove_conn(&mut self, qp: QpHandle, key: (K, NodeId)) {
        self.meta.get_mut().remove(qp.qp.0);
        if let Some(pool) = self.conns.get_mut(&key) {
            if let Some(pos) = pool.handles.iter().position(|&h| h == qp) {
                pool.handles.swap_remove(pos);
            }
            if pool.handles.is_empty() {
                self.conns.remove(&key);
            }
        }
    }

    /// Returns all distinct peers this pool reaches for `tenant`.
    pub fn peers_of(&self, tenant: K) -> Vec<NodeId> {
        let mut peers: Vec<NodeId> = self
            .conns
            .keys()
            .filter(|(t, _)| *t == tenant)
            .map(|(_, p)| *p)
            .collect();
        peers.sort();
        peers
    }

    /// Debug/test view of the tracked active set.
    #[cfg(test)]
    fn active_snapshot(&self) -> Vec<QpHandle> {
        self.active.borrow().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use membuf::pool::{BufferPool, PoolConfig};
    use rdma_sim::RdmaCosts;
    use simcore::Sim;

    fn mk_pool(tenant: u16) -> BufferPool {
        let mut cfg = PoolConfig::new(TenantId(tenant), 0, 1024, 32);
        cfg.segment_size = 32 * 1024;
        BufferPool::new(cfg).unwrap()
    }

    /// Builds a fabric with two nodes and `n` ready connections.
    fn setup(n: usize) -> (Fabric, Sim, ConnPool, TenantId, NodeId, BufferPool) {
        setup_with(ElasticConfig::default(), n)
    }

    fn setup_with(
        cfg: ElasticConfig,
        n: usize,
    ) -> (Fabric, Sim, ConnPool, TenantId, NodeId, BufferPool) {
        let fabric = Fabric::new(RdmaCosts::default());
        let mut sim = Sim::new();
        let a = fabric.add_node();
        let b = fabric.add_node();
        let tenant = TenantId(1);
        let pool_a = mk_pool(1);
        let pool_b = mk_pool(1);
        fabric.register_pool(a, pool_a.clone()).unwrap();
        fabric.register_pool(b, pool_b.clone()).unwrap();
        let cq_a = fabric.create_cq(a).unwrap();
        let cq_b = fabric.create_cq(b).unwrap();
        let rq_a = fabric.create_rq(a, tenant).unwrap();
        let rq_b = fabric.create_rq(b, tenant).unwrap();
        let mut pool = ConnPool::with_config(cfg);
        for _ in 0..n {
            let (ha, _) = fabric
                .connect(&mut sim, tenant, a, cq_a, rq_a, b, cq_b, rq_b)
                .unwrap();
            assert!(pool.add(tenant, b, ha, sim.now()));
        }
        sim.run();
        (fabric, sim, pool, tenant, b, pool_a)
    }

    #[test]
    fn empty_pool_returns_none() {
        let (fabric, sim, pool, tenant, peer, _) = setup(0);
        assert!(pool
            .pick_least_congested(&fabric, sim.now(), tenant, peer)
            .is_none());
    }

    #[test]
    fn pick_prefers_least_congested() {
        use rdma_sim::WrId;
        let (fabric, mut sim, pool, tenant, peer, pool_a) = setup(2);
        let now = sim.now();
        let first = pool
            .pick_least_congested(&fabric, now, tenant, peer)
            .unwrap();
        // Load up the first connection with a send (no recv posted: it
        // lingers in RNR retry, keeping sq_outstanding > 0).
        let buf = pool_a.get().unwrap();
        fabric.post_send(&mut sim, first, WrId(0), buf, 0).unwrap();
        let second = pool
            .pick_least_congested(&fabric, now, tenant, peer)
            .unwrap();
        assert_ne!(first.qp, second.qp, "picker avoids the loaded QP");
    }

    #[test]
    fn picking_activates_and_idle_drain_deactivates() {
        let (fabric, sim, pool, tenant, peer, _) = setup(3);
        let now = sim.now();
        let qp = pool
            .pick_least_congested(&fabric, now, tenant, peer)
            .unwrap();
        assert!(fabric.qp_is_active(qp));
        assert_eq!(fabric.active_qp_count(qp.node), 1);
        // No traffic outstanding: the reaper deactivates it.
        let n = pool.deactivate_idle(&fabric, now);
        assert_eq!(n, 1);
        assert_eq!(fabric.active_qp_count(qp.node), 0);
    }

    #[test]
    fn hit_miss_tracks_shadow_qp_churn() {
        let (fabric, sim, pool, tenant, peer, _) = setup(2);
        let now = sim.now();
        assert_eq!(pool.hit_miss(), (0, 0));
        // First pick activates a shadow QP: a miss.
        let qp = pool
            .pick_least_congested(&fabric, now, tenant, peer)
            .unwrap();
        assert_eq!(pool.hit_miss(), (0, 1));
        // Re-picking while still active (sq_depth 0 on both, so the picker
        // may choose either; force the hit by deactivating the other).
        let _ = fabric.set_qp_active(qp, true);
        let again = pool
            .pick_least_congested(&fabric, now, tenant, peer)
            .unwrap();
        let (h, m) = pool.hit_miss();
        assert_eq!(h + m, 2);
        let _ = again;
        // The reaper deactivates the drained QPs and counts them.
        let n = pool.deactivate_idle(&fabric, now);
        assert_eq!(pool.deactivations(), n as u64);
    }

    /// What the pre-optimization reaper would count: a full scan over every
    /// pooled QP for active-and-drained ones.
    fn full_scan_idle(pool: &ConnPool, fabric: &Fabric) -> usize {
        pool.conns
            .values()
            .flat_map(|p| &p.handles)
            .filter(|&&qp| fabric.qp_is_active(qp) && fabric.sq_depth(qp) == 0)
            .count()
    }

    #[test]
    fn active_set_reap_matches_full_scan_counters() {
        use rdma_sim::WrId;
        let (fabric, mut sim, pool, tenant, peer, pool_a) = setup(4);
        let now = sim.now();
        // Round 1: a drained active QP → reaped, matching the full scan.
        let _q1 = pool
            .pick_least_congested(&fabric, now, tenant, peer)
            .unwrap();
        let expect = full_scan_idle(&pool, &fabric);
        assert_eq!(expect, 1);
        assert_eq!(pool.deactivate_idle(&fabric, now), expect);
        assert_eq!(pool.deactivations(), expect as u64);
        // Round 2: one busy QP (send stuck in RNR retry) and one drained;
        // only the drained one is reaped.
        let busy = pool
            .pick_least_congested(&fabric, now, tenant, peer)
            .unwrap();
        let buf = pool_a.get().unwrap();
        fabric.post_send(&mut sim, busy, WrId(0), buf, 0).unwrap();
        let idle = pool
            .pick_least_congested_excluding(&fabric, now, tenant, peer, Some(busy.qp))
            .unwrap();
        assert_ne!(busy.qp, idle.qp);
        let expect2 = full_scan_idle(&pool, &fabric);
        assert_eq!(expect2, 1, "only the drained QP is reapable");
        let before = pool.deactivations();
        assert_eq!(pool.deactivate_idle(&fabric, now), expect2);
        assert_eq!(pool.deactivations(), before + expect2 as u64);
        // Round 3: a killed QP loses its active flag externally; the reaper
        // untracks it without counting, exactly like the full scan.
        let killed = pool
            .pick_least_congested_excluding(&fabric, now, tenant, peer, Some(busy.qp))
            .unwrap();
        fabric.inject_qp_error(killed).unwrap();
        let expect3 = full_scan_idle(&pool, &fabric);
        assert_eq!(expect3, 0);
        let before = pool.deactivations();
        assert_eq!(pool.deactivate_idle(&fabric, now), expect3);
        assert_eq!(pool.deactivations(), before + expect3 as u64);
        assert_eq!(
            pool.active_snapshot().as_slice(),
            &[busy],
            "only the still-busy QP stays tracked"
        );
    }

    #[test]
    fn excluding_avoids_failed_qp_unless_it_is_the_only_one() {
        let (fabric, sim, pool, tenant, peer, _) = setup(2);
        let now = sim.now();
        let first = pool
            .pick_least_congested(&fabric, now, tenant, peer)
            .unwrap();
        let other = pool
            .pick_least_congested_excluding(&fabric, now, tenant, peer, Some(first.qp))
            .unwrap();
        assert_ne!(first.qp, other.qp, "failover avoids the failed QP");
        // Break the alternative: the avoided QP is the only ready one left,
        // so the picker falls back to it rather than returning None.
        fabric.inject_qp_error(other).unwrap();
        let fallback = pool
            .pick_least_congested_excluding(&fabric, now, tenant, peer, Some(first.qp))
            .unwrap();
        assert_eq!(fallback.qp, first.qp);
        // Nothing ready at all → None.
        fabric.inject_qp_error(first).unwrap();
        assert!(pool
            .pick_least_congested_excluding(&fabric, now, tenant, peer, Some(first.qp))
            .is_none());
    }

    #[test]
    fn peers_listing() {
        let (_fabric, _sim, mut pool, tenant, peer, _) = setup(1);
        assert_eq!(pool.peers_of(tenant), vec![peer]);
        // Re-registering the SAME handle under another key is rejected:
        // one endpoint has one owner (dedupe bugfix), so the phantom peer
        // never appears in the listing.
        let qp = pool.conns(tenant, peer)[0];
        assert!(!pool.add(TenantId(9), NodeId(5), qp, SimTime::ZERO));
        assert_eq!(pool.peers_of(TenantId(9)), Vec::<NodeId>::new());
        assert_eq!(pool.count(tenant, peer), 1);
    }

    /// Regression (dedupe bugfix): before deduplication, the same handle
    /// registered under two keys was visited twice by the full-sweep audit
    /// and `deactivations` could exceed `activations`.
    #[test]
    fn duplicate_handle_cannot_double_count_deactivations() {
        let (fabric, sim, mut pool, tenant, peer, _) = setup(1);
        let now = sim.now();
        let qp = pool.conns(tenant, peer)[0];
        assert!(
            !pool.add(TenantId(9), NodeId(5), qp, SimTime::ZERO),
            "duplicate rejected"
        );
        let picked = pool
            .pick_least_congested(&fabric, now, tenant, peer)
            .unwrap();
        assert_eq!(picked, qp);
        assert_eq!(pool.activations(), 1);
        pool.reap_all_idle(&fabric, now);
        assert_eq!(pool.deactivations(), 1, "counted exactly once");
        assert!(
            pool.deactivations() <= pool.activations(),
            "invariant: deactivations <= activations"
        );
    }

    /// Regression (quadratic-pick bugfix): membership is one O(1) probe
    /// per pick, independent of how many QPs are active.
    #[test]
    fn pick_membership_is_constant_work() {
        let (fabric, sim, pool, tenant, peer, _) = setup(64);
        let now = sim.now();
        // Activate the whole pool, then keep re-picking: probes track picks
        // 1:1 even with 64 QPs active (the old code scanned all 64 each
        // time).
        let mut picks = 0u64;
        for _ in 0..256 {
            pool.pick_least_congested(&fabric, now, tenant, peer)
                .unwrap();
            picks += 1;
        }
        assert_eq!(pool.membership_probes(), picks);
        assert!(pool.active_total() <= 64);
    }

    #[test]
    fn capacity_bound_evicts_lru_drained_qp() {
        use rdma_sim::WrId;
        let cfg = ElasticConfig {
            active_capacity: 2,
            idle_teardown_age: None,
        };
        let (fabric, mut sim, pool, tenant, peer, pool_a) = setup_with(cfg, 4);
        let now = sim.now();
        let q1 = pool
            .pick_least_congested(&fabric, now, tenant, peer)
            .unwrap();
        let q2 = pool
            .pick_least_congested_excluding(&fabric, now, tenant, peer, Some(q1.qp))
            .unwrap();
        assert_ne!(q1, q2);
        assert_eq!(pool.active_total(), 2);
        // Make q1 busy (send with no recv posted lingers in RNR retry),
        // then force a third activation by excluding q2: the picker takes
        // a fresh drained QP, and the bound evicts the LRU *drained*
        // active QP — q2, never the busy q1.
        let buf = pool_a.get().unwrap();
        fabric.post_send(&mut sim, q1, WrId(0), buf, 0).unwrap();
        let q3 = pool
            .pick_least_congested_excluding(&fabric, now, tenant, peer, Some(q2.qp))
            .unwrap();
        assert!(q3 != q1 && q3 != q2, "picker found a fresh QP");
        assert_eq!(pool.active_total(), 2, "bound held");
        assert_eq!(pool.evictions(), 1);
        assert!(!fabric.qp_is_active(q2), "drained LRU evicted");
        assert!(fabric.qp_is_active(q1), "busy QP untouched");
        assert!(fabric.qp_is_active(q3));
        // Now make q3 busy too: with every active QP busy, the next
        // activation overshoots the bound rather than strand a send.
        let buf = pool_a.get().unwrap();
        fabric.post_send(&mut sim, q3, WrId(1), buf, 0).unwrap();
        let q4 = pool
            .pick_least_congested(&fabric, now, tenant, peer)
            .unwrap();
        assert!(q4 != q1 && q4 != q3);
        assert_eq!(pool.active_total(), 3, "overshoot rather than strand");
        assert_eq!(pool.evictions(), 1, "no busy QP was evicted");
    }

    #[test]
    fn idle_age_teardown_destroys_shadow_connections() {
        let cfg = ElasticConfig {
            active_capacity: 0,
            idle_teardown_age: Some(SimDuration::from_millis(5)),
        };
        let (fabric, sim, mut pool, tenant, peer, _) = setup_with(cfg, 3);
        // Connections were added at t=0; the connect delay puts t0 at 20ms,
        // so the two never-picked QPs are already past the 5ms idle age.
        // The picked-and-drained one is only idle since t0.
        let t0 = sim.now();
        let qp = pool
            .pick_least_congested(&fabric, t0, tenant, peer)
            .unwrap();
        pool.deactivate_idle(&fabric, t0);
        assert_eq!(
            pool.teardown_idle(&fabric, t0 + SimDuration::from_millis(1)),
            2,
            "never-used connections age out from their add instant"
        );
        assert!(fabric.qp_ready(qp), "recently drained QP survives");
        // Past the age since its drain: the last one goes too.
        let torn = pool.teardown_idle(&fabric, t0 + SimDuration::from_millis(6));
        assert_eq!(torn, 1);
        assert_eq!(pool.teardowns(), 3);
        assert_eq!(pool.pooled_total(), 0);
        assert_eq!(pool.count(tenant, peer), 0);
        assert!(!fabric.qp_ready(qp), "fabric state released");
        assert!(pool
            .pick_least_congested(&fabric, t0, tenant, peer)
            .is_none());
    }

    #[test]
    fn teardown_skips_recently_reused_connections() {
        let cfg = ElasticConfig {
            active_capacity: 0,
            idle_teardown_age: Some(SimDuration::from_millis(5)),
        };
        let (fabric, sim, mut pool, tenant, peer, _) = setup_with(cfg, 1);
        let t0 = sim.now();
        let qp = pool
            .pick_least_congested(&fabric, t0, tenant, peer)
            .unwrap();
        pool.deactivate_idle(&fabric, t0);
        // Re-used just before the sweep: the stale idle entry must not
        // tear it down.
        let t1 = t0 + SimDuration::from_millis(4);
        assert_eq!(
            pool.pick_least_congested(&fabric, t1, tenant, peer),
            Some(qp)
        );
        assert_eq!(
            pool.teardown_idle(&fabric, t0 + SimDuration::from_millis(6)),
            0
        );
        assert!(fabric.qp_ready(qp));
        assert_eq!(pool.count(tenant, peer), 1);
    }
    /// Regression (unbounded idle queue): every deactivation used to push
    /// an entry that only `teardown_idle` pops — and it returns early when
    /// teardown is off, the default — so the queue grew by one entry per
    /// send forever.
    #[test]
    fn idle_queue_stays_empty_while_teardown_is_off() {
        let (fabric, sim, pool, tenant, peer, _) = setup(2);
        let mut now = sim.now();
        for _ in 0..100_000 {
            now += SimDuration::from_micros(1);
            pool.pick_least_congested(&fabric, now, tenant, peer)
                .unwrap();
            assert_eq!(pool.deactivate_idle(&fabric, now), 1);
        }
        assert_eq!(pool.deactivations(), 100_000);
        assert!(pool.idle_queue.borrow().is_empty());
    }

    /// With teardown on, the queue is drained by the sweeps: what survives
    /// one is at most one live entry per pooled connection plus the stale
    /// entries younger than the idle age.
    #[test]
    fn idle_queue_is_bounded_by_sweeps_while_teardown_is_on() {
        let age = SimDuration::from_millis(1);
        let cfg = ElasticConfig {
            idle_teardown_age: Some(age),
            ..ElasticConfig::default()
        };
        let (fabric, sim, mut pool, tenant, peer, _) = setup_with(cfg, 2);
        assert_eq!(pool.idle_queue.borrow().len(), 2, "queued on add");
        let mut now = sim.now();
        let mut last = None;
        for cycle in 1..=100_000u64 {
            now += SimDuration::from_micros(1);
            // Alternate between the two connections so neither ages out.
            last = pool
                .pick_least_congested_excluding(&fabric, now, tenant, peer, last)
                .map(|h| h.qp);
            pool.deactivate_idle(&fabric, now);
            if cycle % 1_000 == 0 {
                assert_eq!(pool.teardown_idle(&fabric, now), 0, "both QPs stay in use");
                let queue = pool.idle_queue.borrow();
                let meta = pool.meta.borrow();
                let live = queue
                    .iter()
                    .filter(|(since, qp)| {
                        meta.get(qp.qp.0)
                            .is_some_and(|m| m.active_slot.is_none() && m.last_used == *since)
                    })
                    .count();
                assert!(live <= pool.pooled_total(), "live = {live}");
                assert!(queue.len() <= 1_000 + pool.pooled_total());
            }
        }
        assert_eq!(pool.pooled_total(), 2);
    }

    /// Property (table conversion): random add / pick / reap / teardown /
    /// remove-peer sequences keep the id-indexed metadata, the active set
    /// and the per-pair lists in agreement with a `BTreeMap` model.
    #[test]
    fn meta_table_matches_btreemap_model() {
        use std::collections::{BTreeMap, BTreeSet};
        for seed in 0..6u64 {
            let mut rng = simcore::SimRng::new(0xC011 + seed);
            let fabric = Fabric::new(RdmaCosts::default());
            let mut sim = Sim::new();
            let nodes: Vec<NodeId> = (0..3).map(|_| fabric.add_node()).collect();
            let cqs: Vec<_> = nodes
                .iter()
                .map(|&n| fabric.create_cq(n).unwrap())
                .collect();
            let tenants = [TenantId(1), TenantId(2), TenantId(7)];
            let rq = |t: TenantId, n: usize| fabric.create_rq(nodes[n], t).unwrap();
            let mut pool: ConnPool = ConnPool::with_config(ElasticConfig {
                active_capacity: 3,
                idle_teardown_age: Some(SimDuration::from_micros(40)),
            });
            // qp id → ((tenant, peer), handle)
            let mut model: BTreeMap<u32, ((TenantId, NodeId), QpHandle)> = BTreeMap::new();
            for _ in 0..1_500 {
                sim.run_for(SimDuration::from_micros(1));
                let now = sim.now();
                let t = tenants[rng.gen_range(3) as usize];
                let p = 1 + rng.gen_range(2) as usize;
                match rng.gen_range(8) {
                    0 | 1 => {
                        let (h, _) = fabric
                            .claim_prewarmed(
                                &mut sim,
                                t,
                                nodes[0],
                                cqs[0],
                                rq(t, 0),
                                nodes[p],
                                cqs[p],
                                rq(t, p),
                            )
                            .unwrap()
                            .unwrap_or_else(|| {
                                fabric
                                    .prewarm_link(&mut sim, nodes[0], nodes[p], 4)
                                    .unwrap();
                                fabric
                                    .connect(
                                        &mut sim,
                                        t,
                                        nodes[0],
                                        cqs[0],
                                        rq(t, 0),
                                        nodes[p],
                                        cqs[p],
                                        rq(t, p),
                                    )
                                    .unwrap()
                            });
                        assert!(pool.add(t, nodes[p], h, now));
                        assert!(!pool.add(t, nodes[p], h, now), "dedupe");
                        model.insert(h.qp.0, ((t, nodes[p]), h));
                    }
                    2..=4 => {
                        let want_some = model
                            .values()
                            .any(|(k, h)| *k == (t, nodes[p]) && fabric.qp_ready(*h));
                        let got = pool.pick_least_congested(&fabric, now, t, nodes[p]);
                        assert_eq!(got.is_some(), want_some);
                        if let Some(h) = got {
                            assert_eq!(model.get(&h.qp.0), Some(&((t, nodes[p]), h)));
                        }
                    }
                    5 => {
                        pool.deactivate_idle(&fabric, now);
                        assert_eq!(pool.active_total(), 0, "nothing has sends in flight");
                    }
                    6 => {
                        let before: BTreeSet<u32> = model.keys().copied().collect();
                        let torn = pool.teardown_idle(&fabric, now);
                        model.retain(|_, (_, h)| pool.contains(*h));
                        assert_eq!(before.len() - model.len(), torn);
                    }
                    _ => {
                        let mut gone = pool.remove_peer(&fabric, t, nodes[p]);
                        gone.sort_by_key(|h| h.qp);
                        let want: Vec<QpHandle> = model
                            .values()
                            .filter(|(k, _)| *k == (t, nodes[p]))
                            .map(|(_, h)| *h)
                            .collect();
                        assert_eq!(gone, want);
                        model.retain(|_, (k, _)| *k != (t, nodes[p]));
                    }
                }
                // The tables agree with the model after every step.
                assert_eq!(pool.pooled_total(), model.len());
                let active = pool.active_snapshot();
                let meta = pool.meta.borrow();
                for (slot, h) in active.iter().enumerate() {
                    assert!(model.contains_key(&h.qp.0), "active QP is pooled");
                    assert_eq!(meta.get(h.qp.0).unwrap().active_slot, Some(slot));
                    assert!(fabric.qp_is_active(*h));
                }
                let slotted = meta.iter().filter(|(_, m)| m.active_slot.is_some()).count();
                assert_eq!(slotted, active.len());
                drop(meta);
                for (&id, &(k, h)) in &model {
                    assert!(pool.contains(h));
                    assert!(
                        pool.conns(k.0, k.1).contains(&h),
                        "qp {id} listed under its key"
                    );
                }
                let listed: usize = tenants
                    .iter()
                    .flat_map(|&t| pool.peers_of(t).into_iter().map(move |p| (t, p)))
                    .map(|(t, p)| pool.count(t, p))
                    .sum();
                assert_eq!(listed, model.len());
                assert!(pool.deactivations() <= pool.activations());
            }
        }
    }
}
