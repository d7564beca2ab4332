//! The RDMA fabric's public handle and its machine.
//!
//! Everything the fabric decides is decided by the state machine in
//! `crate::core`, which never sees the simulator. [`Fabric`] is a cheap
//! handle to it, behind the one [`simcore::Driver`]: a verb validates
//! synchronously (like `ibv_post_send` returning an error) and hands the
//! hardware timeline that follows to the driver, whose `Machine` impl here
//! is the crate's only code that schedules an event or calls a [`CqWaker`]:
//!
//! ```text
//! post_send ─→ requester RNIC (Server) ─→ egress shaper (TokenBucket)
//!           ─→ propagation ─→ responder RNIC (Server) ─→ RQ buffer pop
//!           ─→ DMA copy into receiver buffer ─→ receiver CQE
//!                                            └→ ACK ─→ sender CQE
//! ```
//!
//! Receive buffers come from shared receive queues (one per tenant, as in
//! §3.3); a send arriving at an empty RQ triggers RNR NAK retries and
//! eventually an error completion, reproducing RC semantics.

use std::cell::{Ref, RefCell, RefMut};
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use membuf::export::MappedPool;
use membuf::pool::{BufferPool, OwnedBuf};
use membuf::tenant::TenantId;
use simcore::ratelimit::TokenBucket;
use simcore::{Driver, Machine, Server, Sim, SimTime, Sink};

use crate::core::{link_key, Core, CqState, Input, NodeState, Output, QpState, RqState};
use crate::cost::RdmaCosts;
use crate::fault::{FaultPlane, FaultStats};
use crate::mr::MrTable;
use crate::types::{Cqe, NodeId, QpId, RKey, RdmaError, WrId};

/// A completion queue identifier (fabric-wide unique).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CqId(pub u32);

/// A shared receive queue identifier (fabric-wide unique).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RqId(pub u32);

/// Callback invoked when a CQE lands on an armed completion queue.
pub type CqWaker = Rc<dyn Fn(&mut Sim)>;

/// Per-QP traffic counters (observability surface for the DNE's
/// connection-pool and per-QP dashboards).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QpCounters {
    /// Sends posted on this QP.
    pub posted: u64,
    /// Send completions generated (success or error).
    pub completed: u64,
    /// Payload bytes posted.
    pub bytes: u64,
}

/// What the DNE's connection picker reads about a QP (see
/// [`Fabric::qp_loads`]). An unknown QP reads as the default: not ready,
/// inactive, empty.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QpLoad {
    /// Connection setup finished and the QP has not failed.
    pub ready: bool,
    /// Currently charged against the RNIC QP cache.
    pub active: bool,
    /// Unfinished sends on the QP (the congestion signal).
    pub sq_depth: u32,
}

/// A handle naming one endpoint of an RC connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QpHandle {
    pub node: NodeId,
    pub qp: QpId,
}

/// What a [`Fabric`] handle points at: the state machine, and beside it the
/// CQ wakers, which only the driver calls.
struct Shared {
    core: RefCell<Core>,
    /// Indexed by `CqId`.
    wakers: RefCell<Vec<Option<CqWaker>>>,
}

/// The simulated RDMA fabric.
///
/// Cloning the fabric clones a cheap handle to the same shared state.
///
/// # Examples
///
/// ```
/// use rdma_sim::{Fabric, RdmaCosts};
/// use simcore::Sim;
///
/// let fabric = Fabric::new(RdmaCosts::default());
/// let a = fabric.add_node();
/// let b = fabric.add_node();
/// assert_ne!(a, b);
/// ```
#[derive(Clone)]
pub struct Fabric {
    inner: Rc<Driver<Shared>>,
}

impl Fabric {
    /// Creates an empty fabric with the given cost model.
    pub fn new(costs: RdmaCosts) -> Self {
        let mut core = Core::default();
        core.costs = costs;
        let (core, wakers) = (RefCell::new(core), RefCell::default());
        Fabric {
            inner: Driver::new(Shared { core, wakers }),
        }
    }

    pub(crate) fn core(&self) -> Ref<'_, Core> {
        self.inner.core.borrow()
    }

    pub(crate) fn core_mut(&self) -> RefMut<'_, Core> {
        self.inner.core.borrow_mut()
    }

    /// Returns a copy of the cost model in force.
    pub fn costs(&self) -> RdmaCosts {
        self.core().costs.clone()
    }

    /// Attaches a new node (RNIC) to the fabric.
    pub fn add_node(&self) -> NodeId {
        let mut core = self.core_mut();
        let id = NodeId(core.nodes.len() as u16);
        let egress = TokenBucket::new(core.costs.link_bytes_per_sec, core.costs.link_burst_bytes);
        core.nodes.push(NodeState {
            rnic_tx: Server::new(),
            rnic_rx: Server::new(),
            egress,
            mrs: MrTable::default(),
            active_qps: 0,
            peak_active_qps: 0,
            landing: HashMap::new(),
            atomics: HashMap::new(),
            tx_messages: 0,
            rx_messages: 0,
            rnr_events: 0,
        });
        id
    }

    /// Creates a completion queue on `node`, 64 Ki entries deep (ample for
    /// every experiment). Completions arriving at a full CQ are dropped and
    /// counted — the overflow condition real RNICs raise as a fatal async
    /// event.
    pub fn create_cq(&self, node: NodeId) -> Result<CqId, RdmaError> {
        let mut core = self.core_mut();
        core.node(node)?;
        let id = CqId(core.cqs.len() as u32);
        core.cqs.push(CqState {
            node,
            entries: VecDeque::new(),
            overflows: 0,
        });
        self.inner.wakers.borrow_mut().push(None);
        Ok(id)
    }

    /// Returns how many completions were lost to CQ overflow.
    pub fn cq_overflows(&self, cq: CqId) -> u64 {
        let core = self.core();
        core.cqs.get(cq.0 as usize).map_or(0, |c| c.overflows)
    }

    /// Creates a shared receive queue for `tenant` on `node` (§3.3: all of a
    /// tenant's RCQPs share one RQ so data lands in the right pool).
    pub fn create_rq(&self, node: NodeId, tenant: TenantId) -> Result<RqId, RdmaError> {
        let mut core = self.core_mut();
        core.node(node)?;
        let id = RqId(core.rqs.len() as u32);
        core.rqs.push(RqState::new(node, tenant));
        Ok(id)
    }

    /// Arms `cq` with a waker invoked whenever a completion is delivered.
    pub fn set_cq_waker(&self, cq: CqId, waker: CqWaker) -> Result<(), RdmaError> {
        let mut wakers = self.inner.wakers.borrow_mut();
        *wakers.get_mut(cq.0 as usize).ok_or(RdmaError::UnknownCq)? = Some(waker);
        Ok(())
    }

    /// Registers a host pool with the node's RNIC.
    pub fn register_pool(&self, node: NodeId, pool: BufferPool) -> Result<RKey, RdmaError> {
        Ok(self.core_mut().node_mut(node)?.mrs.register_pool(pool))
    }

    /// Registers a cross-processor mapped pool; requires the `Rdma` grant.
    pub fn register_mapped(&self, node: NodeId, mapped: &MappedPool) -> Result<RKey, RdmaError> {
        self.core_mut().node_mut(node)?.mrs.register_mapped(mapped)
    }

    /// Establishes an RC connection between `a` and `b` for `tenant`.
    ///
    /// Returns the two QP endpoints immediately in `Connecting` state; they
    /// transition to `Ready` after the configured connection-setup delay
    /// (tens of milliseconds, §3.3) unless the connection broke meanwhile.
    /// QPs start *inactive* (shadow QPs).
    #[allow(clippy::too_many_arguments)]
    pub fn connect(
        &self,
        sim: &mut Sim,
        tenant: TenantId,
        a: NodeId,
        cq_a: CqId,
        rq_a: RqId,
        b: NodeId,
        cq_b: CqId,
        rq_b: RqId,
    ) -> Result<(QpHandle, QpHandle), RdmaError> {
        let (pair, ready) = {
            let core = &mut *self.core_mut();
            let ready_at = sim.now() + core.costs.connect_delay;
            core.establish(ready_at, tenant, a, cq_a, rq_a, b, cq_b, rq_b)?
        };
        self.put(sim, ready);
        Ok(pair)
    }

    /// Pre-establishes `n` connection skeletons between `a` and `b` in the
    /// background: after the usual connection-setup delay they join the
    /// pair's pre-warm stock, where a later [`Fabric::claim_prewarmed`]
    /// turns one into a tenant-bound QP pair in microseconds instead of
    /// tens of milliseconds. The stock is unordered — prewarmed capacity
    /// between two nodes serves claims in either direction.
    pub fn prewarm_link(
        &self,
        sim: &mut Sim,
        a: NodeId,
        b: NodeId,
        n: usize,
    ) -> Result<(), RdmaError> {
        let delay = {
            let core = self.core();
            core.node(a)?;
            core.node(b)?;
            core.costs.connect_delay
        };
        if n > 0 {
            let link = link_key(a, b);
            self.put(sim, Output::At(sim.now() + delay, Input::Stock { link, n }));
        }
        Ok(())
    }

    /// Returns how many pre-warmed connection skeletons are ready to claim
    /// between `a` and `b`.
    pub fn prewarmed_available(&self, a: NodeId, b: NodeId) -> usize {
        let core = self.core();
        core.prewarm.get(&link_key(a, b)).copied().unwrap_or(0)
    }

    /// Claims a pre-warmed connection skeleton between `a` and `b` for
    /// `tenant`, binding it into a usable QP pair after the (microsecond)
    /// claim delay. Returns `Ok(None)` when the pair's pre-warm stock is
    /// empty — the caller falls back to a cold [`Fabric::connect`].
    #[allow(clippy::too_many_arguments)]
    pub fn claim_prewarmed(
        &self,
        sim: &mut Sim,
        tenant: TenantId,
        a: NodeId,
        cq_a: CqId,
        rq_a: RqId,
        b: NodeId,
        cq_b: CqId,
        rq_b: RqId,
    ) -> Result<Option<(QpHandle, QpHandle)>, RdmaError> {
        let (pair, ready) = {
            let core = &mut *self.core_mut();
            let key = link_key(a, b);
            let stock = core.prewarm.get(&key).copied().unwrap_or(0);
            if stock == 0 {
                return Ok(None);
            }
            let ready_at = sim.now() + core.costs.prewarm_claim_delay;
            let claimed = core.establish(ready_at, tenant, a, cq_a, rq_a, b, cq_b, rq_b)?;
            // Debited only once validation passed.
            core.prewarm.insert(key, stock - 1);
            claimed
        };
        self.put(sim, ready);
        Ok(Some(pair))
    }

    /// Tears down a connection completely, removing **both** endpoints and
    /// releasing their RNIC state (the lazy-teardown path: an idle-aged
    /// connection stops costing memory, unlike an errored one which lingers
    /// in `Error` state). Teardown is meant for drained QPs, which is what
    /// the pool's idle-age check guarantees; a send still in flight on a
    /// destroyed QP is flushed back to its poster in error.
    pub fn destroy_qp(&self, h: QpHandle) -> Result<(), RdmaError> {
        self.core_mut().destroy(h)
    }

    /// Returns `true` once the QP finished connection setup (and has not
    /// failed).
    pub fn qp_ready(&self, h: QpHandle) -> bool {
        self.qp_load(h).ready
    }

    /// Fault injection: breaks the RC connection at both endpoints.
    ///
    /// Subsequent posts on either endpoint fail with
    /// [`RdmaError::QpNotReady`]; active QPs leave the RNIC cache. Messages
    /// already in flight still deliver (the fault hits the connection
    /// state, not packets on the wire).
    pub fn inject_qp_error(&self, h: QpHandle) -> Result<(), RdmaError> {
        self.core_mut().qp_error(h)
    }

    /// Installs a deterministic fault plane, replacing any existing one.
    ///
    /// A plane with all probabilities at zero and no scheduled events
    /// leaves delivery byte-identical to a fabric without one.
    pub fn install_fault_plane(&self, fp: FaultPlane) {
        self.core_mut().faults = Some(fp);
    }

    /// Shares a tracer so fault-plane events (wire loss, corruption) are
    /// annotated into the affected request's trace as `FaultInject`
    /// markers. A disabled tracer (the default) records nothing.
    pub fn set_tracer(&self, tracer: obs::Tracer) {
        self.core_mut().tracer = tracer;
    }

    /// Runs `f` against the fault plane, installing a zero-fault plane
    /// (seed 0) first if none is present.
    pub fn with_fault_plane<R>(&self, f: impl FnOnce(&mut FaultPlane) -> R) -> R {
        let mut core = self.core_mut();
        f(core.faults.get_or_insert_with(|| FaultPlane::new(0)))
    }

    /// Returns whether `node` is inside a crash window at `at`: never,
    /// without a fault plane. Installs nothing.
    pub fn in_outage(&self, node: NodeId, at: SimTime) -> bool {
        let core = self.core();
        core.faults.as_ref().is_some_and(|f| f.in_outage(node, at))
    }

    /// Returns the fault counters (all zero when no plane is installed).
    pub fn fault_stats(&self) -> FaultStats {
        let core = self.core();
        core.faults.as_ref().map(|f| f.stats).unwrap_or_default()
    }

    /// Schedules a QP kill at `at`: the connection breaks at both ends as
    /// with [`Fabric::inject_qp_error`], and the fault plane counts it.
    pub fn schedule_qp_kill(&self, sim: &mut Sim, at: SimTime, h: QpHandle) {
        self.put(sim, Output::At(at, Input::QpKill(h)));
    }

    /// Registers a crash window `[from, until)` for `node`: every message
    /// to or from the node inside the window is dropped on the wire and the
    /// sender eventually sees `CqeStatus::TransportRetryExceeded`.
    /// Installs a zero-fault plane if none is present.
    pub fn schedule_node_outage(&self, node: NodeId, from: SimTime, until: SimTime) {
        self.with_fault_plane(|fp| fp.add_outage(node, from, until));
    }

    /// Marks a QP active/inactive (shadow-QP mechanism, §3.3). Only active
    /// QPs count against the RNIC QP cache.
    pub fn set_qp_active(&self, h: QpHandle, active: bool) -> Result<(), RdmaError> {
        let mut core = self.core_mut();
        core.qp(h)?;
        core.set_active(h.qp, active);
        Ok(())
    }

    /// Returns the number of active QPs on `node`.
    pub fn active_qp_count(&self, node: NodeId) -> usize {
        self.core().node(node).map_or(0, |n| n.active_qps)
    }

    /// Returns the high-water mark of simultaneously active QPs on `node` —
    /// how deep into (or past) the RNIC QP cache the node has been.
    pub fn peak_active_qp_count(&self, node: NodeId) -> usize {
        self.core().node(node).map_or(0, |n| n.peak_active_qps)
    }

    /// Reads readiness, activation and SQ backlog of every QP in `qps`
    /// under one borrow of the fabric — the connection picker's view.
    /// `visit` must not call back into the fabric.
    pub fn qp_loads(&self, qps: &[QpHandle], mut visit: impl FnMut(QpHandle, QpLoad)) {
        let core = self.core();
        for &h in qps {
            let load = core.qp(h).map_or(QpLoad::default(), |q| QpLoad {
                ready: q.state == QpState::Ready,
                active: q.active,
                sq_depth: q.sq_outstanding,
            });
            visit(h, load);
        }
    }

    /// [`Fabric::qp_loads`] for a single QP.
    pub fn qp_load(&self, h: QpHandle) -> QpLoad {
        let mut load = QpLoad::default();
        self.qp_loads(&[h], |_, l| load = l);
        load
    }

    /// Returns the number of unfinished sends on a QP (congestion signal
    /// for the DNE's least-congested connection selection).
    pub fn sq_depth(&self, h: QpHandle) -> u32 {
        self.qp_load(h).sq_depth
    }

    /// Returns the traffic counters for one QP: posted sends, generated
    /// send completions, and bytes posted.
    pub fn qp_counters(&self, h: QpHandle) -> QpCounters {
        self.core().qp(h).map(|q| q.counters).unwrap_or_default()
    }

    /// Returns whether the QP is currently marked active.
    pub fn qp_is_active(&self, h: QpHandle) -> bool {
        self.qp_load(h).active
    }

    /// Posts a receive buffer to a shared receive queue.
    ///
    /// The buffer's pool must be registered with the node's RNIC and belong
    /// to the RQ's tenant — the isolation property §3.3 relies on — and be
    /// the pool (id and buffer size) of the buffers already posted there:
    /// an arrival completes the oldest WR id into the newest buffer, so the
    /// buffers must be interchangeable.
    pub fn post_recv(&self, rq: RqId, wr_id: WrId, buf: OwnedBuf) -> Result<(), RdmaError> {
        let core = &mut *self.core_mut();
        let state = core
            .rqs
            .get_mut(rq.0 as usize)
            .ok_or(RdmaError::UnknownRq)?;
        if buf.tenant() != state.tenant
            || !core.nodes[state.node.0 as usize]
                .mrs
                .is_registered(buf.tenant(), buf.pool_id())
        {
            return Err(RdmaError::UnregisteredMemory);
        }
        let pool = |b: &OwnedBuf| (b.pool_id(), b.buf_size());
        if state.bufs.last().is_some_and(|top| pool(top) != pool(&buf)) {
            return Err(RdmaError::MixedRqPool);
        }
        state.post(wr_id, buf);
        Ok(())
    }

    /// Returns the number of receive buffers currently posted on `rq`.
    pub fn rq_depth(&self, rq: RqId) -> usize {
        let core = self.core();
        core.rqs.get(rq.0 as usize).map_or(0, RqState::depth)
    }

    /// Posts a two-sided send of `buf` on `h`, with immediate data `imm`.
    ///
    /// On completion the sender receives a CQE carrying `buf` back for
    /// recycling; the receiver's CQE carries the filled buffer popped from
    /// its shared RQ.
    pub fn post_send(
        &self,
        sim: &mut Sim,
        h: QpHandle,
        wr_id: WrId,
        buf: OwnedBuf,
        imm: u64,
    ) -> Result<(), RdmaError> {
        let arrive = self.core_mut().post_send(sim.now(), h, wr_id, buf, imm)?;
        self.put(sim, arrive);
        Ok(())
    }

    /// Polls up to `max` completions from `cq`.
    pub fn poll_cq(&self, cq: CqId, max: usize) -> Vec<Cqe> {
        match self.core_mut().cqs.get_mut(cq.0 as usize) {
            Some(state) => {
                let n = state.entries.len().min(max);
                state.entries.drain(..n).collect()
            }
            None => Vec::new(),
        }
    }

    /// Dequeues the oldest completion waiting on `cq`, if any (the
    /// allocation-free form of `poll_cq(cq, 1)`).
    pub fn poll_one(&self, cq: CqId) -> Option<Cqe> {
        let mut core = self.core_mut();
        core.cqs.get_mut(cq.0 as usize)?.entries.pop_front()
    }

    /// Returns the number of completions waiting on `cq`.
    pub fn cq_depth(&self, cq: CqId) -> usize {
        let core = self.core();
        core.cqs.get(cq.0 as usize).map_or(0, |c| c.entries.len())
    }

    /// Returns `(tx_messages, rx_messages, rnr_events)` for a node.
    pub fn node_counters(&self, node: NodeId) -> (u64, u64, u64) {
        let core = self.core();
        let n = core.node(node);
        n.map_or((0, 0, 0), |n| (n.tx_messages, n.rx_messages, n.rnr_events))
    }

    /// Hands an output a verb made to the driver.
    pub(crate) fn put(&self, sim: &mut Sim, output: Output) {
        self.inner.run(sim, |_, _, sink| sink.put(output));
    }
}

/// A `Wake` — a `PushCqe`'s one output — waits for the core's borrow to
/// drop, since a waker polls the CQ; an `At` is scheduled as it comes.
impl Machine for Shared {
    type In = Input;
    type Out = Output;
    type Answer = ();

    fn step(&self, now: SimTime, input: Input, sink: &mut Sink<'_, Self>) {
        let out = &mut |output| sink.put(output);
        self.core.borrow_mut().step(now, input, out);
    }

    fn apply(this: &Rc<Driver<Self>>, sim: &mut Sim, output: Output) -> Result<(), Output> {
        match output {
            Output::At(at, input) => this.schedule(sim, at, input),
            wake => return Err(wake),
        }
        Ok(())
    }

    fn settle(this: &Rc<Driver<Self>>, sim: &mut Sim, output: Output) {
        if let Output::Wake(cq) = output {
            let waker = this.wakers.borrow().get(cq.0 as usize).cloned();
            if let Some(waker) = waker.flatten() {
                waker(sim);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{CqeOpcode, CqeStatus};
    use membuf::pool::PoolConfig;

    fn mk_pool(tenant: u16, pool_id: u16) -> BufferPool {
        let mut cfg = PoolConfig::new(TenantId(tenant), pool_id, 8192, 64);
        cfg.segment_size = 64 * 1024;
        BufferPool::new(cfg).unwrap()
    }

    struct Pair {
        fabric: Fabric,
        sim: Sim,
        pool_a: BufferPool,
        pool_b: BufferPool,
        cq_a: CqId,
        cq_b: CqId,
        rq_b: RqId,
        h_ab: QpHandle,
    }

    fn setup() -> Pair {
        let fabric = Fabric::new(RdmaCosts::default());
        let mut sim = Sim::new();
        let a = fabric.add_node();
        let b = fabric.add_node();
        let tenant = TenantId(1);
        let pool_a = mk_pool(1, 0);
        let pool_b = mk_pool(1, 0);
        fabric.register_pool(a, pool_a.clone()).unwrap();
        fabric.register_pool(b, pool_b.clone()).unwrap();
        let cq_a = fabric.create_cq(a).unwrap();
        let cq_b = fabric.create_cq(b).unwrap();
        let rq_a = fabric.create_rq(a, tenant).unwrap();
        let rq_b = fabric.create_rq(b, tenant).unwrap();
        let (h_ab, _h_ba) = fabric
            .connect(&mut sim, tenant, a, cq_a, rq_a, b, cq_b, rq_b)
            .unwrap();
        sim.run(); // let the connection come up
        Pair {
            fabric,
            sim,
            pool_a,
            pool_b,
            cq_a,
            cq_b,
            rq_b,
            h_ab,
        }
    }

    #[test]
    fn prewarm_claim_is_microseconds_cold_connect_is_not() {
        let fabric = Fabric::new(RdmaCosts::default());
        let mut sim = Sim::new();
        let a = fabric.add_node();
        let b = fabric.add_node();
        let t = TenantId(3);
        let cq_a = fabric.create_cq(a).unwrap();
        let cq_b = fabric.create_cq(b).unwrap();
        let rq_a = fabric.create_rq(a, t).unwrap();
        let rq_b = fabric.create_rq(b, t).unwrap();
        // Nothing prewarmed yet: a claim misses.
        assert_eq!(fabric.prewarmed_available(a, b), 0);
        assert!(fabric
            .claim_prewarmed(&mut sim, t, a, cq_a, rq_a, b, cq_b, rq_b)
            .unwrap()
            .is_none());
        // Stock two skeletons in the background; they cost the full
        // connect delay but off the request path.
        fabric.prewarm_link(&mut sim, a, b, 2).unwrap();
        sim.run();
        assert_eq!(fabric.prewarmed_available(a, b), 2);
        // The stock is unordered: visible from either direction.
        assert_eq!(fabric.prewarmed_available(b, a), 2);
        let start = sim.now();
        let (ha, _hb) = fabric
            .claim_prewarmed(&mut sim, t, a, cq_a, rq_a, b, cq_b, rq_b)
            .unwrap()
            .expect("stock available");
        assert_eq!(fabric.prewarmed_available(a, b), 1);
        assert!(!fabric.qp_ready(ha));
        sim.run();
        let ready_in = sim.now().saturating_since(start);
        assert!(fabric.qp_ready(ha));
        assert_eq!(ready_in, fabric.costs().prewarm_claim_delay);
        assert!(ready_in < fabric.costs().connect_delay / 10);
    }

    #[test]
    fn destroy_qp_removes_both_endpoints_and_releases_cache() {
        let p = setup();
        let fabric = p.fabric;
        let h = p.h_ab;
        fabric.set_qp_active(h, true).unwrap();
        assert_eq!(fabric.active_qp_count(h.node), 1);
        assert_eq!(fabric.peak_active_qp_count(h.node), 1);
        let peer = {
            let core = fabric.core();
            let qp = core.qp(h).unwrap();
            QpHandle {
                node: qp.peer_node,
                qp: qp.peer_qp,
            }
        };
        fabric.destroy_qp(h).unwrap();
        assert_eq!(fabric.active_qp_count(h.node), 0);
        // Peak is a high-water mark: it survives the teardown.
        assert_eq!(fabric.peak_active_qp_count(h.node), 1);
        assert!(!fabric.qp_ready(h));
        assert!(!fabric.qp_ready(peer));
        assert!(fabric.destroy_qp(h).is_err(), "already gone");
    }

    #[test]
    fn connection_takes_tens_of_milliseconds() {
        let fabric = Fabric::new(RdmaCosts::default());
        let mut sim = Sim::new();
        let a = fabric.add_node();
        let b = fabric.add_node();
        let t = TenantId(0);
        let cq_a = fabric.create_cq(a).unwrap();
        let cq_b = fabric.create_cq(b).unwrap();
        let rq_a = fabric.create_rq(a, t).unwrap();
        let rq_b = fabric.create_rq(b, t).unwrap();
        let (h, _) = fabric
            .connect(&mut sim, t, a, cq_a, rq_a, b, cq_b, rq_b)
            .unwrap();
        assert!(!fabric.qp_ready(h));
        sim.run();
        assert!(fabric.qp_ready(h));
        assert_eq!(sim.now().as_nanos(), 20_000_000);
    }

    #[test]
    fn two_sided_send_moves_payload_and_completes_both_sides() {
        let mut p = setup();
        // Receiver posts a buffer.
        let recv_buf = p.pool_b.get().unwrap();
        p.fabric.post_recv(p.rq_b, WrId(100), recv_buf).unwrap();
        // Sender sends.
        let mut send_buf = p.pool_a.get().unwrap();
        send_buf.write_payload(b"two-sided rdma").unwrap();
        let t_post = p.sim.now();
        p.fabric
            .post_send(&mut p.sim, p.h_ab, WrId(1), send_buf, 0xfeed)
            .unwrap();
        p.sim.run();

        let rx = p.fabric.poll_cq(p.cq_b, 16);
        assert_eq!(rx.len(), 1);
        let cqe = &rx[0];
        assert_eq!(cqe.status, CqeStatus::Success);
        assert_eq!(cqe.opcode, CqeOpcode::Recv);
        assert_eq!(cqe.wr_id, WrId(100));
        assert_eq!(cqe.imm, 0xfeed);
        assert_eq!(cqe.buf.as_ref().unwrap().as_slice(), b"two-sided rdma");

        let tx = p.fabric.poll_cq(p.cq_a, 16);
        assert_eq!(tx.len(), 1);
        assert_eq!(tx[0].status, CqeStatus::Success);
        assert_eq!(tx[0].opcode, CqeOpcode::Send);
        assert!(tx[0].buf.is_some(), "sender gets its buffer back");

        // One-way delivery for a small message is a few microseconds.
        let elapsed = (p.sim.now() - t_post).as_micros_f64();
        assert!(elapsed > 2.0 && elapsed < 10.0, "elapsed = {elapsed}us");
    }

    #[test]
    fn send_without_posted_recv_rnr_retries_then_succeeds() {
        let mut p = setup();
        let mut send_buf = p.pool_a.get().unwrap();
        send_buf.write_payload(b"late receiver").unwrap();
        p.fabric
            .post_send(&mut p.sim, p.h_ab, WrId(1), send_buf, 0)
            .unwrap();
        // Post the receive only after one RNR timer has elapsed.
        let costs = p.fabric.costs();
        p.sim.run_for(costs.rnr_timer);
        let recv_buf = p.pool_b.get().unwrap();
        p.fabric.post_recv(p.rq_b, WrId(2), recv_buf).unwrap();
        p.sim.run();
        let rx = p.fabric.poll_cq(p.cq_b, 16);
        assert_eq!(rx.len(), 1);
        assert_eq!(rx[0].status, CqeStatus::Success);
        let (_, _, rnr) = p.fabric.node_counters(NodeId(1));
        assert!(rnr >= 1, "an RNR NAK must have fired");
    }

    #[test]
    fn rnr_retries_exhaust_into_error_completion() {
        let mut p = setup();
        let send_buf = p.pool_a.get().unwrap();
        p.fabric
            .post_send(&mut p.sim, p.h_ab, WrId(9), send_buf, 0)
            .unwrap();
        p.sim.run(); // no receive is ever posted
        let tx = p.fabric.poll_cq(p.cq_a, 16);
        assert_eq!(tx.len(), 1);
        assert_eq!(tx[0].status, CqeStatus::RnrRetryExceeded);
        assert!(tx[0].buf.is_some(), "buffer is returned even on error");
        assert_eq!(p.fabric.poll_cq(p.cq_b, 16).len(), 0);
    }

    #[test]
    fn unregistered_pool_is_rejected() {
        let mut p = setup();
        let rogue = mk_pool(2, 7);
        let buf = rogue.get().unwrap();
        assert_eq!(
            p.fabric
                .post_send(&mut p.sim, p.h_ab, WrId(1), buf, 0)
                .unwrap_err(),
            RdmaError::UnregisteredMemory
        );
        // post_recv enforces tenant match against the RQ.
        let buf2 = rogue.get().unwrap();
        assert_eq!(
            p.fabric.post_recv(p.rq_b, WrId(2), buf2).unwrap_err(),
            RdmaError::UnregisteredMemory
        );
    }

    /// A posted buffer too small for the payload takes no DMA: both ends
    /// complete with `LocalLengthError`, and each CQE carries its buffer
    /// home.
    #[test]
    fn a_receive_buffer_too_small_errors_both_ends() {
        let mut p = setup();
        let small = BufferPool::new(PoolConfig::new(TenantId(1), 1, 64, 4)).unwrap();
        p.fabric.register_pool(NodeId(1), small.clone()).unwrap();
        p.fabric
            .post_recv(p.rq_b, WrId(7), small.get().unwrap())
            .unwrap();
        let mut send_buf = p.pool_a.get().unwrap();
        send_buf.write_payload(&[0xab; 100]).unwrap();
        p.fabric
            .post_send(&mut p.sim, p.h_ab, WrId(1), send_buf, 0)
            .unwrap();
        p.sim.run();
        let (rx, tx) = (p.fabric.poll_cq(p.cq_b, 4), p.fabric.poll_cq(p.cq_a, 4));
        let ends = [
            (&rx, CqeOpcode::Recv, WrId(7)),
            (&tx, CqeOpcode::Send, WrId(1)),
        ];
        for (cqes, opcode, wr_id) in ends {
            assert_eq!(cqes.len(), 1, "{opcode:?}");
            let cqe = &cqes[0];
            assert_eq!((cqe.opcode, cqe.wr_id), (opcode, wr_id));
            assert_eq!(cqe.status, CqeStatus::LocalLengthError, "{opcode:?}");
            assert!(cqe.buf.is_some(), "{opcode:?}: the buffer rides home");
        }
        drop((rx, tx));
        assert_eq!(small.stats().free, small.capacity());
        assert_eq!(p.pool_a.stats().free, p.pool_a.capacity());
    }

    /// An arrival completes the oldest posted WR id into the newest posted
    /// buffer, and a shared RQ takes buffers of one pool only.
    #[test]
    fn an_arrival_completes_the_oldest_wr_into_the_newest_buffer() {
        let mut p = setup();
        let posted: Vec<u32> = (10..13)
            .map(|wr| {
                let buf = p.pool_b.get().unwrap();
                let index = buf.index();
                p.fabric.post_recv(p.rq_b, WrId(wr), buf).unwrap();
                index
            })
            .collect();
        let other = mk_pool(1, 1);
        p.fabric.register_pool(NodeId(1), other.clone()).unwrap();
        assert_eq!(
            p.fabric
                .post_recv(p.rq_b, WrId(13), other.get().unwrap())
                .unwrap_err(),
            RdmaError::MixedRqPool
        );
        assert_eq!(p.fabric.rq_depth(p.rq_b), 3);
        let send_buf = p.pool_a.get().unwrap();
        p.fabric
            .post_send(&mut p.sim, p.h_ab, WrId(1), send_buf, 0)
            .unwrap();
        p.sim.run();
        let rx = p.fabric.poll_cq(p.cq_b, 4);
        assert_eq!(rx.len(), 1);
        assert_eq!(rx[0].wr_id, WrId(10), "the oldest WR id");
        assert_eq!(rx[0].buf.as_ref().map(|b| b.index()), Some(posted[2]));
        assert_eq!(p.fabric.rq_depth(p.rq_b), 2);
        assert_eq!(
            other.stats().free,
            other.capacity(),
            "the refused buffer went home"
        );
    }

    /// The receive working set of a deep RQ that re-posts one buffer per
    /// receive, as the DNE does: 1 000 rounds through 256 posted buffers
    /// write their payloads into at most two of them.
    #[test]
    fn a_reposting_rq_receives_into_a_hot_buffer() {
        let mut p = setup();
        let mut cfg = PoolConfig::new(TenantId(1), 1, 256, 512);
        cfg.segment_size = 64 * 1024;
        let pool_b = BufferPool::new(cfg).unwrap();
        p.fabric.register_pool(NodeId(1), pool_b.clone()).unwrap();
        for wr in 0..256 {
            let buf = pool_b.get().unwrap();
            p.fabric.post_recv(p.rq_b, WrId(wr), buf).unwrap();
        }
        let mut written = std::collections::BTreeSet::new();
        for round in 0..1_000 {
            let mut send_buf = p.pool_a.get().unwrap();
            send_buf.write_payload(b"hot").unwrap();
            let wr = WrId(round);
            p.fabric
                .post_send(&mut p.sim, p.h_ab, wr, send_buf, 0)
                .unwrap();
            p.sim.run();
            assert_eq!(p.fabric.poll_cq(p.cq_a, 4).len(), 1);
            for cqe in p.fabric.poll_cq(p.cq_b, 4) {
                assert_eq!(cqe.status, CqeStatus::Success);
                written.extend(cqe.buf.as_ref().map(|b| b.index()));
            }
            let wr = WrId(256 + round);
            p.fabric
                .post_recv(p.rq_b, wr, pool_b.get().unwrap())
                .unwrap();
        }
        assert!(
            written.len() <= 2,
            "payloads landed in {} buffers",
            written.len()
        );
    }

    /// Asking whether a node is down installs no fault plane.
    #[test]
    fn an_outage_query_installs_no_fault_plane() {
        let p = setup();
        assert!(!p.fabric.in_outage(NodeId(1), p.sim.now()));
        assert!(p.fabric.core().faults.is_none());
        let (from, until) = (SimTime::from_nanos(10), SimTime::from_nanos(20));
        p.fabric.schedule_node_outage(NodeId(1), from, until);
        assert!(p.fabric.in_outage(NodeId(1), from));
        assert!(!p.fabric.in_outage(NodeId(1), until));
    }

    #[test]
    fn send_before_ready_is_rejected() {
        let fabric = Fabric::new(RdmaCosts::default());
        let mut sim = Sim::new();
        let a = fabric.add_node();
        let b = fabric.add_node();
        let t = TenantId(1);
        let pool = mk_pool(1, 0);
        fabric.register_pool(a, pool.clone()).unwrap();
        let cq_a = fabric.create_cq(a).unwrap();
        let cq_b = fabric.create_cq(b).unwrap();
        let rq_a = fabric.create_rq(a, t).unwrap();
        let rq_b = fabric.create_rq(b, t).unwrap();
        let (h, _) = fabric
            .connect(&mut sim, t, a, cq_a, rq_a, b, cq_b, rq_b)
            .unwrap();
        let buf = pool.get().unwrap();
        assert_eq!(
            fabric.post_send(&mut sim, h, WrId(0), buf, 0).unwrap_err(),
            RdmaError::QpNotReady(h.qp)
        );
    }

    #[test]
    fn qp_counters_track_posted_completed_bytes() {
        let mut p = setup();
        assert_eq!(p.fabric.qp_counters(p.h_ab), QpCounters::default());
        let recv_buf = p.pool_b.get().unwrap();
        p.fabric.post_recv(p.rq_b, WrId(100), recv_buf).unwrap();
        let mut send_buf = p.pool_a.get().unwrap();
        send_buf.write_payload(&[9u8; 48]).unwrap();
        p.fabric
            .post_send(&mut p.sim, p.h_ab, WrId(1), send_buf, 0)
            .unwrap();
        let mid = p.fabric.qp_counters(p.h_ab);
        assert_eq!((mid.posted, mid.completed, mid.bytes), (1, 0, 48));
        p.sim.run();
        let done = p.fabric.qp_counters(p.h_ab);
        assert_eq!((done.posted, done.completed, done.bytes), (1, 1, 48));
    }

    #[test]
    fn shadow_qp_accounting() {
        let p = setup();
        assert_eq!(p.fabric.active_qp_count(NodeId(0)), 0);
        p.fabric.set_qp_active(p.h_ab, true).unwrap();
        assert_eq!(p.fabric.active_qp_count(NodeId(0)), 1);
        // Idempotent.
        p.fabric.set_qp_active(p.h_ab, true).unwrap();
        assert_eq!(p.fabric.active_qp_count(NodeId(0)), 1);
        p.fabric.set_qp_active(p.h_ab, false).unwrap();
        assert_eq!(p.fabric.active_qp_count(NodeId(0)), 0);
    }

    #[test]
    fn cq_waker_fires_on_completion() {
        use std::cell::Cell;
        let mut p = setup();
        let woke = Rc::new(Cell::new(0u32));
        let w = woke.clone();
        p.fabric
            .set_cq_waker(p.cq_b, Rc::new(move |_| w.set(w.get() + 1)))
            .unwrap();
        let recv_buf = p.pool_b.get().unwrap();
        p.fabric.post_recv(p.rq_b, WrId(0), recv_buf).unwrap();
        let buf = p.pool_a.get().unwrap();
        p.fabric
            .post_send(&mut p.sim, p.h_ab, WrId(1), buf, 0)
            .unwrap();
        p.sim.run();
        assert_eq!(woke.get(), 1);
    }

    #[test]
    fn oversize_message_rejected() {
        let costs = RdmaCosts {
            max_msg_size: 16,
            ..RdmaCosts::default()
        };
        let fabric = Fabric::new(costs);
        let a = fabric.add_node();
        let b = fabric.add_node();
        let t = TenantId(1);
        let pool = mk_pool(1, 0);
        fabric.register_pool(a, pool.clone()).unwrap();
        let cqa = fabric.create_cq(a).unwrap();
        let cqb = fabric.create_cq(b).unwrap();
        let rqa = fabric.create_rq(a, t).unwrap();
        let rqb = fabric.create_rq(b, t).unwrap();
        let mut sim = Sim::new();
        let (h, _) = fabric
            .connect(&mut sim, t, a, cqa, rqa, b, cqb, rqb)
            .unwrap();
        sim.run();
        let mut big = pool.get().unwrap();
        big.write_payload(&[1u8; 64]).unwrap();
        let err = fabric.post_send(&mut sim, h, WrId(0), big, 0).unwrap_err();
        assert_eq!(err, RdmaError::MessageTooLarge { len: 64, max: 16 });
    }

    #[test]
    fn larger_payloads_take_longer() {
        let mut p = setup();
        let mut rtts = Vec::new();
        for &size in &[64usize, 65536] {
            let recv = p.pool_b.get().unwrap();
            p.fabric.post_recv(p.rq_b, WrId(0), recv).unwrap();
            let mut buf = p.pool_a.get().unwrap();
            buf.set_len(size.min(buf.buf_size())).unwrap();
            // 64 KiB does not fit an 8 KiB buffer; use full buffer for "large".
            let t0 = p.sim.now();
            p.fabric
                .post_send(&mut p.sim, p.h_ab, WrId(1), buf, 0)
                .unwrap();
            p.sim.run();
            let _ = p.fabric.poll_cq(p.cq_b, 16);
            let _ = p.fabric.poll_cq(p.cq_a, 16);
            rtts.push((p.sim.now() - t0).as_nanos());
        }
        assert!(rtts[1] > rtts[0], "8KiB slower than 64B: {rtts:?}");
    }
}
// (fault-injection tests live below to keep the main test module focused)
#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::types::CqeStatus;
    use membuf::pool::PoolConfig;
    use simcore::SimDuration;

    fn mk_pool(tenant: u16) -> BufferPool {
        let mut cfg = PoolConfig::new(TenantId(tenant), 0, 1024, 16);
        cfg.segment_size = 16 * 1024;
        BufferPool::new(cfg).unwrap()
    }

    #[test]
    fn injected_error_fails_posts_and_clears_cache_charge() {
        let fabric = Fabric::new(RdmaCosts::default());
        let mut sim = Sim::new();
        let a = fabric.add_node();
        let b = fabric.add_node();
        let t = TenantId(1);
        let pool = mk_pool(1);
        fabric.register_pool(a, pool.clone()).unwrap();
        let cq_a = fabric.create_cq(a).unwrap();
        let cq_b = fabric.create_cq(b).unwrap();
        let rq_a = fabric.create_rq(a, t).unwrap();
        let rq_b = fabric.create_rq(b, t).unwrap();
        let (h, peer) = fabric
            .connect(&mut sim, t, a, cq_a, rq_a, b, cq_b, rq_b)
            .unwrap();
        sim.run();
        fabric.set_qp_active(h, true).unwrap();
        assert_eq!(fabric.active_qp_count(a), 1);

        fabric.inject_qp_error(h).unwrap();
        assert!(!fabric.qp_ready(h));
        assert!(!fabric.qp_ready(peer), "both endpoints break");
        assert_eq!(fabric.active_qp_count(a), 0, "cache charge released");
        let buf = pool.get().unwrap();
        assert_eq!(
            fabric.post_send(&mut sim, h, WrId(0), buf, 0).unwrap_err(),
            RdmaError::QpNotReady(h.qp)
        );
    }

    #[test]
    fn error_on_one_connection_leaves_others_usable() {
        let fabric = Fabric::new(RdmaCosts::default());
        let mut sim = Sim::new();
        let a = fabric.add_node();
        let b = fabric.add_node();
        let t = TenantId(1);
        let pool_a = mk_pool(1);
        let pool_b = mk_pool(1);
        fabric.register_pool(a, pool_a.clone()).unwrap();
        fabric.register_pool(b, pool_b.clone()).unwrap();
        let cq_a = fabric.create_cq(a).unwrap();
        let cq_b = fabric.create_cq(b).unwrap();
        let rq_a = fabric.create_rq(a, t).unwrap();
        let rq_b = fabric.create_rq(b, t).unwrap();
        let (h1, _) = fabric
            .connect(&mut sim, t, a, cq_a, rq_a, b, cq_b, rq_b)
            .unwrap();
        let (h2, _) = fabric
            .connect(&mut sim, t, a, cq_a, rq_a, b, cq_b, rq_b)
            .unwrap();
        sim.run();
        fabric.inject_qp_error(h1).unwrap();
        fabric
            .post_recv(rq_b, WrId(0), pool_b.get().unwrap())
            .unwrap();
        fabric
            .post_send(&mut sim, h2, WrId(1), pool_a.get().unwrap(), 0)
            .unwrap();
        sim.run();
        assert_eq!(fabric.poll_cq(cq_b, 4).len(), 1, "healthy QP still works");
    }

    struct FaultPair {
        fabric: Fabric,
        sim: Sim,
        pool_a: BufferPool,
        pool_b: BufferPool,
        cq_a: CqId,
        cq_b: CqId,
        rq_b: RqId,
        h: QpHandle,
        peer: QpHandle,
    }

    fn fault_setup() -> FaultPair {
        let fabric = Fabric::new(RdmaCosts::default());
        let mut sim = Sim::new();
        let a = fabric.add_node();
        let b = fabric.add_node();
        let t = TenantId(1);
        let pool_a = mk_pool(1);
        let pool_b = mk_pool(1);
        fabric.register_pool(a, pool_a.clone()).unwrap();
        fabric.register_pool(b, pool_b.clone()).unwrap();
        let cq_a = fabric.create_cq(a).unwrap();
        let cq_b = fabric.create_cq(b).unwrap();
        let rq_a = fabric.create_rq(a, t).unwrap();
        let rq_b = fabric.create_rq(b, t).unwrap();
        let (h, peer) = fabric
            .connect(&mut sim, t, a, cq_a, rq_a, b, cq_b, rq_b)
            .unwrap();
        sim.run();
        FaultPair {
            fabric,
            sim,
            pool_a,
            pool_b,
            cq_a,
            cq_b,
            rq_b,
            h,
            peer,
        }
    }

    #[test]
    fn lost_message_times_out_with_error_cqe() {
        let mut p = fault_setup();
        let mut fp = crate::fault::FaultPlane::new(1);
        fp.set_link_loss(NodeId(0), NodeId(1), 1.0);
        p.fabric.install_fault_plane(fp);
        p.fabric
            .post_recv(p.rq_b, WrId(5), p.pool_b.get().unwrap())
            .unwrap();
        p.fabric
            .post_send(&mut p.sim, p.h, WrId(1), p.pool_a.get().unwrap(), 0)
            .unwrap();
        p.sim.run();
        let tx = p.fabric.poll_cq(p.cq_a, 4);
        assert_eq!(tx.len(), 1);
        assert_eq!(tx[0].status, CqeStatus::TransportRetryExceeded);
        assert!(tx[0].buf.is_some(), "send buffer comes back on loss");
        assert_eq!(p.fabric.poll_cq(p.cq_b, 4).len(), 0, "receiver saw nothing");
        assert_eq!(p.fabric.rq_depth(p.rq_b), 1, "recv buffer stays posted");
        assert_eq!(p.fabric.fault_stats().lost, 1);
    }

    #[test]
    fn corrupted_message_errors_both_ends() {
        let mut p = fault_setup();
        let mut fp = crate::fault::FaultPlane::new(1);
        fp.set_default_corruption(1.0);
        p.fabric.install_fault_plane(fp);
        p.fabric
            .post_recv(p.rq_b, WrId(5), p.pool_b.get().unwrap())
            .unwrap();
        p.fabric
            .post_send(&mut p.sim, p.h, WrId(1), p.pool_a.get().unwrap(), 0)
            .unwrap();
        p.sim.run();
        let rx = p.fabric.poll_cq(p.cq_b, 4);
        assert_eq!(rx.len(), 1);
        assert_eq!(rx[0].status, CqeStatus::DataCorrupted);
        assert!(rx[0].buf.is_some(), "recv buffer recycled via the CQE");
        let tx = p.fabric.poll_cq(p.cq_a, 4);
        assert_eq!(tx.len(), 1);
        assert_eq!(tx[0].status, CqeStatus::DataCorrupted);
        assert!(tx[0].buf.is_some());
        assert_eq!(p.fabric.fault_stats().corrupted, 1);
    }

    #[test]
    fn node_outage_window_drops_then_recovers() {
        let mut p = fault_setup();
        let now = p.sim.now();
        p.fabric
            .schedule_node_outage(NodeId(1), now, now + SimDuration::from_millis(5));
        p.fabric
            .post_recv(p.rq_b, WrId(5), p.pool_b.get().unwrap())
            .unwrap();
        p.fabric
            .post_send(&mut p.sim, p.h, WrId(1), p.pool_a.get().unwrap(), 0)
            .unwrap();
        p.sim.run();
        let tx = p.fabric.poll_cq(p.cq_a, 4);
        assert_eq!(tx.len(), 1);
        assert_eq!(tx[0].status, CqeStatus::TransportRetryExceeded);
        assert_eq!(p.fabric.fault_stats().outage_drops, 1);
        // After the window closes the same link delivers again.
        p.sim.run_for(SimDuration::from_millis(6));
        p.fabric
            .post_send(&mut p.sim, p.h, WrId(2), p.pool_a.get().unwrap(), 0)
            .unwrap();
        p.sim.run();
        let rx = p.fabric.poll_cq(p.cq_b, 4);
        assert_eq!(rx.len(), 1);
        assert_eq!(rx[0].status, CqeStatus::Success);
    }

    #[test]
    fn scheduled_qp_kill_breaks_connection_and_counts() {
        let mut p = fault_setup();
        p.fabric
            .install_fault_plane(crate::fault::FaultPlane::new(0));
        let at = p.sim.now() + SimDuration::from_millis(1);
        p.fabric.schedule_qp_kill(&mut p.sim, at, p.h);
        p.sim.run();
        assert!(!p.fabric.qp_ready(p.h));
        assert!(!p.fabric.qp_ready(p.peer));
        assert_eq!(p.fabric.fault_stats().qp_kills, 1);
    }

    /// Connection setup used to end by setting both endpoints `Ready`
    /// whatever their state, undoing a fault that hit while connecting.
    #[test]
    fn a_connection_broken_during_setup_never_comes_up() {
        let mut p = fault_setup();
        let (a, b, t) = (p.h.node, p.peer.node, TenantId(1));
        let (cq_a, rq_a) = (p.cq_a, RqId(0));
        let connect = |p: &mut FaultPair| {
            let f = p.fabric.clone();
            f.connect(&mut p.sim, t, a, cq_a, rq_a, b, p.cq_b, p.rq_b)
                .unwrap()
        };
        let (errored, peer) = connect(&mut p);
        p.fabric.inject_qp_error(errored).unwrap();
        let (killed, _) = connect(&mut p);
        let at = p.sim.now() + SimDuration::from_millis(1);
        p.fabric.schedule_qp_kill(&mut p.sim, at, killed);
        p.sim.run();
        for h in [errored, peer, killed] {
            assert!(!p.fabric.qp_ready(h), "{h:?} came up after its fault");
        }
        let buf = p.pool_a.get().unwrap();
        let post = p.fabric.post_send(&mut p.sim, errored, WrId(0), buf, 0);
        assert_eq!(post.unwrap_err(), RdmaError::QpNotReady(errored.qp));
    }
}
#[cfg(test)]
mod id_table_tests {
    use super::*;
    use crate::types::{CqeOpcode, CqeStatus};
    use membuf::pool::PoolConfig;

    struct Env {
        fabric: Fabric,
        sim: Sim,
        pool: BufferPool,
        cq_a: CqId,
        rq_b: RqId,
        h: QpHandle,
        peer: QpHandle,
    }

    fn env() -> Env {
        let fabric = Fabric::new(RdmaCosts::default());
        let mut sim = Sim::new();
        let a = fabric.add_node();
        let b = fabric.add_node();
        let t = TenantId(1);
        let mut cfg = PoolConfig::new(t, 0, 1024, 16);
        cfg.segment_size = 16 * 1024;
        let pool = BufferPool::new(cfg).unwrap();
        fabric.register_pool(a, pool.clone()).unwrap();
        fabric.register_pool(b, pool.clone()).unwrap();
        let cq_a = fabric.create_cq(a).unwrap();
        let cq_b = fabric.create_cq(b).unwrap();
        let rq_a = fabric.create_rq(a, t).unwrap();
        let rq_b = fabric.create_rq(b, t).unwrap();
        let (h, peer) = fabric
            .connect(&mut sim, t, a, cq_a, rq_a, b, cq_b, rq_b)
            .unwrap();
        sim.run();
        Env {
            fabric,
            sim,
            pool,
            cq_a,
            rq_b,
            h,
            peer,
        }
    }

    #[test]
    fn destroyed_qp_is_a_typed_tombstone() {
        let mut e = env();
        e.fabric.destroy_qp(e.h).unwrap();
        for gone in [e.h, e.peer] {
            assert_eq!(
                e.fabric.destroy_qp(gone).unwrap_err(),
                RdmaError::UnknownQp(gone.qp),
                "destroying twice (from either end) is typed, not a panic"
            );
            assert_eq!(
                e.fabric.set_qp_active(gone, true).unwrap_err(),
                RdmaError::UnknownQp(gone.qp)
            );
            assert_eq!(e.fabric.qp_load(gone), QpLoad::default());
        }
        let buf = e.pool.get().unwrap();
        assert_eq!(
            e.fabric
                .post_send(&mut e.sim, e.h, WrId(1), buf, 0)
                .unwrap_err(),
            RdmaError::UnknownQp(e.h.qp)
        );
        assert_eq!(
            e.pool.stats().free,
            e.pool.capacity(),
            "rejected buf recycled"
        );
        // Ids are never reused: the next connection gets fresh ones.
        let (cq_b, rq_a) = (CqId(1), RqId(0));
        let (h2, _) = e
            .fabric
            .connect(
                &mut e.sim,
                TenantId(1),
                e.h.node,
                e.cq_a,
                rq_a,
                e.peer.node,
                cq_b,
                e.rq_b,
            )
            .unwrap();
        assert!(h2.qp > e.peer.qp);
    }

    #[test]
    fn ids_one_past_the_end_of_each_table_are_typed() {
        let mut e = env();
        let past_qp = QpHandle {
            node: e.h.node,
            qp: QpId(2),
        };
        assert_eq!(
            e.fabric.destroy_qp(past_qp).unwrap_err(),
            RdmaError::UnknownQp(QpId(2))
        );
        assert_eq!(
            e.fabric.inject_qp_error(past_qp).unwrap_err(),
            RdmaError::UnknownQp(QpId(2))
        );
        // A live QP id named through the wrong node does not resolve.
        let wrong_node = QpHandle {
            node: e.peer.node,
            qp: e.h.qp,
        };
        assert_eq!(
            e.fabric.set_qp_active(wrong_node, true).unwrap_err(),
            RdmaError::UnknownQp(e.h.qp)
        );
        let no_node = QpHandle {
            node: NodeId(2),
            qp: e.h.qp,
        };
        assert_eq!(
            e.fabric.destroy_qp(no_node).unwrap_err(),
            RdmaError::UnknownNode(NodeId(2))
        );
        let (past_cq, past_rq) = (CqId(2), RqId(2));
        assert_eq!(
            e.fabric.set_cq_waker(past_cq, Rc::new(|_| {})).unwrap_err(),
            RdmaError::UnknownCq
        );
        assert_eq!(e.fabric.cq_depth(past_cq), 0);
        assert!(e.fabric.poll_one(past_cq).is_none());
        assert!(e.fabric.poll_cq(past_cq, 4).is_empty());
        assert_eq!(
            e.fabric
                .post_recv(past_rq, WrId(0), e.pool.get().unwrap())
                .unwrap_err(),
            RdmaError::UnknownRq
        );
        assert_eq!(e.fabric.rq_depth(past_rq), 0);
        let (a, b, t) = (e.h.node, e.peer.node, TenantId(1));
        assert_eq!(
            e.fabric
                .connect(&mut e.sim, t, a, past_cq, RqId(0), b, CqId(1), e.rq_b)
                .unwrap_err(),
            RdmaError::UnknownCq
        );
        assert_eq!(
            e.fabric
                .connect(&mut e.sim, t, a, e.cq_a, RqId(0), b, CqId(1), past_rq)
                .unwrap_err(),
            RdmaError::UnknownRq
        );
    }

    /// A connection torn down with a send still in flight used to panic at
    /// delivery ("sender QP exists"); now the WR is flushed back to its
    /// poster in error, carrying the buffer home.
    #[test]
    fn send_in_flight_on_a_destroyed_qp_completes_in_error() {
        let mut e = env();
        e.fabric
            .post_recv(e.rq_b, WrId(9), e.pool.get().unwrap())
            .unwrap();
        e.fabric
            .post_send(&mut e.sim, e.h, WrId(7), e.pool.get().unwrap(), 0xab)
            .unwrap();
        e.fabric.destroy_qp(e.h).unwrap();
        e.sim.run();
        let cqe = e.fabric.poll_one(e.cq_a).expect("flushed completion");
        assert_eq!(cqe.wr_id, WrId(7));
        assert_eq!(cqe.opcode, CqeOpcode::Send);
        assert_eq!(cqe.status, CqeStatus::TransportRetryExceeded);
        assert_eq!(cqe.imm, 0xab);
        assert!(cqe.buf.is_some(), "the buffer rides the error CQE home");
        assert!(e.fabric.poll_one(e.cq_a).is_none());
        assert_eq!(e.fabric.rq_depth(e.rq_b), 1, "the receive stays posted");
    }

    #[test]
    fn poll_one_dequeues_in_order() {
        let mut e = env();
        for i in 0..3u64 {
            e.fabric
                .post_recv(e.rq_b, WrId(100 + i), e.pool.get().unwrap())
                .unwrap();
            e.fabric
                .post_send(&mut e.sim, e.h, WrId(i), e.pool.get().unwrap(), 0)
                .unwrap();
        }
        e.sim.run();
        assert_eq!(e.fabric.cq_depth(e.cq_a), 3);
        for i in 0..3u64 {
            assert_eq!(e.fabric.poll_one(e.cq_a).unwrap().wr_id, WrId(i));
        }
        assert!(e.fabric.poll_one(e.cq_a).is_none());
    }
}
