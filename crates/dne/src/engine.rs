//! The engine's public handle and the driver behind it.
//!
//! One [`Dne`] runs per worker node. Everything it decides is decided by
//! the state machine in `crate::core`, which never sees the simulator;
//! this module is the thin shell around it. [`Dne`]'s methods are the
//! control plane (tenants, routes, endpoints, wire versions, counters) and
//! `drive` is the data plane's only door to the outside: it feeds one
//! input to `Core::step` under a single borrow, drops the borrow, and
//! applies the effects in emission order — the one place in the crate that
//! schedules or cancels an event, posts to the RNIC, connects, calls an
//! endpoint or the failure handler, or talks to another node's engine.
//!
//! The engine is processor-agnostic: configured with
//! [`ProcessorKind::DpuArm`] and Comch IPC it is NADINO (DNE); with
//! [`ProcessorKind::HostCpu`] and SK_MSG IPC it is NADINO (CNE); with
//! [`OffloadMode::OnPath`] it stages payloads through the SoC DMA engine.
//!
//! [`ProcessorKind::DpuArm`]: dpu_sim::soc::ProcessorKind::DpuArm
//! [`ProcessorKind::HostCpu`]: dpu_sim::soc::ProcessorKind::HostCpu
//! [`OffloadMode::OnPath`]: crate::types::OffloadMode::OnPath

use std::cell::{Cell, Ref, RefCell, RefMut};
use std::collections::HashMap;
use std::fmt;
use std::rc::{Rc, Weak};

use membuf::descriptor::BufferDesc;
use membuf::export::MappedPool;
use membuf::pool::OwnedBuf;
use membuf::tenant::TenantId;
use obs::Tracer;
use rdma_sim::fabric::{CqId, QpHandle, RqId};
use rdma_sim::{Fabric, NodeId, RdmaError, WrId};
use simcore::{Sim, SimTime};

use crate::core::{Core, Effect, Input};
use crate::types::{DeliveryFailure, DneConfig, DneStats, IpcCosts, TenantFailureStats};

/// Callback by which the engine delivers a descriptor to a host function.
pub type FnEndpoint = Rc<dyn Fn(&mut Sim, BufferDesc)>;

/// Callback by which the engine reports a delivery failure upstream once
/// recovery (retry, failover, reconnect) is exhausted.
pub type DeliveryFailureHandler = Rc<dyn Fn(&mut Sim, DeliveryFailure)>;

/// Errors surfaced by engine control-plane calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DneError {
    /// The tenant was not registered with this engine.
    UnknownTenant(TenantId),
    /// The tenant is already registered.
    TenantExists(TenantId),
    /// An underlying RDMA verb failed.
    Rdma(RdmaError),
}

impl fmt::Display for DneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DneError::UnknownTenant(t) => write!(f, "tenant {t} not registered"),
            DneError::TenantExists(t) => write!(f, "tenant {t} already registered"),
            DneError::Rdma(e) => write!(f, "rdma error: {e}"),
        }
    }
}

impl std::error::Error for DneError {}

impl From<RdmaError> for DneError {
    fn from(e: RdmaError) -> Self {
        DneError::Rdma(e)
    }
}

/// Exemplar-carrying fleet histogram sinks the cluster may register so the
/// engine's latency sites feed the windowed rollup directly, alongside the
/// always-on [`DneStats`] histograms. Sampled requests attach
/// `(trace_id, span_id)` exemplars to the bucket their observation lands in.
#[derive(Clone)]
pub struct DneObsSink {
    /// DWRR queue wait (submit → dequeue).
    pub tx_queue_wait: obs::HistogramHandle,
    /// First post → final successful completion, for retried sends.
    pub retry_latency: obs::HistogramHandle,
    /// RNIC post → CQE.
    pub post_to_completion: obs::HistogramHandle,
}

/// What a [`Dne`] handle points at: the state machine, and beside it the
/// few things only the driver touches while no step is running.
struct Engine {
    core: RefCell<Core>,
    node: NodeId,
    cq: CqId,
    fabric: Fabric,
    /// The effect buffer, reused across [`drive`] calls so the steady state
    /// allocates nothing (a nested `drive` finds it taken and starts empty).
    effects: Cell<Vec<Effect>>,
    failure_handler: RefCell<Option<DeliveryFailureHandler>>,
    /// The engines `connect_pair` wired this one to: where `PeerConnAdded`
    /// is delivered.
    peers: RefCell<HashMap<NodeId, Weak<Engine>>>,
}

impl Engine {
    fn borrow(&self) -> Ref<'_, Core> {
        self.core.borrow()
    }

    fn borrow_mut(&self) -> RefMut<'_, Core> {
        self.core.borrow_mut()
    }

    /// Records how to reach `peer`'s engine for `tenant`, so a pool that
    /// later runs dry (every QP errored) can reconnect in the background.
    fn link_peer(&self, tenant: TenantId, peer: &Rc<Engine>, peer_rq: RqId) {
        self.borrow_mut()
            .link_peer(tenant, peer.node, peer.cq, peer_rq);
        self.peers
            .borrow_mut()
            .insert(peer.node, Rc::downgrade(peer));
    }
}

/// Feeds `input` to the engine's state machine and applies what it asks
/// for, in the order it asked.
fn drive(rc: &Rc<Engine>, sim: &mut Sim, input: Input) {
    let mut out = rc.effects.take();
    rc.borrow_mut().step(sim.now(), input, &mut out);
    for effect in out.drain(..) {
        match effect {
            Effect::PostSend {
                qp,
                wr,
                buf,
                imm,
                at,
            } if at > sim.now() => {
                let rc = rc.clone();
                sim.schedule_at(at, move |sim| hand_to_rnic(&rc, sim, qp, wr, buf, imm));
            }
            Effect::PostSend {
                qp, wr, buf, imm, ..
            } => hand_to_rnic(rc, sim, qp, wr, buf, imm),
            Effect::Deliver { ep, desc, latency } => {
                sim.schedule_after(latency, move |sim| ep(sim, desc));
            }
            Effect::After(delay, input) => {
                let rc = rc.clone();
                sim.schedule_after(delay, move |sim| drive(&rc, sim, input));
            }
            Effect::ArmRetry { id, backoff } => {
                let rc2 = rc.clone();
                let fire = move |sim: &mut Sim| drive(&rc2, sim, Input::RetryTimer(id));
                let timer = sim.schedule_after(backoff, fire);
                rc.borrow_mut().retry_armed(id, timer);
            }
            Effect::CancelTimer(timer) => {
                sim.cancel(timer);
            }
            Effect::Connect {
                tenant,
                peer,
                rq,
                peer_cq,
                peer_rq,
            } => reconnect(rc, sim, tenant, peer, (rq, peer_cq, peer_rq)),
            Effect::PeerConnAdded {
                peer,
                tenant,
                handle,
            } => {
                let engine = rc.peers.borrow().get(&peer).and_then(Weak::upgrade);
                if let Some(engine) = engine {
                    let peer = rc.node;
                    let announce = Input::PeerConn {
                        tenant,
                        peer,
                        handle,
                    };
                    drive(&engine, sim, announce);
                }
            }
            Effect::Fail(failure) => {
                let handler = rc.failure_handler.borrow().clone();
                if let Some(h) = handler {
                    h(sim, failure);
                }
            }
            Effect::Then(input) => drive(rc, sim, input),
        }
    }
    rc.effects.set(out);
}

/// Establishes a fresh connection for a dry `(tenant, peer)` pool — the
/// full tens-of-ms RC establishment — and tells the state machine how it
/// went.
#[cold]
fn reconnect(
    rc: &Rc<Engine>,
    sim: &mut Sim,
    tenant: TenantId,
    peer: NodeId,
    (rq, peer_cq, peer_rq): (RqId, CqId, RqId),
) {
    let (fabric, node, cq) = (&rc.fabric, rc.node, rc.cq);
    let answer = match fabric.connect(sim, tenant, node, cq, rq, peer, peer_cq, peer_rq) {
        Ok((local, remote)) => Input::Connected {
            tenant,
            peer,
            local,
            remote,
        },
        Err(_) => Input::ReconnectFailed { tenant, peer },
    };
    drive(rc, sim, answer);
}

/// Posts one send; a synchronous refusal goes back to the state machine.
fn hand_to_rnic(rc: &Rc<Engine>, sim: &mut Sim, qp: QpHandle, wr: WrId, buf: OwnedBuf, imm: u64) {
    if rc.fabric.post_send(sim, qp, wr, buf, imm).is_err() {
        drive(rc, sim, Input::PostFailed(wr));
    }
}

/// A node's network engine instance.
///
/// Cloning clones a handle to the same engine.
#[derive(Clone)]
pub struct Dne {
    inner: Rc<Engine>,
}

impl Dne {
    /// Creates an engine on `node`, wiring its shared CQ into the fabric.
    pub fn new(fabric: Fabric, node: NodeId, cfg: DneConfig) -> Result<Dne, DneError> {
        let cq = fabric.create_cq(node)?;
        let inner = Rc::new(Engine {
            core: RefCell::new(Core::new(fabric.clone(), node, cq, cfg)),
            node,
            cq,
            fabric: fabric.clone(),
            effects: Cell::default(),
            failure_handler: RefCell::default(),
            peers: RefCell::default(),
        });
        let weak = Rc::downgrade(&inner);
        fabric.set_cq_waker(
            cq,
            Rc::new(move |sim| {
                // A busy engine polls the CQ itself when it retires an item.
                if let Some(rc) = weak.upgrade().filter(|rc| rc.borrow().has_idle_core()) {
                    drive(&rc, sim, Input::Wake);
                }
            }),
        )?;
        Ok(Dne { inner })
    }

    /// Returns the node this engine serves.
    pub fn node(&self) -> NodeId {
        self.inner.node
    }

    /// Returns the engine's IPC cost model (host functions charge the
    /// host-side component themselves).
    pub fn ipc_costs(&self) -> IpcCosts {
        self.inner.borrow().ipc.clone()
    }

    /// Registers a tenant: registers its (cross-processor mapped) pool with
    /// the RNIC, creates the tenant's shared RQ, pre-posts receive buffers
    /// and registers the tenant with the TX scheduler.
    pub fn register_tenant(
        &self,
        tenant: TenantId,
        weight: u32,
        mapped: &MappedPool,
    ) -> Result<(), DneError> {
        self.inner
            .borrow_mut()
            .register_tenant(tenant, weight, mapped)
    }

    /// Returns the tenant's shared RQ (used when connecting peers).
    pub fn tenant_rq(&self, tenant: TenantId) -> Result<RqId, DneError> {
        let core = self.inner.borrow();
        let state = core.tenants.get(tenant.0.into());
        state.map(|t| t.rq).ok_or(DneError::UnknownTenant(tenant))
    }

    /// Installs a function placement in the routing table.
    pub fn set_route(&self, fn_id: u16, node: NodeId) {
        self.inner.borrow_mut().routing.set(fn_id, node);
    }

    /// Installs a standby replica route for a function (used only after a
    /// health-driven fail-over switches to it).
    pub fn set_backup_route(&self, fn_id: u16, node: NodeId) {
        self.inner.borrow_mut().routing.set_backup(fn_id, node);
    }

    /// The node `fn_id` is routed at — the raw route, down or not.
    pub fn route_of(&self, fn_id: u16) -> Option<NodeId> {
        self.inner.borrow().routing.lookup(fn_id)
    }

    /// The function's standby replica node, if one is installed.
    pub fn backup_route_of(&self, fn_id: u16) -> Option<NodeId> {
        self.inner.borrow().routing.backup_of(fn_id)
    }

    /// Re-points every function routed to `failed` at its backup replica.
    /// Returns the switched function ids (sorted, deterministic).
    pub fn fail_over_node(&self, failed: NodeId) -> Vec<u16> {
        self.inner.borrow_mut().routing.fail_over(failed)
    }

    /// Restores primaries displaced from `node` by an earlier fail-over.
    /// Returns the restored function ids (sorted, deterministic).
    pub fn restore_node(&self, node: NodeId) -> Vec<u16> {
        self.inner.borrow_mut().routing.restore(node)
    }

    /// Function ids stranded at `node` after a fail-over found no healthy
    /// alternative (they resolve `DestinationDown` until a target
    /// recovers). Sorted; empty when the node is up.
    pub fn stranded_on(&self, node: NodeId) -> Vec<u16> {
        self.inner.borrow().routing.stranded_on(node)
    }

    /// The CTX wire version this engine stamps and understands.
    pub fn wire_version(&self) -> u8 {
        self.inner.borrow().cfg.wire_version
    }

    /// Switches the engine to a new CTX wire version — the moment a
    /// rolling upgrade (or rollback) lands on this node. Takes effect from
    /// the next stamp; in-flight payloads keep the version they carry.
    pub fn set_wire_version(&self, version: u8) {
        self.inner.borrow_mut().cfg.wire_version = version;
    }

    /// Records the control-plane-announced CTX version of a peer node.
    /// Sends toward that peer are stamped at `min(own, peer)` so the
    /// receiver's parser owns every byte it reads.
    pub fn set_peer_wire_version(&self, peer: NodeId, version: u8) {
        let mut core = self.inner.borrow_mut();
        let versions = &mut core.peer_versions;
        if versions.len() <= peer.0 as usize {
            versions.resize(peer.0 as usize + 1, obs::ctx::CTX_CURRENT);
        }
        versions[peer.0 as usize] = version;
    }

    /// The negotiated stamp version toward `peer` (`min(own, announced)`;
    /// an unannounced peer is assumed current).
    pub fn effective_wire_version(&self, peer: NodeId) -> u8 {
        self.inner.borrow().effective_wire_version(peer)
    }

    /// Everything the engine still owes work for: queued TX descriptors,
    /// CQEs waiting in the completion queue, worker items on cores, posted
    /// sends awaiting completions, and parked retries. The drain loop of
    /// the fleet controller polls this toward zero before taking the node
    /// out of service.
    pub fn inflight_total(&self) -> usize {
        self.inner.borrow().inflight_total()
    }

    /// Registers the delivery endpoint of a local function.
    pub fn register_endpoint(&self, fn_id: u16, endpoint: FnEndpoint) {
        let mut core = self.inner.borrow_mut();
        core.endpoints.insert(fn_id.into(), endpoint);
    }

    /// Establishes `n` pooled RC connections between two engines for a
    /// tenant (both engines must share the same fabric and have the tenant
    /// registered).
    pub fn connect_pair(
        sim: &mut Sim,
        a: &Dne,
        b: &Dne,
        tenant: TenantId,
        n: usize,
    ) -> Result<(), DneError> {
        let (ea, eb) = (&a.inner, &b.inner);
        let rq_a = a.tenant_rq(tenant)?;
        let rq_b = b.tenant_rq(tenant)?;
        for _ in 0..n {
            let (ha, hb) = ea
                .fabric
                .connect(sim, tenant, ea.node, ea.cq, rq_a, eb.node, eb.cq, rq_b)?;
            ea.borrow_mut().conns.add(tenant, eb.node, ha, sim.now());
            eb.borrow_mut().conns.add(tenant, ea.node, hb, sim.now());
        }
        ea.link_peer(tenant, eb, rq_b);
        eb.link_peer(tenant, ea, rq_a);
        Ok(())
    }

    /// Accepts a descriptor from a host function (the I/O library's
    /// inter-node path). The descriptor crosses the IPC boundary with the
    /// configured one-way latency before entering the TX scheduler.
    pub fn submit(&self, sim: &mut Sim, tenant: TenantId, desc: BufferDesc) {
        drive(&self.inner, sim, Input::Submit { tenant, desc });
    }

    /// Installs the callback invoked when a send exhausts its recovery
    /// budget. All clones of this engine share the handler.
    pub fn set_failure_handler(&self, handler: DeliveryFailureHandler) {
        *self.inner.failure_handler.borrow_mut() = Some(handler);
    }

    /// Reports a failure discovered *outside* the engine (e.g. the runtime
    /// cancelling an expired request at function dispatch) through the
    /// engine's installed failure handler, so every failure — transport or
    /// deadline — reaches the same upstream sink. Deadline cancellations
    /// are folded into the engine's deadline accounting.
    pub fn report_failure(&self, sim: &mut Sim, failure: DeliveryFailure) {
        drive(&self.inner, sim, Input::Report(failure));
    }

    /// Returns per-tenant failure accounting (drops, retries, give-ups).
    pub fn tenant_failure_stats(&self, tenant: TenantId) -> TenantFailureStats {
        let core = self.inner.borrow();
        let state = core.tenants.get(tenant.0.into());
        state.map(|t| t.failures).unwrap_or_default()
    }

    /// Returns a snapshot of the engine's statistics.
    pub fn stats(&self) -> DneStats {
        self.inner.borrow().stats.clone()
    }

    /// Attaches a span tracer; pass [`Tracer::disabled`] to turn tracing
    /// back off. All clones of this engine share the tracer.
    pub fn set_tracer(&self, tracer: Tracer) {
        self.inner.borrow_mut().tracer = tracer;
    }

    /// Returns a handle to the engine's tracer.
    pub fn tracer(&self) -> Tracer {
        self.inner.borrow().tracer.clone()
    }

    /// Registers fleet histogram sinks (with exemplars) for the engine's
    /// latency sites.
    pub fn set_obs_sink(&self, sink: DneObsSink) {
        self.inner.borrow_mut().obs_sink = Some(sink);
    }

    /// Per-pipeline-stage busy core-nanoseconds of the engine's SoC
    /// processor, in first-use order.
    pub fn stage_busy(&self) -> Vec<(&'static str, u128)> {
        self.inner.borrow().processor.stage_busy().to_vec()
    }

    /// Returns the engine's total work backlog (TX queue + unpolled CQEs) —
    /// the occupancy of the engine's side of the Comch channel.
    pub fn queued(&self) -> usize {
        self.inner.borrow().queued()
    }

    /// Returns the tenant's current TX-queue backlog.
    pub fn tenant_backlog(&self, tenant: TenantId) -> usize {
        self.inner.borrow().txq.tenant_backlog(tenant)
    }

    /// Returns the tenant's current DWRR deficit (`None` under FCFS or for
    /// unknown tenants).
    pub fn dwrr_deficit(&self, tenant: TenantId) -> Option<f64> {
        self.inner.borrow().txq.deficit_of(tenant)
    }

    /// Returns `(hits, misses)` of the connection pool's shadow-QP picker.
    pub fn conn_hit_miss(&self) -> (u64, u64) {
        self.inner.borrow().conns.hit_miss()
    }

    /// Returns how many idle QPs the completion reaper has deactivated.
    pub fn conn_deactivations(&self) -> u64 {
        self.inner.borrow().conns.deactivations()
    }

    /// Returns how many active QPs the capacity bound has demoted back to
    /// shadow state (LRU evictions — the thrash signal).
    pub fn conn_evictions(&self) -> u64 {
        self.inner.borrow().conns.evictions()
    }

    /// Returns how many pooled connections idle-age teardown destroyed.
    pub fn conn_teardowns(&self) -> u64 {
        self.inner.borrow().conns.teardowns()
    }

    /// Returns `(hits, misses)` of the shadow-QP picker for one tenant.
    pub fn conn_hit_miss_of(&self, tenant: TenantId) -> (u64, u64) {
        self.inner.borrow().conns.hit_miss_of(tenant)
    }

    /// Returns the tenants registered with this engine, sorted.
    pub fn tenant_ids(&self) -> Vec<TenantId> {
        let core = self.inner.borrow();
        let mut ids: Vec<TenantId> = core
            .tenants
            .iter()
            .map(|(t, _)| TenantId(t as u16))
            .collect();
        ids.sort();
        ids
    }

    /// Returns engine core utilization over `[a, b]` (0..=cores).
    pub fn utilization_cores(&self, a: SimTime, b: SimTime) -> f64 {
        self.inner.borrow().processor.utilization_cores(a, b)
    }

    /// Returns the number of work items processed.
    pub fn items_processed(&self) -> u64 {
        self.inner.borrow().processor.jobs()
    }
}

// Reached by the test modules below through `use super::*`.
#[cfg(test)]
use {membuf::pool::BufferPool, obs::Stage};

#[cfg(test)]
mod tests {
    use super::*;
    use dpu_sim::mmap::doca_mmap_export_full;
    use membuf::pool::PoolConfig;
    use rdma_sim::RdmaCosts;
    use std::cell::RefCell as StdRefCell;

    fn mk_pool(tenant: u16) -> BufferPool {
        let mut cfg = PoolConfig::new(TenantId(tenant), 0, 8192, 512);
        cfg.segment_size = 512 * 1024;
        BufferPool::new(cfg).unwrap()
    }

    fn mapped(pool: &BufferPool) -> MappedPool {
        dpu_mmap(pool)
    }

    fn dpu_mmap(pool: &BufferPool) -> MappedPool {
        dpu_sim::mmap::doca_mmap_create_from_export(&doca_mmap_export_full(pool).unwrap()).unwrap()
    }

    struct TwoNodes {
        sim: Sim,
        dne_a: Dne,
        dne_b: Dne,
        pool_a: BufferPool,
        pool_b: BufferPool,
        tenant: TenantId,
    }

    /// Two nodes, one tenant, fn 1 on node A and fn 2 on node B.
    fn setup(cfg: DneConfig) -> TwoNodes {
        let fabric = Fabric::new(RdmaCosts::default());
        let mut sim = Sim::new();
        let a = fabric.add_node();
        let b = fabric.add_node();
        let tenant = TenantId(1);
        let pool_a = mk_pool(1);
        let pool_b = mk_pool(1);
        let dne_a = Dne::new(fabric.clone(), a, cfg.clone()).unwrap();
        let dne_b = Dne::new(fabric, b, cfg).unwrap();
        dne_a.register_tenant(tenant, 1, &mapped(&pool_a)).unwrap();
        dne_b.register_tenant(tenant, 1, &mapped(&pool_b)).unwrap();
        for d in [&dne_a, &dne_b] {
            d.set_route(1, a);
            d.set_route(2, b);
        }
        Dne::connect_pair(&mut sim, &dne_a, &dne_b, tenant, 2).unwrap();
        sim.run(); // connections come up
        TwoNodes {
            sim,
            dne_a,
            dne_b,
            pool_a,
            pool_b,
            tenant,
        }
    }

    #[test]
    fn descriptor_crosses_nodes_end_to_end() {
        let mut env = setup(DneConfig::nadino_dne());
        let received: Rc<StdRefCell<Vec<Vec<u8>>>> = Rc::new(StdRefCell::new(Vec::new()));
        let sink = received.clone();
        let pool_b = env.pool_b.clone();
        env.dne_b.register_endpoint(
            2,
            Rc::new(move |_sim, desc| {
                let buf = pool_b.redeem(desc).expect("valid descriptor");
                sink.borrow_mut().push(buf.as_slice().to_vec());
            }),
        );
        // Function 1 on node A sends a payload to function 2 on node B.
        let mut buf = env.pool_a.get().unwrap();
        buf.write_payload(b"hello across nodes").unwrap();
        let desc = buf.into_desc(2);
        env.dne_a.submit(&mut env.sim, env.tenant, desc);
        env.sim.run();
        assert_eq!(received.borrow().len(), 1);
        assert_eq!(received.borrow()[0], b"hello across nodes");
        let sa = env.dne_a.stats();
        assert_eq!(sa.submitted, 1);
        assert_eq!(sa.tx_posted, 1);
        assert_eq!(sa.send_completions, 1);
        let sb = env.dne_b.stats();
        assert_eq!(sb.rx_delivered, 1);
        assert_eq!(sb.drops, 0);
        // Sender buffer was recycled after the send completion (the other
        // 256 buffers sit pre-posted in the receive queue).
        let prepost = DneConfig::nadino_dne().prepost_depth as u32;
        assert_eq!(env.pool_a.stats().free, env.pool_a.capacity() - prepost);
    }

    #[test]
    fn echo_latency_matches_paper_calibration() {
        // Fig. 12: two DNEs as echo client/server, two-sided RDMA, 64 B
        // messages → ~8.4us RTT.
        let mut env = setup(DneConfig::nadino_dne());
        let done_at: Rc<StdRefCell<Option<SimTime>>> = Rc::new(StdRefCell::new(None));

        // Echo server on node B: bounce the payload back to fn 1.
        let pool_b = env.pool_b.clone();
        let dne_b = env.dne_b.clone();
        let tenant = env.tenant;
        env.dne_b.register_endpoint(
            2,
            Rc::new(move |sim, desc| {
                let buf = pool_b.redeem(desc).expect("valid");
                dne_b.submit(sim, tenant, buf.into_desc(1));
            }),
        );
        // Client completion on node A.
        let pool_a = env.pool_a.clone();
        let done = done_at.clone();
        env.dne_a.register_endpoint(
            1,
            Rc::new(move |sim, desc| {
                let _ = pool_a.redeem(desc).expect("valid");
                *done.borrow_mut() = Some(sim.now());
            }),
        );
        let start = env.sim.now();
        let mut buf = env.pool_a.get().unwrap();
        buf.write_payload(&[7u8; 64]).unwrap();
        env.dne_a.submit(&mut env.sim, env.tenant, buf.into_desc(2));
        env.sim.run();
        let finish = done_at.borrow().expect("echo completed");
        let rtt = (finish - start).as_micros_f64();
        // The Comch hop is part of the function path, not the Fig. 12 echo
        // (which runs inside the DNEs); accept a broad band here and let the
        // experiment code measure the exact configuration.
        assert!(rtt > 5.0 && rtt < 40.0, "echo RTT = {rtt}us");
    }

    #[test]
    fn local_route_stays_on_node() {
        let mut env = setup(DneConfig::nadino_dne());
        let got: Rc<StdRefCell<u32>> = Rc::new(StdRefCell::new(0));
        let sink = got.clone();
        let pool_a = env.pool_a.clone();
        env.dne_a.register_endpoint(
            1,
            Rc::new(move |_sim, desc| {
                let _ = pool_a.redeem(desc).unwrap();
                *sink.borrow_mut() += 1;
            }),
        );
        // fn 1 is on node A; submitting to the engine with dst=1 loops back.
        let buf = env.pool_a.get().unwrap();
        env.dne_a.submit(&mut env.sim, env.tenant, buf.into_desc(1));
        env.sim.run();
        assert_eq!(*got.borrow(), 1);
        let (tx, _, _) = {
            let f = {
                let i = env.dne_a.inner.borrow();
                i.fabric.clone()
            };
            f.node_counters(NodeId(0))
        };
        assert_eq!(tx, 0, "no RDMA message was sent");
    }

    #[test]
    fn unknown_route_drops_and_recycles() {
        let mut env = setup(DneConfig::nadino_dne());
        let buf = env.pool_a.get().unwrap();
        env.dne_a
            .submit(&mut env.sim, env.tenant, buf.into_desc(99));
        env.sim.run();
        assert_eq!(env.dne_a.stats().drops, 1);
        let prepost = DneConfig::nadino_dne().prepost_depth as u32;
        assert_eq!(env.pool_a.stats().free, env.pool_a.capacity() - prepost);
    }

    #[test]
    fn missing_endpoint_on_receiver_drops_and_recycles() {
        let mut env = setup(DneConfig::nadino_dne());
        let buf = env.pool_a.get().unwrap();
        env.dne_a.submit(&mut env.sim, env.tenant, buf.into_desc(2));
        env.sim.run();
        assert_eq!(env.dne_b.stats().drops, 1);
        // All of B's non-preposted buffers are back (prepost steady state:
        // the consumed receive buffer was replenished from the free list).
        let prepost = DneConfig::nadino_dne().prepost_depth as u32;
        let stats = env.pool_b.stats();
        assert_eq!(stats.free, env.pool_b.capacity() - prepost);
    }

    #[test]
    fn duplicate_tenant_registration_fails() {
        let env = setup(DneConfig::nadino_dne());
        let err = env
            .dne_a
            .register_tenant(env.tenant, 1, &mapped(&env.pool_a))
            .unwrap_err();
        assert_eq!(err, DneError::TenantExists(env.tenant));
    }

    #[test]
    fn on_path_is_slower_than_off_path() {
        let run = |cfg: DneConfig| -> f64 {
            let mut env = setup(cfg);
            let done_at: Rc<StdRefCell<Option<SimTime>>> = Rc::new(StdRefCell::new(None));
            let pool_b = env.pool_b.clone();
            let dne_b = env.dne_b.clone();
            let tenant = env.tenant;
            env.dne_b.register_endpoint(
                2,
                Rc::new(move |sim, desc| {
                    let buf = pool_b.redeem(desc).expect("valid");
                    dne_b.submit(sim, tenant, buf.into_desc(1));
                }),
            );
            let pool_a = env.pool_a.clone();
            let done = done_at.clone();
            env.dne_a.register_endpoint(
                1,
                Rc::new(move |sim, desc| {
                    let _ = pool_a.redeem(desc).unwrap();
                    *done.borrow_mut() = Some(sim.now());
                }),
            );
            let start = env.sim.now();
            let mut buf = env.pool_a.get().unwrap();
            buf.write_payload(&[1u8; 1024]).unwrap();
            env.dne_a.submit(&mut env.sim, env.tenant, buf.into_desc(2));
            env.sim.run();
            let finish = done_at.borrow().unwrap();
            (finish - start).as_micros_f64()
        };
        let off = run(DneConfig::nadino_dne());
        let on = run(DneConfig::on_path_dne());
        assert!(
            on > off,
            "on-path ({on}us) must be slower than off-path ({off}us)"
        );
    }

    #[test]
    fn tracing_records_pipeline_stages_and_stage_histograms() {
        let mut env = setup(DneConfig::nadino_dne());
        let tracer = Tracer::enabled();
        env.dne_a.set_tracer(tracer.clone());
        env.dne_b.set_tracer(tracer.clone());
        let pool_b = env.pool_b.clone();
        env.dne_b.register_endpoint(
            2,
            Rc::new(move |_sim, desc| {
                let _ = pool_b.redeem(desc).expect("valid descriptor");
            }),
        );
        // Request-id convention: first eight payload bytes, little-endian.
        // The test plays ingress: it stamps the sampled bit the gateway
        // would normally decide at admission.
        let mut payload = [0u8; obs::CTX_REGION];
        payload[..8].copy_from_slice(&42u64.to_le_bytes());
        obs::ctx::write_ctx(&mut payload, 0, true);
        let mut buf = env.pool_a.get().unwrap();
        buf.write_payload(&payload).unwrap();
        env.dne_a.submit(&mut env.sim, env.tenant, buf.into_desc(2));
        env.sim.run();

        let stages = tracer.stages_of(42);
        for want in [
            Stage::ComchSubmit,
            Stage::DwrrQueue,
            Stage::DneTx,
            Stage::ConnPick,
            Stage::Fabric,
            Stage::RxCompletion,
            Stage::RbrRecover,
            Stage::ComchDeliver,
        ] {
            assert!(
                stages.contains(&want),
                "missing stage {want:?} in {stages:?}"
            );
        }
        // Time attribution ranks the expensive legs (Comch crossing and
        // fabric flight) above the instant markers.
        let totals = tracer.stage_totals();
        assert!(totals[0].total_ns > 1_000, "top stage has real duration");
        let fabric = totals.iter().find(|t| t.stage == Stage::Fabric).unwrap();
        assert!(
            fabric.mean_us() > 1.0,
            "fabric leg = {}us",
            fabric.mean_us()
        );

        let stats = env.dne_a.stats();
        assert_eq!(stats.tx_queue_wait.count(), 1);
        assert!(stats.sched_delay.count() >= 2, "TX + send-completion items");
        assert_eq!(stats.post_to_completion.count(), 1);
        assert!(stats.post_to_completion.summary().mean_us > 1.0);

        let (hits, misses) = env.dne_a.conn_hit_miss();
        assert_eq!(hits + misses, 1, "one connection pick");
        assert!(
            env.dne_a.conn_deactivations() >= 1,
            "reaper ran after drain"
        );
    }

    #[test]
    fn disabled_tracer_keeps_behaviour_and_records_nothing() {
        let mut env = setup(DneConfig::nadino_dne());
        let pool_b = env.pool_b.clone();
        env.dne_b.register_endpoint(
            2,
            Rc::new(move |_sim, desc| {
                let _ = pool_b.redeem(desc).expect("valid");
            }),
        );
        let buf = env.pool_a.get().unwrap();
        env.dne_a.submit(&mut env.sim, env.tenant, buf.into_desc(2));
        env.sim.run();
        assert!(env.dne_a.tracer().is_empty());
        // The always-on stage histograms still populate.
        assert_eq!(env.dne_a.stats().post_to_completion.count(), 1);
        assert_eq!(env.dne_b.stats().rx_delivered, 1);
    }

    #[test]
    fn engine_utilization_is_tracked() {
        let mut env = setup(DneConfig::nadino_dne());
        env.dne_b.register_endpoint(2, Rc::new(|_, _| {}));
        let t0 = env.sim.now();
        for _ in 0..50 {
            let buf = env.pool_a.get().unwrap();
            env.dne_a.submit(&mut env.sim, env.tenant, buf.into_desc(2));
        }
        env.sim.run();
        let u = env.dne_a.utilization_cores(t0, env.sim.now());
        assert!(u > 0.0 && u <= 1.0, "utilization = {u}");
        assert!(env.dne_a.items_processed() >= 100, "50 TX + 50 send CQEs");
    }
}
// Failover behaviour under injected connection faults.
#[cfg(test)]
mod failover_tests {
    use super::*;
    use dpu_sim::mmap::{doca_mmap_create_from_export, doca_mmap_export_full};
    use membuf::pool::PoolConfig;
    use rdma_sim::RdmaCosts;
    use simcore::SimDuration;
    use std::cell::RefCell as StdRefCell;

    #[test]
    fn dne_fails_over_to_surviving_connections() {
        let fabric = Fabric::new(RdmaCosts::default());
        let mut sim = Sim::new();
        let a = fabric.add_node();
        let b = fabric.add_node();
        let tenant = TenantId(1);
        let mk_pool = || {
            let mut cfg = PoolConfig::new(tenant, 0, 4096, 256);
            cfg.segment_size = 256 * 1024;
            BufferPool::new(cfg).unwrap()
        };
        let pool_a = mk_pool();
        let pool_b = mk_pool();
        let dne_a = Dne::new(fabric.clone(), a, DneConfig::nadino_dne()).unwrap();
        let dne_b = Dne::new(fabric.clone(), b, DneConfig::nadino_dne()).unwrap();
        for (dne, pool) in [(&dne_a, &pool_a), (&dne_b, &pool_b)] {
            let mapped =
                doca_mmap_create_from_export(&doca_mmap_export_full(pool).unwrap()).unwrap();
            dne.register_tenant(tenant, 1, &mapped).unwrap();
        }
        Dne::connect_pair(&mut sim, &dne_a, &dne_b, tenant, 3).unwrap();
        sim.run();
        dne_a.set_route(2, b);
        dne_b.set_route(2, b);
        let delivered: Rc<StdRefCell<u32>> = Rc::new(StdRefCell::new(0));
        let sink = delivered.clone();
        let pb = pool_b.clone();
        dne_b.register_endpoint(
            2,
            Rc::new(move |_sim, desc| {
                let _ = pb.redeem(desc).unwrap();
                *sink.borrow_mut() += 1;
            }),
        );

        // Break two of the three pooled connections (A-side handles).
        let conns: Vec<QpHandle> = {
            let inner = dne_a.inner.borrow();
            inner.conns.conns(tenant, b).to_vec()
        };
        assert_eq!(conns.len(), 3);
        fabric.inject_qp_error(conns[0]).unwrap();
        fabric.inject_qp_error(conns[1]).unwrap();

        for _ in 0..20 {
            let buf = pool_a.get().unwrap();
            dne_a.submit(&mut sim, tenant, buf.into_desc(2));
        }
        sim.run();
        assert_eq!(*delivered.borrow(), 20, "traffic rides the survivor");
        assert_eq!(dne_a.stats().drops, 0);

        // Break the last connection: the pool runs dry, the send parks, a
        // background reconnect (tens of ms) brings a fresh QP up, and the
        // parked send flushes through it — no drop.
        fabric.inject_qp_error(conns[2]).unwrap();
        let buf = pool_a.get().unwrap();
        dne_a.submit(&mut sim, tenant, buf.into_desc(2));
        sim.run();
        assert_eq!(*delivered.borrow(), 21, "reconnect recovers the send");
        let stats = dne_a.stats();
        assert_eq!(stats.drops, 0, "nothing is lost");
        assert_eq!(stats.reconnects, 1);
        assert_eq!(pool_a.stats().in_flight, 0);
    }

    /// Two engines wired for recovery tests, with the standard fn-2-on-B
    /// routing and a delivery counter on B.
    #[allow(clippy::type_complexity)]
    fn recovery_setup(
        cfg: DneConfig,
        conns: usize,
    ) -> (
        Fabric,
        Sim,
        Dne,
        Dne,
        BufferPool,
        BufferPool,
        TenantId,
        Rc<StdRefCell<u32>>,
    ) {
        let fabric = Fabric::new(RdmaCosts::default());
        let mut sim = Sim::new();
        let a = fabric.add_node();
        let b = fabric.add_node();
        let tenant = TenantId(1);
        let mk_pool = || {
            let mut pc = PoolConfig::new(tenant, 0, 4096, 256);
            pc.segment_size = 256 * 1024;
            BufferPool::new(pc).unwrap()
        };
        let pool_a = mk_pool();
        let pool_b = mk_pool();
        let dne_a = Dne::new(fabric.clone(), a, cfg.clone()).unwrap();
        let dne_b = Dne::new(fabric.clone(), b, cfg).unwrap();
        for (dne, pool) in [(&dne_a, &pool_a), (&dne_b, &pool_b)] {
            let mapped =
                doca_mmap_create_from_export(&doca_mmap_export_full(pool).unwrap()).unwrap();
            dne.register_tenant(tenant, 1, &mapped).unwrap();
        }
        Dne::connect_pair(&mut sim, &dne_a, &dne_b, tenant, conns).unwrap();
        sim.run();
        dne_a.set_route(2, b);
        dne_b.set_route(2, b);
        let delivered: Rc<StdRefCell<u32>> = Rc::new(StdRefCell::new(0));
        let sink = delivered.clone();
        let pb = pool_b.clone();
        dne_b.register_endpoint(
            2,
            Rc::new(move |_sim, desc| {
                let _ = pb.redeem(desc).unwrap();
                *sink.borrow_mut() += 1;
            }),
        );
        (fabric, sim, dne_a, dne_b, pool_a, pool_b, tenant, delivered)
    }

    #[test]
    fn retry_budget_exhaustion_surfaces_typed_failure() {
        use crate::types::{DeliveryFailure, FailureReason, TenantFailureStats};
        let (fabric, mut sim, dne_a, _dne_b, pool_a, _pool_b, tenant, delivered) =
            recovery_setup(DneConfig::nadino_dne(), 2);
        let (a, b) = (NodeId(0), NodeId(1));
        fabric.with_fault_plane(|fp| fp.set_link_loss(a, b, 1.0));
        let failures: Rc<StdRefCell<Vec<DeliveryFailure>>> = Rc::new(StdRefCell::new(Vec::new()));
        let fsink = failures.clone();
        dne_a.set_failure_handler(Rc::new(move |_sim, f| fsink.borrow_mut().push(f)));

        let mut buf = pool_a.get().unwrap();
        buf.write_payload(&77u64.to_le_bytes()).unwrap();
        dne_a.submit(&mut sim, tenant, buf.into_desc(2));
        sim.run();

        assert_eq!(*delivered.borrow(), 0);
        let stats = dne_a.stats();
        assert_eq!(stats.retries, 3, "budget of 3 retries was spent");
        assert_eq!(
            stats.failovers, 3,
            "each retry rode a different QP than the one that failed"
        );
        assert_eq!(stats.give_ups, 1);
        assert_eq!(stats.drops, 1);
        assert_eq!(stats.retry_latency.count(), 1);
        let f = failures.borrow()[0];
        assert_eq!(f.tenant, tenant);
        assert_eq!(f.dst_fn, 2);
        assert_eq!(f.req_id, 77, "failure carries the request id");
        assert_eq!(f.attempts, 4, "initial post + three retries");
        assert_eq!(f.reason, FailureReason::RetryBudgetExhausted);
        assert_eq!(
            dne_a.tenant_failure_stats(tenant),
            TenantFailureStats {
                drops: 1,
                retries: 3,
                give_ups: 1,
                deadline_drops: 0,
            }
        );
        // The abandoned send's buffer was recycled, not leaked.
        assert_eq!(pool_a.stats().in_flight, 0);
    }

    /// A reconnect that lands anywhere around a parked retry's backoff
    /// window — before the send failed, while its timer is pending, after
    /// the timer fired — delivers every send exactly once. The second send
    /// is submitted at each offset in a 30 µs span so the flush meets the
    /// timer in every one of those states.
    #[test]
    fn reconnect_flush_around_a_backoff_timer_delivers_each_send_once() {
        let us = SimDuration::from_micros;
        let (mut cancelled, mut fired) = (0, 0);
        for offset in 0..30 {
            let (fabric, mut sim, dne_a, dne_b, pool_a, _pool_b, tenant, delivered) =
                recovery_setup(DneConfig::nadino_dne(), 1);
            let b = NodeId(1);
            let first: Vec<QpHandle> = dne_a.inner.borrow().conns.conns(tenant, b).to_vec();
            // A second connection, ready one connect delay from now.
            Dne::connect_pair(&mut sim, &dne_a, &dne_b, tenant, 1).unwrap();
            let second_ready = sim.now() + fabric.costs().connect_delay;
            // Node B is dark for the first 40 µs of that connection's life.
            fabric.schedule_node_outage(b, second_ready, second_ready + us(40));

            // 75 µs in, the only ready QP dies: this send parks on a
            // reconnect that comes up ~77 µs after the second connection.
            sim.run_for(us(75));
            fabric.inject_qp_error(first[0]).unwrap();
            let buf = pool_a.get().unwrap();
            dne_a.submit(&mut sim, tenant, buf.into_desc(2));

            // This one rides the second connection into the outage, fails
            // ~55 µs later and parks behind a 10 µs backoff timer.
            sim.run_until(second_ready + us(offset));
            let before = sim.profile().cancelled_events;
            let buf = pool_a.get().unwrap();
            dne_a.submit(&mut sim, tenant, buf.into_desc(2));
            sim.run();

            assert_eq!(*delivered.borrow(), 2, "offset {offset}: loss or duplicate");
            let stats = dne_a.stats();
            assert_eq!((stats.drops, stats.reconnects), (0, 1), "offset {offset}");
            assert_eq!(
                stats.retries, 1,
                "offset {offset}: the flush never re-parks"
            );
            assert_eq!(pool_a.stats().in_flight, 0, "offset {offset}");
            if sim.profile().cancelled_events > before {
                cancelled += 1;
            } else {
                fired += 1;
            }
        }
        assert!(
            cancelled > 0,
            "no offset had the flush overtake a pending timer"
        );
        assert!(fired > 0, "no offset let the timer fire on its own");
    }
}
