//! The run-to-completion network engine.
//!
//! One [`Dne`] instance runs per worker node. Work items — TX descriptors
//! arriving from host functions over IPC, and RX/send completions polled
//! from the node's single shared CQ — are dispatched one at a time onto the
//! engine's processor, reproducing the paper's non-blocking
//! run-to-completion loop (Fig. 8). Dispatch order is: completions first
//! (they recycle buffers), then TX descriptors in the order chosen by the
//! tenant scheduler (DWRR or FCFS).
//!
//! The engine is processor-agnostic: configured with
//! [`ProcessorKind::DpuArm`] and Comch IPC it is NADINO (DNE); with
//! [`ProcessorKind::HostCpu`] and SK_MSG IPC it is NADINO (CNE); with
//! [`OffloadMode::OnPath`] it stages payloads through the SoC DMA engine.
//!
//! [`ProcessorKind::DpuArm`]: dpu_sim::soc::ProcessorKind::DpuArm
//! [`ProcessorKind::HostCpu`]: dpu_sim::soc::ProcessorKind::HostCpu
//! [`OffloadMode::OnPath`]: crate::types::OffloadMode::OnPath

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::rc::{Rc, Weak};

use dpu_sim::dma::SocDma;
use dpu_sim::soc::Processor;
use membuf::descriptor::BufferDesc;
use membuf::export::MappedPool;
use membuf::pool::{BufferPool, OwnedBuf};
use membuf::tenant::TenantId;
use obs::{Stage, Tracer};
use rdma_sim::fabric::{CqId, QpHandle, RqId};
use rdma_sim::types::{Cqe, CqeOpcode, CqeStatus, QpId};
use rdma_sim::{Fabric, NodeId, RdmaError};
use simcore::{IdRing, IdTable, Sim, SimDuration, SimTime, Ticker, TimerHandle};

use crate::connpool::{ConnPool, ElasticConfig};
use crate::rbr::ReceiveBufferRegistry;
use crate::routing::{RouteError, RoutingTable};
use crate::sched::{DwrrScheduler, FcfsScheduler, TenantScheduler};
use crate::types::{
    DeliveryFailure, DneConfig, DneStats, FailureReason, IpcCosts, OffloadMode, SchedPolicy,
    TenantFailureStats,
};

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

/// Packs `(tenant, dst_fn)` into send immediate data.
fn pack_imm(tenant: TenantId, dst_fn: u16) -> u64 {
    ((tenant.0 as u64) << 16) | dst_fn as u64
}

/// Unpacks send immediate data into `(tenant, dst_fn)`.
fn unpack_imm(imm: u64) -> (TenantId, u16) {
    (TenantId((imm >> 16) as u16), imm as u16)
}

/// Reads the request id convention (first eight payload bytes, LE).
fn req_id_of(bytes: &[u8]) -> u64 {
    if bytes.len() >= 8 {
        u64::from_le_bytes(bytes[..8].try_into().expect("checked length"))
    } else {
        0
    }
}

/// Reads the absolute deadline stamped in a payload (see `obs::ctx`), if
/// the payload carries one.
fn deadline_of(bytes: &[u8]) -> Option<SimTime> {
    obs::ctx::read_deadline_ns(bytes).map(SimTime::from_nanos)
}

struct TenantState {
    pool: BufferPool,
    rq: RqId,
    weight: u32,
    tx_count: u64,
    rx_count: u64,
    failures: TenantFailureStats,
}

enum WorkItem {
    Tx(TenantId, BufferDesc),
    Rx(Cqe),
}

/// A TX descriptor queued in the tenant scheduler, stamped with its
/// enqueue instant so dequeue can attribute the queueing delay, plus the
/// trace identity read once at submit (request id and the ingress-decided
/// sampling bit) so the dequeue path never peeks the payload again.
struct TxItem {
    desc: BufferDesc,
    enqueued_at: SimTime,
    req_id: u64,
    sampled: bool,
}

/// The engine's send WR ids count down from `u64::MAX` (receive WR ids,
/// issued by the RBR, grow from the bottom); this recovers the counter.
fn send_seq(wr: rdma_sim::WrId) -> u64 {
    u64::MAX - wr.0
}

/// The identity and retry history of one logical send: it rides on the
/// posted-send record, on the parked retry, and into the typed failure.
#[derive(Clone, Copy)]
struct SendMeta {
    tenant: TenantId,
    dst_fn: u16,
    req_id: u64,
    /// Attempts already completed (0 until the first one fails).
    attempts: u32,
    /// When the *first* attempt of this send was posted (retry latency).
    first_at: SimTime,
}

/// Bookkeeping for an in-flight RNIC send, keyed by WR id, so the send
/// completion can close the fabric span and the post-to-completion
/// histogram, and — on an error CQE — drive the retry pipeline.
struct PostedSend {
    at: SimTime,
    meta: SendMeta,
    /// The node this WR was posted toward. Failure blame must target this
    /// node, not a fresh route lookup — after a failover the lookup points
    /// at the (healthy) backup.
    peer: NodeId,
    /// The ingress sampling decision, cached from the payload's on-wire
    /// bit when the WR was posted: the send completion records its Fabric
    /// span from this without touching the (already recycled) buffer.
    sampled: bool,
}

/// A failed (or not-yet-postable) send parked for a later retry, holding
/// its payload buffer so nothing leaks while the backoff timer runs or a
/// background reconnect brings a connection up.
struct PendingRetry {
    buf: OwnedBuf,
    meta: SendMeta,
    peer: NodeId,
    /// When the send was first parked, so the eventual repost can record
    /// the whole backoff/reconnect wait as a `RetryBackoff` span.
    parked_at: SimTime,
    /// The QP whose send failed; the failover pick steers around it.
    avoid: Option<QpId>,
    /// The pending backoff timer (`None` for retries parked on a reconnect,
    /// which fire when the connection comes up instead).
    timer: Option<TimerHandle>,
}

/// What `connect_pair` recorded about the remote engine so a background
/// reconnect can re-establish a `(tenant, peer)` pool that ran dry.
struct PeerLink {
    cq: CqId,
    rq: RqId,
    engine: Weak<RefCell<Inner>>,
}

/// What the engine decided about an errored send completion.
enum FailedSendOutcome {
    /// Parked under `id`; arm a backoff timer for it.
    Retry { id: u64, backoff: SimDuration },
    /// Recovery exhausted; surface the typed failure.
    Fail(DeliveryFailure),
}

/// Optional exemplar-carrying fleet histogram sinks the cluster may
/// register so the engine's latency sites feed the windowed rollup
/// directly, alongside the always-on [`DneStats`] histograms. Sampled
/// requests attach `(trace_id, span_id)` exemplars to the bucket their
/// observation lands in.
#[derive(Clone, Default)]
pub struct DneObsSink {
    /// DWRR queue wait (submit → dequeue).
    pub tx_queue_wait: Option<obs::HistogramHandle>,
    /// First post → final successful completion, for retried sends.
    pub retry_latency: Option<obs::HistogramHandle>,
    /// RNIC post → CQE.
    pub post_to_completion: Option<obs::HistogramHandle>,
}

struct Inner {
    node: NodeId,
    fabric: Fabric,
    cq: CqId,
    processor: Processor,
    cfg: DneConfig,
    ipc: IpcCosts,
    /// Keyed by `TenantId`.
    tenants: IdTable<TenantState>,
    routing: RoutingTable,
    /// Keyed by function id.
    endpoints: IdTable<FnEndpoint>,
    txq: Box<dyn TenantScheduler<TxItem>>,
    conns: ConnPool,
    rbr: ReceiveBufferRegistry,
    soc_dma: SocDma,
    in_flight: usize,
    stats: DneStats,
    next_send_wr: u64,
    tracer: Tracer,
    /// In-flight sends, keyed by [`send_seq`] of their WR id.
    posted: IdRing<PostedSend>,
    /// Periodic idle-QP reaper, when armed (see [`Dne::start_conn_reaper`]).
    conn_reaper: Option<Ticker>,
    /// Sends parked for retry, keyed by retry id.
    retries: IdRing<PendingRetry>,
    next_retry_id: u64,
    /// `(tenant, peer)` pairs with a background reconnect in flight.
    reconnecting: HashSet<(TenantId, NodeId)>,
    /// Remote-engine wiring recorded at `connect_pair` time, so reconnects
    /// know where to point the new QP.
    peer_links: HashMap<(TenantId, NodeId), PeerLink>,
    failure_handler: Option<DeliveryFailureHandler>,
    obs_sink: DneObsSink,
    /// Per-peer negotiated CTX wire versions, indexed by node id, announced
    /// by the control plane during rolling upgrades. Past the end ⇒ assume
    /// the peer runs the current version (the homogeneous-fleet fast path).
    peer_versions: Vec<u8>,
}

impl Inner {
    fn queued(&self) -> usize {
        self.txq.len() + self.fabric.cq_depth(self.cq)
    }

    /// The CTX version to stamp toward `peer`: the minimum of this
    /// engine's own version and the peer's announced version, so the
    /// receiver's parser owns every byte it reads (negotiation rule of the
    /// versioned wire region — see `obs::ctx`).
    fn effective_wire_version(&self, peer: NodeId) -> u8 {
        let peer_v = self.peer_versions.get(peer.0 as usize).copied();
        self.cfg
            .wire_version
            .min(peer_v.unwrap_or(obs::ctx::CTX_CURRENT))
    }

    /// Reads the payload deadline — but only when this engine's wire
    /// version includes the deadline region. A v1 engine predates
    /// deadlines entirely: during a rolling upgrade it neither cancels nor
    /// drops expired work (the request still terminates upstream, typed,
    /// at a deadline-aware hop or the gateway).
    fn deadline_if_enforced(&self, bytes: &[u8]) -> Option<SimTime> {
        if self.cfg.wire_version < obs::ctx::CTX_V2 {
            return None;
        }
        deadline_of(bytes)
    }

    /// Reads the request id and the ingress-decided sampling bit out of a
    /// still-pooled descriptor (tracing only): one peek of the payload's
    /// ctx-bearing prefix at the submit boundary, cached on the queue item
    /// so no later stage peeks again.
    fn trace_meta_of_desc(&self, tenant: TenantId, desc: BufferDesc) -> (u64, bool) {
        let mut head = [0u8; obs::CTX_REGION];
        self.tenants
            .get(tenant.0.into())
            .and_then(|s| s.pool.peek_payload_into(desc, &mut head))
            .map(|n| (req_id_of(&head[..n]), obs::ctx::sampled(&head[..n])))
            .unwrap_or((0, false))
    }

    fn next_item(&mut self, now: SimTime) -> Option<WorkItem> {
        if let Some(cqe) = self.fabric.poll_one(self.cq) {
            return Some(WorkItem::Rx(cqe));
        }
        let (tenant, item) = self.txq.dequeue()?;
        let wait = now.saturating_since(item.enqueued_at);
        self.stats.tx_queue_wait.record(wait);
        let mut ctx = None;
        if item.sampled {
            let span_id = self.tracer.span(
                item.req_id,
                tenant.0,
                self.node.0 as u32,
                Stage::DwrrQueue,
                item.enqueued_at,
                now,
            );
            ctx = Some((item.req_id, span_id));
        }
        if let Some(h) = &self.obs_sink.tx_queue_wait {
            h.record_traced(wait, ctx);
        }
        Some(WorkItem::Tx(tenant, item.desc))
    }

    fn service_for(&self, item: &WorkItem) -> SimDuration {
        let endpoints = self.endpoints.len();
        let queued = self.queued();
        let ipc = self.ipc.engine_service(endpoints, queued);
        let on_path_extra = match self.cfg.offload {
            OffloadMode::OnPath => self.cfg.dma_program,
            OffloadMode::OffPath => SimDuration::ZERO,
        };
        match item {
            WorkItem::Tx(..) => self.cfg.tx_stage + ipc + self.cfg.extra_per_msg + on_path_extra,
            WorkItem::Rx(cqe) => match cqe.opcode {
                CqeOpcode::Recv => self.cfg.rx_stage + ipc + self.cfg.extra_per_msg + on_path_extra,
                _ => self.cfg.send_completion,
            },
        }
    }

    /// Replenishes one receive buffer for `tenant` (§3.5.2: the core thread
    /// posts as many buffers as were consumed).
    fn replenish(&mut self, tenant: TenantId) {
        let Some(state) = self.tenants.get(tenant.0.into()) else {
            return;
        };
        let rq = state.rq;
        match state.pool.get() {
            Ok(buf) => {
                let wr = self.rbr.register(tenant);
                if self.fabric.post_recv(rq, wr, buf).is_err() {
                    self.rbr.consume(wr);
                    self.stats.replenish_failures += 1;
                } else {
                    self.stats.replenishes += 1;
                }
            }
            Err(_) => self.stats.replenish_failures += 1,
        }
    }

    /// Attributes a drop to `tenant` (the aggregate `stats.drops` counter is
    /// bumped separately by each drop site).
    fn tenant_drop(&mut self, tenant: TenantId) {
        if let Some(st) = self.tenants.get_mut(tenant.0.into()) {
            st.failures.drops += 1;
        }
    }

    /// Abandons a send after recovery is exhausted, updating aggregate and
    /// per-tenant counters, and returns the typed failure to surface.
    fn give_up(
        &mut self,
        now: SimTime,
        m: SendMeta,
        reason: FailureReason,
        dst_node: Option<NodeId>,
    ) -> DeliveryFailure {
        self.stats.drops += 1;
        self.stats.give_ups += 1;
        if m.attempts > 0 {
            let lat = now.saturating_since(m.first_at);
            self.stats.retry_latency.record(lat);
            if let Some(h) = &self.obs_sink.retry_latency {
                // No sampling decision survives to this site; the sample
                // still counts, just without an exemplar.
                h.record_traced(lat, None);
            }
        }
        if let Some(st) = self.tenants.get_mut(m.tenant.0.into()) {
            st.failures.drops += 1;
            st.failures.give_ups += 1;
        }
        m.failure(reason, dst_node)
    }

    /// Cancels a send whose deadline expired before the engine could
    /// (re)post it. Unlike [`Inner::give_up`] this is not a transport
    /// failure — it counts as a deadline drop, not a give-up, so fault
    /// accounting (`give_ups`) stays a pure transport-health signal.
    fn cancel_expired(
        &mut self,
        now: SimTime,
        m: SendMeta,
        dst_node: Option<NodeId>,
    ) -> DeliveryFailure {
        self.stats.drops += 1;
        self.stats.deadline_drops += 1;
        if let Some(st) = self.tenants.get_mut(m.tenant.0.into()) {
            st.failures.drops += 1;
            st.failures.deadline_drops += 1;
        }
        if self.tracer.is_enabled() {
            self.tracer.span(
                m.req_id,
                m.tenant.0,
                self.node.0 as u32,
                Stage::DeadlineDrop,
                now,
                now,
            );
        }
        m.failure(FailureReason::DeadlineExceeded, dst_node)
    }

    /// Decides what to do about an errored send completion: re-park under
    /// the retry budget (the next pick steers around the failed QP), or give
    /// up and surface a typed failure.
    fn on_failed_send(
        &mut self,
        now: SimTime,
        cqe: Cqe,
        posted: Option<PostedSend>,
    ) -> FailedSendOutcome {
        let (mut m, posted_peer) = match posted {
            Some(p) => (p.meta, Some(p.peer)),
            None => {
                let (tenant, dst_fn) = unpack_imm(cqe.imm);
                (SendMeta::fresh(tenant, dst_fn, 0, now), None)
            }
        };
        m.attempts += 1; // counting the attempt that just failed
        let Some(buf) = cqe.buf else {
            // No buffer came back with the CQE: nothing left to retry with.
            let dst_node = posted_peer.or_else(|| self.routing.lookup(m.dst_fn));
            m.req_id = 0;
            let reason = FailureReason::RetryBudgetExhausted;
            return FailedSendOutcome::Fail(self.give_up(now, m, reason, dst_node));
        };
        m.req_id = req_id_of(buf.as_slice());
        let peer = match self.routing.resolve(m.dst_fn) {
            Ok(peer) => peer,
            Err(RouteError::DestinationDown { node, .. }) => {
                // The health monitor marked the destination down and no
                // healthy replica exists: fail fast instead of parking a
                // retry that can only time out against a corpse.
                let reason = FailureReason::DestinationDown;
                return FailedSendOutcome::Fail(self.give_up(now, m, reason, Some(node)));
            }
            Err(RouteError::UnknownDestination { .. }) => {
                let reason = FailureReason::NoConnection;
                return FailedSendOutcome::Fail(self.give_up(now, m, reason, posted_peer));
            }
        };
        // Blame the node the failed WR actually targeted; route the retry
        // wherever the (possibly failed-over) table points now.
        let blamed = posted_peer.unwrap_or(peer);
        if m.attempts > self.cfg.retry_budget {
            // buf drops here → recycled, not leaked.
            let reason = FailureReason::RetryBudgetExhausted;
            return FailedSendOutcome::Fail(self.give_up(now, m, reason, Some(blamed)));
        }
        let backoff = self.cfg.retry_backoff * (1u64 << (m.attempts - 1).min(16));
        // Deadline-aware park: when the request is already expired — or its
        // backoff timer would only fire after the deadline — parking is
        // pointless, so cancel now instead of burning a timer and a repost.
        if let Some(d) = self.deadline_if_enforced(buf.as_slice()) {
            if now >= d || now + backoff >= d {
                // buf drops here → recycled.
                return FailedSendOutcome::Fail(self.cancel_expired(now, m, Some(blamed)));
            }
        }
        self.stats.retries += 1;
        if let Some(st) = self.tenants.get_mut(m.tenant.0.into()) {
            st.failures.retries += 1;
        }
        let id = self.park_retry(buf, m, peer, now, Some(cqe.qp));
        FailedSendOutcome::Retry { id, backoff }
    }

    /// Parks a send for retry, returning the retry id.
    fn park_retry(
        &mut self,
        buf: OwnedBuf,
        meta: SendMeta,
        peer: NodeId,
        parked_at: SimTime,
        avoid: Option<QpId>,
    ) -> u64 {
        let id = self.next_retry_id;
        self.next_retry_id += 1;
        self.retries.insert(
            id,
            PendingRetry {
                buf,
                meta,
                peer,
                parked_at,
                avoid,
                timer: None,
            },
        );
        id
    }

    /// Hands a picked connection one more send: allocates the WR, counts
    /// it, and records it as posted at `at`. Returns the WR id and the
    /// immediate data to post with.
    fn note_posted(
        &mut self,
        at: SimTime,
        meta: SendMeta,
        peer: NodeId,
        sampled: bool,
    ) -> (rdma_sim::WrId, u64) {
        let seq = self.next_send_wr;
        self.next_send_wr += 1;
        self.stats.tx_posted += 1;
        if let Some(st) = self.tenants.get_mut(meta.tenant.0.into()) {
            st.tx_count += 1;
        }
        let posted = PostedSend {
            at,
            meta,
            peer,
            sampled,
        };
        self.posted.insert(seq, posted);
        let wr = rdma_sim::WrId(u64::MAX - seq);
        (wr, pack_imm(meta.tenant, meta.dst_fn))
    }

    /// Ids of the retries parked on `(tenant, peer)`, ascending (the
    /// ring's order), so flushing or failing them is deterministic.
    fn parked_on(&self, tenant: TenantId, peer: NodeId) -> Vec<u64> {
        let on_pair = |p: &PendingRetry| p.meta.tenant == tenant && p.peer == peer;
        let parked = self.retries.iter().filter(|(_, p)| on_pair(p));
        parked.map(|(id, _)| id).collect()
    }
}

impl SendMeta {
    /// A send that has not been attempted yet, first seen at `now`.
    fn fresh(tenant: TenantId, dst_fn: u16, req_id: u64, now: SimTime) -> Self {
        SendMeta {
            tenant,
            dst_fn,
            req_id,
            attempts: 0,
            first_at: now,
        }
    }

    fn failure(self, reason: FailureReason, dst_node: Option<NodeId>) -> DeliveryFailure {
        DeliveryFailure {
            tenant: self.tenant,
            dst_fn: self.dst_fn,
            req_id: self.req_id,
            attempts: self.attempts,
            reason,
            dst_node,
        }
    }
}

/// A node's network engine instance.
///
/// Cloning clones a handle to the same engine.
#[derive(Clone)]
pub struct Dne {
    inner: Rc<RefCell<Inner>>,
}

impl Dne {
    /// Creates an engine on `node`, wiring its shared CQ into the fabric.
    pub fn new(fabric: Fabric, node: NodeId, cfg: DneConfig) -> Result<Dne, DneError> {
        let cq = fabric.create_cq(node)?;
        let processor = match cfg.wimpy_factor {
            Some(f) => Processor::with_factor(cfg.processor, cfg.cores, f),
            None => Processor::new(cfg.processor, cfg.cores),
        };
        let txq: Box<dyn TenantScheduler<TxItem>> = match cfg.sched {
            SchedPolicy::Dwrr { quantum } => Box::new(DwrrScheduler::new(quantum)),
            SchedPolicy::Fcfs => Box::new(FcfsScheduler::new()),
        };
        let ipc = IpcCosts::for_kind(cfg.ipc);
        let inner = Rc::new(RefCell::new(Inner {
            node,
            fabric: fabric.clone(),
            cq,
            processor,
            cfg,
            ipc,
            tenants: IdTable::new(),
            routing: RoutingTable::new(),
            endpoints: IdTable::new(),
            txq,
            conns: ConnPool::new(),
            rbr: ReceiveBufferRegistry::new(),
            soc_dma: SocDma::default(),
            in_flight: 0,
            stats: DneStats::default(),
            next_send_wr: 0,
            tracer: Tracer::disabled(),
            posted: IdRing::new(),
            conn_reaper: None,
            retries: IdRing::new(),
            next_retry_id: 0,
            reconnecting: HashSet::new(),
            peer_links: HashMap::new(),
            failure_handler: None,
            obs_sink: DneObsSink::default(),
            peer_versions: Vec::new(),
        }));
        let weak: Weak<RefCell<Inner>> = Rc::downgrade(&inner);
        fabric.set_cq_waker(
            cq,
            Rc::new(move |sim| {
                if let Some(rc) = weak.upgrade() {
                    Dne::kick(&rc, sim);
                }
            }),
        )?;
        Ok(Dne { inner })
    }

    /// Returns the node this engine serves.
    pub fn node(&self) -> NodeId {
        self.inner.borrow().node
    }

    /// Returns the engine's IPC cost model (host functions charge the
    /// host-side component themselves).
    pub fn ipc_costs(&self) -> IpcCosts {
        self.inner.borrow().ipc.clone()
    }

    /// Returns the engine's shared completion queue.
    pub fn cq(&self) -> CqId {
        self.inner.borrow().cq
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
        let mut inner = self.inner.borrow_mut();
        if inner.tenants.contains(tenant.0.into()) {
            return Err(DneError::TenantExists(tenant));
        }
        let node = inner.node;
        inner.fabric.register_mapped(node, mapped)?;
        let rq = inner.fabric.create_rq(node, tenant)?;
        let pool = mapped.pool().clone();
        inner.tenants.insert(
            tenant.0.into(),
            TenantState {
                pool,
                rq,
                weight,
                tx_count: 0,
                rx_count: 0,
                failures: TenantFailureStats::default(),
            },
        );
        inner.txq.register(tenant, weight);
        // Pre-post at most half the pool so local senders always have
        // buffers available (the RX path replenishes one-for-one anyway).
        let depth = inner
            .cfg
            .prepost_depth
            .min((mapped.pool().capacity() as usize / 2).max(1));
        for _ in 0..depth {
            inner.replenish(tenant);
        }
        Ok(())
    }

    /// Returns the tenant's shared RQ (used when connecting peers).
    pub fn tenant_rq(&self, tenant: TenantId) -> Result<RqId, DneError> {
        self.inner
            .borrow()
            .tenants
            .get(tenant.0.into())
            .map(|t| t.rq)
            .ok_or(DneError::UnknownTenant(tenant))
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
        let mut inner = self.inner.borrow_mut();
        let versions = &mut inner.peer_versions;
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
        let inner = self.inner.borrow();
        inner.queued() + inner.in_flight + inner.posted.len() + inner.retries.len()
    }

    /// Registers the delivery endpoint of a local function.
    pub fn register_endpoint(&self, fn_id: u16, endpoint: FnEndpoint) {
        self.inner
            .borrow_mut()
            .endpoints
            .insert(fn_id.into(), endpoint);
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
        let (fabric, node_a, cq_a) = {
            let ia = a.inner.borrow();
            (ia.fabric.clone(), ia.node, ia.cq)
        };
        let (node_b, cq_b) = {
            let ib = b.inner.borrow();
            (ib.node, ib.cq)
        };
        let rq_a = a.tenant_rq(tenant)?;
        let rq_b = b.tenant_rq(tenant)?;
        for _ in 0..n {
            let (ha, hb) = fabric.connect(sim, tenant, node_a, cq_a, rq_a, node_b, cq_b, rq_b)?;
            a.inner
                .borrow_mut()
                .conns
                .add(tenant, node_b, ha, sim.now());
            b.inner
                .borrow_mut()
                .conns
                .add(tenant, node_a, hb, sim.now());
        }
        // Record how to reach the peer engine so a pool that later runs dry
        // (every QP errored) can reconnect in the background.
        a.inner.borrow_mut().peer_links.insert(
            (tenant, node_b),
            PeerLink {
                cq: cq_b,
                rq: rq_b,
                engine: Rc::downgrade(&b.inner),
            },
        );
        b.inner.borrow_mut().peer_links.insert(
            (tenant, node_a),
            PeerLink {
                cq: cq_a,
                rq: rq_a,
                engine: Rc::downgrade(&a.inner),
            },
        );
        Ok(())
    }

    /// Accepts a descriptor from a host function (the I/O library's
    /// inter-node path). The descriptor crosses the IPC boundary with the
    /// configured one-way latency before entering the TX scheduler.
    pub fn submit(&self, sim: &mut Sim, tenant: TenantId, desc: BufferDesc) {
        let (latency, req_id, sampled) = {
            let mut inner = self.inner.borrow_mut();
            inner.stats.submitted += 1;
            // One payload peek decides everything trace-related for this
            // descriptor's whole TX life: the ingress-stamped sampling bit
            // and the request id ride on the queue item from here on.
            let (req_id, sampled) = if inner.tracer.is_enabled() {
                inner.trace_meta_of_desc(tenant, desc)
            } else {
                (0, false)
            };
            if sampled {
                inner.tracer.span(
                    req_id,
                    tenant.0,
                    inner.node.0 as u32,
                    Stage::ComchSubmit,
                    sim.now(),
                    sim.now() + inner.ipc.one_way_latency,
                );
            }
            (inner.ipc.one_way_latency, req_id, sampled)
        };
        let rc = self.inner.clone();
        sim.schedule_after(latency, move |sim| {
            let enqueued_at = sim.now();
            rc.borrow_mut().txq.enqueue(
                tenant,
                TxItem {
                    desc,
                    enqueued_at,
                    req_id,
                    sampled,
                },
            );
            Dne::kick(&rc, sim);
        });
    }

    /// Dispatches work onto idle engine cores.
    fn kick(rc: &Rc<RefCell<Inner>>, sim: &mut Sim) {
        loop {
            let now = sim.now();
            let dispatched = {
                let mut inner = rc.borrow_mut();
                if inner.in_flight >= inner.cfg.cores {
                    None
                } else {
                    match inner.next_item(now) {
                        Some(item) => {
                            let service = inner.service_for(&item);
                            let stage = match &item {
                                WorkItem::Tx(..) => "tx_post",
                                WorkItem::Rx(cqe) => match cqe.opcode {
                                    CqeOpcode::Recv => "rx_deliver",
                                    _ => "send_completion",
                                },
                            };
                            let done = inner.processor.run_staged(now, service, stage);
                            inner.in_flight += 1;
                            Some((item, done))
                        }
                        None => None,
                    }
                }
            };
            let Some((item, done)) = dispatched else {
                return;
            };
            let rc2 = rc.clone();
            sim.schedule_at(done, move |sim| {
                Dne::complete(&rc2, sim, item, now);
            });
        }
    }

    /// Finishes processing a work item and re-kicks the loop.
    fn complete(rc: &Rc<RefCell<Inner>>, sim: &mut Sim, item: WorkItem, dispatched_at: SimTime) {
        rc.borrow_mut()
            .stats
            .sched_delay
            .record(sim.now().saturating_since(dispatched_at));
        match item {
            WorkItem::Tx(tenant, desc) => Dne::complete_tx(rc, sim, tenant, desc, dispatched_at),
            WorkItem::Rx(cqe) => Dne::complete_rx(rc, sim, cqe, dispatched_at),
        }
        rc.borrow_mut().in_flight -= 1;
        Dne::kick(rc, sim);
    }

    fn complete_tx(
        rc: &Rc<RefCell<Inner>>,
        sim: &mut Sim,
        tenant: TenantId,
        desc: BufferDesc,
        dispatched_at: SimTime,
    ) {
        // Phase 1 (engine state): redeem, route, pick connection.
        enum Action {
            Local(FnEndpoint, BufferDesc, SimDuration),
            Send {
                fabric: Fabric,
                qp: QpHandle,
                wr: rdma_sim::WrId,
                buf: OwnedBuf,
                imm: u64,
                dma_done: Option<SimTime>,
            },
            /// The `(tenant, peer)` pool is dry: the descriptor was parked
            /// and a background reconnect must be (or already is) underway.
            Reconnect(TenantId, NodeId),
            Fail(DeliveryFailure),
        }
        let action = {
            let mut inner = rc.borrow_mut();
            let dst_fn = desc.dst_fn;
            let Some(state) = inner.tenants.get(tenant.0.into()) else {
                inner.stats.drops += 1;
                return;
            };
            let mut buf = match state.pool.redeem(desc) {
                Ok(b) => b,
                Err(_) => {
                    inner.stats.drops += 1;
                    inner.tenant_drop(tenant);
                    return;
                }
            };
            // One bit — the ingress sampling decision carried in the
            // payload's ctx flags — gates every span site on this path.
            // The `is_enabled` guard keeps the ctx bytes application-owned
            // whenever tracing is off: untraced payloads are never
            // interpreted or re-stamped.
            let traced = inner.tracer.is_enabled() && obs::ctx::sampled(buf.as_slice());
            let req_id = req_id_of(buf.as_slice());
            if traced {
                inner.tracer.span(
                    req_id,
                    tenant.0,
                    inner.node.0 as u32,
                    Stage::DneTx,
                    dispatched_at,
                    sim.now(),
                );
            }
            let now = sim.now();
            let m = SendMeta::fresh(tenant, dst_fn, req_id, now);
            // Cancellation point: a request whose deadline has already
            // passed is dropped here instead of consuming a connection,
            // fabric flight, and remote RX capacity.
            if let Some(d) = inner.deadline_if_enforced(buf.as_slice()) {
                if now >= d {
                    let dst_node = inner.routing.lookup(dst_fn);
                    let f = inner.cancel_expired(now, m, dst_node);
                    // buf drops here → recycled.
                    drop(buf);
                    let rc2 = rc.clone();
                    drop(inner);
                    Dne::notify_failure(&rc2, sim, f);
                    return;
                }
            }
            // Every failing arm drops `buf` → recycled.
            match inner.routing.resolve(dst_fn) {
                Err(RouteError::UnknownDestination { .. }) => {
                    // Unknown destination: the control plane never placed
                    // this function (or removed it). Surface a typed
                    // failure so upstream resolves instead of hanging.
                    Action::Fail(inner.give_up(now, m, FailureReason::UnknownDestination, None))
                }
                Err(RouteError::DestinationDown { node, .. }) => {
                    // The route exists but its node is down with no
                    // healthy replica: fail fast at the TX stage instead
                    // of posting into a dead peer and burning the retry
                    // budget on it.
                    Action::Fail(inner.give_up(now, m, FailureReason::DestinationDown, Some(node)))
                }
                Ok(peer) if peer == inner.node => {
                    // Local destination: hand straight back over IPC.
                    match inner.endpoints.get(dst_fn.into()).cloned() {
                        Some(ep) => {
                            let latency = inner.ipc.one_way_latency;
                            inner.stats.rx_delivered += 1;
                            Action::Local(ep, buf.into_desc(dst_fn), latency)
                        }
                        None => {
                            let reason = FailureReason::UnknownDestination;
                            Action::Fail(inner.give_up(now, m, reason, Some(peer)))
                        }
                    }
                }
                Ok(peer) => {
                    let fabric = inner.fabric.clone();
                    match inner.conns.pick_least_congested(&fabric, now, tenant, peer) {
                        Some(qp) => {
                            let dma_done = match inner.cfg.offload {
                                OffloadMode::OnPath => {
                                    // Stage host → DPU memory over the SoC DMA.
                                    Some(inner.soc_dma.transfer(now, buf.len()))
                                }
                                OffloadMode::OffPath => None,
                            };
                            let posted_at = dma_done.unwrap_or(now);
                            if traced {
                                let node = inner.node.0 as u32;
                                let mut parent = inner.tracer.span(
                                    req_id,
                                    tenant.0,
                                    node,
                                    Stage::ConnPick,
                                    now,
                                    now,
                                );
                                if let Some(at) = dma_done {
                                    parent = inner.tracer.span(
                                        req_id,
                                        tenant.0,
                                        node,
                                        Stage::SocDma,
                                        now,
                                        at,
                                    );
                                }
                                // Stamp the on-wire trace context so the
                                // receiver's spans parent on this node's
                                // causal chain (the freshest span id *is*
                                // the causal cursor). Unsampled requests
                                // skip this entirely: their flags byte is
                                // already zero. The stamp is downgraded to
                                // the peer's negotiated wire version during
                                // mixed-version rollouts.
                                let eff = inner.effective_wire_version(peer);
                                obs::ctx::write_ctx_at(buf.as_mut_slice(), parent, true, eff);
                            }
                            let first = SendMeta::fresh(tenant, dst_fn, req_id, posted_at);
                            let (wr, imm) = inner.note_posted(posted_at, first, peer, traced);
                            Action::Send {
                                fabric,
                                qp,
                                wr,
                                buf,
                                imm,
                                dma_done,
                            }
                        }
                        // Pool dry (every QP errored or still setting up):
                        // park the send and reconnect in the background
                        // instead of dropping it.
                        None if inner.peer_links.contains_key(&(tenant, peer)) => {
                            inner.park_retry(buf, m, peer, now, None);
                            Action::Reconnect(tenant, peer)
                        }
                        None => {
                            let reason = FailureReason::NoConnection;
                            Action::Fail(inner.give_up(now, m, reason, Some(peer)))
                        }
                    }
                }
            }
        };
        // Phase 2 (no engine borrow held): touch fabric / schedule IPC.
        match action {
            Action::Local(ep, desc, latency) => {
                sim.schedule_after(latency, move |sim| ep(sim, desc));
            }
            Action::Send {
                fabric,
                qp,
                wr,
                buf,
                imm,
                dma_done,
            } => match dma_done {
                None => {
                    let rc2 = rc.clone();
                    if fabric.post_send(sim, qp, wr, buf, imm).is_err() {
                        Dne::post_send_failed(&rc2, sim, wr);
                    }
                }
                Some(at) => {
                    let rc2 = rc.clone();
                    sim.schedule_at(at, move |sim| {
                        if fabric.post_send(sim, qp, wr, buf, imm).is_err() {
                            Dne::post_send_failed(&rc2, sim, wr);
                        }
                    });
                }
            },
            Action::Reconnect(tenant, peer) => Dne::start_reconnect(rc, sim, tenant, peer),
            Action::Fail(f) => Dne::notify_failure(rc, sim, f),
        }
    }

    /// A synchronous `post_send` error (QP died between the pick and the
    /// post): the buffer was already recycled by the fabric, so surface a
    /// typed failure rather than silently dropping the bookkeeping.
    fn post_send_failed(rc: &Rc<RefCell<Inner>>, sim: &mut Sim, wr: rdma_sim::WrId) {
        let failure = {
            let mut inner = rc.borrow_mut();
            let posted = inner.posted.remove(send_seq(wr));
            posted.map(|p| {
                inner.give_up(sim.now(), p.meta, FailureReason::NoConnection, Some(p.peer))
            })
        };
        if let Some(f) = failure {
            Dne::notify_failure(rc, sim, f);
        }
    }

    fn complete_rx(rc: &Rc<RefCell<Inner>>, sim: &mut Sim, cqe: Cqe, dispatched_at: SimTime) {
        enum Action {
            None,
            Deliver(FnEndpoint, BufferDesc, SimDuration),
            Retry { id: u64, backoff: SimDuration },
            Fail(DeliveryFailure),
        }
        let action = {
            let mut inner = rc.borrow_mut();
            match cqe.opcode {
                CqeOpcode::Send | CqeOpcode::Write | CqeOpcode::Read | CqeOpcode::CompareSwap => {
                    inner.stats.send_completions += 1;
                    // Close out the post-to-completion interval opened when
                    // the WR was handed to the RNIC.
                    let posted = inner.posted.remove(send_seq(cqe.wr_id));
                    if let Some(p) = &posted {
                        let p2c = sim.now().saturating_since(p.at);
                        inner.stats.post_to_completion.record(p2c);
                        let mut ctx = None;
                        if p.sampled {
                            let span_id = inner.tracer.span(
                                p.meta.req_id,
                                p.meta.tenant.0,
                                inner.node.0 as u32,
                                Stage::Fabric,
                                p.at,
                                sim.now(),
                            );
                            ctx = Some((p.meta.req_id, span_id));
                        }
                        if let Some(h) = &inner.obs_sink.post_to_completion {
                            h.record_traced(p2c, ctx);
                        }
                        if cqe.status == CqeStatus::Success && p.meta.attempts > 0 {
                            let lat = sim.now().saturating_since(p.meta.first_at);
                            inner.stats.retry_latency.record(lat);
                            if let Some(h) = &inner.obs_sink.retry_latency {
                                h.record_traced(lat, ctx);
                            }
                        }
                    }
                    // Shadow-QP reaping: idle connections leave the cache.
                    inner.conns.deactivate_idle(&inner.fabric, sim.now());
                    if cqe.status == CqeStatus::Success {
                        // cqe.buf drops here → sender buffer recycled.
                        Action::None
                    } else {
                        match inner.on_failed_send(sim.now(), cqe, posted) {
                            FailedSendOutcome::Retry { id, backoff } => {
                                Action::Retry { id, backoff }
                            }
                            FailedSendOutcome::Fail(f) => Action::Fail(f),
                        }
                    }
                }
                CqeOpcode::Recv => {
                    let tenant = inner.rbr.consume(cqe.wr_id);
                    if cqe.status != CqeStatus::Success {
                        inner.stats.drops += 1;
                        if let Some(t) = tenant {
                            inner.tenant_drop(t);
                            inner.replenish(t);
                        }
                        return;
                    }
                    let (imm_tenant, dst_fn) = unpack_imm(cqe.imm);
                    let tenant = tenant.unwrap_or(imm_tenant);
                    inner.replenish(tenant);
                    let Some(buf) = cqe.buf else {
                        inner.stats.drops += 1;
                        inner.tenant_drop(tenant);
                        return;
                    };
                    // The receive side reads the same one bit the sender
                    // stamped; an unsampled payload costs this branch only.
                    let traced = inner.tracer.is_enabled() && obs::ctx::sampled(buf.as_slice());
                    let req_id = if traced { req_id_of(buf.as_slice()) } else { 0 };
                    if traced {
                        let node = inner.node.0 as u32;
                        // Adopt the sender's causal cursor from the payload
                        // trace context: the RX spans below parent on the
                        // remote send chain instead of starting a new root.
                        if let Some(c) = obs::ctx::read_ctx(buf.as_slice()) {
                            inner.tracer.adopt_parent(req_id, node, c.parent_span);
                        }
                        inner.tracer.span(
                            req_id,
                            tenant.0,
                            node,
                            Stage::RxCompletion,
                            dispatched_at,
                            sim.now(),
                        );
                        // RBR lookup + replenish happen inline within the RX
                        // stage; exported as an instant marker.
                        inner.tracer.span(
                            req_id,
                            tenant.0,
                            node,
                            Stage::RbrRecover,
                            sim.now(),
                            sim.now(),
                        );
                    }
                    match inner.endpoints.get(dst_fn.into()).cloned() {
                        Some(ep) => {
                            let mut latency = inner.ipc.one_way_latency;
                            if inner.cfg.offload == OffloadMode::OnPath {
                                // Stage DPU → host memory over the SoC DMA.
                                let done = inner.soc_dma.transfer(sim.now(), buf.len());
                                latency += done.saturating_since(sim.now());
                            }
                            inner.stats.rx_delivered += 1;
                            if let Some(st) = inner.tenants.get_mut(tenant.0.into()) {
                                st.rx_count += 1;
                            }
                            if traced {
                                inner.tracer.span(
                                    req_id,
                                    tenant.0,
                                    inner.node.0 as u32,
                                    Stage::ComchDeliver,
                                    sim.now(),
                                    sim.now() + latency,
                                );
                            }
                            Action::Deliver(ep, buf.into_desc(dst_fn), latency)
                        }
                        None => {
                            // The payload crossed the wire but no endpoint
                            // is registered here: typed failure (the
                            // sender-side handler never sees this, so the
                            // receiving node's handler reports it). The
                            // buffer drops here → recycled.
                            let now = sim.now();
                            let m = SendMeta::fresh(tenant, dst_fn, req_id_of(buf.as_slice()), now);
                            let (reason, here) = (FailureReason::UnknownDestination, inner.node);
                            Action::Fail(inner.give_up(now, m, reason, Some(here)))
                        }
                    }
                }
            }
        };
        match action {
            Action::None => {}
            Action::Deliver(ep, desc, latency) => {
                sim.schedule_after(latency, move |sim| ep(sim, desc));
            }
            Action::Retry { id, backoff } => {
                let rc2 = rc.clone();
                let handle = sim.schedule_after(backoff, move |sim| Dne::run_retry(&rc2, sim, id));
                if let Some(p) = rc.borrow_mut().retries.get_mut(id) {
                    p.timer = Some(handle);
                }
            }
            Action::Fail(f) => Dne::notify_failure(rc, sim, f),
        }
    }

    /// Fires a parked retry: re-picks a pooled QP (steering around the one
    /// that failed — shadow-QP failover) and re-posts. A retry whose id is
    /// no longer parked (already flushed by a reconnect, or the send
    /// ultimately gave up) is a no-op, so a stale backoff timer can never
    /// duplicate a send.
    fn run_retry(rc: &Rc<RefCell<Inner>>, sim: &mut Sim, id: u64) {
        enum Step {
            Post {
                fabric: Fabric,
                qp: QpHandle,
                wr: rdma_sim::WrId,
                buf: OwnedBuf,
                imm: u64,
            },
            Reconnect(TenantId, NodeId),
            Fail(DeliveryFailure),
        }
        let step = {
            let mut inner = rc.borrow_mut();
            let Some(mut p) = inner.retries.remove(id) else {
                return; // cancelled or already flushed: fire as a no-op
            };
            // Its timer fired (this call) or was cancelled by the flush.
            p.timer = None;
            let (now, m) = (sim.now(), p.meta);
            // The deadline may have passed while the retry sat parked
            // (e.g. a reconnect flush arriving late): cancel, don't repost.
            if let Some(d) = inner.deadline_if_enforced(p.buf.as_slice()) {
                if now >= d {
                    let f = inner.cancel_expired(now, m, Some(p.peer));
                    // p.buf drops here → recycled.
                    drop(inner);
                    Dne::notify_failure(rc, sim, f);
                    return;
                }
            }
            let fabric = inner.fabric.clone();
            let pick = inner
                .conns
                .pick_least_congested_excluding(&fabric, now, m.tenant, p.peer, p.avoid);
            match pick {
                Some(qp) => {
                    if p.avoid.is_some() && Some(qp.qp) != p.avoid {
                        inner.stats.failovers += 1;
                    }
                    let sampled = inner.tracer.is_enabled() && obs::ctx::sampled(p.buf.as_slice());
                    if sampled {
                        let node = inner.node.0 as u32;
                        // The whole park → repost wait is attributable
                        // retry/backoff time on the critical path.
                        let parent = inner.tracer.span(
                            m.req_id,
                            m.tenant.0,
                            node,
                            Stage::RetryBackoff,
                            p.parked_at,
                            now,
                        );
                        // Re-stamp the context: the re-sent payload now
                        // parents downstream spans on the backoff span,
                        // downgraded to the peer's negotiated version (the
                        // peer may have changed versions while we backed
                        // off mid-upgrade-wave).
                        let eff = inner.effective_wire_version(p.peer);
                        obs::ctx::write_ctx_at(p.buf.as_mut_slice(), parent, true, eff);
                    }
                    let (wr, imm) = inner.note_posted(now, m, p.peer, sampled);
                    Step::Post {
                        fabric,
                        qp,
                        wr,
                        buf: p.buf,
                        imm,
                    }
                }
                None if inner.peer_links.contains_key(&(m.tenant, p.peer)) => {
                    // Pool still dry: park again (no timer) and wait for the
                    // background reconnect to flush us.
                    let peer = p.peer;
                    inner.retries.insert(id, p);
                    Step::Reconnect(m.tenant, peer)
                }
                None => {
                    let reason = FailureReason::NoConnection;
                    Step::Fail(inner.give_up(now, m, reason, Some(p.peer)))
                }
            }
        };
        match step {
            Step::Post {
                fabric,
                qp,
                wr,
                buf,
                imm,
            } => {
                if fabric.post_send(sim, qp, wr, buf, imm).is_err() {
                    Dne::post_send_failed(rc, sim, wr);
                }
            }
            Step::Reconnect(tenant, peer) => Dne::start_reconnect(rc, sim, tenant, peer),
            Step::Fail(f) => Dne::notify_failure(rc, sim, f),
        }
    }

    /// Kicks off a background reconnect for a dry `(tenant, peer)` pool,
    /// charging the full connection-setup delay (tens of milliseconds,
    /// §3.3). Idempotent while one is already in flight.
    fn start_reconnect(rc: &Rc<RefCell<Inner>>, sim: &mut Sim, tenant: TenantId, peer: NodeId) {
        let wiring = {
            let mut inner = rc.borrow_mut();
            if inner.reconnecting.contains(&(tenant, peer)) {
                return;
            }
            let Some(rq) = inner.tenants.get(tenant.0.into()).map(|t| t.rq) else {
                return;
            };
            let Some((peer_cq, peer_rq, peer_engine)) = inner
                .peer_links
                .get(&(tenant, peer))
                .map(|l| (l.cq, l.rq, l.engine.clone()))
            else {
                return;
            };
            inner.reconnecting.insert((tenant, peer));
            (
                inner.fabric.clone(),
                inner.node,
                inner.cq,
                rq,
                peer_cq,
                peer_rq,
                peer_engine,
            )
        };
        let (fabric, node, cq, rq, peer_cq, peer_rq, peer_engine) = wiring;
        // Elastic control plane: claim from the link's pre-warm stock when
        // one exists — the handshake already ran in the background, so the
        // connection is usable in microseconds instead of paying the full
        // tens-of-ms establishment on the recovery path.
        let claimed = fabric
            .claim_prewarmed(sim, tenant, node, cq, rq, peer, peer_cq, peer_rq)
            .unwrap_or(None);
        let (result, delay, warm) = match claimed {
            Some(pair) => (Ok(pair), fabric.costs().prewarm_claim_delay, true),
            None => (
                fabric.connect(sim, tenant, node, cq, rq, peer, peer_cq, peer_rq),
                fabric.costs().connect_delay,
                false,
            ),
        };
        match result {
            Ok((ha, hb)) => {
                {
                    let mut inner = rc.borrow_mut();
                    inner.conns.add(tenant, peer, ha, sim.now());
                    inner.stats.reconnects += 1;
                    if warm {
                        inner.stats.prewarm_claims += 1;
                    } else {
                        inner.stats.cold_connects += 1;
                    }
                }
                if let Some(peer_rc) = peer_engine.upgrade() {
                    peer_rc.borrow_mut().conns.add(tenant, node, hb, sim.now());
                }
                // The fabric flips the QPs to Ready at now + delay; that
                // event was scheduled first, so by FIFO same-time ordering
                // the new connection is usable when the flush runs.
                let rc2 = rc.clone();
                sim.schedule_after(delay, move |sim| {
                    Dne::finish_reconnect(&rc2, sim, tenant, peer);
                });
            }
            Err(_) => Dne::abort_reconnect(rc, sim, tenant, peer),
        }
    }

    /// The reconnect came up: flush every retry parked on `(tenant, peer)`
    /// immediately, cancelling their backoff timers (a cancelled timer that
    /// already raced into the queue fires as a no-op).
    fn finish_reconnect(rc: &Rc<RefCell<Inner>>, sim: &mut Sim, tenant: TenantId, peer: NodeId) {
        let ids = {
            let mut inner = rc.borrow_mut();
            inner.reconnecting.remove(&(tenant, peer));
            inner.parked_on(tenant, peer)
        };
        for id in ids {
            let timer = rc.borrow_mut().retries.get_mut(id).and_then(|p| {
                p.avoid = None; // the failed QP is history; pick freely
                p.timer.take()
            });
            if let Some(h) = timer {
                sim.cancel(h);
            }
            Dne::run_retry(rc, sim, id);
        }
    }

    /// The reconnect could not even start: fail every retry parked on the
    /// pair (defensive; `connect` only errors on unknown nodes/queues).
    fn abort_reconnect(rc: &Rc<RefCell<Inner>>, sim: &mut Sim, tenant: TenantId, peer: NodeId) {
        let failures = {
            let mut inner = rc.borrow_mut();
            inner.reconnecting.remove(&(tenant, peer));
            let ids = inner.parked_on(tenant, peer);
            let mut failures = Vec::with_capacity(ids.len());
            for id in ids {
                if let Some(p) = inner.retries.remove(id) {
                    let reason = FailureReason::NoConnection;
                    failures.push(inner.give_up(sim.now(), p.meta, reason, Some(p.peer)));
                }
            }
            failures
        };
        for f in failures {
            Dne::notify_failure(rc, sim, f);
        }
    }

    /// Invokes the installed failure handler (outside any engine borrow).
    fn notify_failure(rc: &Rc<RefCell<Inner>>, sim: &mut Sim, failure: DeliveryFailure) {
        let handler = rc.borrow().failure_handler.clone();
        if let Some(h) = handler {
            h(sim, failure);
        }
    }

    /// Installs the callback invoked when a send exhausts its recovery
    /// budget. All clones of this engine share the handler.
    pub fn set_failure_handler(&self, handler: DeliveryFailureHandler) {
        self.inner.borrow_mut().failure_handler = Some(handler);
    }

    /// Reports a failure discovered *outside* the engine (e.g. the runtime
    /// cancelling an expired request at function dispatch) through the
    /// engine's installed failure handler, so every failure — transport or
    /// deadline — reaches the same upstream sink. Deadline cancellations
    /// are folded into the engine's deadline accounting.
    pub fn report_failure(&self, sim: &mut Sim, failure: DeliveryFailure) {
        {
            let mut inner = self.inner.borrow_mut();
            if failure.reason == FailureReason::DeadlineExceeded {
                inner.stats.deadline_drops += 1;
                if let Some(st) = inner.tenants.get_mut(failure.tenant.0.into()) {
                    st.failures.deadline_drops += 1;
                }
                if inner.tracer.is_enabled() {
                    let node = inner.node.0 as u32;
                    inner.tracer.span(
                        failure.req_id,
                        failure.tenant.0,
                        node,
                        Stage::DeadlineDrop,
                        sim.now(),
                        sim.now(),
                    );
                }
            }
        }
        Dne::notify_failure(&self.inner, sim, failure);
    }

    /// Returns per-tenant failure accounting (drops, retries, give-ups).
    pub fn tenant_failure_stats(&self, tenant: TenantId) -> TenantFailureStats {
        self.inner
            .borrow()
            .tenants
            .get(tenant.0.into())
            .map(|t| t.failures)
            .unwrap_or_default()
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
    /// latency sites; pass `DneObsSink::default()` to detach them.
    pub fn set_obs_sink(&self, sink: DneObsSink) {
        self.inner.borrow_mut().obs_sink = sink;
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

    /// Installs the connection pool's elastic lifecycle config (active-set
    /// capacity and idle-age teardown). Takes effect from the next pick or
    /// reaper sweep; already-active QPs are not retroactively evicted.
    pub fn set_elastic_config(&self, cfg: ElasticConfig) {
        self.inner.borrow_mut().conns.set_config(cfg);
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

    /// Returns how many teardown sweeps ran with the adaptively shrunk
    /// idle age (eviction-rate spikes; `0` unless adaptive teardown is
    /// enabled in the elastic config).
    pub fn conn_adaptive_shrinks(&self) -> u64 {
        self.inner.borrow().conns.adaptive_shrinks()
    }

    /// Stocks `n` pre-warmed connections toward `peer` in the background.
    /// A later pool-dry reconnect claims one in microseconds instead of
    /// paying the full RC establishment delay.
    pub fn prewarm_link(&self, sim: &mut Sim, peer: NodeId, n: usize) -> Result<(), DneError> {
        let (fabric, node) = {
            let inner = self.inner.borrow();
            (inner.fabric.clone(), inner.node)
        };
        fabric.prewarm_link(sim, node, peer, n)?;
        Ok(())
    }

    /// Arms a periodic idle-QP reaper sweeping every `every`.
    ///
    /// The engine already reaps opportunistically on send completions; the
    /// periodic sweep additionally catches QPs that went idle with no
    /// further completion traffic to piggyback on (e.g. after a tenant's
    /// burst ends). Idempotent while armed.
    pub fn start_conn_reaper(&self, sim: &mut Sim, every: SimDuration) {
        if self.inner.borrow().conn_reaper.is_some() {
            return;
        }
        let weak: Weak<RefCell<Inner>> = Rc::downgrade(&self.inner);
        let ticker = Ticker::start(sim, every, move |sim| {
            if let Some(rc) = weak.upgrade() {
                let mut guard = rc.borrow_mut();
                let inner = &mut *guard;
                let fabric = &inner.fabric;
                inner.conns.deactivate_idle(fabric, sim.now());
                // Lazy teardown: connections idle past the configured age
                // release their fabric state entirely (no-op unless an
                // elastic config with an idle age is installed).
                inner.conns.teardown_idle(fabric, sim.now());
            }
        });
        self.inner.borrow_mut().conn_reaper = Some(ticker);
    }

    /// Disarms the periodic reaper, descheduling its pending sweep.
    pub fn stop_conn_reaper(&self, sim: &mut Sim) {
        if let Some(t) = self.inner.borrow_mut().conn_reaper.take() {
            t.cancel_in(sim);
        }
    }

    /// Returns `(hits, misses)` of the shadow-QP picker for one tenant.
    pub fn conn_hit_miss_of(&self, tenant: TenantId) -> (u64, u64) {
        self.inner.borrow().conns.hit_miss_of(tenant)
    }

    /// Returns the tenants registered with this engine, sorted.
    pub fn tenant_ids(&self) -> Vec<TenantId> {
        let inner = self.inner.borrow();
        let mut ids: Vec<TenantId> = inner
            .tenants
            .iter()
            .map(|(t, _)| TenantId(t as u16))
            .collect();
        ids.sort();
        ids
    }

    /// Returns `(tx, rx)` message counters for a tenant.
    pub fn tenant_counters(&self, tenant: TenantId) -> (u64, u64) {
        self.inner
            .borrow()
            .tenants
            .get(tenant.0.into())
            .map(|t| (t.tx_count, t.rx_count))
            .unwrap_or((0, 0))
    }

    /// Returns the tenant's configured weight.
    pub fn tenant_weight(&self, tenant: TenantId) -> Option<u32> {
        let inner = self.inner.borrow();
        inner.tenants.get(tenant.0.into()).map(|t| t.weight)
    }

    /// Updates a tenant's scheduling weight at runtime (§4.2: the userspace
    /// engine makes policy customization trivial).
    pub fn set_tenant_weight(&self, tenant: TenantId, weight: u32) -> Result<(), DneError> {
        let mut inner = self.inner.borrow_mut();
        let state = inner
            .tenants
            .get_mut(tenant.0.into())
            .ok_or(DneError::UnknownTenant(tenant))?;
        state.weight = weight;
        inner.txq.register(tenant, weight);
        Ok(())
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
    fn periodic_conn_reaper_sweeps_and_deschedules_on_stop() {
        let mut env = setup(DneConfig::nadino_dne());
        let pool_b = env.pool_b.clone();
        env.dne_b.register_endpoint(
            2,
            Rc::new(move |_sim, desc| {
                let _ = pool_b.redeem(desc).expect("valid");
            }),
        );
        env.dne_a
            .start_conn_reaper(&mut env.sim, SimDuration::from_micros(100));
        env.dne_a
            .start_conn_reaper(&mut env.sim, SimDuration::from_micros(100)); // idempotent
        assert_eq!(env.sim.pending_events(), 1, "one sweep armed");
        let buf = env.pool_a.get().unwrap();
        env.dne_a.submit(&mut env.sim, env.tenant, buf.into_desc(2));
        env.sim.run_for(SimDuration::from_millis(1));
        assert!(
            env.dne_a.conn_deactivations() >= 1,
            "sweep reaped the drained QP"
        );
        env.dne_a.stop_conn_reaper(&mut env.sim);
        assert_eq!(
            env.sim.pending_events(),
            0,
            "pending sweep descheduled, not zombied"
        );
        env.dne_a.stop_conn_reaper(&mut env.sim); // idempotent
        env.sim.run();
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

    #[test]
    fn reconnect_flush_cancels_backoff_timers_and_retries_fire_as_noops() {
        use crate::types::DneConfig;
        let mut cfg = DneConfig::nadino_dne();
        // Long backoff so parked retries are still pending when the
        // reconnect-driven flush overtakes them.
        cfg.retry_backoff = SimDuration::from_millis(50);
        let (fabric, mut sim, dne_a, _dne_b, pool_a, _pool_b, tenant, delivered) =
            recovery_setup(cfg, 2);
        let (a, b) = (NodeId(0), NodeId(1));

        // Two sends vanish on the wire and park with ~50 ms backoff timers.
        fabric.with_fault_plane(|fp| fp.set_link_loss(a, b, 1.0));
        for _ in 0..2 {
            let buf = pool_a.get().unwrap();
            dne_a.submit(&mut sim, tenant, buf.into_desc(2));
        }
        sim.run_for(SimDuration::from_millis(5));
        assert_eq!(dne_a.stats().retries, 2, "both sends parked for retry");

        // Heal the wire but kill every pooled QP: the next send finds the
        // pool dry and starts a background reconnect.
        fabric.with_fault_plane(|fp| fp.set_link_loss(a, b, 0.0));
        let conns: Vec<QpHandle> = {
            let inner = dne_a.inner.borrow();
            inner.conns.conns(tenant, b).to_vec()
        };
        for qp in conns {
            fabric.inject_qp_error(qp).unwrap();
        }
        let buf = pool_a.get().unwrap();
        dne_a.submit(&mut sim, tenant, buf.into_desc(2));
        sim.run();

        // The reconnect (20 ms) finished well before the 50 ms backoff
        // timers; the flush cancelled them and re-posted all three parked
        // sends exactly once — a timer that still fired was a no-op.
        assert_eq!(*delivered.borrow(), 3, "no loss and no duplicates");
        let stats = dne_a.stats();
        assert_eq!(stats.drops, 0);
        assert_eq!(stats.reconnects, 1, "one reconnect covers the pair");
        assert_eq!(stats.retries, 2, "the flush re-posts without re-parking");
        assert_eq!(pool_a.stats().in_flight, 0);
    }
}
#[cfg(test)]
mod weight_tests {
    use super::*;
    use dpu_sim::mmap::{doca_mmap_create_from_export, doca_mmap_export_full};
    use membuf::pool::PoolConfig;
    use rdma_sim::RdmaCosts;

    #[test]
    fn tenant_weight_can_change_at_runtime() {
        let fabric = Fabric::new(RdmaCosts::default());
        let node = fabric.add_node();
        let dne = Dne::new(fabric, node, DneConfig::nadino_dne()).unwrap();
        let tenant = TenantId(1);
        let mut cfg = PoolConfig::new(tenant, 0, 256, 16);
        cfg.segment_size = 4096;
        let pool = BufferPool::new(cfg).unwrap();
        let mapped = doca_mmap_create_from_export(&doca_mmap_export_full(&pool).unwrap()).unwrap();
        dne.register_tenant(tenant, 1, &mapped).unwrap();
        assert_eq!(dne.tenant_weight(tenant), Some(1));
        dne.set_tenant_weight(tenant, 6).unwrap();
        assert_eq!(dne.tenant_weight(tenant), Some(6));
        assert_eq!(
            dne.set_tenant_weight(TenantId(9), 2).unwrap_err(),
            DneError::UnknownTenant(TenantId(9))
        );
    }
}
