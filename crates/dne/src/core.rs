//! The engine as a state machine that never sees a simulator.
//!
//! [`Core`] owns everything a node's network engine knows — tenants,
//! routes, the TX scheduler, the connection pool, in-flight sends, parked
//! retries — and changes it in exactly one place: [`Core::step`] takes the
//! current instant and one [`Input`] (something that happened *to* the
//! engine) and emits [`Effect`]s (things the engine wants done *for* it)
//! into a sink. The driver in [`crate::engine`] applies them in emission
//! order: each simple effect as it is emitted, and from the first effect
//! that needs the core or can call back into an engine on, the rest of
//! the step once it returned.
//!
//! The boundary: anything that needs a `&mut` simulator — scheduling,
//! cancelling, `post_send`, `connect`, calling an
//! endpoint, the failure handler or a peer engine — is an effect. The core
//! keeps the fabric calls that only read or update RNIC queue state and
//! take no simulator: `poll_one`, `cq_depth`, `post_recv`, `costs`, and the
//! QP-load reads and activate/deactivate/destroy inside [`ConnPool`].
//!
//! Ordering rule: a step must not do what the code behind one of its
//! effects would have had to see undone, whether the driver applies that
//! effect mid-step or after it. Two cases exist. The failure handler
//! observes the engine (it dumps live histograms and may re-route), so
//! after a `Fail` the serving core is retired in a follow-up step; and a
//! post raises the QP load the next pick reads, so a reconnect flush
//! re-posts one parked send per step. Both are spelled [`Effect::Then`]:
//! the driver feeds that input back once the effects before it are
//! applied.

use std::collections::{HashMap, HashSet};

use dpu_sim::dma::SocDma;
use dpu_sim::soc::Processor;
use membuf::descriptor::BufferDesc;
use membuf::export::MappedPool;
use membuf::pool::{BufferPool, OwnedBuf};
use membuf::tenant::TenantId;
use obs::{Stage, Tracer};
use rdma_sim::fabric::{CqId, QpHandle, RqId};
use rdma_sim::types::{Cqe, CqeOpcode, CqeStatus, QpId};
use rdma_sim::{Fabric, NodeId, WrId};
use simcore::{IdRing, IdTable, SimDuration, SimTime, TimerHandle};

use crate::connpool::ConnPool;
use crate::engine::{DneError, DneObsSink, FnEndpoint};
use crate::rbr::ReceiveBufferRegistry;
use crate::routing::{RouteError, RoutingTable};
use crate::sched::{DwrrScheduler, FcfsScheduler, TenantScheduler};
use crate::types::{
    DeliveryFailure, DneConfig, DneStats, FailureReason, IpcCosts, OffloadMode, SchedPolicy,
    TenantFailureStats,
};

/// Reference CPU time of the TX stage (route lookup, connection pick, WR
/// wrap and post) and of the RX stage (CQE handling, RBR lookup, descriptor
/// forward). With the Comch-E share of `IpcCosts` they put one DPU core's
/// ceiling at the paper's ≈ 110 K RPS (§4.2, Fig. 15).
const TX_STAGE: SimDuration = SimDuration::from_nanos(420);
const RX_STAGE: SimDuration = SimDuration::from_nanos(420);
/// Reference CPU time to reap a send completion (buffer recycle).
const SEND_COMPLETION: SimDuration = SimDuration::from_nanos(120);
/// Reference CPU time to program one SoC DMA transfer (on-path only, Fig. 11).
const DMA_PROGRAM: SimDuration = SimDuration::from_nanos(350);
/// Backoff before the first retry of a failed send; each further attempt
/// doubles it.
const RETRY_BACKOFF: SimDuration = SimDuration::from_micros(10);

/// Something that happened to the engine.
pub(crate) enum Input {
    /// A host function handed over a descriptor (`Dne::submit`).
    Submit { tenant: TenantId, desc: BufferDesc },
    /// The descriptor crossed the IPC boundary and joins its tenant's queue.
    Crossed {
        tenant: TenantId,
        desc: BufferDesc,
        req_id: u64,
        sampled: bool,
    },
    /// The completion queue has something to poll.
    Wake,
    /// A work item finished its service time on an engine core.
    Done {
        item: WorkItem,
        dispatched_at: SimTime,
    },
    /// The core that served the last item is free again.
    Retire,
    /// The backoff timer of parked retry `id` fired.
    RetryTimer(u64),
    /// The RNIC refused a `PostSend` synchronously.
    PostFailed(WrId),
    /// A reconnect for `(tenant, peer)` started: `local` is this engine's
    /// endpoint of the new connection, `remote` the peer's.
    Connected {
        tenant: TenantId,
        peer: NodeId,
        local: QpHandle,
        remote: QpHandle,
    },
    /// The reconnect came up: its connection is usable from now on.
    ReconnectUp { tenant: TenantId, peer: NodeId },
    /// The reconnect could not even start.
    ReconnectFailed { tenant: TenantId, peer: NodeId },
    /// `peer`'s engine established a connection whose local end is `handle`.
    PeerConn {
        tenant: TenantId,
        peer: NodeId,
        handle: QpHandle,
    },
    /// A failure found outside the engine, to account and surface.
    Report(DeliveryFailure),
}

// A scheduled input rides in an event closure next to one `Rc`; past
// `simcore::event::INLINE_BYTES` every engine event would be boxed.
const _: () = assert!(std::mem::size_of::<Input>() + 8 <= simcore::event::INLINE_BYTES);

/// Something the engine wants done; the driver applies these in order.
pub(crate) enum Effect {
    /// Post `buf` on `qp` at `at` (now, or once the SoC DMA staged it).
    PostSend {
        qp: QpHandle,
        wr: WrId,
        buf: OwnedBuf,
        imm: u64,
        at: SimTime,
    },
    /// Hand `desc` to a local function after the IPC crossing.
    Deliver {
        ep: FnEndpoint,
        desc: BufferDesc,
        latency: SimDuration,
    },
    /// Feed `Input` back after a delay.
    After(SimDuration, Input),
    /// Arm the backoff timer of parked retry `id` and record its handle
    /// with [`Core::retry_armed`].
    ArmRetry {
        id: u64,
        backoff: SimDuration,
    },
    CancelTimer(TimerHandle),
    /// Establish a fresh connection for `(tenant, peer)` and answer
    /// `Connected` or `ReconnectFailed`.
    Connect {
        tenant: TenantId,
        peer: NodeId,
        rq: RqId,
        peer_cq: CqId,
        peer_rq: RqId,
    },
    /// Tell `peer`'s engine about its end of a new connection (`PeerConn`).
    PeerConnAdded {
        peer: NodeId,
        tenant: TenantId,
        handle: QpHandle,
    },
    /// Surface a typed failure through the failure handler.
    Fail(DeliveryFailure),
    /// Feed `Input` back right here: after the effects before this one
    /// are applied, before the ones after it (see the ordering rule).
    Then(Input),
}

pub(crate) enum WorkItem {
    Tx(TenantId, BufferDesc),
    Rx(Cqe),
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
    obs::ctx::req_id(bytes).unwrap_or(0)
}

/// The engine's send WR ids count down from `u64::MAX` (receive WR ids,
/// issued by the RBR, grow from the bottom); this recovers the counter.
fn send_seq(wr: WrId) -> u64 {
    u64::MAX - wr.0
}

pub(crate) struct TenantState {
    pool: BufferPool,
    pub(crate) rq: RqId,
    pub(crate) failures: TenantFailureStats,
}

/// A TX descriptor queued in the tenant scheduler, stamped with its
/// enqueue instant so dequeue can attribute the queueing delay, plus the
/// trace identity read once at submit (request id and the ingress-decided
/// sampling bit) so the dequeue path never peeks the payload again.
pub(crate) struct TxItem {
    desc: BufferDesc,
    enqueued_at: SimTime,
    req_id: u64,
    sampled: bool,
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

/// A payload on its way to the RNIC: about to be posted, or parked —
/// holding its buffer so nothing leaks — until a backoff timer fires or a
/// background reconnect brings a connection up.
struct PendingSend {
    buf: OwnedBuf,
    meta: SendMeta,
    peer: NodeId,
    /// When the send was (first) parked, so the eventual repost can record
    /// the whole backoff/reconnect wait as a `RetryBackoff` span.
    parked_at: SimTime,
    /// The QP whose send failed; the failover pick steers around it.
    avoid: Option<QpId>,
    /// The pending backoff timer (`None` for retries parked on a reconnect,
    /// which fire when the connection comes up instead).
    timer: Option<TimerHandle>,
}

/// Where `connect_pair` said the remote end of a `(tenant, peer)` pool
/// lives, so a reconnect knows where to point the new QP.
struct PeerLink {
    cq: CqId,
    rq: RqId,
}

pub(crate) struct Core {
    pub(crate) node: NodeId,
    pub(crate) fabric: Fabric,
    pub(crate) cq: CqId,
    pub(crate) processor: Processor,
    pub(crate) cfg: DneConfig,
    pub(crate) ipc: IpcCosts,
    /// Keyed by `TenantId`.
    pub(crate) tenants: IdTable<TenantState>,
    pub(crate) routing: RoutingTable,
    /// Keyed by function id. The core hands endpoints out in `Deliver`
    /// effects and never calls one.
    pub(crate) endpoints: IdTable<FnEndpoint>,
    pub(crate) txq: Box<dyn TenantScheduler<TxItem>>,
    pub(crate) conns: ConnPool,
    rbr: ReceiveBufferRegistry,
    soc_dma: SocDma,
    in_flight: usize,
    pub(crate) stats: DneStats,
    next_send_wr: u64,
    pub(crate) tracer: Tracer,
    /// In-flight sends, keyed by [`send_seq`] of their WR id.
    posted: IdRing<PostedSend>,
    /// Sends parked for retry, keyed by retry id.
    retries: IdRing<PendingSend>,
    next_retry_id: u64,
    /// `(tenant, peer)` pairs with a background reconnect in flight.
    reconnecting: HashSet<(TenantId, NodeId)>,
    peer_links: HashMap<(TenantId, NodeId), PeerLink>,
    pub(crate) obs_sink: Option<DneObsSink>,
    /// Per-peer negotiated CTX wire versions, indexed by node id, announced
    /// by the control plane during rolling upgrades. Past the end ⇒ assume
    /// the peer runs the current version (the homogeneous-fleet fast path).
    pub(crate) peer_versions: Vec<u8>,
}

impl Core {
    pub(crate) fn new(fabric: Fabric, node: NodeId, cq: CqId, cfg: DneConfig) -> Core {
        let processor = match cfg.wimpy_factor {
            Some(f) => Processor::with_factor(cfg.cores, f),
            None => Processor::new(cfg.processor, cfg.cores),
        };
        let txq: Box<dyn TenantScheduler<TxItem>> = match cfg.sched {
            SchedPolicy::Dwrr { quantum } => Box::new(DwrrScheduler::new(quantum)),
            SchedPolicy::Fcfs => Box::new(FcfsScheduler::new()),
        };
        Core {
            node,
            fabric,
            cq,
            processor,
            ipc: IpcCosts::for_kind(cfg.ipc),
            cfg,
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
            retries: IdRing::new(),
            next_retry_id: 0,
            reconnecting: HashSet::new(),
            peer_links: HashMap::new(),
            obs_sink: None,
            peer_versions: Vec::new(),
        }
    }

    /// Advances the engine by one input, emitting what it wants done into
    /// `out` in the order it must be done.
    pub(crate) fn step(&mut self, now: SimTime, input: Input, out: &mut impl FnMut(Effect)) {
        match input {
            Input::Submit { tenant, desc } => self.on_submit(now, tenant, desc, out),
            Input::Crossed {
                tenant,
                desc,
                req_id,
                sampled,
            } => {
                let item = TxItem {
                    desc,
                    enqueued_at: now,
                    req_id,
                    sampled,
                };
                self.txq.enqueue(tenant, item);
                self.kick(now, out);
            }
            Input::Wake => self.kick(now, out),
            Input::Done {
                item,
                dispatched_at,
            } => {
                let delay = now.saturating_since(dispatched_at);
                self.stats.sched_delay.record(delay);
                let mut failed = false;
                let mut seen = |effect: Effect| {
                    failed |= matches!(effect, Effect::Fail(_));
                    out(effect)
                };
                match item {
                    WorkItem::Tx(tenant, desc) => {
                        self.on_tx(now, tenant, desc, dispatched_at, &mut seen)
                    }
                    WorkItem::Rx(cqe) => self.on_cqe(now, cqe, dispatched_at, &mut seen),
                }
                // A failure handler observes the engine (queue depths, live
                // histograms): it must run before the core is handed its
                // next item, not after.
                if failed {
                    out(Effect::Then(Input::Retire));
                } else {
                    self.step(now, Input::Retire, out);
                }
            }
            Input::Retire => {
                self.in_flight -= 1;
                self.kick(now, out);
            }
            Input::RetryTimer(id) => self.fire_retry(now, id, out),
            Input::PostFailed(wr) => {
                // The QP died between the pick and the post. The fabric
                // already recycled the buffer, so surface a typed failure
                // rather than silently dropping the bookkeeping.
                if let Some(p) = self.posted.remove(send_seq(wr)) {
                    let reason = FailureReason::NoConnection;
                    self.give_up(now, p.meta, reason, Some(p.peer), out);
                }
            }
            Input::Connected {
                tenant,
                peer,
                local,
                remote,
            } => {
                self.conns.add(tenant, peer, local, now);
                self.stats.reconnects += 1;
                self.stats.cold_connects += 1;
                let delay = self.fabric.costs().connect_delay;
                let handle = remote;
                out(Effect::PeerConnAdded {
                    peer,
                    tenant,
                    handle,
                });
                // The fabric flips the QPs to Ready at now + delay; that
                // event was scheduled by the connect itself, so by FIFO
                // same-time ordering the connection is usable when the
                // flush runs.
                out(Effect::After(delay, Input::ReconnectUp { tenant, peer }));
            }
            Input::ReconnectUp { tenant, peer } => {
                // Flush every retry parked on the pair, in id order,
                // cancelling their backoff timers (a cancelled timer that
                // already raced into the queue fires as a no-op). Each
                // re-post is a step of its own: its pick must see the QP
                // load the previous post left behind.
                self.reconnecting.remove(&(tenant, peer));
                for id in self.parked_on(tenant, peer) {
                    if let Some(p) = self.retries.get_mut(id) {
                        p.avoid = None; // the failed QP is history; pick freely
                        if let Some(timer) = p.timer.take() {
                            out(Effect::CancelTimer(timer));
                        }
                    }
                    out(Effect::Then(Input::RetryTimer(id)));
                }
            }
            Input::ReconnectFailed { tenant, peer } => {
                // Defensive (`connect` only errors on unknown nodes or
                // queues): fail every retry parked on the pair.
                self.reconnecting.remove(&(tenant, peer));
                for id in self.parked_on(tenant, peer) {
                    if let Some(p) = self.retries.remove(id) {
                        let reason = FailureReason::NoConnection;
                        self.give_up(now, p.meta, reason, Some(p.peer), out);
                    }
                }
            }
            Input::PeerConn {
                tenant,
                peer,
                handle,
            } => {
                self.conns.add(tenant, peer, handle, now);
            }
            Input::Report(failure) => {
                // Deadline cancellations found outside the engine (e.g. at
                // function dispatch) are folded into its deadline accounting.
                if failure.reason == FailureReason::DeadlineExceeded {
                    self.stats.deadline_drops += 1;
                    if let Some(st) = self.tenants.get_mut(failure.tenant.0.into()) {
                        st.failures.deadline_drops += 1;
                    }
                    if self.tracer.is_enabled() {
                        let (req, tenant) = (failure.req_id, failure.tenant);
                        self.span(req, tenant, Stage::DeadlineDrop, now, now);
                    }
                }
                out(Effect::Fail(failure));
            }
        }
    }

    /// Records the timer the driver armed for `Effect::ArmRetry`.
    pub(crate) fn retry_armed(&mut self, id: u64, timer: TimerHandle) {
        if let Some(p) = self.retries.get_mut(id) {
            p.timer = Some(timer);
        }
    }

    /// Registers a tenant: registers its (cross-processor mapped) pool with
    /// the RNIC, creates the tenant's shared RQ, pre-posts receive buffers
    /// and registers the tenant with the TX scheduler.
    pub(crate) fn register_tenant(
        &mut self,
        tenant: TenantId,
        weight: u32,
        mapped: &MappedPool,
    ) -> Result<(), DneError> {
        if self.tenants.contains(tenant.0.into()) {
            return Err(DneError::TenantExists(tenant));
        }
        self.fabric.register_mapped(self.node, mapped)?;
        let rq = self.fabric.create_rq(self.node, tenant)?;
        let state = TenantState {
            pool: mapped.pool().clone(),
            rq,
            failures: TenantFailureStats::default(),
        };
        self.tenants.insert(tenant.0.into(), state);
        self.txq.register(tenant, weight);
        // Pre-post at most half the pool so local senders always have
        // buffers available (the RX path replenishes one-for-one anyway).
        let half_pool = (mapped.pool().capacity() as usize / 2).max(1);
        for _ in 0..self.cfg.prepost_depth.min(half_pool) {
            self.replenish(tenant);
        }
        Ok(())
    }

    /// Records where the remote end of the `(tenant, peer)` pool lives.
    pub(crate) fn link_peer(&mut self, tenant: TenantId, peer: NodeId, cq: CqId, rq: RqId) {
        self.peer_links.insert((tenant, peer), PeerLink { cq, rq });
    }

    /// Whether a completion or descriptor arriving now could be dispatched.
    pub(crate) fn has_idle_core(&self) -> bool {
        self.in_flight < self.cfg.cores
    }

    /// TX queue plus unpolled CQEs: the engine's side of the IPC channel.
    pub(crate) fn queued(&self) -> usize {
        self.txq.len() + self.fabric.cq_depth(self.cq)
    }

    /// Everything the engine still owes work for: the backlog, items on
    /// cores, posted sends awaiting completions, and parked retries.
    pub(crate) fn inflight_total(&self) -> usize {
        self.queued() + self.in_flight + self.posted.len() + self.retries.len()
    }

    /// The CTX version to stamp toward `peer`: the minimum of this
    /// engine's own version and the peer's announced version, so the
    /// receiver's parser owns every byte it reads (negotiation rule of the
    /// versioned wire region — see `obs::ctx`).
    pub(crate) fn effective_wire_version(&self, peer: NodeId) -> u8 {
        let peer_v = self.peer_versions.get(peer.0 as usize).copied();
        self.cfg
            .wire_version
            .min(peer_v.unwrap_or(obs::ctx::CTX_CURRENT))
    }

    /// Records a span on this node, returning its id.
    fn span(&self, req_id: u64, tenant: TenantId, stage: Stage, from: SimTime, to: SimTime) -> u32 {
        self.tracer
            .span(req_id, tenant.0, self.node.0 as u32, stage, from, to)
    }

    /// Reads the payload's absolute deadline (see `obs::ctx`) — but only
    /// when this engine's wire version includes the deadline region. A v1
    /// engine predates deadlines entirely: during a rolling upgrade it neither
    /// cancels nor drops expired work (the request still terminates
    /// upstream, typed, at a deadline-aware hop or the gateway).
    fn deadline_of(&self, bytes: &[u8]) -> Option<SimTime> {
        if self.cfg.wire_version < obs::ctx::CTX_V2 {
            return None;
        }
        obs::ctx::read_deadline_ns(bytes).map(SimTime::from_nanos)
    }

    fn on_submit(
        &mut self,
        now: SimTime,
        tenant: TenantId,
        desc: BufferDesc,
        out: &mut impl FnMut(Effect),
    ) {
        self.stats.submitted += 1;
        // One payload peek decides everything trace-related for this
        // descriptor's whole TX life: the ingress-stamped sampling bit
        // and the request id ride on the queue item from here on.
        let (mut req_id, mut sampled) = (0, false);
        if self.tracer.is_enabled() {
            let mut head = [0u8; obs::CTX_REGION];
            let pool = self.tenants.get(tenant.0.into()).map(|s| &s.pool);
            if let Some(n) = pool.and_then(|p| p.peek_payload_into(desc, &mut head)) {
                req_id = req_id_of(&head[..n]);
                sampled = obs::ctx::sampled(&head[..n]);
            }
        }
        let latency = self.ipc.one_way_latency;
        if sampled {
            self.span(req_id, tenant, Stage::ComchSubmit, now, now + latency);
        }
        let crossed = Input::Crossed {
            tenant,
            desc,
            req_id,
            sampled,
        };
        out(Effect::After(latency, crossed));
    }

    /// Dispatches work onto idle engine cores: completions first (they
    /// recycle buffers), then TX descriptors in scheduler order.
    fn kick(&mut self, now: SimTime, out: &mut impl FnMut(Effect)) {
        while self.has_idle_core() {
            let Some(item) = self.next_item(now) else {
                return;
            };
            let (service, stage) = self.service_for(&item);
            let done = self.processor.run_staged(now, service, stage);
            self.in_flight += 1;
            let dispatched_at = now;
            let done_input = Input::Done {
                item,
                dispatched_at,
            };
            out(Effect::After(done - now, done_input));
        }
    }

    fn next_item(&mut self, now: SimTime) -> Option<WorkItem> {
        if let Some(cqe) = self.fabric.poll_one(self.cq) {
            return Some(WorkItem::Rx(cqe));
        }
        let (tenant, item) = self.txq.dequeue()?;
        let wait = now.saturating_since(item.enqueued_at);
        self.stats.tx_queue_wait.record(wait);
        let ctx = item.sampled.then(|| {
            let span = self.span(item.req_id, tenant, Stage::DwrrQueue, item.enqueued_at, now);
            (item.req_id, span)
        });
        if let Some(sink) = &self.obs_sink {
            sink.tx_queue_wait.record_traced(wait, ctx);
        }
        Some(WorkItem::Tx(tenant, item.desc))
    }

    /// Service time and profiler stage of one work item. Only descriptors
    /// that cross the IPC boundary pay its (queue-dependent) share.
    fn service_for(&self, item: &WorkItem) -> (SimDuration, &'static str) {
        let (stage_cost, stage) = match item {
            WorkItem::Tx(..) => (TX_STAGE, "tx_post"),
            WorkItem::Rx(cqe) if cqe.opcode == CqeOpcode::Recv => (RX_STAGE, "rx_deliver"),
            WorkItem::Rx(_) => return (SEND_COMPLETION, "send_completion"),
        };
        let ipc = self.ipc.engine_service(self.endpoints.len(), self.queued());
        let on_path_extra = match self.cfg.offload {
            OffloadMode::OnPath => DMA_PROGRAM,
            OffloadMode::OffPath => SimDuration::ZERO,
        };
        let service = stage_cost + ipc + self.cfg.extra_per_msg + on_path_extra;
        (service, stage)
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

    /// Counts a dropped descriptor, in aggregate and against `tenant`.
    fn drop_for(&mut self, tenant: TenantId) {
        self.stats.drops += 1;
        if let Some(st) = self.tenants.get_mut(tenant.0.into()) {
            st.failures.drops += 1;
        }
    }

    /// Abandons a send after recovery is exhausted: updates aggregate and
    /// per-tenant counters and surfaces the typed failure.
    fn give_up(
        &mut self,
        now: SimTime,
        m: SendMeta,
        reason: FailureReason,
        dst_node: Option<NodeId>,
        out: &mut impl FnMut(Effect),
    ) {
        self.stats.give_ups += 1;
        if m.attempts > 0 {
            let lat = now.saturating_since(m.first_at);
            self.stats.retry_latency.record(lat);
            if let Some(sink) = &self.obs_sink {
                // No sampling decision survives to this site; the sample
                // still counts, just without an exemplar.
                sink.retry_latency.record_traced(lat, None);
            }
        }
        self.drop_for(m.tenant);
        if let Some(st) = self.tenants.get_mut(m.tenant.0.into()) {
            st.failures.give_ups += 1;
        }
        out(Effect::Fail(m.failure(reason, dst_node)));
    }

    /// Cancels a send whose deadline expired before the engine could
    /// (re)post it. Unlike [`Core::give_up`] this is not a transport
    /// failure — it counts as a deadline drop, not a give-up, so fault
    /// accounting (`give_ups`) stays a pure transport-health signal.
    fn cancel_expired(
        &mut self,
        now: SimTime,
        m: SendMeta,
        dst_node: Option<NodeId>,
        out: &mut impl FnMut(Effect),
    ) {
        self.stats.deadline_drops += 1;
        self.drop_for(m.tenant);
        if let Some(st) = self.tenants.get_mut(m.tenant.0.into()) {
            st.failures.deadline_drops += 1;
        }
        if self.tracer.is_enabled() {
            self.span(m.req_id, m.tenant, Stage::DeadlineDrop, now, now);
        }
        let failure = m.failure(FailureReason::DeadlineExceeded, dst_node);
        out(Effect::Fail(failure));
    }

    /// TX stage: redeem the descriptor, route it, and either hand it back
    /// over IPC (local destination) or post it toward the peer.
    fn on_tx(
        &mut self,
        now: SimTime,
        tenant: TenantId,
        desc: BufferDesc,
        dispatched_at: SimTime,
        out: &mut impl FnMut(Effect),
    ) {
        let dst_fn = desc.dst_fn;
        let Some(state) = self.tenants.get(tenant.0.into()) else {
            self.stats.drops += 1;
            return;
        };
        let Ok(buf) = state.pool.redeem(desc) else {
            self.drop_for(tenant);
            return;
        };
        // One bit — the ingress sampling decision carried in the payload's
        // ctx flags — gates every span site on this path. The `is_enabled`
        // guard keeps the ctx bytes application-owned whenever tracing is
        // off: untraced payloads are never interpreted or re-stamped.
        let req_id = req_id_of(buf.as_slice());
        if self.tracer.is_enabled() && obs::ctx::sampled(buf.as_slice()) {
            self.span(req_id, tenant, Stage::DneTx, dispatched_at, now);
        }
        let m = SendMeta::fresh(tenant, dst_fn, req_id, now);
        // Cancellation point: a request whose deadline has already passed
        // is dropped here instead of consuming a connection, fabric
        // flight, and remote RX capacity.
        if self.deadline_of(buf.as_slice()).is_some_and(|d| now >= d) {
            let dst_node = self.routing.lookup(dst_fn);
            self.cancel_expired(now, m, dst_node, out);
            return;
        }
        // Every failing arm drops `buf` → recycled.
        match self.routing.resolve(dst_fn) {
            // The control plane never placed this function (or removed it):
            // surface a typed failure so upstream resolves instead of hanging.
            Err(RouteError::UnknownDestination { .. }) => {
                self.give_up(now, m, FailureReason::UnknownDestination, None, out)
            }
            // The route exists but its node is down with no healthy replica:
            // fail fast at the TX stage instead of posting into a dead peer
            // and burning the retry budget on it.
            Err(RouteError::DestinationDown { node, .. }) => {
                self.give_up(now, m, FailureReason::DestinationDown, Some(node), out)
            }
            // Local destination: hand straight back over IPC.
            Ok(peer) if peer == self.node => match self.endpoints.get(dst_fn.into()).cloned() {
                Some(ep) => {
                    self.stats.rx_delivered += 1;
                    let (desc, latency) = (buf.into_desc(dst_fn), self.ipc.one_way_latency);
                    out(Effect::Deliver { ep, desc, latency });
                }
                None => self.give_up(now, m, FailureReason::UnknownDestination, Some(peer), out),
            },
            Ok(peer) => {
                let send = PendingSend {
                    buf,
                    meta: m,
                    peer,
                    parked_at: now,
                    avoid: None,
                    timer: None,
                };
                self.post(now, send, None, out);
            }
        }
    }

    /// The one way a payload reaches the RNIC — a fresh send from the TX
    /// stage (`retry_id` is `None`) or a parked one whose timer fired or
    /// whose reconnect came up. Deadline check, connection pick (steering
    /// around the QP that failed — shadow-QP failover), trace-context
    /// stamp, bookkeeping, `PostSend`. A dry pool parks the send and asks
    /// for a background reconnect instead of dropping it.
    fn post(
        &mut self,
        now: SimTime,
        mut p: PendingSend,
        retry_id: Option<u64>,
        out: &mut impl FnMut(Effect),
    ) {
        let (mut m, tenant, peer) = (p.meta, p.meta.tenant, p.peer);
        // The deadline may have passed while the send sat parked (e.g. a
        // reconnect flush arriving late): cancel, don't repost.
        if self.deadline_of(p.buf.as_slice()).is_some_and(|d| now >= d) {
            // p.buf drops here → recycled.
            self.cancel_expired(now, m, Some(peer), out);
            return;
        }
        let pick =
            self.conns
                .pick_least_congested_excluding(&self.fabric, now, tenant, peer, p.avoid);
        let Some(qp) = pick else {
            if self.peer_links.contains_key(&(tenant, peer)) {
                // Pool dry (every QP errored or still setting up): park
                // with no timer; the reconnect's flush re-posts it.
                let id = retry_id.unwrap_or_else(|| self.fresh_retry_id());
                self.retries.insert(id, p);
                self.request_reconnect(tenant, peer, out);
            } else {
                let reason = FailureReason::NoConnection;
                self.give_up(now, m, reason, Some(peer), out);
            }
            return;
        };
        if p.avoid.is_some_and(|failed| failed != qp.qp) {
            self.stats.failovers += 1;
        }
        let mut at = now;
        if retry_id.is_none() && self.cfg.offload == OffloadMode::OnPath {
            // Stage host → DPU memory over the SoC DMA; the WR is posted,
            // and the send's clock starts, when the staging completes.
            at = self.soc_dma.transfer(now, p.buf.len());
            m.first_at = at;
        }
        let sampled = self.tracer.is_enabled() && obs::ctx::sampled(p.buf.as_slice());
        if sampled {
            let mut parent = match retry_id {
                // The whole park → repost wait is attributable
                // retry/backoff time on the critical path.
                Some(_) => self.span(m.req_id, tenant, Stage::RetryBackoff, p.parked_at, now),
                None => self.span(m.req_id, tenant, Stage::ConnPick, now, now),
            };
            if at > now {
                parent = self.span(m.req_id, tenant, Stage::SocDma, now, at);
            }
            // Stamp the on-wire trace context so the receiver's spans
            // parent on this node's causal chain (the freshest span id *is*
            // the causal cursor), at the peer's negotiated wire version —
            // which may have changed while a retry backed off mid-upgrade.
            // Unsampled requests skip this: their flags byte is already 0.
            let eff = self.effective_wire_version(peer);
            obs::ctx::write_ctx_at(p.buf.as_mut_slice(), parent, true, eff);
        }
        let seq = self.next_send_wr;
        self.next_send_wr += 1;
        self.stats.tx_posted += 1;
        let record = PostedSend {
            at,
            meta: m,
            peer,
            sampled,
        };
        self.posted.insert(seq, record);
        out(Effect::PostSend {
            qp,
            wr: WrId(u64::MAX - seq),
            buf: p.buf,
            imm: pack_imm(tenant, m.dst_fn),
            at,
        });
    }

    fn fresh_retry_id(&mut self) -> u64 {
        self.next_retry_id += 1;
        self.next_retry_id - 1
    }

    /// Asks for a background reconnect of a dry `(tenant, peer)` pool
    /// (tens of milliseconds cold, §3.3). Idempotent while one is in flight.
    fn request_reconnect(&mut self, tenant: TenantId, peer: NodeId, out: &mut impl FnMut(Effect)) {
        if self.reconnecting.contains(&(tenant, peer)) {
            return;
        }
        let rq = self.tenants.get(tenant.0.into()).map(|t| t.rq);
        let (Some(rq), Some(link)) = (rq, self.peer_links.get(&(tenant, peer))) else {
            return;
        };
        out(Effect::Connect {
            tenant,
            peer,
            rq,
            peer_cq: link.cq,
            peer_rq: link.rq,
        });
        self.reconnecting.insert((tenant, peer));
    }

    /// Fires a parked retry. An id that is no longer parked (already
    /// flushed by a reconnect, or the send ultimately gave up) is a no-op,
    /// so a stale backoff timer can never duplicate a send.
    fn fire_retry(&mut self, now: SimTime, id: u64, out: &mut impl FnMut(Effect)) {
        if let Some(mut p) = self.retries.remove(id) {
            p.timer = None;
            self.post(now, p, Some(id), out);
        }
    }

    /// Ids of the retries parked on `(tenant, peer)`, ascending (the
    /// ring's order), so flushing or failing them is deterministic.
    fn parked_on(&self, tenant: TenantId, peer: NodeId) -> Vec<u64> {
        let on_pair = |p: &PendingSend| p.meta.tenant == tenant && p.peer == peer;
        let parked = self.retries.iter().filter(|(_, p)| on_pair(p));
        parked.map(|(id, _)| id).collect()
    }

    /// RX stage: a polled completion — of one of our sends, or an arrival.
    fn on_cqe(
        &mut self,
        now: SimTime,
        cqe: Cqe,
        dispatched_at: SimTime,
        out: &mut impl FnMut(Effect),
    ) {
        if cqe.opcode != CqeOpcode::Recv {
            return self.on_send_completion(now, cqe, out);
        }
        let tenant = self.rbr.consume(cqe.wr_id);
        if cqe.status != CqeStatus::Success {
            match tenant {
                Some(t) => {
                    self.drop_for(t);
                    self.replenish(t);
                }
                None => self.stats.drops += 1,
            }
            return;
        }
        let (imm_tenant, dst_fn) = unpack_imm(cqe.imm);
        let tenant = tenant.unwrap_or(imm_tenant);
        self.replenish(tenant);
        let Some(buf) = cqe.buf else {
            self.drop_for(tenant);
            return;
        };
        // The receive side reads the same one bit the sender stamped; an
        // unsampled payload costs this branch only.
        let traced = self.tracer.is_enabled() && obs::ctx::sampled(buf.as_slice());
        let req_id = if traced { req_id_of(buf.as_slice()) } else { 0 };
        if traced {
            // Adopt the sender's causal cursor from the payload trace
            // context: the RX spans below parent on the remote send chain
            // instead of starting a new root.
            if let Some(c) = obs::ctx::read_ctx(buf.as_slice()) {
                self.tracer
                    .adopt_parent(req_id, self.node.0 as u32, c.parent_span);
            }
            self.span(req_id, tenant, Stage::RxCompletion, dispatched_at, now);
            // RBR lookup + replenish happen inline within the RX stage;
            // exported as an instant marker.
            self.span(req_id, tenant, Stage::RbrRecover, now, now);
        }
        let Some(ep) = self.endpoints.get(dst_fn.into()).cloned() else {
            // The payload crossed the wire but no endpoint is registered
            // here: typed failure (the sender-side handler never sees this,
            // so the receiving node's handler reports it). The buffer drops
            // here → recycled.
            let m = SendMeta::fresh(tenant, dst_fn, req_id_of(buf.as_slice()), now);
            let (reason, here) = (FailureReason::UnknownDestination, self.node);
            self.give_up(now, m, reason, Some(here), out);
            return;
        };
        let mut latency = self.ipc.one_way_latency;
        if self.cfg.offload == OffloadMode::OnPath {
            // Stage DPU → host memory over the SoC DMA.
            let done = self.soc_dma.transfer(now, buf.len());
            latency += done.saturating_since(now);
        }
        self.stats.rx_delivered += 1;
        if traced {
            self.span(req_id, tenant, Stage::ComchDeliver, now, now + latency);
        }
        let desc = buf.into_desc(dst_fn);
        out(Effect::Deliver { ep, desc, latency });
    }

    fn on_send_completion(&mut self, now: SimTime, cqe: Cqe, out: &mut impl FnMut(Effect)) {
        self.stats.send_completions += 1;
        // Close out the post-to-completion interval opened when the WR was
        // handed to the RNIC.
        let posted = self.posted.remove(send_seq(cqe.wr_id));
        if let Some(p) = &posted {
            let p2c = now.saturating_since(p.at);
            self.stats.post_to_completion.record(p2c);
            let ctx = p.sampled.then(|| {
                let (req, tenant) = (p.meta.req_id, p.meta.tenant);
                (req, self.span(req, tenant, Stage::Fabric, p.at, now))
            });
            if let Some(sink) = &self.obs_sink {
                sink.post_to_completion.record_traced(p2c, ctx);
            }
            if cqe.status == CqeStatus::Success && p.meta.attempts > 0 {
                let lat = now.saturating_since(p.meta.first_at);
                self.stats.retry_latency.record(lat);
                if let Some(sink) = &self.obs_sink {
                    sink.retry_latency.record_traced(lat, ctx);
                }
            }
        }
        // Shadow-QP reaping: idle connections leave the cache.
        self.conns.deactivate_idle(&self.fabric, now);
        // On success cqe.buf drops here → sender buffer recycled.
        if cqe.status != CqeStatus::Success {
            self.on_failed_send(now, cqe, posted, out);
        }
    }

    /// An errored send completion: re-park under the retry budget (the next
    /// pick steers around the failed QP), or give up with a typed failure.
    fn on_failed_send(
        &mut self,
        now: SimTime,
        cqe: Cqe,
        posted: Option<PostedSend>,
        out: &mut impl FnMut(Effect),
    ) {
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
            return self.give_up(now, m, reason, dst_node, out);
        };
        m.req_id = req_id_of(buf.as_slice());
        let peer = match self.routing.resolve(m.dst_fn) {
            Ok(peer) => peer,
            Err(RouteError::DestinationDown { node, .. }) => {
                // The health monitor marked the destination down and no
                // healthy replica exists: fail fast instead of parking a
                // retry that can only time out against a corpse.
                let reason = FailureReason::DestinationDown;
                return self.give_up(now, m, reason, Some(node), out);
            }
            Err(RouteError::UnknownDestination { .. }) => {
                let reason = FailureReason::NoConnection;
                return self.give_up(now, m, reason, posted_peer, out);
            }
        };
        // Blame the node the failed WR actually targeted; route the retry
        // wherever the (possibly failed-over) table points now.
        let blamed = Some(posted_peer.unwrap_or(peer));
        if m.attempts > self.cfg.retry_budget {
            // buf drops here → recycled, not leaked.
            let reason = FailureReason::RetryBudgetExhausted;
            return self.give_up(now, m, reason, blamed, out);
        }
        let backoff = RETRY_BACKOFF * (1u64 << (m.attempts - 1).min(16));
        // Deadline-aware park: when the request is already expired — or its
        // backoff timer would only fire after the deadline — parking is
        // pointless, so cancel now instead of burning a timer and a repost.
        if self
            .deadline_of(buf.as_slice())
            .is_some_and(|d| now + backoff >= d)
        {
            // buf drops here → recycled.
            return self.cancel_expired(now, m, blamed, out);
        }
        self.stats.retries += 1;
        if let Some(st) = self.tenants.get_mut(m.tenant.0.into()) {
            st.failures.retries += 1;
        }
        let id = self.fresh_retry_id();
        let parked = PendingSend {
            buf,
            meta: m,
            peer,
            parked_at: now,
            avoid: Some(cqe.qp),
            timer: None,
        };
        self.retries.insert(id, parked);
        out(Effect::ArmRetry { id, backoff });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpu_sim::mmap::{doca_mmap_create_from_export, doca_mmap_export_full};
    use membuf::pool::PoolConfig;
    use rdma_sim::RdmaCosts;
    use simcore::Sim;

    const TENANT: TenantId = TenantId(1);
    /// The function the test payloads are addressed to, placed on node B.
    const DST: u16 = 2;

    /// One engine state machine on node A, stepped by hand: two ready
    /// connections toward node B pooled, a third ready pair kept aside as
    /// what a reconnect would bring. No driver and no engine on B — a
    /// completion is a `Cqe` the test writes itself. The simulator serves
    /// the fixture only (the fabric flips QPs to Ready on an event, and
    /// timer handles come from it); the core never sees it.
    struct Rig {
        core: Core,
        pool: BufferPool,
        b: NodeId,
        pooled: [QpHandle; 2],
        spare: (QpHandle, QpHandle),
        sim: Sim,
    }

    impl Rig {
        fn new(cfg: DneConfig) -> Rig {
            let fabric = Fabric::new(RdmaCosts::default());
            let mut sim = Sim::new();
            let (a, b) = (fabric.add_node(), fabric.add_node());
            let (cq_a, cq_b) = (fabric.create_cq(a).unwrap(), fabric.create_cq(b).unwrap());
            let mut core = Core::new(fabric.clone(), a, cq_a, cfg);
            let mut pc = PoolConfig::new(TENANT, 0, 4096, 64);
            pc.segment_size = 64 * 4096;
            let pool = BufferPool::new(pc).unwrap();
            let export = doca_mmap_export_full(&pool).unwrap();
            let mapped = doca_mmap_create_from_export(&export).unwrap();
            core.register_tenant(TENANT, 1, &mapped).unwrap();
            let rq_a = core.tenants.get(TENANT.0.into()).unwrap().rq;
            let rq_b = fabric.create_rq(b, TENANT).unwrap();
            let mut connect = || {
                fabric
                    .connect(&mut sim, TENANT, a, cq_a, rq_a, b, cq_b, rq_b)
                    .unwrap()
            };
            let (first, second, spare) = (connect(), connect(), connect());
            sim.run(); // all three pairs Ready
            let pooled = [first.0, second.0];
            for qp in pooled {
                core.conns.add(TENANT, b, qp, sim.now());
            }
            core.link_peer(TENANT, b, cq_b, rq_b);
            core.routing.set(DST, b);
            Rig {
                core,
                pool,
                b,
                pooled,
                spare,
                sim,
            }
        }

        /// Steps the core the way the driver orders it: a `Then` is fed
        /// back in place, everything else is returned in emission order.
        fn run(&mut self, now: SimTime, input: Input) -> Vec<Effect> {
            let mut out = Vec::new();
            self.core.step(now, input, &mut |effect| out.push(effect));
            let mut flat = Vec::new();
            for effect in out {
                match effect {
                    Effect::Then(input) => flat.extend(self.run(now, input)),
                    other => flat.push(other),
                }
            }
            flat
        }

        /// A descriptor for a fresh 32-byte payload carrying `req_id` and,
        /// optionally, an absolute deadline.
        fn payload(&self, req_id: u64, deadline: Option<SimTime>) -> BufferDesc {
            let mut bytes = [0u8; 32];
            bytes[..8].copy_from_slice(&req_id.to_le_bytes());
            if let Some(d) = deadline {
                assert!(obs::ctx::write_deadline_ns(&mut bytes, d.as_nanos()));
            }
            let mut buf = self.pool.get().unwrap();
            buf.write_payload(&bytes).unwrap();
            buf.into_desc(DST)
        }

        /// A core finished the TX stage of `desc`.
        fn tx(&mut self, now: SimTime, desc: BufferDesc) -> Vec<Effect> {
            self.core.in_flight += 1;
            let item = WorkItem::Tx(TENANT, desc);
            let dispatched_at = now;
            self.run(
                now,
                Input::Done {
                    item,
                    dispatched_at,
                },
            )
        }

        /// A core finished processing the send completion of `sent`.
        fn complete(&mut self, now: SimTime, sent: Sent, status: CqeStatus) -> Vec<Effect> {
            self.core.in_flight += 1;
            let cqe = Cqe {
                wr_id: sent.wr,
                qp: sent.qp.qp,
                opcode: CqeOpcode::Send,
                status,
                byte_len: 32,
                imm: sent.imm,
                buf: Some(sent.buf),
            };
            let dispatched_at = now;
            self.run(
                now,
                Input::Done {
                    item: WorkItem::Rx(cqe),
                    dispatched_at,
                },
            )
        }

        /// Every pooled QP errors; the spare pair stays healthy.
        fn kill_pool(&self) {
            for qp in self.pooled {
                self.core.fabric.inject_qp_error(qp).unwrap();
            }
        }

        /// The reconnect's connection is established and comes up at once.
        fn reconnect_up(&mut self, now: SimTime) -> Vec<Effect> {
            let (tenant, peer, (local, remote)) = (TENANT, self.b, self.spare);
            let mut effects = self.run(
                now,
                Input::Connected {
                    tenant,
                    peer,
                    local,
                    remote,
                },
            );
            effects.extend(self.run(now, Input::ReconnectUp { tenant, peer }));
            effects
        }

        /// Buffers away from the pool, beyond the pre-posted receive ring.
        fn buffers_out(&self) -> u32 {
            let stats = self.pool.stats();
            stats.capacity - stats.free - self.core.rbr.len() as u32
        }
    }

    /// What a `PostSend` effect hands the RNIC.
    struct Sent {
        qp: QpHandle,
        wr: WrId,
        buf: OwnedBuf,
        imm: u64,
    }

    /// Takes the single `PostSend` out of `effects`.
    fn sent(effects: Vec<Effect>) -> Sent {
        let mut posts = effects.into_iter().filter_map(|e| match e {
            Effect::PostSend {
                qp, wr, buf, imm, ..
            } => Some(Sent { qp, wr, buf, imm }),
            _ => None,
        });
        let post = posts.next().expect("a PostSend");
        assert!(posts.next().is_none(), "exactly one PostSend");
        post
    }

    fn input_name(input: &Input) -> &'static str {
        match input {
            Input::Crossed { .. } => "Crossed",
            Input::Done { .. } => "Done",
            Input::ReconnectUp { .. } => "ReconnectUp",
            _ => "other",
        }
    }

    /// One line per effect: what the tables below compare. Durations are
    /// left out except the backoff, shown in units of `RETRY_BACKOFF`.
    fn brief(effects: &[Effect]) -> Vec<String> {
        let base = RETRY_BACKOFF.as_nanos();
        let line = |e: &Effect| match e {
            Effect::PostSend { qp, wr, .. } => {
                format!("PostSend qp={} wr={}", qp.qp.0, send_seq(*wr))
            }
            Effect::Deliver { desc, .. } => format!("Deliver fn={}", desc.dst_fn),
            Effect::After(_, input) => format!("After {}", input_name(input)),
            Effect::ArmRetry { id, backoff } => {
                format!("ArmRetry id={id} backoff={}x", backoff.as_nanos() / base)
            }
            Effect::CancelTimer(_) => "CancelTimer".to_string(),
            Effect::Connect { peer, .. } => format!("Connect peer={}", peer.0),
            Effect::PeerConnAdded { peer, handle, .. } => {
                format!("PeerConnAdded peer={} qp={}", peer.0, handle.qp.0)
            }
            Effect::Fail(f) => format!("Fail {:?} attempts={}", f.reason, f.attempts),
            Effect::Then(_) => unreachable!("Rig::run feeds Then back"),
        };
        effects.iter().map(line).collect()
    }

    const T0: SimTime = SimTime::from_nanos(1_000_000_000);
    const LOST: CqeStatus = CqeStatus::TransportRetryExceeded;
    /// A millisecond after `T0`: past every default backoff.
    const LATER: SimTime = SimTime::from_nanos(1_001_000_000);

    /// Posts one payload at `T0` and fails it once: parked as retry 0
    /// behind a backoff timer, steering around the first pooled QP.
    fn park_one(rig: &mut Rig, deadline: Option<SimTime>) -> Vec<String> {
        let desc = rig.payload(7, deadline);
        let posted = rig.tx(T0, desc);
        let failed = rig.complete(T0, sent(posted), LOST);
        brief(&failed)
    }

    #[test]
    fn step_emits_exactly_these_effects() {
        let mut tight_budget = DneConfig::nadino_dne();
        tight_budget.retry_budget = 1;
        type Script = fn(&mut Rig) -> Vec<String>;
        let table: Vec<(&str, DneConfig, Script, Vec<String>)> = vec![
            (
                "first post: submit crosses IPC, is dispatched, is posted",
                DneConfig::nadino_dne(),
                |rig| {
                    let (tenant, desc) = (TENANT, rig.payload(7, None));
                    let mut seen = Vec::new();
                    let mut next = Some(Input::Submit { tenant, desc });
                    while let Some(input) = next.take() {
                        let mut effects = rig.run(T0, input);
                        seen.extend(brief(&effects));
                        if let Some(Effect::After(_, input)) = effects.pop() {
                            next = Some(input);
                        }
                    }
                    seen
                },
                vec![
                    "After Crossed".into(),
                    "After Done".into(),
                    "PostSend qp=0 wr=0".into(),
                ],
            ),
            (
                "error CQE parks the send; the second failure doubles the backoff",
                DneConfig::nadino_dne(),
                |rig| {
                    let mut seen = park_one(rig, None);
                    let reposted = rig.run(LATER, Input::RetryTimer(0));
                    seen.extend(brief(&reposted));
                    let failed = rig.complete(LATER, sent(reposted), LOST);
                    seen.extend(brief(&failed));
                    assert_eq!(rig.core.stats.failovers, 1);
                    seen
                },
                vec![
                    "ArmRetry id=0 backoff=1x".into(),
                    "PostSend qp=2 wr=1".into(),
                    "ArmRetry id=1 backoff=2x".into(),
                ],
            ),
            (
                "budget exhaustion gives up typed",
                tight_budget,
                |rig| {
                    let mut seen = park_one(rig, None);
                    let reposted = rig.run(LATER, Input::RetryTimer(0));
                    let failed = rig.complete(LATER, sent(reposted), LOST);
                    seen.extend(brief(&failed));
                    assert_eq!((rig.core.stats.give_ups, rig.core.stats.deadline_drops), (1, 0));
                    assert_eq!(rig.buffers_out(), 0);
                    seen
                },
                vec![
                    "ArmRetry id=0 backoff=1x".into(),
                    "Fail RetryBudgetExhausted attempts=2".into(),
                ],
            ),
            (
                "a backoff that would outlive the deadline is a deadline drop, not a give-up",
                DneConfig::nadino_dne(),
                |rig| {
                    let seen = park_one(rig, Some(T0 + RETRY_BACKOFF));
                    assert_eq!((rig.core.stats.give_ups, rig.core.stats.deadline_drops), (0, 1));
                    assert!(rig.core.retries.is_empty());
                    assert_eq!(rig.buffers_out(), 0);
                    seen
                },
                vec!["Fail DeadlineExceeded attempts=1".into()],
            ),
            (
                "dry pool parks and asks for one reconnect",
                DneConfig::nadino_dne(),
                |rig| {
                    rig.kill_pool();
                    let (first, second) = (rig.payload(7, None), rig.payload(8, None));
                    let mut effects = rig.tx(T0, first);
                    effects.extend(rig.tx(T0, second));
                    assert_eq!(rig.core.retries.len(), 2);
                    brief(&effects)
                },
                vec!["Connect peer=1".into()],
            ),
            (
                "reconnect-up cancels timers and reposts in retry-id order; a stale timer is a no-op",
                DneConfig::nadino_dne(),
                |rig| {
                    park_one(rig, None); // retry 0, behind a timer
                    let timer = rig.sim.schedule_after(SimDuration::from_secs(1), |_| {});
                    rig.core.retry_armed(0, timer);
                    rig.kill_pool();
                    let desc = rig.payload(8, None);
                    rig.tx(LATER, desc); // retry 1, parked on the reconnect
                    let up = rig.reconnect_up(LATER);
                    let stale = rig.run(LATER, Input::RetryTimer(0));
                    assert!(stale.is_empty() && rig.core.retries.is_empty());
                    brief(&up)
                },
                vec![
                    "PeerConnAdded peer=1 qp=5".into(),
                    "After ReconnectUp".into(),
                    "CancelTimer".into(),
                    "PostSend qp=4 wr=1".into(),
                    "PostSend qp=4 wr=2".into(),
                ],
            ),
        ];
        for (name, cfg, script, want) in table {
            let mut rig = Rig::new(cfg);
            assert_eq!(script(&mut rig), want, "{name}");
        }
    }

    /// ROADMAP 4c in miniature. One send sits parked behind a backoff timer
    /// with every pooled QP dead; then five things happen in every possible
    /// order. Whatever the order, the send ends exactly once — one
    /// `PostSend` (completed at the end) or one `Fail` — nothing stays
    /// parked, and its buffer is back in the pool.
    #[test]
    fn a_parked_send_ends_exactly_once_under_every_event_order() {
        #[derive(Clone, Copy, Debug, PartialEq)]
        enum Event {
            TimerFires,
            ReconnectUp,
            ReconnectFails,
            DeadlinePasses,
            NodeMarkedDown,
        }
        use Event::*;
        fn permutations(rest: &mut Vec<Event>, prefix: &mut Vec<Event>, all: &mut Vec<Vec<Event>>) {
            if rest.is_empty() {
                return all.push(prefix.clone());
            }
            for i in 0..rest.len() {
                let e = rest.remove(i);
                prefix.push(e);
                permutations(rest, prefix, all);
                prefix.pop();
                rest.insert(i, e);
            }
        }
        let mut orders = Vec::new();
        let mut events = vec![
            TimerFires,
            ReconnectUp,
            ReconnectFails,
            DeadlinePasses,
            NodeMarkedDown,
        ];
        permutations(&mut events, &mut Vec::new(), &mut orders);
        assert_eq!(orders.len(), 120);

        let deadline = T0 + SimDuration::from_millis(50);
        let (mut posted, mut failed) = (0, 0);
        for order in orders {
            let mut rig = Rig::new(DneConfig::nadino_dne());
            assert_eq!(
                park_one(&mut rig, Some(deadline)),
                ["ArmRetry id=0 backoff=1x"]
            );
            rig.kill_pool();
            let mut now = T0 + SimDuration::from_millis(1);
            let mut endings = Vec::new();
            for event in &order {
                let (tenant, peer) = (TENANT, rig.b);
                let effects = match event {
                    TimerFires => rig.run(now, Input::RetryTimer(0)),
                    ReconnectUp => rig.reconnect_up(now),
                    ReconnectFails => rig.run(now, Input::ReconnectFailed { tenant, peer }),
                    DeadlinePasses => {
                        now = deadline + SimDuration::from_nanos(1);
                        Vec::new()
                    }
                    NodeMarkedDown => {
                        rig.core.routing.fail_over(peer);
                        Vec::new()
                    }
                };
                let ends = |e: &Effect| matches!(e, Effect::PostSend { .. } | Effect::Fail(_));
                endings.extend(effects.into_iter().filter(ends));
            }
            assert_eq!(endings.len(), 1, "{order:?}: {:?}", brief(&endings));
            assert!(rig.core.retries.is_empty(), "{order:?}: still parked");
            match endings.pop() {
                Some(post @ Effect::PostSend { .. }) => {
                    posted += 1;
                    assert_eq!(rig.buffers_out(), 1, "{order:?}: the RNIC holds the buffer");
                    let done = rig.complete(now, sent(vec![post]), CqeStatus::Success);
                    assert!(done.is_empty(), "{order:?}");
                }
                _ => failed += 1,
            }
            assert_eq!(
                rig.buffers_out(),
                0,
                "{order:?}: buffer not back in its pool"
            );
            assert!(rig.core.posted.is_empty(), "{order:?}");
        }
        assert!(posted > 0 && failed > 0, "both endings are exercised");
    }
}
