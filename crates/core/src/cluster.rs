//! Cluster assembly: worker nodes with DPUs, tenants, chains.
//!
//! A [`Cluster`] wires the full NADINO stack on a simulated testbed: a
//! fabric with one RNIC per worker node, a [`dne::Dne`] per node (DPU or
//! CPU flavoured, per the configured [`DneConfig`]), host cores, per-node
//! per-tenant unified memory pools exported cross-processor via the DOCA
//! mmap handshake, the unified I/O library, and the chain and DAG
//! functions it runs.
//!
//! The cluster is also the one place a request enters (DESIGN.md §12,
//! "Front door and load driver"). [`Cluster::inject`],
//! [`Cluster::inject_with_deadline`] and [`Cluster::inject_dag`] share one
//! injection body; [`Cluster::serve_chain`] puts an ingress gateway in
//! front of it. Every completion and typed failure leaves by one outcome
//! path, which answers each held gateway reply exactly once, so
//! [`Cluster::pending_replies`] is the number of requests still unanswered.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::{Rc, Weak};

use dne::types::{DeliveryFailure, DneConfig};
use dne::Dne;
use dpu_sim::mmap::{doca_mmap_create_from_export, doca_mmap_export_full};
use dpu_sim::soc::{Processor, ProcessorKind};
use ingress::gateway::{DeliveryFailed, Reply, ReqCtx, Upstream};
use membuf::pool::{BufferPool, PoolConfig};
use membuf::tenant::TenantId;
use rdma_sim::{Fabric, NodeId, RdmaCosts};
use runtime::function::CompletionFn;
use runtime::{ChainSpec, DagSpec, IoLib, Placement, Spec};
use simcore::{IdTable, Sim, SimDuration, SimTime};

use crate::control::ControlPlane;

/// Host CPU cores per worker node: enough that they never saturate, so
/// Table 2's host columns read utilisation.
pub(crate) const HOST_CORES: usize = 32;
/// Buffer size of each tenant pool: fits the largest payload any experiment
/// sends (4 KB, Fig. 6) plus the CTX region.
const BUF_SIZE: usize = 8 * 1024;

/// Cluster construction parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of worker nodes.
    pub workers: usize,
    /// Network-engine configuration (same on every node).
    pub dne: DneConfig,
    /// Buffers per tenant pool per node.
    pub pool_bufs: u32,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            workers: 2,
            dne: DneConfig::nadino_dne(),
            pool_bufs: 2048,
        }
    }
}

/// One worker node's components.
pub struct NodeHandle {
    /// Fabric identity of the node's RNIC.
    pub id: NodeId,
    /// The node's network engine (DNE on the DPU or CNE on the CPU).
    pub dne: Dne,
    /// Host cores executing functions.
    pub cpu: Rc<RefCell<Processor>>,
    /// The node's unified I/O library.
    pub iolib: IoLib,
}

/// One routing rebalance: the functions switched off a failed node, plus
/// the ones stranded there (no healthy alternative — typed
/// `DestinationDown` until a target recovers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebalanceOutcome {
    /// The node the routes moved away from.
    pub node: NodeId,
    /// Function ids re-pointed at healthy alternatives, sorted.
    pub switched: Vec<u16>,
    /// Function ids left with no healthy target, sorted.
    pub stranded: Vec<u16>,
}

/// Everything a request's end reaches ([`Hub::leave`]). The cluster owns
/// it; every closure that reaches it (each engine's failure handler, each
/// completion hook) holds it weakly, so dropping the cluster frees it.
#[derive(Default)]
struct Hub {
    /// Tail sampler + flight recorder + SLO monitor, when enabled.
    pipeline: Option<obs::TracePipeline>,
    /// The control plane, when started: it hears every failure and the
    /// number of burn-alerting tenants after every completion.
    control: Option<ControlPlane>,
    /// Gateway replies held for requests that entered through the front
    /// door, by request id. Whoever removes an entry answers it, so a
    /// completion and a failure for the same request cannot both fire.
    replies: HashMap<u64, Reply>,
    /// The user's delivery-failure handler, run last.
    user_failure: Option<dne::DeliveryFailureHandler>,
    /// Every node's I/O library: a typed failure closes the request's DAG
    /// joins on all of them.
    libs: Vec<IoLib>,
}

/// What a completion answers after the pipeline and the control plane: a
/// front-door chain's held reply, `Ok(.0)` bytes, or the caller's callback.
enum Done {
    Door(usize),
    Caller(CompletionFn),
}

/// How a request leaves the cluster: its chain or DAG completed, or the
/// engine of node `.0` gave up on it.
#[derive(Clone, Copy)]
enum Outcome<'a> {
    Completed(&'a Done),
    Failed(NodeId, DeliveryFailure),
}

impl Hub {
    /// The one way out of the cluster (DESIGN.md §12): every completion
    /// and every typed failure of `req_id` crosses here in one order. A
    /// failure closes the request's DAG joins on every node; then the trace
    /// pipeline records the outcome, the control plane hears it (the
    /// failure, or how many tenants a completion left burn-alerting), a held
    /// gateway reply is answered, and the caller's callback runs last.
    fn leave(hub: &Weak<RefCell<Hub>>, sim: &mut Sim, req_id: u64, outcome: Outcome) {
        let Some(hub) = hub.upgrade() else {
            return;
        };
        let now = sim.now();
        let (control, alerting) = {
            let mut h = hub.borrow_mut();
            if let Outcome::Failed(..) = outcome {
                h.libs.iter().for_each(|lib| lib.forget(req_id));
            }
            // An SLO burn-alert rising edge takes its dump in `on_complete`.
            let alerting = h.pipeline.as_mut().and_then(|p| match outcome {
                Outcome::Failed(..) => {
                    p.on_failure(now, req_id);
                    None
                }
                Outcome::Completed(_) => {
                    p.on_complete(now, req_id);
                    Some(p.alerting_count())
                }
            });
            (h.control.clone(), alerting)
        };
        match (control, outcome, alerting) {
            (Some(c), Outcome::Failed(reporter, failure), _) => c.failed(sim, reporter, failure),
            (Some(c), Outcome::Completed(_), Some(n)) => c.alerting(sim, n),
            _ => {}
        }
        match outcome {
            Outcome::Failed(_, failure) => {
                Hub::answer(&hub, sim, req_id, Err(DeliveryFailed));
                let user = hub.borrow().user_failure.clone();
                if let Some(user) = user {
                    user(sim, failure);
                }
            }
            Outcome::Completed(Done::Door(bytes)) => Hub::answer(&hub, sim, req_id, Ok(*bytes)),
            Outcome::Completed(Done::Caller(then)) => then(sim, req_id),
        }
    }

    /// Answers the reply held for request `req` `with` an outcome, unless
    /// it was answered already. Taken out under the borrow, called outside
    /// it: the reply runs the gateway's completion, which may submit again.
    fn answer(hub: &RefCell<Hub>, sim: &mut Sim, req: u64, with: Result<usize, DeliveryFailed>) {
        let reply = hub.borrow_mut().replies.remove(&req);
        if let Some(reply) = reply {
            reply(sim, with);
        }
    }
}

/// A fully wired NADINO cluster.
pub struct Cluster {
    /// The RDMA fabric connecting the nodes.
    pub fabric: Fabric,
    /// Worker nodes, indexed 0..workers.
    pub nodes: Vec<NodeHandle>,
    /// The shared placement map.
    pub placement: Rc<RefCell<Placement>>,
    cfg: ClusterConfig,
    /// `tenant id → node index → pool`: every injected request takes its
    /// buffer from here, so both keys are indices.
    pools: IdTable<Vec<BufferPool>>,
    /// The cluster tracer (disabled until [`Cluster::set_tracer`]).
    tracer: RefCell<obs::Tracer>,
    /// The next direct-mode request id: every `ClosedLoop` started on this
    /// cluster draws from it, so one id names one request cluster-wide.
    pub(crate) request_ids: Rc<Cell<u64>>,
    hub: Rc<RefCell<Hub>>,
}

impl Cluster {
    /// Builds the cluster (nodes, engines, I/O libraries).
    pub fn new(sim: &mut Sim, cfg: ClusterConfig) -> Cluster {
        assert!(cfg.workers >= 1, "need at least one worker node");
        let fabric = Fabric::new(RdmaCosts::default());
        let placement = Rc::new(RefCell::new(Placement::new()));
        let mut nodes = Vec::with_capacity(cfg.workers);
        for _ in 0..cfg.workers {
            let id = fabric.add_node();
            let dne = Dne::new(fabric.clone(), id, cfg.dne.clone())
                .expect("node creation cannot fail on a fresh fabric");
            let cpu = Rc::new(RefCell::new(Processor::new(
                ProcessorKind::HostCpu,
                HOST_CORES,
            )));
            let iolib = IoLib::new(id, dne.clone(), cpu.clone(), placement.clone());
            nodes.push(NodeHandle {
                id,
                dne,
                cpu,
                iolib,
            });
        }
        // Every engine's failures leave through the one outcome path.
        let hub = Rc::new(RefCell::new(Hub::default()));
        hub.borrow_mut().libs = nodes.iter().map(|n| n.iolib.clone()).collect();
        for node in &nodes {
            let (hub, reporter) = (Rc::downgrade(&hub), node.id);
            node.dne.set_failure_handler(Rc::new(move |sim, failure| {
                let outcome = Outcome::Failed(reporter, failure);
                Hub::leave(&hub, sim, failure.req_id, outcome);
            }));
        }
        // Nothing is scheduled yet; run to settle any setup events.
        sim.run_until(sim.now());
        Cluster {
            fabric,
            nodes,
            placement,
            cfg,
            pools: IdTable::new(),
            tracer: RefCell::default(),
            request_ids: Rc::default(),
            hub,
        }
    }

    /// Provisions a tenant: one unified memory pool per node (exported to
    /// the DPU and RNIC), registration with every engine, and a pool of RC
    /// connections between every pair of nodes. Advances the simulation
    /// past connection setup.
    pub fn add_tenant(
        &mut self,
        sim: &mut Sim,
        tenant: TenantId,
        weight: u32,
    ) -> Result<(), dne::engine::DneError> {
        for (idx, node) in self.nodes.iter().enumerate() {
            let mut pc = PoolConfig::new(tenant, 0, BUF_SIZE, self.cfg.pool_bufs);
            pc.segment_size = membuf::hugepage::HUGEPAGE_SIZE;
            let pool = BufferPool::new(pc).expect("validated pool geometry");
            // The three-step DOCA handshake: export on the host, ship the
            // descriptor, import on the DPU.
            let export = doca_mmap_export_full(&pool).expect("grants are non-empty");
            let mapped = doca_mmap_create_from_export(&export).expect("PCI grant present");
            node.dne.register_tenant(tenant, weight, &mapped)?;
            node.iolib.register_tenant_pool(tenant, pool.clone());
            let per_node = self.pools.get_or_insert_with(tenant.0.into(), Vec::new);
            debug_assert_eq!(per_node.len(), idx, "a tenant is provisioned once");
            per_node.push(pool);
        }
        // Pre-establish connection pools between every node pair.
        for i in 0..self.nodes.len() {
            for j in (i + 1)..self.nodes.len() {
                Dne::connect_pair(
                    sim,
                    &self.nodes[i].dne,
                    &self.nodes[j].dne,
                    tenant,
                    self.cfg.dne.conns_per_peer,
                )?;
            }
        }
        // Let the RC connections come up (tens of milliseconds).
        sim.run_for(self.fabric.costs().connect_delay + SimDuration::from_millis(1));
        Ok(())
    }

    /// Returns the tenant's pool on node `idx`.
    ///
    /// # Panics
    ///
    /// If the tenant was never [`Cluster::add_tenant`]ed: set-up code
    /// asking for a pool that does not exist is a bug in the caller.
    pub fn pool(&self, tenant: TenantId, idx: usize) -> &BufferPool {
        self.find_pool(tenant, idx)
            .expect("tenant provisioned on this node")
    }

    fn find_pool(&self, tenant: TenantId, idx: usize) -> Option<&BufferPool> {
        self.pools
            .get(tenant.0.into())
            .and_then(|per_node| per_node.get(idx))
    }

    /// Snapshot of every provisioned `(tenant, node index, pool)` triple.
    pub fn pools_snapshot(&self) -> Vec<(TenantId, usize, BufferPool)> {
        let mut v: Vec<_> = self
            .pools
            .iter()
            .flat_map(|(t, per_node)| {
                let pools = per_node.iter().enumerate();
                pools.map(move |(i, p)| (TenantId(t as u16), i, p.clone()))
            })
            .collect();
        v.sort_by_key(|&(t, i, _)| (t, i));
        v
    }

    /// Places a function on worker node `idx` and syncs all routing tables.
    pub fn place(&self, fn_id: u16, idx: usize) {
        let node = self.nodes[idx].id;
        self.placement.borrow_mut().place(fn_id, node);
        for n in &self.nodes {
            n.dne.set_route(fn_id, node);
        }
    }

    /// Places `fn_id` on `primary_idx` with a standby on `backup_idx`:
    /// every routing table learns both, and endpoint registration
    /// ([`Cluster::register_chain`] / [`Cluster::register_dag`]) installs
    /// the function on both nodes so failover needs no new deployment.
    pub fn place_with_backup(&mut self, fn_id: u16, primary_idx: usize, backup_idx: usize) {
        assert_ne!(primary_idx, backup_idx, "backup must be a different node");
        self.place(fn_id, primary_idx);
        let backup = self.nodes[backup_idx].id;
        for n in &self.nodes {
            n.dne.set_backup_route(fn_id, backup);
        }
    }

    /// Makes the placement map follow the routing tables for `fns` after a
    /// rebalance: where a function lives is the tables' decision (backup,
    /// displaced primary or rescue target), read back from an engine —
    /// they all hold the same table.
    fn follow_routes(&self, fns: &[u16]) {
        let mut placement = self.placement.borrow_mut();
        for &f in fns {
            if let Some(node) = self.nodes[0].dne.route_of(f) {
                placement.place(f, node);
            }
        }
    }

    /// Re-routes every function whose primary lives on node `idx` to its
    /// backup (routing tables and the placement map). Normally driven by
    /// the control plane, which logs the outcome.
    ///
    /// Returns the full rebalance outcome: the switched function ids
    /// **and** the stranded ones (routed at the failed node with no
    /// healthy alternative — they resolve `DestinationDown` until a target
    /// recovers). Every engine's table is updated; the outcome is
    /// aggregated across all of them so no engine's result is dropped.
    pub fn fail_over_node(&self, idx: usize) -> RebalanceOutcome {
        let failed = self.nodes[idx].id;
        let mut switched = std::collections::BTreeSet::new();
        let mut stranded = std::collections::BTreeSet::new();
        for n in &self.nodes {
            switched.extend(n.dne.fail_over_node(failed));
            stranded.extend(n.dne.stranded_on(failed));
        }
        let outcome = RebalanceOutcome {
            node: failed,
            switched: switched.into_iter().collect(),
            stranded: stranded.into_iter().collect(),
        };
        self.follow_routes(&outcome.switched);
        outcome
    }

    /// Restores functions displaced off node `idx` by a failover. Returns
    /// the restored function ids, aggregated across every engine's table.
    pub fn restore_node(&self, idx: usize) -> Vec<u16> {
        let node = self.nodes[idx].id;
        let mut restored = std::collections::BTreeSet::new();
        for n in &self.nodes {
            restored.extend(n.dne.restore_node(node));
        }
        let restored: Vec<u16> = restored.into_iter().collect();
        self.follow_routes(&restored);
        restored
    }

    /// Switches node `idx`'s engine to CTX wire `version` and announces
    /// the new version to every engine in the cluster (the control-plane
    /// half of version negotiation: peers stamp toward this node at
    /// `min(own, announced)` from the next send on).
    pub fn set_node_wire_version(&self, idx: usize, version: u8) {
        let node = self.nodes[idx].id;
        self.nodes[idx].dne.set_wire_version(version);
        for n in &self.nodes {
            n.dne.set_peer_wire_version(node, version);
        }
    }

    /// Returns the node index hosting `fn_id`.
    pub fn node_index_of(&self, fn_id: u16) -> Option<usize> {
        let node = self.placement.borrow().node_of(fn_id)?;
        self.index_of(node)
    }

    fn index_of(&self, node: NodeId) -> Option<usize> {
        self.nodes.iter().position(|n| n.id == node)
    }

    /// Registers every function of `chain` on its node (and standby), as
    /// data, with `exec_cost` pricing each function's logic. Functions must
    /// already be placed.
    pub fn register_chain(
        &self,
        chain: &ChainSpec,
        exec_cost: impl Fn(u16) -> SimDuration,
        on_complete: CompletionFn,
    ) {
        let spec = Spec::Chain(Rc::new(chain.clone()));
        self.register(spec, exec_cost, Done::Caller(on_complete));
    }

    /// Registers every function of `dag` (the paper's fan-out/fan-in
    /// dataflow layered on the same primitives), as [`Cluster::register_chain`]
    /// does a chain's.
    pub fn register_dag(
        &self,
        dag: &DagSpec,
        exec_cost: impl Fn(u16) -> SimDuration,
        on_complete: CompletionFn,
    ) {
        let spec = Spec::Dag(Rc::new(dag.clone()));
        self.register(spec, exec_cost, Done::Caller(on_complete));
    }

    /// Registers `spec`'s functions with one completion hook, which sends
    /// each finished request out through the one outcome path.
    fn register(&self, spec: Spec, exec_cost: impl Fn(u16) -> SimDuration, done: Done) {
        let hub = Rc::downgrade(&self.hub);
        let on_complete: CompletionFn = Rc::new(move |sim, req| {
            Hub::leave(&hub, sim, req, Outcome::Completed(&done));
        });
        for f in spec.functions() {
            let idx = self
                .node_index_of(f)
                .unwrap_or_else(|| panic!("function {f} is not placed"));
            for idx in self.deploy_indices(f, idx) {
                let (spec, done) = (spec.clone(), on_complete.clone());
                self.nodes[idx]
                    .iolib
                    .register_spec(f, spec, exec_cost(f), done);
            }
        }
    }

    /// The node indices a function is deployed on: its placement plus any
    /// standby registered via [`Cluster::place_with_backup`].
    fn deploy_indices(&self, fn_id: u16, placed_idx: usize) -> Vec<usize> {
        let backup = self.nodes[placed_idx].dne.backup_route_of(fn_id);
        let backup_idx = backup.and_then(|b| self.index_of(b));
        let standby = backup_idx.filter(|&b| b != placed_idx);
        std::iter::once(placed_idx).chain(standby).collect()
    }

    /// Injects one request into a DAG's root function.
    pub fn inject_dag(&self, sim: &mut Sim, dag: &DagSpec, req_id: u64) -> bool {
        let call = |p: &mut [u8]| {
            runtime::dag::set_dag_header(p, runtime::dag::DagMsg::Call, runtime::dag::CLIENT_CALLER)
        };
        self.enter(sim, dag.tenant, dag.root, req_id, 64, call)
    }

    /// Roots a trace at injection: applies the ingress sampling decision
    /// (direct injection is its own ingress when no gateway made the call),
    /// adopts any gateway-side cursor (the ingress records its spans under
    /// a synthetic node id, linked when it forwards the same request id)
    /// and stamps the initial on-wire context into the payload. An
    /// unsampled request leaves the payload's ctx flags at zero, so every
    /// downstream component skips its span sites on that one bit.
    /// Returns the sampling decision so injectors can pass it along with
    /// the descriptor instead of re-peeking the payload downstream.
    fn stamp_root_ctx(&self, payload: &mut [u8], req_id: u64, entry_idx: usize) -> bool {
        let tracer = self.tracer.borrow();
        if !tracer.decide_sample(req_id) {
            return false;
        }
        let entry_node = self.nodes[entry_idx].id.0 as u32;
        let gw = tracer.cursor(req_id, ingress::gateway::GATEWAY_NODE);
        tracer.adopt_parent(req_id, entry_node, gw);
        obs::ctx::write_ctx(payload, gw, true);
        true
    }

    /// Injects one request into a chain: writes the payload into the entry
    /// node's pool and delivers the descriptor to the entry function.
    ///
    /// Returns `false` when the request is refused: the entry function is
    /// not placed, the tenant has no pool, or the entry pool is exhausted
    /// (the request is shed, as a real admission controller would).
    pub fn inject(
        &self,
        sim: &mut Sim,
        chain: &ChainSpec,
        req_id: u64,
        payload_len: usize,
    ) -> bool {
        self.enter_chain(sim, chain, req_id, payload_len, 0)
    }

    /// Like [`Cluster::inject`], but stamps an absolute `deadline` into the
    /// on-wire context: every downstream stage (engine send/retry paths,
    /// function dispatch) cancels the request once it expires, surfacing a
    /// typed deadline failure instead of wasted work.
    pub fn inject_with_deadline(
        &self,
        sim: &mut Sim,
        chain: &ChainSpec,
        req_id: u64,
        payload_len: usize,
        deadline: SimTime,
    ) -> bool {
        self.enter_chain(sim, chain, req_id, payload_len, deadline.as_nanos())
    }

    fn enter_chain(
        &self,
        sim: &mut Sim,
        chain: &ChainSpec,
        req_id: u64,
        payload_len: usize,
        deadline_ns: u64,
    ) -> bool {
        let header = |p: &mut [u8]| {
            runtime::set_hop(p, 0);
            if deadline_ns != 0 {
                obs::write_deadline_ns(p, deadline_ns);
            }
        };
        let (tenant, entry) = (chain.tenant, chain.entry());
        self.enter(sim, tenant, entry, req_id, payload_len, header)
    }

    /// The one injection body: takes a buffer from the entry node's pool,
    /// writes the request id, the chain or DAG `header` (hop index or call
    /// header, and any deadline) and the root trace context, and delivers
    /// the descriptor to `entry` through the node's I/O library. `false` =
    /// refused (not placed, tenant never provisioned, or the entry pool is
    /// exhausted); nothing was sent.
    fn enter(
        &self,
        sim: &mut Sim,
        tenant: TenantId,
        entry: u16,
        req_id: u64,
        payload_len: usize,
        header: impl FnOnce(&mut [u8]),
    ) -> bool {
        let Some(idx) = self.node_index_of(entry) else {
            return false;
        };
        let Some(mut buf) = self.find_pool(tenant, idx).and_then(|p| p.get().ok()) else {
            return false;
        };
        // Payloads are sized to carry the on-wire trace context (24 bytes,
        // deadline included) even when the caller asked for less.
        let len = payload_len.max(obs::CTX_REGION);
        let Some(payload) = runtime::write_request_payload(&mut buf, req_id, len) else {
            return false;
        };
        header(payload);
        let sampled = self.stamp_root_ctx(payload, req_id, idx);
        let desc = buf.into_desc(entry);
        self.nodes[idx]
            .iolib
            .send_traced(sim, tenant, desc, Some((req_id, sampled)));
        true
    }

    /// The front door for gateway traffic: registers `chain` (as
    /// [`Cluster::register_chain`] does) and returns the [`Upstream`] to
    /// hand to the ingress gateway. Each admitted request is injected with
    /// `payload` bytes under the gateway's request id and deadline, and its
    /// reply is held until the chain completes (`Ok(payload)`) or a typed
    /// delivery failure names the request (`Err(DeliveryFailed)`) —
    /// whichever comes first; the other is ignored. A request the entry
    /// pool refuses, or one whose id already has a reply held (a cluster
    /// has one request-id space), is answered `Err` at once and never held.
    ///
    /// The upstream holds the cluster weakly: a held reply can own the
    /// load driver, which owns the upstream.
    pub fn serve_chain(
        self: &Rc<Self>,
        chain: &ChainSpec,
        exec_cost: impl Fn(u16) -> SimDuration,
        payload: usize,
    ) -> Upstream {
        let spec = Spec::Chain(Rc::new(chain.clone()));
        self.register(spec, exec_cost, Done::Door(payload));
        let cluster = Rc::downgrade(self);
        let chain = chain.clone();
        Rc::new(move |sim: &mut Sim, ctx: ReqCtx, reply: Reply| {
            let Some(cluster) = cluster.upgrade() else {
                return reply(sim, Err(DeliveryFailed));
            };
            // Held before the request enters, so no failure can miss it. A
            // second reply under a live id is refused; the first one stays.
            let hub = &cluster.hub;
            let live = hub.borrow().replies.contains_key(&ctx.req_id);
            if live {
                return reply(sim, Err(DeliveryFailed));
            }
            hub.borrow_mut().replies.insert(ctx.req_id, reply);
            if !cluster.enter_chain(sim, &chain, ctx.req_id, payload, ctx.deadline_ns) {
                Hub::answer(hub, sim, ctx.req_id, Err(DeliveryFailed));
            }
        })
    }

    /// Requests that entered through the front door and have not been
    /// answered yet. Zero after a drained run means no request hung.
    pub fn pending_replies(&self) -> usize {
        self.hub.borrow().replies.len()
    }

    /// Installs `tracer` on every node's I/O library and network engine
    /// plus the fabric, so one tracer sees a request's spans — including
    /// fault-plane annotations — across the whole cluster.
    ///
    /// Call before [`Cluster::enable_trace_pipeline`] so the pipeline
    /// drains the same tracer.
    pub fn set_tracer(&self, tracer: &obs::Tracer) {
        for n in &self.nodes {
            n.iolib.set_tracer(tracer.clone());
        }
        self.fabric.set_tracer(tracer.clone());
        *self.tracer.borrow_mut() = tracer.clone();
    }

    /// Enables the trace pipeline: completed traces drain through the
    /// tail sampler, flight recorder and (optional) per-tenant SLO burn
    /// monitor; a typed `DeliveryFailure` or an SLO burn freezes a dump.
    pub fn enable_trace_pipeline(&self, cfg: obs::PipelineConfig) {
        let tracer = self.tracer();
        self.hub.borrow_mut().pipeline = Some(obs::TracePipeline::new(tracer, cfg));
    }

    /// Runs `f` against the trace pipeline, when one is enabled.
    pub fn with_trace_pipeline<R>(
        &self,
        f: impl FnOnce(&mut obs::TracePipeline) -> R,
    ) -> Option<R> {
        self.hub.borrow_mut().pipeline.as_mut().map(f)
    }

    /// Takes an explicit flight-recorder dump: the current ring of recent
    /// traces and SLO counters as one self-contained JSON bundle. Returns
    /// `None` when no pipeline is enabled.
    pub fn dump_flight_recorder(&self, sim: &Sim) -> Option<obs::JsonValue> {
        self.hub
            .borrow_mut()
            .pipeline
            .as_mut()
            .map(|p| p.trigger(obs::TriggerReason::Explicit, sim.now()).clone())
    }

    /// The cluster tracer (disabled until [`Cluster::set_tracer`]).
    pub(crate) fn tracer(&self) -> obs::Tracer {
        self.tracer.borrow().clone()
    }

    /// Hands every failure and every completion's count of burn-alerting
    /// tenants to `control` ([`ControlPlane::start`]).
    pub(crate) fn set_control_plane(&self, control: ControlPlane) {
        self.hub.borrow_mut().control = Some(control);
    }

    /// Installs `handler` at the end of the outcome path, so a delivery
    /// the DNE gave up on (retry budget exhausted, no reconnectable route)
    /// reaches one place — typically the ingress, which answers the client
    /// with a `503` instead of leaving the request hanging. When the trace
    /// pipeline is enabled it records the failure (and takes its dump)
    /// before the handler runs.
    pub fn set_delivery_failure_handler(&self, handler: dne::DeliveryFailureHandler) {
        self.hub.borrow_mut().user_failure = Some(handler);
    }

    /// Samples the cluster's *levels* — values that can fall — into `reg`
    /// as gauges: per-`(node, tenant)` TX queue depth, DWRR deficit and
    /// shadow-QP hit rate, per-node engine backlog and active QPs.
    /// Running totals are not sampled: each lives in the struct that counts
    /// it ([`dne::types::DneStats`], `FleetCounters`, [`obs::Tracer`], …)
    /// and is read from there after the run (DESIGN.md §2.4). `now` stamps
    /// the burn monitor's series point; `window` is unused and stays only
    /// because the frozen benchmark driver passes it.
    pub fn sample_obs(&self, now: SimTime, reg: &obs::MetricsRegistry, _window: SimDuration) {
        // Open a sampling epoch: any gauge not written during this pass
        // (e.g. a ratio whose denominator stayed zero) reads as stale in
        // snapshots instead of silently holding its old value.
        reg.begin_sample();
        if let Some(p) = self.hub.borrow_mut().pipeline.as_mut() {
            // One burn-rate series point per tenant per window.
            p.sample_burn(now);
        }
        for (idx, node) in self.nodes.iter().enumerate() {
            let node_label = idx.to_string();
            let nl = [("node", node_label.as_str())];
            reg.gauge("dne_engine_queued", &nl)
                .set(node.dne.queued() as f64);
            reg.gauge("rnic_active_qps", &nl)
                .set(self.fabric.active_qp_count(node.id) as f64);
            for t in node.dne.tenant_ids() {
                let tenant_label = t.0.to_string();
                let labels = [
                    ("node", node_label.as_str()),
                    ("tenant", tenant_label.as_str()),
                ];
                reg.gauge("dne_tx_queue_depth", &labels)
                    .set(node.dne.tenant_backlog(t) as f64);
                if let Some(d) = node.dne.dwrr_deficit(t) {
                    reg.gauge("dne_dwrr_deficit", &labels).set(d);
                }
                // Registered on the tenant's first pick: a tenant that has
                // sent nothing costs the registry nothing.
                let (h, m) = node.dne.conn_hit_miss_of(t);
                if h + m > 0 {
                    reg.gauge("shadow_qp_hit_rate", &labels)
                        .set(h as f64 / (h + m) as f64);
                }
            }
        }
    }

    /// The cluster's one sampler: every `every` until `until` it runs
    /// [`Cluster::sample_obs`] into `reg`, then closes one window of the
    /// returned aggregator over the registry's snapshot — sample first,
    /// observe second, both at the tick's instant.
    pub fn start_obs_sampler(
        self: &Rc<Self>,
        sim: &mut Sim,
        reg: Rc<obs::MetricsRegistry>,
        every: SimDuration,
        until: SimTime,
    ) -> Rc<RefCell<obs::Aggregator>> {
        let cluster = Rc::clone(self);
        let agg = Rc::new(RefCell::new(obs::Aggregator::new()));
        let windows = Rc::clone(&agg);
        sim.every_until(every, until, move |sim| {
            cluster.sample_obs(sim.now(), &reg, every);
            windows.borrow_mut().observe(sim.now(), &reg.snapshot());
        });
        agg
    }

    /// Sum of network-engine core utilization across nodes over `[a, b]`
    /// (the paper's "DPU utilization" for DNE runs, "CPU" for CNE).
    pub fn engine_utilization(&self, a: SimTime, b: SimTime) -> f64 {
        self.nodes
            .iter()
            .map(|n| n.dne.utilization_cores(a, b))
            .sum()
    }

    /// Sum of host-core utilization across nodes over `[a, b]`.
    pub fn host_utilization(&self, a: SimTime, b: SimTime) -> f64 {
        self.nodes
            .iter()
            .map(|n| n.cpu.borrow().utilization_cores(a, b))
            .sum()
    }

    /// Registers exemplar-carrying fleet latency histograms on every
    /// node's engine: DWRR queue wait, retry latency and RNIC
    /// post-to-completion, labelled by node so the aggregation layer can
    /// project the label away and merge them exactly.
    pub fn export_latency_histograms(&self, reg: &obs::MetricsRegistry) {
        for (idx, node) in self.nodes.iter().enumerate() {
            let label = idx.to_string();
            let nl = [("node", label.as_str())];
            node.dne.set_obs_sink(dne::DneObsSink {
                tx_queue_wait: reg.histogram("dne_tx_queue_wait_ns", &nl),
                retry_latency: reg.histogram("dne_retry_latency_ns", &nl),
                post_to_completion: reg.histogram("dne_post_to_completion_ns", &nl),
            });
        }
    }

    /// Folds every engine's per-pipeline-stage busy core-time into one
    /// SoC profiler table over `[0, horizon_ns]` (rows aggregate across
    /// nodes, under the `dne_soc` processor name).
    pub fn soc_stage_table(&self, horizon_ns: u64) -> obs::SocStageTable {
        let mut stages: Vec<(&'static str, u128)> = Vec::new();
        for node in &self.nodes {
            for (stage, busy) in node.dne.stage_busy() {
                match stages.iter_mut().find(|(s, _)| *s == stage) {
                    Some((_, sum)) => *sum += busy,
                    None => stages.push((stage, busy)),
                }
            }
        }
        let mut table = obs::SocStageTable::new(horizon_ns);
        for (stage, busy) in stages {
            table.push("dne_soc", stage, busy);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::NodeState;
    use crate::workload::ClosedLoop;

    #[test]
    fn cluster_builds_and_runs_an_echo_chain() {
        let mut sim = Sim::new();
        let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
        let tenant = TenantId(1);
        cluster.add_tenant(&mut sim, tenant, 1).unwrap();
        let chain = ChainSpec::new("echo", tenant, vec![1, 2, 1]);
        cluster.place(1, 0);
        cluster.place(2, 1);
        let driver = ClosedLoop::new(SimTime::ZERO + SimDuration::from_millis(100));
        cluster.register_chain(&chain, |_| SimDuration::from_micros(5), driver.completion());
        let cluster = Rc::new(cluster);
        driver.start(&mut sim, &cluster, &chain, 8, 256);
        sim.run();
        assert!(driver.completed() > 500, "got {}", driver.completed());
        // Engines did real work on both nodes.
        assert!(cluster.nodes[0].dne.stats().tx_posted > 0);
        assert!(cluster.nodes[1].dne.stats().tx_posted > 0);
        assert_eq!(cluster.nodes[0].dne.stats().drops, 0);
    }

    #[test]
    fn dag_fan_out_beats_the_equivalent_sequential_chain() {
        use std::cell::Cell;
        // Frontend fans out to four services in parallel; the sequential
        // chain visits the same services one at a time. Same total work,
        // but the DAG overlaps it.
        let run_dag = || {
            let mut sim = Sim::new();
            let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
            let tenant = TenantId(1);
            cluster.add_tenant(&mut sim, tenant, 1).unwrap();
            for (f, node) in [(1u16, 0usize), (2, 1), (3, 1), (4, 1), (5, 0)] {
                cluster.place(f, node);
            }
            let dag = runtime::DagSpec::new("fanout", tenant, 1, &[(1, &[2, 3, 4, 5][..])]);
            let done: Rc<std::cell::Cell<Option<SimTime>>> = Rc::new(Cell::new(None));
            let sink = done.clone();
            cluster.register_dag(
                &dag,
                |_| SimDuration::from_micros(50),
                Rc::new(move |sim, _| sink.set(Some(sim.now()))),
            );
            let t0 = sim.now();
            assert!(cluster.inject_dag(&mut sim, &dag, 7));
            sim.run();
            (done.get().expect("completed") - t0).as_micros_f64()
        };
        let run_chain = || {
            let mut sim = Sim::new();
            let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
            let tenant = TenantId(1);
            cluster.add_tenant(&mut sim, tenant, 1).unwrap();
            for (f, node) in [(1u16, 0usize), (2, 1), (3, 1), (4, 1), (5, 0)] {
                cluster.place(f, node);
            }
            let chain = ChainSpec::new("seq", tenant, vec![1, 2, 1, 3, 1, 4, 1, 5, 1]);
            let done: Rc<std::cell::Cell<Option<SimTime>>> = Rc::new(Cell::new(None));
            let sink = done.clone();
            cluster.register_chain(
                &chain,
                |_| SimDuration::from_micros(50),
                Rc::new(move |sim, _| sink.set(Some(sim.now()))),
            );
            let t0 = sim.now();
            assert!(cluster.inject(&mut sim, &chain, 7, 64));
            sim.run();
            (done.get().expect("completed") - t0).as_micros_f64()
        };
        let dag_us = run_dag();
        let chain_us = run_chain();
        assert!(
            dag_us < 0.6 * chain_us,
            "fan-out ({dag_us}us) must overlap work the chain ({chain_us}us) serializes"
        );
    }

    #[test]
    fn obs_sampling_builds_per_tenant_series_and_traces_requests() {
        let mut sim = Sim::new();
        let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
        let tenant = TenantId(1);
        cluster.add_tenant(&mut sim, tenant, 1).unwrap();
        let chain = ChainSpec::new("echo", tenant, vec![1, 2, 1]);
        cluster.place(1, 0);
        cluster.place(2, 1);
        let tracer = obs::Tracer::enabled();
        cluster.set_tracer(&tracer);
        let t0 = sim.now();
        let driver = ClosedLoop::new(t0 + SimDuration::from_millis(10));
        cluster.register_chain(&chain, |_| SimDuration::from_micros(5), driver.completion());
        let cluster = Rc::new(cluster);
        driver.start(&mut sim, &cluster, &chain, 4, 256);
        let reg = Rc::new(obs::MetricsRegistry::new());
        let agg = cluster.start_obs_sampler(
            &mut sim,
            Rc::clone(&reg),
            SimDuration::from_millis(1),
            t0 + SimDuration::from_millis(10),
        );
        sim.run();
        assert!(driver.completed() > 0);
        // The three per-tenant levels are gauges labelled by (node, tenant)
        // on both nodes.
        let snap = reg.snapshot();
        for node in ["0", "1"] {
            let labels = [("node", node), ("tenant", "1")];
            assert!(snap.gauge("dne_tx_queue_depth", &labels).is_some());
            assert!(snap.gauge("dne_dwrr_deficit", &labels).is_some());
            let hit = snap.gauge("shadow_qp_hit_rate", &labels).unwrap();
            assert!(hit > 0.0 && hit <= 1.0, "node {node}: {hit}");
        }
        assert!(snap.to_text().contains("dne_tx_queue_depth"));
        // How they moved is the sampler's windows: one per tick, the node
        // label projected away. Totals stay in the engine's own counters.
        let agg = agg.borrow();
        assert_eq!(agg.windows().len(), 10);
        let w = &agg.windows()[9];
        let depth = w.gauges.iter().find(|g| g.name == "dne_tx_queue_depth");
        assert_eq!(depth.unwrap().series, 2);
        assert_eq!(snap.gauge("dne_tx_posted_total", &[("node", "0")]), None);
        assert!(cluster.nodes[0].dne.stats().tx_posted > 0);
        // Every completed request traced the full pipeline: at least six
        // distinct stages (the acceptance bar for the Perfetto export).
        let some_req = tracer.records()[0].req_id;
        assert!(
            tracer.stages_of(some_req).len() >= 6,
            "stages: {:?}",
            tracer.stages_of(some_req)
        );
    }

    /// The front door's exactly-once rule, one case per way a request can
    /// end: whichever of completion and typed failure comes first answers
    /// the gateway, the other is ignored, a refused request is never held,
    /// and nothing stays pending once the run drains.
    #[test]
    fn the_front_door_answers_every_request_exactly_once() {
        use dne::types::{DeliveryFailure, FailureReason};
        #[derive(Debug, Clone, Copy)]
        enum Case {
            Completes,
            FailsTyped,
            CompletionAfterFailure,
            FailureAfterCompletion,
            RefusedAtFullPool,
            DeadlinePassed,
        }
        use Case::*;
        for case in [
            Completes,
            FailsTyped,
            CompletionAfterFailure,
            FailureAfterCompletion,
            RefusedAtFullPool,
            DeadlinePassed,
        ] {
            let mut sim = Sim::new();
            let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
            let tenant = TenantId(1);
            cluster.add_tenant(&mut sim, tenant, 1).unwrap();
            cluster.place(1, 0);
            cluster.place(2, 1);
            let cluster = Rc::new(cluster);
            let chain = ChainSpec::new("echo", tenant, vec![1, 2, 1]);
            let door = cluster.serve_chain(&chain, |_| SimDuration::from_micros(5), 256);
            let reasons = Rc::new(RefCell::new(Vec::new()));
            let sink = reasons.clone();
            cluster.set_delivery_failure_handler(Rc::new(move |_, f| {
                sink.borrow_mut().push(f.reason);
            }));
            let answers = Rc::new(RefCell::new(Vec::new()));
            let sink = answers.clone();
            let reply: Reply = Box::new(move |_, answer| sink.borrow_mut().push(answer));
            let mut ctx = ReqCtx {
                req_id: 7,
                tenant: tenant.0,
                req_bytes: 64,
                deadline_ns: 0,
                sampled: false,
            };
            let failure = DeliveryFailure {
                tenant,
                dst_fn: 2,
                req_id: 7,
                attempts: 1,
                reason: FailureReason::RetryBudgetExhausted,
                dst_node: None,
            };
            let mut taken = Vec::new();
            match case {
                FailsTyped => {
                    // Node 1 is dark for longer than the retry budget lasts.
                    cluster
                        .fabric
                        .install_fault_plane(rdma_sim::FaultPlane::new(1));
                    let until = sim.now() + SimDuration::from_millis(50);
                    let node = cluster.nodes[1].id;
                    cluster.fabric.schedule_node_outage(node, sim.now(), until);
                }
                RefusedAtFullPool => {
                    while let Ok(buf) = cluster.pool(tenant, 0).get() {
                        taken.push(buf);
                    }
                }
                DeadlinePassed => ctx.deadline_ns = 1,
                _ => {}
            }
            door(&mut sim, ctx, reply);
            let expect = match case {
                Completes => Ok(256),
                FailsTyped => Err(DeliveryFailed),
                CompletionAfterFailure => {
                    assert_eq!(cluster.pending_replies(), 1, "held while in flight");
                    cluster.nodes[0].dne.report_failure(&mut sim, failure);
                    Err(DeliveryFailed)
                }
                FailureAfterCompletion => {
                    sim.run();
                    cluster.nodes[0].dne.report_failure(&mut sim, failure);
                    Ok(256)
                }
                RefusedAtFullPool => {
                    assert_eq!(
                        cluster.pending_replies(),
                        0,
                        "a refused request is not held"
                    );
                    Err(DeliveryFailed)
                }
                DeadlinePassed => {
                    sim.run();
                    assert_eq!(*reasons.borrow(), [FailureReason::DeadlineExceeded]);
                    Err(DeliveryFailed)
                }
            };
            sim.run();
            assert_eq!(*answers.borrow(), [expect], "{case:?}");
            assert_eq!(cluster.pending_replies(), 0, "{case:?}");
            assert_eq!(cluster.pool(tenant, 0).stats().in_flight, 0, "{case:?}");
        }
    }

    /// The one outcome path in every order of four ends of one held
    /// request: its chain's completion, a credible transport failure, a
    /// failure from a reporter inside a fault-plane outage and a
    /// `DeadlineExceeded`. The first answers the reply, the rest find
    /// nothing, and the control plane hears all three failures but blames
    /// only the credible one.
    #[test]
    fn every_order_of_one_requests_ends_answers_it_once() {
        use dne::types::FailureReason;
        use std::collections::BTreeSet;
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        enum End {
            Completes,
            Credible,
            Hearsay,
            Expired,
        }
        /// One held request, the ends not taken yet, and the order so far.
        struct World {
            sim: Sim,
            cluster: Rc<Cluster>,
            control: ControlPlane,
            answers: Rc<RefCell<Vec<Result<usize, DeliveryFailed>>>>,
            left: Vec<End>,
            order: Vec<End>,
        }
        let tenant = TenantId(1);
        let fresh = || {
            let mut sim = Sim::new();
            let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
            cluster.add_tenant(&mut sim, tenant, 1).unwrap();
            cluster.place(1, 0);
            cluster.place(2, 1);
            let cluster = Rc::new(cluster);
            let chain = ChainSpec::new("echo", tenant, vec![1, 2, 1]);
            let door = cluster.serve_chain(&chain, |_| SimDuration::from_micros(5), 256);
            let until = sim.now() + SimDuration::from_millis(50);
            let control = ControlPlane::start(&mut sim, &cluster, until, None);
            // Node 1's machine is dark: what it reports is no evidence.
            let plane = rdma_sim::FaultPlane::new(1);
            cluster.fabric.install_fault_plane(plane);
            let dark = cluster.nodes[1].id;
            cluster.fabric.schedule_node_outage(dark, sim.now(), until);
            let answers = Rc::new(RefCell::new(Vec::new()));
            let sink = answers.clone();
            let reply: Reply = Box::new(move |_, answer| sink.borrow_mut().push(answer));
            let ctx = ReqCtx {
                req_id: 7,
                tenant: tenant.0,
                req_bytes: 64,
                deadline_ns: 0,
                sampled: false,
            };
            door(&mut sim, ctx, reply);
            assert_eq!(cluster.pending_replies(), 1);
            let left = vec![End::Completes, End::Credible, End::Hearsay, End::Expired];
            let order = Vec::new();
            World {
                sim,
                cluster,
                control,
                answers,
                left,
                order,
            }
        };
        let act = |w: &mut World, i| {
            let end = w.left.remove(i);
            w.order.push(end);
            let (sim, cluster, order) = (&mut w.sim, &w.cluster, &w.order);
            let (up, dark) = (cluster.nodes[0].id, cluster.nodes[1].id);
            let failure = |target, reason| DeliveryFailure {
                tenant,
                dst_fn: 2,
                req_id: 7,
                attempts: 1,
                reason,
                dst_node: Some(target),
            };
            let budget = FailureReason::RetryBudgetExhausted;
            let expired = FailureReason::DeadlineExceeded;
            match end {
                End::Completes => {
                    let hub = Rc::downgrade(&cluster.hub);
                    Hub::leave(&hub, sim, 7, Outcome::Completed(&Done::Door(256)));
                }
                End::Credible => cluster.nodes[0]
                    .dne
                    .report_failure(sim, failure(dark, budget)),
                End::Hearsay => cluster.nodes[1]
                    .dne
                    .report_failure(sim, failure(up, budget)),
                End::Expired => cluster.nodes[0]
                    .dne
                    .report_failure(sim, failure(dark, expired)),
            }
            let first = match order[0] {
                End::Completes => Ok(256),
                _ => Err(DeliveryFailed),
            };
            assert_eq!(*w.answers.borrow(), [first], "{order:?}");
            assert_eq!(cluster.pending_replies(), 0, "{order:?}");
        };
        let mut orders = BTreeSet::new();
        let end = |w: World| {
            let (health, order) = (w.control.health_events(), w.order);
            let blamed: Vec<_> = health.iter().map(|e| (e.node, e.from, e.to)).collect();
            let dark = w.cluster.nodes[1].id;
            let suspect = (dark, NodeState::Healthy, NodeState::Suspect);
            assert_eq!(blamed, [suspect], "{order:?}");
            orders.insert(order);
        };
        assert_eq!(simcore::explore(fresh, |w| w.left.len(), act, end), 24);
        assert_eq!(orders.len(), 24);
    }

    /// A second gateway reply under an id that already has one held is
    /// answered `Err` at once; the held one stays and is answered by its
    /// request's completion. Each caller hears exactly once.
    #[test]
    fn a_second_reply_under_a_live_id_is_refused() {
        let mut sim = Sim::new();
        let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
        let tenant = TenantId(1);
        cluster.add_tenant(&mut sim, tenant, 1).unwrap();
        cluster.place(1, 0);
        cluster.place(2, 1);
        let cluster = Rc::new(cluster);
        let chain = ChainSpec::new("echo", tenant, vec![1, 2, 1]);
        let door = cluster.serve_chain(&chain, |_| SimDuration::from_micros(5), 256);
        let answers = Rc::new(RefCell::new(Vec::new()));
        let reply = |caller: u8| -> Reply {
            let sink = answers.clone();
            Box::new(move |_, answer| sink.borrow_mut().push((caller, answer)))
        };
        let ctx = ReqCtx {
            req_id: 7,
            tenant: tenant.0,
            req_bytes: 64,
            deadline_ns: 0,
            sampled: false,
        };
        door(&mut sim, ctx, reply(1));
        door(&mut sim, ctx, reply(2));
        assert_eq!(*answers.borrow(), [(2, Err(DeliveryFailed))]);
        assert_eq!(cluster.pending_replies(), 1);
        sim.run();
        assert_eq!(*answers.borrow(), [(2, Err(DeliveryFailed)), (1, Ok(256))]);
        assert_eq!(cluster.pending_replies(), 0);
    }

    /// A request the entry pool refuses is a failed request: the gateway
    /// books it under `failed`, not `completed`, and the driver records no
    /// latency sample for it. (The fig16 and fleet bridges used to answer
    /// `Ok(0)`, inflating `rps` exactly when the system was overloaded.)
    #[test]
    fn a_request_refused_at_a_full_pool_is_not_a_success() {
        use ingress::gateway::{Gateway, GatewayConfig};
        let mut sim = Sim::new();
        let mut cluster = Cluster::new(
            &mut sim,
            ClusterConfig {
                pool_bufs: 2,
                ..ClusterConfig::default()
            },
        );
        let tenant = TenantId(1);
        cluster.add_tenant(&mut sim, tenant, 1).unwrap();
        cluster.place(1, 0);
        cluster.place(2, 0);
        let cluster = Rc::new(cluster);
        // One free buffer at the entry (the RBR holds the other): one
        // request at a time gets in, the other seven flows are refused.
        let chain = ChainSpec::new("local", tenant, vec![1, 2, 1]);
        let door = cluster.serve_chain(&chain, |_| SimDuration::from_micros(20), 256);
        let gateway = Gateway::new(GatewayConfig::default());
        let driver = ClosedLoop::new(sim.now() + SimDuration::from_millis(5));
        driver.start_gateway(&mut sim, &gateway, tenant.0, &door, 8, 64);
        sim.run();

        let stats = gateway.stats();
        assert!(stats.failed > 0, "nothing was refused: {stats:?}");
        // Every request that got in made its three local hops and completed.
        let hops = cluster.nodes[0].iolib.stats().local_sends;
        assert!(hops > 0 && hops.is_multiple_of(3), "{hops} hops");
        assert_eq!(stats.completed, hops / 3, "{stats:?}");
        assert_eq!(driver.completed(), stats.completed);
        assert_eq!(
            driver.latency().count(),
            stats.completed,
            "a refusal left a sample"
        );
        assert_eq!(driver.shed_count(), stats.failed);
        assert_eq!(cluster.pending_replies(), 0);
    }

    /// A fan-out that finds no buffer for a call sheds it as one typed
    /// failure that names no node, instead of leaving the root's join
    /// waiting forever with nothing reported.
    #[test]
    fn a_dag_call_shed_at_an_empty_pool_fails_typed() {
        use dne::types::FailureReason;
        use std::cell::Cell;
        let mut sim = Sim::new();
        let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
        let tenant = TenantId(1);
        cluster.add_tenant(&mut sim, tenant, 1).unwrap();
        for f in 1..=5 {
            cluster.place(f, 0);
        }
        let dag = DagSpec::new("fanout", tenant, 1, &[(1, &[2, 3, 4, 5][..])]);
        let completed = Rc::new(Cell::new(0));
        let sink = completed.clone();
        let done: CompletionFn = Rc::new(move |_, _| sink.set(sink.get() + 1));
        cluster.register_dag(&dag, |_| SimDuration::from_micros(5), done);
        let failures = Rc::new(RefCell::new(Vec::new()));
        let log = failures.clone();
        cluster.set_delivery_failure_handler(Rc::new(move |_, f| log.borrow_mut().push(f)));
        // Two free buffers: the injection's, back before the fan-out, and
        // one more. Calls 2 and 3 take them; call 4 finds none.
        let pool = cluster.pool(tenant, 0).clone();
        let mut held = Vec::new();
        while pool.stats().free > 2 {
            held.push(pool.get().unwrap());
        }
        assert!(cluster.inject_dag(&mut sim, &dag, 7));
        sim.run();
        assert_eq!(completed.get(), 0);
        let failures = failures.borrow();
        assert_eq!(failures.len(), 1, "{failures:?}");
        let f = failures[0];
        assert_eq!(
            (f.req_id, f.dst_fn, f.reason, f.dst_node),
            (7, 4, FailureReason::NoBuffer, None)
        );
        assert_eq!(pool.stats().free, 2, "every buffer home");
    }

    #[test]
    fn inject_fails_without_placement() {
        let mut sim = Sim::new();
        let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
        let tenant = TenantId(1);
        cluster.add_tenant(&mut sim, tenant, 1).unwrap();
        let chain = ChainSpec::new("c", tenant, vec![5, 6]);
        assert!(!cluster.inject(&mut sim, &chain, 0, 64));
    }

    #[test]
    fn inject_refuses_a_tenant_that_was_never_provisioned() {
        let mut sim = Sim::new();
        let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
        cluster.add_tenant(&mut sim, TenantId(1), 1).unwrap();
        // Tenant 2's functions are placed; its pools were never created.
        let stranger = ChainSpec::new("c", TenantId(2), vec![5, 6]);
        cluster.place(5, 0);
        cluster.place(6, 1);
        let free = |c: &Cluster| -> Vec<u32> {
            let pools = c.pools_snapshot();
            pools.iter().map(|(_, _, p)| p.stats().free).collect()
        };
        let before = free(&cluster);
        assert!(!cluster.inject(&mut sim, &stranger, 0, 64));
        sim.run();
        assert_eq!(free(&cluster), before);
        assert_eq!(cluster.pending_replies(), 0);
    }

    #[test]
    fn utilization_accessors_cover_engines_and_hosts() {
        let mut sim = Sim::new();
        let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
        let tenant = TenantId(1);
        cluster.add_tenant(&mut sim, tenant, 1).unwrap();
        let chain = ChainSpec::new("echo", tenant, vec![1, 2, 1]);
        cluster.place(1, 0);
        cluster.place(2, 1);
        let t0 = sim.now();
        let driver = ClosedLoop::new(t0 + SimDuration::from_millis(20));
        cluster.register_chain(
            &chain,
            |_| SimDuration::from_micros(50),
            driver.completion(),
        );
        let cluster = Rc::new(cluster);
        driver.start(&mut sim, &cluster, &chain, 16, 128);
        sim.run();
        let t1 = sim.now();
        assert!(cluster.engine_utilization(t0, t1) > 0.0);
        assert!(cluster.host_utilization(t0, t1) > 0.0);
    }
}
