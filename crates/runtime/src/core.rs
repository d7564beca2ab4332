//! The function runtime as a state machine that never sees a simulator.
//!
//! [`Core`] holds the sidecar, the IPC prices, the tenant pools, the
//! counters and one function table in which chain and DAG functions are
//! data, beside the DAG joins. [`Core::step`] takes the instant, one
//! [`Input`] and the [`Host`] it borrows, and emits [`Output`]s into a
//! sink: anything that needs the simulator or can re-enter the library is
//! an output, which the driver in [`crate::iolib`] applies in emission
//! order — an `At` or a `Submit` as it is emitted, and from the first
//! output that can re-enter the library on, the rest once the step
//! returned.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::rc::Rc;

use dne::types::{DeliveryFailure, FailureReason, IpcCosts, IpcKind};
use dpu_sim::soc::Processor;
use membuf::descriptor::BufferDesc;
use membuf::pool::{BufferPool, OwnedBuf};
use membuf::tenant::TenantId;
use obs::{Stage, Tracer};
use rdma_sim::NodeId;
use simcore::{IdTable, SimDuration, SimTime};

use crate::chain::ChainSpec;
use crate::dag::{dag_header, set_dag_header, DagMsg, DagSpec, CLIENT_CALLER};
use crate::function::{
    deadline_expired, decode_hop, decode_request_id, set_hop, write_request_payload,
};
use crate::iolib::IoStats;
use crate::placement::Placement;
use crate::sidecar::{AccessDecision, Sidecar};

/// Host CPU time a DAG function spends on a completed join.
const JOIN_COST: SimDuration = SimDuration::from_nanos(500);

/// What a runtime function runs: its place in a chain or in a DAG.
#[derive(Debug, Clone)]
pub enum Spec {
    /// A function of a chain: run, then forward to the next hop or complete.
    Chain(Rc<ChainSpec>),
    /// A function of a DAG: run, fan out to its children and join on their
    /// responses, then respond to its caller.
    Dag(Rc<DagSpec>),
}

impl Spec {
    /// The owning tenant.
    pub fn tenant(&self) -> TenantId {
        match self {
            Spec::Chain(c) => c.tenant,
            Spec::Dag(d) => d.tenant,
        }
    }

    /// Every function the chain or DAG runs on (sorted).
    pub fn functions(&self) -> Vec<u16> {
        match self {
            Spec::Chain(c) => c.functions(),
            Spec::Dag(d) => d.functions(),
        }
    }
}

/// A chain or DAG function registered on this node.
pub(crate) struct Function {
    pub(crate) spec: Spec,
    pub(crate) exec_cost: SimDuration,
}

/// One function's work on one request: who runs, whom it answers (a DAG
/// caller; unused by chains), and the trace identity it carries — the
/// ingress sampling decision, which a DAG re-stamps on every fresh payload.
#[derive(Clone, Copy)]
pub(crate) struct Job {
    tenant: TenantId,
    fn_id: u16,
    caller: u16,
    req_id: u64,
    sampled: bool,
}

/// Something that happened to the runtime.
pub(crate) enum Input {
    /// A function or the front door called the I/O library; `meta` is the
    /// trace identity `(req_id, sampled)` when the caller already holds it.
    Send {
        tenant: TenantId,
        desc: BufferDesc,
        meta: Option<(u64, bool)>,
    },
    /// `desc` reached a function here, over SK_MSG or from the DNE.
    Deliver { desc: BufferDesc },
    /// A function finished executing on the host cores: a chain hop, which
    /// still holds its buffer, or a DAG call, which does not.
    ExecDone(Job, Option<OwnedBuf>),
    /// A DAG function finished post-processing its join.
    JoinDone(Job),
}

/// Something the runtime wants done; the driver applies these in order.
pub(crate) enum Output {
    /// Feed the input back at the instant.
    At(SimTime, Input),
    /// Hand `desc` to this node's DNE.
    Submit { tenant: TenantId, desc: BufferDesc },
    /// Call the closure endpoint registered for the function.
    Call(u16, BufferDesc),
    /// The request finished at function `fn_id`: call its completion.
    Complete { fn_id: u16, req_id: u64 },
    /// Surface a typed failure through the node's DNE.
    Fail(DeliveryFailure),
}

/// What one step borrows from the node around the core.
pub(crate) struct Host<'a> {
    /// The host cores functions and IPC are charged to.
    pub(crate) cpu: &'a mut Processor,
    /// Where every function lives.
    pub(crate) placement: &'a Placement,
    /// The engine's CTX wire version: a fresh DAG payload is stamped at it,
    /// so a node not yet upgraded never stamps regions it does not own.
    pub(crate) wire_version: u8,
}

pub(crate) struct Core {
    node: NodeId,
    pub(crate) sidecar: Sidecar,
    skmsg: IpcCosts,
    dne_ipc: IpcCosts,
    /// Indexed by tenant id.
    pub(crate) pools: IdTable<BufferPool>,
    /// Indexed by function id: chain and DAG functions. A function missing
    /// here is a closure endpoint, which the driver calls.
    functions: IdTable<Function>,
    /// Open DAG joins by `(function, request)`: the call that fanned out
    /// and how many responses it still waits for.
    joins: HashMap<(u16, u64), (Job, usize)>,
    pub(crate) stats: IoStats,
    pub(crate) tracer: Tracer,
}

impl Core {
    pub(crate) fn new(node: NodeId, dne_ipc: IpcCosts) -> Core {
        Core {
            node,
            sidecar: Sidecar::new(),
            skmsg: IpcCosts::for_kind(IpcKind::SkMsg),
            dne_ipc,
            pools: IdTable::new(),
            functions: IdTable::new(),
            joins: HashMap::new(),
            stats: IoStats::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Records `fn_id` as `tenant`'s with the sidecar and installs it: a
    /// chain or DAG function, or (`None`) a closure endpoint.
    pub(crate) fn install(&mut self, fn_id: u16, tenant: TenantId, function: Option<Function>) {
        self.sidecar.assign(fn_id, tenant);
        match function {
            Some(f) => self.functions.insert(fn_id.into(), f),
            None => self.functions.remove(fn_id.into()),
        };
    }

    /// Closes every join the failed request `req_id` left open here: the
    /// responses still on their way find none and are recycled as strays.
    pub(crate) fn forget(&mut self, req_id: u64) {
        self.joins.retain(|&(_, req), _| req != req_id);
    }

    /// Advances the runtime by one input, emitting what it wants done into
    /// `out` in the order it must be done.
    pub(crate) fn step(
        &mut self,
        now: SimTime,
        input: Input,
        host: &mut Host<'_>,
        out: &mut impl FnMut(Output),
    ) {
        match input {
            Input::Send { tenant, desc, meta } => self.send(now, tenant, desc, meta, host, out),
            Input::Deliver { desc } => self.deliver(now, desc, host, out),
            Input::ExecDone(job, buf) => self.exec_done(now, job, buf, host, out),
            Input::JoinDone(job) => self.respond(now, job, host, out),
        }
    }

    /// The unified I/O library's one decision: a local destination gets the
    /// descriptor over SK_MSG once the sidecar allows it, a remote one goes
    /// to the DNE, anything else is dropped and its buffer recycled.
    fn send(
        &mut self,
        now: SimTime,
        tenant: TenantId,
        desc: BufferDesc,
        meta: Option<(u64, bool)>,
        host: &mut Host<'_>,
        out: &mut impl FnMut(Output),
    ) {
        match host.placement.node_of(desc.dst_fn) {
            Some(n) if n != self.node => {
                host.cpu.run(now, self.dne_ipc.host_service);
                self.stats.remote_sends += 1;
                out(Output::Submit { tenant, desc });
            }
            Some(_) if self.sidecar.check(tenant, desc.dst_fn) == AccessDecision::Allow => {
                let service = self.skmsg.host_service + Sidecar::CHECK_COST;
                let cpu_done = host.cpu.run(now, service);
                let at = cpu_done + self.skmsg.one_way_latency;
                self.stats.local_sends += 1;
                if self.tracer.is_enabled() {
                    // The SK_MSG leg, for sampled requests: the trace
                    // identity is the caller's, or peeked from the payload.
                    let (req_id, sampled) = meta.unwrap_or_else(|| self.peek(tenant, desc));
                    if sampled {
                        let node = self.node.0 as u32;
                        self.tracer
                            .span(req_id, tenant.0, node, Stage::SkMsg, now, at);
                    }
                }
                out(Output::At(at, Input::Deliver { desc }));
            }
            _ => {
                self.stats.dropped += 1;
                if let Some(pool) = self.pools.get(tenant.0.into()) {
                    let _ = pool.redeem(desc); // dropped => returned to pool
                }
            }
        }
    }

    /// The request id and sampling bit of an in-flight descriptor, read in
    /// one validated peek at the payload head.
    fn peek(&self, tenant: TenantId, desc: BufferDesc) -> (u64, bool) {
        let mut head = [0u8; obs::CTX_REGION];
        let pool = self.pools.get(tenant.0.into());
        let peeked = pool.and_then(|p| p.peek_payload_into(desc, &mut head));
        peeked.map_or((0, false), |n| {
            let head = &head[..n];
            (decode_request_id(head), obs::ctx::sampled(head))
        })
    }

    /// A descriptor reached `desc.dst_fn`: redeem it (a stale or forged one
    /// is refused here and counted by the pool) and start the function's
    /// work, or hand it to a closure endpoint.
    fn deliver(
        &mut self,
        now: SimTime,
        desc: BufferDesc,
        host: &mut Host<'_>,
        out: &mut impl FnMut(Output),
    ) {
        let fn_id = desc.dst_fn;
        let Some(f) = self.functions.get(fn_id.into()) else {
            out(Output::Call(fn_id, desc));
            return;
        };
        let (tenant, exec_cost) = (f.spec.tenant(), f.exec_cost);
        let is_chain = matches!(f.spec, Spec::Chain(_));
        let Some(Ok(buf)) = self.pools.get(tenant.0.into()).map(|p| p.redeem(desc)) else {
            return;
        };
        let req_id = decode_request_id(buf.as_slice());
        let sampled = self.tracer.is_enabled() && obs::ctx::sampled(buf.as_slice());
        let mut job = Job {
            tenant,
            fn_id,
            caller: CLIENT_CALLER,
            req_id,
            sampled,
        };
        if is_chain {
            // A request whose deadline has passed is recycled before it
            // burns CPU and surfaces as a typed expiry.
            if deadline_expired(buf.as_slice(), now) {
                drop(buf);
                out(Output::Fail(DeliveryFailure {
                    tenant,
                    dst_fn: fn_id,
                    req_id,
                    attempts: 0,
                    reason: FailureReason::DeadlineExceeded,
                    dst_node: Some(self.node),
                }));
                return;
            }
            let done = host.cpu.run(now, exec_cost);
            if sampled {
                let node = self.node.0 as u32;
                self.tracer
                    .span(req_id, tenant.0, node, Stage::FnExec, now, done);
            }
            out(Output::At(done, Input::ExecDone(job, Some(buf))));
            return;
        }
        // A DAG message is consumed here; a malformed one is recycled.
        let Some((kind, src)) = dag_header(buf.as_slice()) else {
            return;
        };
        drop(buf);
        match kind {
            DagMsg::Call => {
                job.caller = src;
                let done = host.cpu.run(now, exec_cost);
                out(Output::At(done, Input::ExecDone(job, None)));
            }
            DagMsg::Response => {
                // No entry: a stray, whose request already failed.
                let Entry::Occupied(mut join) = self.joins.entry((fn_id, req_id)) else {
                    return;
                };
                join.get_mut().1 -= 1;
                if join.get().1 == 0 {
                    let (call, _) = join.remove();
                    let done = host.cpu.run(now, JOIN_COST);
                    out(Output::At(done, Input::JoinDone(call)));
                }
            }
        }
    }

    /// A function finished executing: a chain hop forwards its buffer to the
    /// next hop or completes the request; a DAG call fans out to its
    /// children, or responds when it has none.
    fn exec_done(
        &mut self,
        now: SimTime,
        job: Job,
        buf: Option<OwnedBuf>,
        host: &mut Host<'_>,
        out: &mut impl FnMut(Output),
    ) {
        let spec = self.functions.get(job.fn_id.into()).map(|f| &f.spec);
        match (spec, buf) {
            (Some(Spec::Chain(chain)), Some(mut buf)) => {
                let next = usize::from(decode_hop(buf.as_slice())) + 1;
                let Some(&dst) = chain.hops.get(next) else {
                    drop(buf);
                    let (fn_id, req_id) = (job.fn_id, job.req_id);
                    out(Output::Complete { fn_id, req_id });
                    return;
                };
                set_hop(buf.as_mut_slice(), next as u16);
                // Forward the trace identity read at delivery, so a local
                // hop's SkMsg span needs no pool peek.
                let meta = Some((job.req_id, job.sampled));
                self.send(now, job.tenant, buf.into_desc(dst), meta, host, out);
            }
            (Some(Spec::Dag(dag)), None) => {
                let dag = Rc::clone(dag);
                let kids = dag.children_of(job.fn_id);
                if kids.is_empty() {
                    return self.respond(now, job, host, out);
                }
                self.joins
                    .insert((job.fn_id, job.req_id), (job, kids.len()));
                for &child in kids {
                    if !self.send_msg(now, job, child, DagMsg::Call, host, out) {
                        break;
                    }
                }
            }
            _ => {} // re-registered mid-flight: the buffer recycles on drop
        }
    }

    /// A DAG function answers its caller: the client completes the request,
    /// any other caller is sent a response.
    fn respond(
        &mut self,
        now: SimTime,
        job: Job,
        host: &mut Host<'_>,
        out: &mut impl FnMut(Output),
    ) {
        if job.caller == CLIENT_CALLER {
            let (fn_id, req_id) = (job.fn_id, job.req_id);
            out(Output::Complete { fn_id, req_id });
        } else {
            self.send_msg(now, job, job.caller, DagMsg::Response, host, out);
        }
    }

    /// Sends a fresh DAG message from `job`'s function to `to`. A message no
    /// buffer can carry is shed: the request fails typed — `dst_node: None`,
    /// so it never counts against a node's health — and `false` tells a
    /// fan-out to stop, so the request fails once.
    fn send_msg(
        &mut self,
        now: SimTime,
        job: Job,
        to: u16,
        kind: DagMsg,
        host: &mut Host<'_>,
        out: &mut impl FnMut(Output),
    ) -> bool {
        let pool = self.pools.get(job.tenant.0.into());
        let filled = pool.and_then(|p| p.get().ok()).and_then(|mut buf| {
            // Too small: recycled here.
            let payload = write_request_payload(&mut buf, job.req_id, 64)?;
            set_dag_header(payload, kind, job.fn_id);
            if job.sampled {
                // Each DAG message is a fresh payload, so the trace context
                // — parent cursor plus the ingress sampling bit — must be
                // re-stamped or causality breaks at this hop.
                let parent = self.tracer.cursor(job.req_id, self.node.0 as u32);
                obs::ctx::write_ctx_at(payload, parent, true, host.wire_version);
            }
            Some(buf)
        });
        let Some(buf) = filled else {
            out(Output::Fail(DeliveryFailure {
                tenant: job.tenant,
                dst_fn: to,
                req_id: job.req_id,
                attempts: 0,
                reason: FailureReason::NoBuffer,
                dst_node: None,
            }));
            return false;
        };
        let meta = Some((job.req_id, job.sampled));
        self.send(now, job.tenant, buf.into_desc(to), meta, host, out);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dne::types::DneConfig;
    use dpu_sim::soc::ProcessorKind;
    use membuf::pool::PoolConfig;

    const TENANT: TenantId = TenantId(1);
    const REQ: u64 = 7;
    const CAPACITY: u32 = 4;
    /// The echo's deadline: past every instant a step schedules, so only
    /// the world's `Expire` passes it.
    const DEADLINE: SimTime = SimTime::from_nanos(1_000_000_000);

    /// The request under test: the 1→2→1 echo across both nodes, with a
    /// deadline; or the 1→{2 local, 3 remote} fan-out, with `free` buffers
    /// on node 0 when it fans out.
    #[derive(Clone, Copy, Debug)]
    enum Case {
        Echo,
        FanOut { free: u32 },
    }

    /// What the world can do next.
    enum Pending {
        /// An `At` of node `.0`'s core, due at the instant.
        At(usize, SimTime, Input),
        /// A `Submit` of node `.0`'s core: the DNE and the fabric land it
        /// in a buffer of the peer's pool, at any later point.
        Wire(usize, BufferDesc),
        /// The clock passes the echo's deadline.
        Expire,
    }

    /// Two nodes' cores with no simulator, and the one request in flight.
    struct World {
        cores: [Core; 2],
        cpus: [Processor; 2],
        placement: Placement,
        pools: [BufferPool; 2],
        /// Buffers taken out of node 0's pool so the fan-out finds `free`.
        held: Vec<OwnedBuf>,
        /// Each pool's free count once the request entered.
        free: [u32; 2],
        now: SimTime,
        pending: Vec<Pending>,
        /// `complete`, `expired` or `shed`, as the outputs said.
        outcomes: Vec<&'static str>,
        order: Vec<String>,
    }

    impl World {
        /// Places, registers and injects the request at function 1 on node
        /// 0, the way the front door does. The fan-out also takes its
        /// root's delivery (the one thing that can happen) and then holds
        /// node 0's buffers down to `free`.
        fn new(case: Case) -> World {
            let nodes = [NodeId(0), NodeId(1)];
            let (spec, placed) = match case {
                Case::Echo => {
                    let chain = ChainSpec::new("echo", TENANT, vec![1, 2, 1]);
                    (Spec::Chain(Rc::new(chain)), &[0, 1][..])
                }
                Case::FanOut { .. } => {
                    let dag = DagSpec::new("fan", TENANT, 1, &[(1, &[2, 3][..])]);
                    (Spec::Dag(Rc::new(dag)), &[0, 0, 1][..])
                }
            };
            let mut placement = Placement::new();
            for (f, &idx) in (1..).zip(placed) {
                placement.place(f, nodes[idx]);
            }
            let pools = nodes.map(|_| {
                let mut cfg = PoolConfig::new(TENANT, 0, 256, CAPACITY);
                cfg.segment_size = 4096;
                BufferPool::new(cfg).unwrap()
            });
            let cores = nodes.map(|node| {
                let mut core = Core::new(node, IpcCosts::for_kind(DneConfig::nadino_dne().ipc));
                core.pools
                    .insert(TENANT.0.into(), pools[node.0 as usize].clone());
                for f in spec.functions() {
                    if placement.node_of(f) == Some(node) {
                        let exec_cost = SimDuration::from_micros(5);
                        let spec = spec.clone();
                        core.install(f, TENANT, Some(Function { spec, exec_cost }));
                    }
                }
                core
            });
            let mut world = World {
                cores,
                cpus: nodes.map(|_| Processor::new(ProcessorKind::HostCpu, 2)),
                placement,
                pools,
                held: Vec::new(),
                free: [CAPACITY; 2],
                now: SimTime::ZERO,
                pending: Vec::new(),
                outcomes: Vec::new(),
                order: Vec::new(),
            };
            let mut buf = world.pools[0].get().unwrap();
            let payload = write_request_payload(&mut buf, REQ, obs::CTX_REGION).unwrap();
            match case {
                Case::Echo => {
                    set_hop(payload, 0);
                    obs::write_deadline_ns(payload, DEADLINE.as_nanos());
                }
                Case::FanOut { .. } => set_dag_header(payload, DagMsg::Call, CLIENT_CALLER),
            }
            let desc = buf.into_desc(1);
            let send = Input::Send {
                tenant: TENANT,
                desc,
                meta: None,
            };
            world.step(0, send);
            match case {
                Case::Echo => world.pending.push(Pending::Expire),
                Case::FanOut { free } => {
                    world.act(0);
                    while world.pools[0].stats().free > free {
                        world.held.push(world.pools[0].get().unwrap());
                    }
                    world.free[0] = free;
                }
            }
            world
        }

        /// Takes pending action `i`; an input fires at `max(now, its
        /// instant)`, so `now` never decreases.
        fn act(&mut self, i: usize) {
            match self.pending.remove(i) {
                Pending::At(node, at, input) => {
                    self.now = self.now.max(at);
                    self.step(node, input);
                }
                Pending::Wire(from, desc) => {
                    let sent = self.pools[from].redeem(desc).unwrap();
                    let to = 1 - from;
                    let mut landed = self.pools[to].get().expect("a receive buffer");
                    landed.write_payload(sent.as_slice()).unwrap();
                    let desc = landed.into_desc(desc.dst_fn);
                    self.step(to, Input::Deliver { desc });
                }
                Pending::Expire => {
                    self.now = self.now.max(DEADLINE);
                    self.order.push("deadline passes".into());
                }
            }
        }

        /// Steps node `node`'s core and turns its outputs into pending
        /// actions and outcomes. A typed failure closes the request's joins
        /// on both nodes, as the cluster's failure dispatcher does.
        fn step(&mut self, node: usize, input: Input) {
            self.order.push(match &input {
                Input::Send { desc, .. } => format!("send fn{} @{node}", desc.dst_fn),
                Input::Deliver { desc } => format!("deliver fn{} @{node}", desc.dst_fn),
                Input::ExecDone(job, _) => format!("exec fn{} @{node}", job.fn_id),
                Input::JoinDone(job) => format!("join fn{} @{node}", job.fn_id),
            });
            let mut host = Host {
                cpu: &mut self.cpus[node],
                placement: &self.placement,
                wire_version: obs::ctx::CTX_CURRENT,
            };
            let mut out = Vec::new();
            let emit = &mut |output| out.push(output);
            self.cores[node].step(self.now, input, &mut host, emit);
            for output in out {
                match output {
                    Output::At(at, input) => self.pending.push(Pending::At(node, at, input)),
                    Output::Submit { desc, .. } => self.pending.push(Pending::Wire(node, desc)),
                    Output::Complete { req_id, .. } => {
                        assert_eq!(req_id, REQ);
                        self.outcomes.push("complete");
                    }
                    Output::Fail(f) => {
                        assert_eq!((f.tenant, f.req_id), (TENANT, REQ));
                        self.outcomes.push(match f.reason {
                            FailureReason::DeadlineExceeded => "expired",
                            FailureReason::NoBuffer => "shed",
                            other => panic!("{other:?} after {:?}", self.order),
                        });
                        for core in &mut self.cores {
                            core.forget(f.req_id);
                        }
                    }
                    Output::Call(..) => panic!("no closure endpoint is registered"),
                }
            }
        }

        /// Checked once nothing is pending; tallies the outcome reached.
        fn check_end(self, seen: &mut Vec<&'static str>) {
            let order = &self.order;
            let outcomes = &self.outcomes;
            assert_eq!(outcomes.len(), 1, "{outcomes:?} after {order:?}");
            for (node, core) in self.cores.iter().enumerate() {
                let left = core.joins.keys().collect::<Vec<_>>();
                assert!(
                    left.is_empty(),
                    "joins {left:?} left on node {node} after {order:?}"
                );
            }
            let free = self.pools.each_ref().map(|p| p.stats().free);
            assert_eq!(free, self.free, "pools' free after {order:?}");
            if !seen.contains(&outcomes[0]) {
                seen.push(outcomes[0]);
            }
        }
    }

    /// Visits every order of the world's pending actions depth first,
    /// replaying each order from a fresh world (inputs own buffers, so a
    /// world cannot be cloned). Returns how many orders it visited.
    fn explore(case: Case, seen: &mut Vec<&'static str>) -> usize {
        // (choice, number of choices) at each depth of the current order.
        let mut path: Vec<(usize, usize)> = Vec::new();
        let mut orders = 0;
        loop {
            let mut world = World::new(case);
            let mut depth = 0;
            while !world.pending.is_empty() {
                if depth == path.len() {
                    path.push((0, world.pending.len()));
                }
                assert_eq!(path[depth].1, world.pending.len(), "replay diverged");
                world.act(path[depth].0);
                depth += 1;
            }
            world.check_end(seen);
            orders += 1;
            while let Some((choice, of)) = path.pop() {
                if choice + 1 < of {
                    path.push((choice + 1, of));
                    break;
                }
            }
            if path.is_empty() {
                return orders;
            }
        }
    }

    /// One request through two nodes' runtime cores in every order of its
    /// pending inputs, with the DNE and fabric modelled as "a `Submit`
    /// becomes a `Deliver` on the peer, at any later point": the 1→2→1 echo
    /// with its deadline passing before, between or after each hop, and
    /// the 1→{2 local, 3 remote} fan-out with 0, 1 or 2 buffers free for it.
    /// After every order: exactly one `Complete` or one `Fail`, no join
    /// left on either node, every pool's free back where it started. A
    /// failure prints the order that broke the promise.
    #[test]
    fn every_order_of_an_echo_and_a_fan_out_answers_once_and_leaks_nothing() {
        let mut seen = Vec::new();
        let cases = [
            Case::Echo,
            Case::FanOut { free: 0 },
            Case::FanOut { free: 1 },
            Case::FanOut { free: 2 },
        ];
        let orders = cases.map(|case| explore(case, &mut seen));
        assert_eq!(orders, [7, 1, 1, 20]);
        seen.sort_unstable();
        assert_eq!(seen, ["complete", "expired", "shed"]);
    }
}
