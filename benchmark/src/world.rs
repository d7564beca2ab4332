//! The four workloads: each builds a full-fidelity `nadino::Cluster`, its
//! load generator and the request ledger the metrics are computed from.
//!
//! Inputs come from the seed only: client start offsets, flow ids, the
//! Poisson/Zipf arrival schedule and the fault stream. The simulated
//! program sees nothing but those generated inputs.

use std::cell::{Cell, OnceCell, RefCell};
use std::rc::Rc;

use ingress::gateway::{Dropped, Gateway, GatewayConfig, Reply, Upstream};
use ingress::rss::FlowId;
use ingress::{AdmissionConfig, DeliveryFailed, ReqCtx};
use membuf::tenant::TenantId;
use nadino::boutique;
use nadino::cluster::{Cluster, ClusterConfig};
use rdma_sim::FaultPlane;
use runtime::ChainSpec;
use simcore::{Sim, SimDuration, SimRng, SimTime};

/// Closed-loop clients of the two echo workloads (fig06 shape).
const ECHO_CLIENTS: usize = 8;
/// Closed-loop clients of `boutique_gw`: below DNE saturation, so RPS
/// follows per-request cost instead of pinning to the two-core ceiling.
const BOUTIQUE_CLIENTS: usize = 20;
/// Clients start at seeded offsets inside this window.
const START_WINDOW_NS: u64 = 100_000;
/// Mean of the seeded exponential think time between a closed-loop
/// client's reply and its next request. Without it the deterministic
/// model phase-locks: every request of a run gets the same latency and
/// p99 equals p50, so the tail metric could not move.
const ECHO_THINK: SimDuration = SimDuration::from_micros(4);
const BOUTIQUE_THINK: SimDuration = SimDuration::from_micros(40);
/// Ingress-to-worker transport latency of the NADINO gateway (fig16).
const INGRESS_TRANSPORT: SimDuration = SimDuration::from_micros(3);

/// `tenants_open`: tenant count, payload, and the frozen aggregate offered
/// rate — about 85 % of the closed-loop ceiling measured when the workload
/// was defined (see README, "Frozen constants").
pub const TENANTS: u16 = 32;
const TENANT_PAYLOAD: usize = 1024;
pub const TENANTS_OFFERED_RPS: f64 = 107_000.0;
/// The rogue tenant offers this multiple of its weight share.
const ROGUE_FACTOR: f64 = 4.0;
const ZIPF_S: f64 = 1.1;
const TENANT_GW_WORKERS: usize = 8;

/// `echo_lossy_4k`: the fault mix. The retry budget is raised so that the
/// exponential backoff outlasts the longest outage; every request is then
/// expected to complete and a typed failure is a regression.
const LOSSY_PAYLOAD: usize = 4096;
const LOSS_P: f64 = 0.02;
const CORRUPTION_P: f64 = 0.005;
const OUTAGE_EVERY: SimDuration = SimDuration::from_millis(100);
const OUTAGE_LEN: SimDuration = SimDuration::from_millis(1);
const LOSSY_RETRY_BUDGET: u32 = 12;

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Pending,
    Ok,
    /// Typed `DeliveryFailure` (or the gateway's `503` for one).
    Failed,
    /// Refused by admission control (or an exhausted entry pool).
    Shed,
    /// Dropped at a gateway worker's backlog bound.
    Dropped,
    /// Deadline expired inside the gateway.
    Expired,
}

/// One request: when it was due, when it ended, and how.
#[derive(Debug, Clone, Copy)]
pub struct Rec {
    pub due_ns: u64,
    pub done_ns: u64,
    pub outcome: Outcome,
    pub tenant: u16,
    /// Trace id the program knows the request by (the gateway's request id
    /// behind a gateway, the ledger index otherwise).
    pub trace_id: u64,
}

/// The benchmark's own per-request record: exact `(due, done)` pairs, so
/// percentiles need no histogram buckets.
#[derive(Default)]
pub struct Ledger {
    pub recs: Vec<Rec>,
}

impl Ledger {
    fn with_capacity(n: usize) -> Ledger {
        Ledger {
            recs: Vec::with_capacity(n),
        }
    }

    fn begin(&mut self, due: SimTime, tenant: u16) -> usize {
        let idx = self.recs.len();
        self.recs.push(Rec {
            due_ns: due.as_nanos(),
            done_ns: 0,
            outcome: Outcome::Pending,
            tenant,
            trace_id: idx as u64,
        });
        idx
    }

    /// Resolves a request; `false` when it was already resolved (a second
    /// failure report for one request, or a completion after a failure).
    fn finish(&mut self, idx: usize, now: SimTime, outcome: Outcome) -> bool {
        match self.recs.get_mut(idx) {
            Some(rec) if rec.outcome == Outcome::Pending => {
                rec.done_ns = now.as_nanos();
                rec.outcome = outcome;
                true
            }
            _ => false,
        }
    }
}

/// Consumer of finished traces in the traced run (see `trace.rs`); a
/// no-op handle when tracing is off.
pub type TraceDone = Rc<dyn Fn(u64)>;

/// Starts a built workload's load at the current instant; no request is
/// issued at or after the given stop time.
pub type StartLoad = Box<dyn FnOnce(&mut Sim, SimTime)>;

/// A built workload, ready for its load to start.
pub struct World {
    pub sim: Sim,
    pub cluster: Rc<Cluster>,
    pub gateway: Option<Gateway>,
    pub ledger: Rc<RefCell<Ledger>>,
    pub start: StartLoad,
    /// Bytes copied into a pool buffer per request at injection.
    pub payload: usize,
    /// `(tenant, weight)` of every provisioned tenant.
    pub tenants: Vec<(TenantId, u32)>,
}

/// Everything a builder needs.
#[derive(Clone)]
pub struct BuildCtx {
    pub seed: u64,
    /// Expected number of requests, to size the ledger up front so that it
    /// never reallocates inside the timed window.
    pub expect_reqs: usize,
    pub tracer: obs::Tracer,
    pub trace_done: TraceDone,
}

/// How many independent simulations ("cells") a workload runs per
/// repetition: the three boutique chains each get their own cluster, as in
/// fig16; everything else is one cell.
pub fn cells_of(workload: &str) -> usize {
    if workload == "boutique_gw" {
        3
    } else {
        1
    }
}

/// Builds cell `cell` of `workload`.
pub fn build(workload: &str, cell: usize, ctx: &BuildCtx) -> World {
    match workload {
        "echo_small" => build_echo(ctx, 64, false),
        "echo_lossy_4k" => build_echo(ctx, LOSSY_PAYLOAD, true),
        "boutique_gw" => build_boutique(ctx, cell),
        "tenants_open" => build_tenants(ctx, TENANTS_OFFERED_RPS),
        other => panic!("unknown workload {other}"),
    }
}

fn seeded_offsets(rng: &mut SimRng, n: usize) -> Vec<SimDuration> {
    (0..n)
        .map(|_| SimDuration::from_nanos(rng.gen_range(START_WINDOW_NS)))
        .collect()
}

struct EchoCtx {
    cluster: Rc<Cluster>,
    chain: ChainSpec,
    payload: usize,
    ledger: Rc<RefCell<Ledger>>,
    stop_at: Cell<SimTime>,
    think: RefCell<SimRng>,
}

/// Draws one think time.
fn think_time(rng: &RefCell<SimRng>, mean: SimDuration) -> SimDuration {
    SimDuration::from_secs_f64(rng.borrow_mut().exponential(mean.as_secs_f64()))
}

fn echo_issue(ctx: &EchoCtx, sim: &mut Sim) {
    if sim.now() >= ctx.stop_at.get() {
        return;
    }
    let idx = ctx.ledger.borrow_mut().begin(sim.now(), ctx.chain.tenant.0);
    if !ctx.cluster.inject(sim, &ctx.chain, idx as u64, ctx.payload) {
        // Entry pool exhausted: the client is not reissued, and the
        // correctness gate reports the shed.
        ctx.ledger
            .borrow_mut()
            .finish(idx, sim.now(), Outcome::Shed);
    }
}

/// fig06 shape: one tenant, chain 1→2→1 across two nodes, zero function
/// cost, closed loop, no gateway. `lossy` installs the seeded fault plane.
fn build_echo(bctx: &BuildCtx, payload: usize, lossy: bool) -> World {
    let mut sim = Sim::new();
    let mut cfg = ClusterConfig::default();
    if lossy {
        cfg.dne.retry_budget = LOSSY_RETRY_BUDGET;
    }
    let mut cluster = Cluster::new(&mut sim, cfg);
    let tenant = TenantId(1);
    cluster.add_tenant(&mut sim, tenant, 1).expect("tenant");
    let chain = ChainSpec::new("echo", tenant, vec![1, 2, 1]);
    cluster.place(1, 0);
    cluster.place(2, 1);
    cluster.set_tracer(&bctx.tracer);

    let ledger = Rc::new(RefCell::new(Ledger::with_capacity(bctx.expect_reqs)));
    let slot: Rc<OnceCell<Rc<EchoCtx>>> = Rc::new(OnceCell::new());
    let resolve = {
        let slot = slot.clone();
        let trace_done = bctx.trace_done.clone();
        move |sim: &mut Sim, req: u64, outcome: Outcome| {
            let ctx = slot.get().expect("load started");
            if ctx
                .ledger
                .borrow_mut()
                .finish(req as usize, sim.now(), outcome)
            {
                trace_done(req);
                let ctx = ctx.clone();
                let think = think_time(&ctx.think, ECHO_THINK);
                sim.schedule_after(think, move |sim| echo_issue(&ctx, sim));
            }
        }
    };
    let on_ok = resolve.clone();
    cluster.register_chain(
        &chain,
        |_| SimDuration::ZERO,
        Rc::new(move |sim, req| on_ok(sim, req, Outcome::Ok)),
    );
    cluster.set_delivery_failure_handler(Rc::new(move |sim, failure| {
        resolve(sim, failure.req_id, Outcome::Failed)
    }));

    let mut rng = SimRng::new(bctx.seed);
    let offsets = seeded_offsets(&mut rng, ECHO_CLIENTS);
    let fault_seed = rng.next_u64();
    let cluster = Rc::new(cluster);
    let ctx = Rc::new(EchoCtx {
        cluster: cluster.clone(),
        chain,
        payload,
        ledger: ledger.clone(),
        stop_at: Cell::new(SimTime::ZERO),
        think: RefCell::new(rng.fork()),
    });
    assert!(slot.set(ctx.clone()).is_ok());

    let fault_cluster = cluster.clone();
    let start = Box::new(move |sim: &mut Sim, stop_at: SimTime| {
        ctx.stop_at.set(stop_at);
        if lossy {
            // Faults start with the load, so provisioning is never
            // perturbed.
            let mut fp = FaultPlane::new(fault_seed);
            fp.set_default_loss(LOSS_P);
            fp.set_default_corruption(CORRUPTION_P);
            fault_cluster.fabric.install_fault_plane(fp);
            let node = fault_cluster.nodes[1].id;
            let mut from = sim.now() + OUTAGE_EVERY;
            while from < stop_at {
                fault_cluster
                    .fabric
                    .schedule_node_outage(node, from, from + OUTAGE_LEN);
                from += OUTAGE_EVERY;
            }
        }
        for off in offsets {
            let ctx = ctx.clone();
            sim.schedule_after(off, move |sim| echo_issue(&ctx, sim));
        }
    });
    World {
        sim,
        cluster,
        gateway: None,
        ledger,
        start,
        payload: payload.max(obs::CTX_REGION),
        tenants: vec![(tenant, 1)],
    }
}

/// Replies parked between injection and chain completion, indexed by the
/// gateway's request id (dense, starting at 0).
#[derive(Default)]
struct PendingReplies {
    slots: Vec<Option<Reply>>,
}

impl PendingReplies {
    fn park(&mut self, req: u64, reply: Reply) {
        let idx = req as usize;
        if self.slots.len() <= idx {
            self.slots.resize_with(idx + 1, || None);
        }
        self.slots[idx] = Some(reply);
    }

    fn take(&mut self, req: u64) -> Option<Reply> {
        self.slots.get_mut(req as usize).and_then(Option::take)
    }
}

/// Wires chain completions and typed delivery failures to the parked
/// gateway replies, so the gateway answers every accepted request.
fn wire_replies(
    cluster: &Cluster,
    chains: &[ChainSpec],
    cost: impl Fn(u16) -> SimDuration + Copy,
    bytes: usize,
    cap: usize,
) -> Rc<RefCell<PendingReplies>> {
    let pending = Rc::new(RefCell::new(PendingReplies {
        slots: Vec::with_capacity(cap),
    }));
    for chain in chains {
        let p = pending.clone();
        cluster.register_chain(
            chain,
            cost,
            Rc::new(move |sim, req| {
                let reply = p.borrow_mut().take(req);
                if let Some(reply) = reply {
                    reply(sim, Ok(bytes));
                }
            }),
        );
    }
    let p = pending.clone();
    cluster.set_delivery_failure_handler(Rc::new(move |sim, failure| {
        let reply = p.borrow_mut().take(failure.req_id);
        if let Some(reply) = reply {
            reply(sim, Err(DeliveryFailed));
        }
    }));
    pending
}

/// The gateway's upstream: RDMA transport to the entry node, then inject
/// under the gateway's request id and park the reply. Tenant `t` uses
/// `chains[t - 1]`; single-tenant runs submit as tenant 0 and use the one
/// chain there is.
fn cluster_upstream(
    cluster: Rc<Cluster>,
    chains: Rc<[ChainSpec]>,
    payload: usize,
    pending: Rc<RefCell<PendingReplies>>,
) -> Upstream {
    Rc::new(move |sim: &mut Sim, ctx: ReqCtx, reply: Reply| {
        let cluster = cluster.clone();
        let chains = chains.clone();
        let pending = pending.clone();
        sim.schedule_after(INGRESS_TRANSPORT, move |sim| {
            let chain = &chains[usize::from(ctx.tenant).saturating_sub(1)];
            pending.borrow_mut().park(ctx.req_id, reply);
            if !cluster.inject(sim, chain, ctx.req_id, payload) {
                let reply = pending.borrow_mut().take(ctx.req_id);
                if let Some(reply) = reply {
                    reply(sim, Err(DeliveryFailed));
                }
            }
        });
    })
}

fn outcome_of(result: Result<usize, Dropped>) -> Outcome {
    match result {
        Ok(_) => Outcome::Ok,
        Err(Dropped::Delivery) => Outcome::Failed,
        Err(Dropped::Shed { .. }) => Outcome::Shed,
        Err(Dropped::Overload) => Outcome::Dropped,
        Err(Dropped::DeadlineExceeded) => Outcome::Expired,
    }
}

/// Shared state of a gateway-fronted load generator.
struct GwLoad {
    gateway: Gateway,
    upstream: Upstream,
    ledger: Rc<RefCell<Ledger>>,
    trace_done: TraceDone,
    stop_at: Cell<SimTime>,
    think: RefCell<SimRng>,
}

/// Submits one request. A closed-loop client (`think` set) thinks for a
/// seeded exponential time after the reply and submits again until the
/// stop time; an open-loop arrival is submitted once.
fn gw_submit(
    load: &Rc<GwLoad>,
    sim: &mut Sim,
    tenant: u16,
    flow: FlowId,
    bytes: usize,
    think: Option<SimDuration>,
) {
    if think.is_some() && sim.now() >= load.stop_at.get() {
        return;
    }
    let idx = load.ledger.borrow_mut().begin(sim.now(), tenant);
    let l2 = load.clone();
    // The gateway numbers accepted requests densely; reading the counter
    // around the call recovers the id it gave this one.
    let accepted_before = load.gateway.stats().accepted;
    load.gateway.submit_tenant(
        sim,
        tenant,
        flow,
        bytes,
        load.upstream.clone(),
        Box::new(move |sim, result| {
            let trace_id = {
                let mut ledger = l2.ledger.borrow_mut();
                ledger.finish(idx, sim.now(), outcome_of(result));
                ledger.recs[idx].trace_id
            };
            (l2.trace_done)(trace_id);
            if let Some(mean) = think {
                let pause = think_time(&l2.think, mean);
                sim.schedule_after(pause, move |sim| {
                    gw_submit(&l2, sim, tenant, flow, bytes, think)
                });
            }
        }),
    );
    if load.gateway.stats().accepted > accepted_before {
        load.ledger.borrow_mut().recs[idx].trace_id = accepted_before;
    }
}

/// fig16 shape: one Online Boutique evaluation chain (hotspot placement,
/// reference execution costs) behind the NADINO gateway, closed loop.
fn build_boutique(bctx: &BuildCtx, cell: usize) -> World {
    let mut sim = Sim::new();
    let mut cluster = Cluster::new(
        &mut sim,
        ClusterConfig {
            pool_bufs: 4096,
            ..ClusterConfig::default()
        },
    );
    let tenant = TenantId(1);
    cluster.add_tenant(&mut sim, tenant, 1).expect("tenant");
    for f in boutique::all_functions() {
        cluster.place(f, boutique::hotspot_placement(f));
    }
    cluster.set_tracer(&bctx.tracer);
    let chains: Rc<[ChainSpec]> = Rc::new([boutique::evaluation_chains(tenant)[cell].clone()]);
    let pending = wire_replies(
        &cluster,
        &chains,
        boutique::exec_cost,
        boutique::PAYLOAD_BYTES,
        bctx.expect_reqs,
    );
    let gateway = Gateway::new(GatewayConfig {
        initial_workers: 2,
        max_backlog: SimDuration::from_millis(500),
        ..GatewayConfig::default()
    });
    gateway.set_tracer(bctx.tracer.clone());
    let cluster = Rc::new(cluster);
    let upstream = cluster_upstream(cluster.clone(), chains, boutique::PAYLOAD_BYTES, pending);
    // Seeded per cell: start offsets, the client ports RSS hashes, and
    // the think-time stream.
    let mut rng = SimRng::new(bctx.seed ^ (cell as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let offsets = seeded_offsets(&mut rng, BOUTIQUE_CLIENTS);
    let ports: Vec<u32> = (0..BOUTIQUE_CLIENTS)
        .map(|_| rng.gen_range(u64::from(u16::MAX)) as u32)
        .collect();
    let ledger = Rc::new(RefCell::new(Ledger::with_capacity(bctx.expect_reqs)));
    let load = Rc::new(GwLoad {
        gateway: gateway.clone(),
        upstream,
        ledger: ledger.clone(),
        trace_done: bctx.trace_done.clone(),
        stop_at: Cell::new(SimTime::ZERO),
        think: RefCell::new(rng.fork()),
    });

    let start = Box::new(move |sim: &mut Sim, stop_at: SimTime| {
        load.stop_at.set(stop_at);
        for (c, (off, port)) in offsets.into_iter().zip(ports).enumerate() {
            let load = load.clone();
            let flow = FlowId::from_client(c as u32, port);
            sim.schedule_after(off, move |sim| {
                gw_submit(
                    &load,
                    sim,
                    0,
                    flow,
                    boutique::PAYLOAD_BYTES,
                    Some(BOUTIQUE_THINK),
                )
            });
        }
    });
    World {
        sim,
        cluster,
        gateway: Some(gateway),
        ledger,
        start,
        payload: boutique::PAYLOAD_BYTES,
        tenants: vec![(tenant, 1)],
    }
}

/// One pre-generated open-loop arrival.
#[derive(Clone, Copy)]
struct Arrival {
    /// Offset from load start.
    at_ns: u64,
    tenant: u16,
    flow: FlowId,
}

/// Index (0-based) of the rogue tenant; weight 4 of 1..8.
const ROGUE_INDEX: usize = 3;

/// The tenants' offered shares: Zipf(1.1) over a fixed rank permutation
/// that does not follow the weights, then the rogue raised to
/// `ROGUE_FACTOR` times its weight share, renormalised. Fixed rather than
/// seeded: which tenant is popular or rogue changes the workload's shape
/// (a popular weight-1 tenant queues far longer under DWRR), and the seed
/// is meant to vary the sample, not the workload.
fn tenant_shares(weights: &[u32]) -> Vec<f64> {
    let n = weights.len();
    let mut share = vec![0.0; n];
    for rank in 0..n {
        // 11 is coprime with 32, so this visits every tenant once.
        share[(rank * 11 + 5) % n] = 1.0 / ((rank + 1) as f64).powf(ZIPF_S);
    }
    let total: f64 = share.iter().sum();
    share.iter_mut().for_each(|s| *s /= total);
    let rogue = ROGUE_INDEX;
    let weight_total: f64 = weights.iter().map(|&w| f64::from(w)).sum();
    share[rogue] = ROGUE_FACTOR * f64::from(weights[rogue]) / weight_total;
    let total: f64 = share.iter().sum();
    share.iter_mut().for_each(|s| *s /= total);
    share
}

/// 32 tenants, each with its own client→server→client chain, 1 KB
/// payloads, open loop through the gateway with CoDel admission on.
pub fn build_tenants(bctx: &BuildCtx, offered_rps: f64) -> World {
    let mut sim = Sim::new();
    let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
    let gateway = Gateway::new(GatewayConfig {
        initial_workers: TENANT_GW_WORKERS,
        max_backlog: SimDuration::from_millis(5),
        admission: Some(AdmissionConfig {
            target: SimDuration::from_micros(200),
            interval: SimDuration::from_millis(2),
            retry_after_secs: 1,
        }),
        ..GatewayConfig::default()
    });
    gateway.set_tracer(bctx.tracer.clone());
    let mut tenants = Vec::new();
    let mut chains = Vec::new();
    for t in 1..=TENANTS {
        let tenant = TenantId(t);
        let weight = u32::from((t - 1) % 8 + 1);
        cluster
            .add_tenant(&mut sim, tenant, weight)
            .expect("tenant");
        gateway.register_tenant(t, weight);
        let (client_fn, server_fn) = (t * 10 + 1, t * 10 + 2);
        cluster.place(client_fn, 0);
        cluster.place(server_fn, 1);
        chains.push(ChainSpec::new(
            "tenant-echo",
            tenant,
            vec![client_fn, server_fn, client_fn],
        ));
        tenants.push((tenant, weight));
    }
    cluster.set_tracer(&bctx.tracer);
    let pending = wire_replies(
        &cluster,
        &chains,
        |_| SimDuration::ZERO,
        TENANT_PAYLOAD,
        bctx.expect_reqs,
    );
    let cluster = Rc::new(cluster);
    let upstream = cluster_upstream(cluster.clone(), chains.into(), TENANT_PAYLOAD, pending);
    let ledger = Rc::new(RefCell::new(Ledger::with_capacity(bctx.expect_reqs)));
    let mut rng = SimRng::new(bctx.seed);
    let load = Rc::new(GwLoad {
        gateway: gateway.clone(),
        upstream,
        ledger: ledger.clone(),
        trace_done: bctx.trace_done.clone(),
        stop_at: Cell::new(SimTime::ZERO),
        think: RefCell::new(rng.fork()),
    });
    let weights: Vec<u32> = tenants.iter().map(|&(_, w)| w).collect();
    let share = tenant_shares(&weights);

    let start = Box::new(move |sim: &mut Sim, stop_at: SimTime| {
        load.stop_at.set(stop_at);
        // The whole schedule is drawn before the first arrival, so the
        // generator costs the timed window one event per request and no
        // random numbers. Superposed per-tenant Poisson streams are one
        // Poisson stream whose arrivals pick a tenant by share.
        let horizon_ns = stop_at.saturating_since(sim.now()).as_nanos();
        let mean_gap_s = 1.0 / offered_rps;
        let mut schedule =
            Vec::with_capacity((horizon_ns as f64 * offered_rps / 1e9) as usize + 64);
        let mut at_s = 0.0f64;
        let mut n = 0u32;
        loop {
            at_s += rng.exponential(mean_gap_s);
            let at_ns = (at_s * 1e9) as u64;
            if at_ns >= horizon_ns {
                break;
            }
            let tenant = rng.weighted_index(&share) as u16 + 1;
            schedule.push(Arrival {
                at_ns,
                tenant,
                flow: FlowId::from_client(n, rng.gen_range(u64::from(u16::MAX)) as u32),
            });
            n = n.wrapping_add(1);
        }
        let t0 = sim.now();
        let schedule: Rc<[Arrival]> = schedule.into();
        fn arrive(load: Rc<GwLoad>, schedule: Rc<[Arrival]>, t0: SimTime, i: usize, sim: &mut Sim) {
            let a = schedule[i];
            // The event fires at the due instant, so the generator is
            // never late in virtual time; latency is timed from `due`.
            gw_submit(&load, sim, a.tenant, a.flow, TENANT_PAYLOAD, None);
            if let Some(next) = schedule.get(i + 1) {
                let at = t0 + SimDuration::from_nanos(next.at_ns);
                sim.schedule_at(at, move |sim| arrive(load, schedule, t0, i + 1, sim));
            }
        }
        if let Some(first) = schedule.first() {
            let at = t0 + SimDuration::from_nanos(first.at_ns);
            sim.schedule_at(at, move |sim| arrive(load, schedule, t0, 0, sim));
        }
    });
    World {
        sim,
        cluster,
        gateway: Some(gateway),
        ledger,
        start,
        payload: TENANT_PAYLOAD,
        tenants,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_resolves_each_request_once() {
        let mut l = Ledger::default();
        let a = l.begin(SimTime::from_nanos(5), 1);
        assert!(l.finish(a, SimTime::from_nanos(9), Outcome::Failed));
        assert!(
            !l.finish(a, SimTime::from_nanos(12), Outcome::Ok),
            "second report ignored"
        );
        assert_eq!(l.recs[a].done_ns, 9);
        assert_eq!(l.recs[a].outcome, Outcome::Failed);
        assert!(
            !l.finish(7, SimTime::from_nanos(1), Outcome::Ok),
            "unknown id ignored"
        );
    }

    #[test]
    fn tenant_shares_sum_to_one_and_raise_the_rogue() {
        let weights: Vec<u32> = (0..32).map(|i| i % 8 + 1).collect();
        let share = tenant_shares(&weights);
        assert!((share.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(
            share.iter().all(|&s| s > 0.0),
            "the rank permutation covers every tenant"
        );
        let weight_share = f64::from(weights[ROGUE_INDEX]) / 144.0;
        assert!(
            share[ROGUE_INDEX] > 2.0 * weight_share,
            "rogue offers well over its share"
        );
    }
}
