//! The load side: one client machine and one ingress-to-worker hop.
//!
//! [`ClosedLoop`] reproduces wrk: clients that each keep a request
//! outstanding and reissue it when it is answered, until a stop time, with
//! latency and windowed throughput. It is a machine behind `simcore`'s
//! driver whose inputs are a direct-mode issue of `n` requests through
//! [`Cluster::inject`], a client opening gateway flows (either now or at an
//! instant), a flow's turn, and an answer. [`hop`] is the worker transport,
//! then a cluster's front door or an echo worker.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::{Rc, Weak};

use ingress::gateway::{Completion, Dropped, Gateway, Reply, ReqCtx, Upstream, WeakGateway};
use ingress::rss::FlowId;
use runtime::function::CompletionFn;
use runtime::ChainSpec;
use simcore::{
    Driver, Histogram, Machine, MultiServer, Sim, SimDuration, SimTime, Sink, TimeSeries,
};

use crate::cluster::Cluster;

/// How long a client refused at the gateway's door waits before it
/// reconnects and submits again.
pub const RECONNECT: SimDuration = SimDuration::from_secs(1);

/// Where a loop's requests enter. Both hold weakly what owns the loop: the
/// cluster's endpoints own its completion, the gateway's slots its flows'
/// answers.
enum Entry {
    /// `Cluster::inject` of chain `.1`, `.2` bytes per request.
    Direct(Weak<Cluster>, ChainSpec, usize),
    /// `Gateway::submit_tenant` as tenant `.1` into `.2`, `.3` bytes each.
    Gateway(WeakGateway, u16, Upstream, usize),
}

struct Tally {
    /// The counter request ids are drawn from: the loop's own, or its
    /// cluster's, which every loop on that cluster shares.
    ids: Rc<Cell<u64>>,
    pending: HashMap<u64, SimTime>,
    hist: Histogram,
    completed: u64,
    shed: u64,
    began: SimTime,
    last_done: SimTime,
    series: Option<TimeSeries>,
}

impl Tally {
    /// Books one answered request issued at `t0`.
    fn record(&mut self, now: SimTime, t0: SimTime) {
        self.hist.record(now.saturating_since(t0));
        self.completed += 1;
        self.last_done = now;
        if let Some(series) = self.series.as_mut() {
            series.record_at(now, 1.0);
        }
    }

    /// Issues a direct-mode request now and returns its id.
    fn issue(&mut self, now: SimTime) -> u64 {
        let req = self.ids.get();
        self.ids.set(req + 1);
        self.pending.insert(req, now);
        req
    }
}

struct Load {
    /// Issuing stops at this instant; `None` never reissues: an open loop.
    stop_at: Option<SimTime>,
    /// The wait between a flow's answer and its next turn; `None` turns
    /// inline, in the answer's event.
    wait: Cell<Option<SimDuration>>,
    entry: RefCell<Option<Entry>>,
    tally: RefCell<Tally>,
}

enum In {
    /// Issue `n` direct-mode requests.
    Issue(usize),
    /// Client `.0` opens flows `FlowId::from_client(.0, 0..conns)`.
    Open(u32, u32),
    /// A flow submits its next request, unless the loop has stopped.
    Turn(FlowId),
    /// A flow's request, submitted at `.1`, was answered.
    Answered(FlowId, SimTime, Result<usize, Dropped>),
    /// Direct-mode request `.0` completed.
    Completed(u64),
}

enum Out {
    Inject(u64),
    Submit(FlowId),
    At(SimTime, In),
}

impl Load {
    fn issuing(&self, now: SimTime) -> bool {
        self.stop_at.is_some_and(|stop| now < stop)
    }
}

/// Every output applies at once: a step holds no borrow while it emits.
impl Machine for Load {
    type In = In;
    type Out = Out;
    type Answer = ();

    fn step(&self, now: SimTime, input: In, sink: &mut Sink<'_, Self>) {
        match input {
            In::Issue(n) => {
                for _ in 0..n {
                    let req = self.tally.borrow_mut().issue(now);
                    sink.put(Out::Inject(req));
                }
            }
            In::Open(client, conns) if self.issuing(now) => {
                for conn in 0..conns {
                    sink.put(Out::Submit(FlowId::from_client(client, conn)));
                }
            }
            In::Turn(flow) if self.issuing(now) => sink.put(Out::Submit(flow)),
            In::Open(..) | In::Turn(_) => {}
            In::Answered(flow, t0, answer) => {
                match answer {
                    Ok(_) => self.tally.borrow_mut().record(now, t0),
                    Err(_) => self.tally.borrow_mut().shed += 1,
                }
                // A refusal leaves the backlog as it was: turning at once
                // would be refused again, forever.
                let refused = matches!(answer, Err(Dropped::Overload | Dropped::Shed { .. }));
                let wait = if refused {
                    Some(RECONNECT)
                } else {
                    self.wait.get()
                };
                let turn = In::Turn(flow);
                match wait {
                    Some(wait) => sink.put(Out::At(now + wait, turn)),
                    None => self.step(now, turn, sink),
                }
            }
            In::Completed(req) => {
                let mut tally = self.tally.borrow_mut();
                let Some(t0) = tally.pending.remove(&req) else {
                    return; // duplicate or foreign completion
                };
                tally.record(now, t0);
                if self.issuing(now) {
                    let req = tally.issue(now);
                    drop(tally);
                    sink.put(Out::Inject(req));
                }
            }
        }
    }

    fn apply(this: &Rc<Driver<Self>>, sim: &mut Sim, out: Out) -> Result<(), Out> {
        match (out, &*this.entry.borrow()) {
            (Out::At(at, input), _) => this.schedule(sim, at, input),
            (Out::Inject(req), Some(Entry::Direct(cluster, chain, payload))) => {
                let cluster = cluster.upgrade();
                if !cluster.is_some_and(|c| c.inject(sim, chain, req, *payload)) {
                    let mut tally = this.tally.borrow_mut();
                    tally.pending.remove(&req);
                    tally.shed += 1;
                }
            }
            (Out::Submit(flow), Some(Entry::Gateway(gateway, tenant, upstream, req_bytes))) => {
                if let Some(gateway) = gateway.upgrade() {
                    let (load, t0) = (this.clone(), sim.now());
                    let answered: Completion = Box::new(move |sim, answer| {
                        load.drive(sim, In::Answered(flow, t0, answer));
                    });
                    let up = upstream.clone();
                    gateway.submit_tenant(sim, *tenant, flow, *req_bytes, up, answered);
                }
            }
            _ => {} // the loop was never started this way
        }
        Ok(())
    }

    fn settle(_: &Rc<Driver<Self>>, _: &mut Sim, _: Out) {}
}

/// A load driver with latency and throughput accounting.
#[derive(Clone)]
pub struct ClosedLoop {
    load: Rc<Driver<Load>>,
}

impl ClosedLoop {
    /// Creates a driver that stops issuing at `stop_at`; with `None` it
    /// never reissues: an open loop, for trace replay.
    pub fn new(stop_at: impl Into<Option<SimTime>>) -> ClosedLoop {
        let stop_at = stop_at.into();
        let tally = RefCell::new(Tally {
            ids: Rc::default(),
            pending: HashMap::new(),
            hist: Histogram::new(),
            completed: 0,
            shed: 0,
            began: SimTime::ZERO,
            last_done: SimTime::ZERO,
            series: None,
        });
        let (wait, entry) = (Cell::new(None), RefCell::new(None));
        ClosedLoop {
            load: Driver::new(Load {
                stop_at,
                wait,
                entry,
                tally,
            }),
        }
    }

    /// Enables windowed-throughput recording with the given window.
    pub fn with_series(self, window: SimDuration) -> ClosedLoop {
        self.load.tally.borrow_mut().series = Some(TimeSeries::new(window));
        self
    }

    /// Makes a gateway flow take its next turn `wait` after an answer, in
    /// an event of its own, not inline in the answer's event. fig14 sets
    /// zero: its numbers depend on that tie order (DESIGN.md §2.1).
    pub fn with_wait(self, wait: SimDuration) -> ClosedLoop {
        self.load.wait.set(Some(wait));
        self
    }

    /// Returns the completion callback to hand to chain registration.
    pub fn completion(&self) -> CompletionFn {
        let load = self.load.clone();
        Rc::new(move |sim: &mut Sim, req: u64| load.drive(sim, In::Completed(req)))
    }

    fn enter(&self, sim: &mut Sim, entry: Entry) {
        self.load.tally.borrow_mut().began = sim.now();
        *self.load.entry.borrow_mut() = Some(entry);
    }

    /// Points the driver at `chain` on `cluster`, `payload` bytes per
    /// request, without issuing. Request ids come from the cluster's one
    /// counter, so two drivers on one cluster never share one.
    pub fn direct(&self, sim: &mut Sim, cluster: &Rc<Cluster>, chain: &ChainSpec, payload: usize) {
        self.load.tally.borrow_mut().ids = Rc::clone(&cluster.request_ids);
        let entry = Entry::Direct(Rc::downgrade(cluster), chain.clone(), payload);
        self.enter(sim, entry);
    }

    /// Starts `clients` closed-loop clients, as [`ClosedLoop::direct`]
    /// points them. A request the cluster refuses counts as shed.
    pub fn start(
        &self,
        sim: &mut Sim,
        cluster: &Rc<Cluster>,
        chain: &ChainSpec,
        clients: usize,
        payload: usize,
    ) {
        self.direct(sim, cluster, chain, payload);
        self.load.drive(sim, In::Issue(clients));
    }

    /// Issues `n` direct-mode requests at `at`.
    pub fn issue_at(&self, sim: &mut Sim, at: SimTime, n: usize) {
        self.load.schedule(sim, at, In::Issue(n));
    }

    /// Points the driver at `upstream` through `gateway` as `tenant`,
    /// `req_bytes` per request, without opening a flow.
    pub fn gateway(
        &self,
        sim: &mut Sim,
        gateway: &Gateway,
        tenant: u16,
        upstream: &Upstream,
        req_bytes: usize,
    ) {
        let entry = Entry::Gateway(gateway.downgrade(), tenant, upstream.clone(), req_bytes);
        self.enter(sim, entry);
    }

    /// Starts `clients` closed-loop flows, one per client, as
    /// [`ClosedLoop::gateway`] points them. Each flow resubmits when its
    /// request is answered, until the stop time; a flow refused at the door
    /// (shed or dropped) first waits [`RECONNECT`]. Only `Ok` records a
    /// latency sample; every other answer counts as shed.
    pub fn start_gateway(
        &self,
        sim: &mut Sim,
        gateway: &Gateway,
        tenant: u16,
        upstream: &Upstream,
        clients: usize,
        req_bytes: usize,
    ) {
        self.gateway(sim, gateway, tenant, upstream, req_bytes);
        for client in 0..clients as u32 {
            self.load.drive(sim, In::Open(client, 1));
        }
    }

    /// Opens `conns` flows of client `client` at `at`, each a closed loop
    /// as in [`ClosedLoop::start_gateway`].
    pub fn open_at(&self, sim: &mut Sim, at: SimTime, client: u32, conns: u32) {
        self.load.schedule(sim, at, In::Open(client, conns));
    }

    /// Returns completed request count.
    pub fn completed(&self) -> u64 {
        self.load.tally.borrow().completed
    }

    /// Returns the count of requests answered without a response: shed at
    /// injection, or (gateway mode) refused, expired or failed.
    pub fn shed_count(&self) -> u64 {
        self.load.tally.borrow().shed
    }

    /// Returns the latency histogram (cloned snapshot).
    pub fn latency(&self) -> Histogram {
        self.load.tally.borrow().hist.clone()
    }

    /// Sustained throughput: completions divided by active time.
    pub fn rps(&self) -> f64 {
        let tally = self.load.tally.borrow();
        let span = tally.last_done.saturating_since(tally.began).as_secs_f64();
        if span > 0.0 {
            tally.completed as f64 / span
        } else {
            0.0
        }
    }

    /// Finalizes and returns the windowed throughput series.
    pub fn series(&self, end: SimTime) -> Vec<(f64, f64)> {
        let series = self.load.tally.borrow_mut().series.take();
        series.map_or_else(Vec::new, |s| s.finish(end))
    }
}

/// Where a [`hop`] delivers.
pub enum Far {
    /// A cluster's front door, which answers in its own time.
    Door(Upstream),
    /// An echo function on a worker's host cores, `.1` per request, whose
    /// answer — the request's bytes — crosses back.
    Echo(RefCell<MultiServer>, SimDuration),
}

struct Hop {
    transport: SimDuration,
    far: Far,
}

/// A request that reached the worker, or an echo of `.1` bytes that came
/// back.
enum Crossing {
    There(ReqCtx, Reply),
    Back(Reply, usize),
}

impl Machine for Hop {
    type In = Crossing;
    /// A crossing to hand on now (`None`), or one still under way.
    type Out = (Option<SimTime>, Crossing);
    type Answer = ();

    fn step(&self, now: SimTime, crossing: Crossing, sink: &mut Sink<'_, Self>) {
        match (crossing, &self.far) {
            (Crossing::There(ctx, reply), Far::Echo(cores, cost)) => {
                let back = cores.borrow_mut().admit(now, *cost) + self.transport;
                sink.put((Some(back), Crossing::Back(reply, ctx.req_bytes)));
            }
            (crossing, _) => sink.put((None, crossing)),
        }
    }

    fn apply(this: &Rc<Driver<Self>>, sim: &mut Sim, out: Self::Out) -> Result<(), Self::Out> {
        match (out, &this.far) {
            ((Some(at), crossing), _) => this.schedule(sim, at, crossing),
            ((None, Crossing::There(ctx, reply)), Far::Door(door)) => door(sim, ctx, reply),
            ((None, Crossing::Back(reply, bytes)), _) => reply(sim, Ok(bytes)),
            ((None, Crossing::There(..)), Far::Echo(..)) => {} // an echo answers itself
        }
        Ok(())
    }

    fn settle(_: &Rc<Driver<Self>>, _: &mut Sim, _: Self::Out) {}
}

/// The gateway's upstream for a worker `transport` away: each request
/// crosses, then enters `far`.
pub fn hop(transport: SimDuration, far: Far) -> Upstream {
    let hop = Driver::new(Hop { transport, far });
    Rc::new(move |sim: &mut Sim, ctx: ReqCtx, reply: Reply| {
        let at = sim.now() + hop.transport;
        hop.schedule(sim, at, Crossing::There(ctx, reply));
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use ingress::gateway::{DeliveryFailed, GatewayConfig, Reply, ReqCtx};
    use membuf::tenant::TenantId;

    /// A two-node cluster with the 1→2→1 echo chain placed, not registered.
    fn echo_cluster(sim: &mut Sim) -> (Rc<Cluster>, ChainSpec) {
        let mut cluster = Cluster::new(sim, ClusterConfig::default());
        let tenant = TenantId(1);
        cluster.add_tenant(sim, tenant, 1).unwrap();
        cluster.place(1, 0);
        cluster.place(2, 1);
        let chain = ChainSpec::new("echo", tenant, vec![1, 2, 1]);
        (Rc::new(cluster), chain)
    }

    #[test]
    fn closed_loop_measures_latency_and_rps() {
        let mut sim = Sim::new();
        let (cluster, chain) = echo_cluster(&mut sim);
        let stop = sim.now() + SimDuration::from_millis(50);
        let driver = ClosedLoop::new(stop).with_series(SimDuration::from_millis(10));
        cluster.register_chain(
            &chain,
            |_| SimDuration::from_micros(10),
            driver.completion(),
        );
        driver.start(&mut sim, &cluster, &chain, 4, 128);
        sim.run();
        assert!(driver.completed() > 100);
        assert!(driver.rps() > 1_000.0, "rps = {}", driver.rps());
        let lat = driver.latency();
        assert_eq!(lat.count(), driver.completed());
        assert!(lat.mean().as_micros_f64() > 10.0);
        let series = driver.series(sim.now());
        assert!(series.len() >= 4);
        assert!(series.iter().any(|&(_, r)| r > 0.0));
    }

    #[test]
    fn stops_issuing_after_deadline() {
        let mut sim = Sim::new();
        let (cluster, chain) = echo_cluster(&mut sim);
        let stop = sim.now() + SimDuration::from_millis(5);
        let driver = ClosedLoop::new(stop);
        cluster.register_chain(
            &chain,
            |_| SimDuration::from_micros(10),
            driver.completion(),
        );
        driver.start(&mut sim, &cluster, &chain, 2, 64);
        sim.run();
        let total = driver.completed();
        assert!(total > 0);
        // Queue fully drained: nothing pending.
        assert_eq!(driver.load.tally.borrow().pending.len(), 0);
    }

    /// Two direct-mode drivers of two tenants on one traced cluster draw
    /// their request ids from the cluster's one counter, so no trace (the
    /// span store keys on the id) mixes the two tenants' spans.
    #[test]
    fn two_drivers_on_one_cluster_never_share_a_trace() {
        let mut sim = Sim::new();
        let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
        let tracer = obs::Tracer::enabled();
        cluster.set_tracer(&tracer);
        let mut drivers = Vec::new();
        for t in [1u16, 2] {
            let tenant = TenantId(t);
            cluster.add_tenant(&mut sim, tenant, 1).unwrap();
            let (entry, far) = (10 * t + 1, 10 * t + 2);
            cluster.place(entry, 0);
            cluster.place(far, 1);
            let chain = ChainSpec::new("echo", tenant, vec![entry, far, entry]);
            let driver = ClosedLoop::new(sim.now() + SimDuration::from_millis(5));
            let cost = |_| SimDuration::from_micros(10);
            cluster.register_chain(&chain, cost, driver.completion());
            drivers.push((driver, chain));
        }
        let cluster = Rc::new(cluster);
        for (driver, chain) in &drivers {
            driver.start(&mut sim, &cluster, chain, 4, 128);
        }
        sim.run();
        assert!(drivers.iter().all(|(d, _)| d.completed() > 0));
        let mut tenant_of = HashMap::new();
        for span in tracer.records() {
            let tenant = *tenant_of.entry(span.req_id).or_insert(span.tenant);
            assert_eq!(tenant, span.tenant, "trace {} mixes tenants", span.req_id);
        }
        assert!(tenant_of.values().any(|&t| t == 1) && tenant_of.values().any(|&t| t == 2));
    }

    /// Gateway mode against an echo upstream with a fixed delay: one flow
    /// on one worker is a strict sequence of `rx + delay + tx` turns, so
    /// the count, the rate and the mean latency have closed forms — also
    /// with the zero wait between turns, and for a flow opened later, whose
    /// first turn ends one turn after it opens. An upstream that fails
    /// every request keeps the loop turning but records no latency sample.
    #[test]
    fn gateway_mode_matches_the_closed_form_and_reissues_on_failure() {
        let delay = SimDuration::from_micros(40);
        let stop = SimTime::ZERO + SimDuration::from_millis(10);
        let run = |fail: bool, wait: Option<SimDuration>, opens: SimTime| {
            let mut sim = Sim::new();
            let gateway = Gateway::new(GatewayConfig::default());
            let upstream: Upstream = Rc::new(move |sim: &mut Sim, _ctx: ReqCtx, reply: Reply| {
                let answer = if fail { Err(DeliveryFailed) } else { Ok(64) };
                sim.schedule_after(delay, move |sim| reply(sim, answer));
            });
            let mut driver = ClosedLoop::new(stop);
            if let Some(wait) = wait {
                driver = driver.with_wait(wait);
            }
            if opens == SimTime::ZERO {
                driver.start_gateway(&mut sim, &gateway, 0, &upstream, 1, 64);
            } else {
                driver.gateway(&mut sim, &gateway, 0, &upstream, 64);
                driver.open_at(&mut sim, opens, 0, 1);
            }
            sim.run();
            (driver, gateway.stats())
        };

        let costs = ingress::StackCosts::for_kind(ingress::GatewayKind::Nadino);
        let turn = costs.ingress_service(1, 64) + delay;
        let (now, later) = (SimTime::ZERO, SimTime::ZERO + SimDuration::from_millis(3));
        for (wait, opens) in [(None, now), (Some(SimDuration::ZERO), now), (None, later)] {
            let (driver, stats) = run(false, wait, opens);
            // A turn that starts before the stop time runs to completion.
            let turns = (stop - opens).as_nanos().div_ceil(turn.as_nanos());
            let case = format!("wait {wait:?}, opened at {opens:?}");
            assert_eq!(driver.completed(), turns, "{case}");
            assert_eq!(stats.completed, turns, "{case}");
            assert_eq!(driver.shed_count(), 0, "{case}");
            assert_eq!(driver.latency().count(), turns, "{case}");
            assert_eq!(driver.latency().mean(), turn, "{case}");
            // The last turn ends `turns` turns after the flow opened.
            let span = (opens - SimTime::ZERO) + turn * turns;
            let expect_rps = turns as f64 / span.as_secs_f64();
            assert!(
                (driver.rps() - expect_rps).abs() < 1e-6 * expect_rps,
                "{case}"
            );
        }

        let (driver, stats) = run(true, None, now);
        assert_eq!(driver.completed(), 0);
        assert_eq!(
            driver.latency().count(),
            0,
            "no sample for a failed request"
        );
        assert!(stats.failed > 1, "the flow kept reissuing: {stats:?}");
        assert_eq!(driver.shed_count(), stats.failed);
        assert_eq!(driver.rps(), 0.0);
    }

    /// Two K-Ingress flows on one worker whose backlog bound (1 µs) is
    /// below one request's service: the second flow is refused at the door
    /// and waits a reconnect, past the stop time, instead of resubmitting
    /// into the same refusal until the stack overflows.
    #[test]
    fn a_flow_refused_at_the_door_waits_a_reconnect() {
        let mut sim = Sim::new();
        let gateway = Gateway::new(GatewayConfig {
            kind: ingress::GatewayKind::KIngress,
            max_backlog: SimDuration::from_micros(1),
            ..GatewayConfig::default()
        });
        let upstream: Upstream = Rc::new(|sim: &mut Sim, _ctx: ReqCtx, reply: Reply| {
            sim.schedule_after(SimDuration::from_micros(40), move |sim| reply(sim, Ok(64)));
        });
        let driver = ClosedLoop::new(sim.now() + SimDuration::from_millis(1));
        driver.start_gateway(&mut sim, &gateway, 0, &upstream, 2, 64);
        sim.run();
        assert_eq!(driver.shed_count(), 1, "{:?}", gateway.stats());
        assert_eq!(gateway.stats().dropped, 1);
        assert!(driver.completed() > 0);
        assert!(
            sim.now() >= SimTime::ZERO + RECONNECT,
            "the refused flow came back"
        );
    }
}
