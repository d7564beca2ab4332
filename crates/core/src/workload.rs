//! Load generation and request tracking.
//!
//! [`ClosedLoop`] is the repo's one closed-loop client, reproducing wrk's
//! behaviour: `clients` outstanding requests, each reissued when it is
//! answered, until a deadline — plus per-request latency and
//! windowed-throughput recording. It drives a cluster either directly
//! ([`ClosedLoop::start`], every request enters through
//! [`Cluster::inject`]) or through an ingress gateway
//! ([`ClosedLoop::start_gateway`], one flow per client). A caller that
//! issues requests its own way installs the issue hook with
//! [`ClosedLoop::set_issuer`], which `start` itself uses.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use ingress::gateway::{Dropped, Gateway, Upstream};
use ingress::rss::FlowId;
use runtime::function::CompletionFn;
use runtime::ChainSpec;
use simcore::{Histogram, Sim, SimDuration, SimTime, TimeSeries};

use crate::cluster::Cluster;

/// How long a client refused at the gateway's door waits before it
/// reconnects and submits again.
pub const RECONNECT: SimDuration = SimDuration::from_secs(1);

/// The issue hook installed by `start` (or a custom driver).
type IssueFn = Rc<dyn Fn(&mut Sim, u64)>;

struct Inner {
    /// The counter request ids are drawn from: the driver's own, or after
    /// `start` its cluster's, which every driver on that cluster shares.
    ids: Rc<Cell<u64>>,
    pending: HashMap<u64, SimTime>,
    hist: Histogram,
    completed: u64,
    shed: u64,
    stop_at: SimTime,
    began: SimTime,
    last_done: SimTime,
    series: Option<TimeSeries>,
    /// Re-issue hook set by `start` (or a custom driver).
    issue: Option<IssueFn>,
}

/// A closed-loop load driver with latency and throughput accounting.
#[derive(Clone)]
pub struct ClosedLoop {
    inner: Rc<RefCell<Inner>>,
}

impl ClosedLoop {
    /// Creates a driver that stops issuing at `stop_at`.
    pub fn new(stop_at: SimTime) -> ClosedLoop {
        ClosedLoop {
            inner: Rc::new(RefCell::new(Inner {
                ids: Rc::default(),
                pending: HashMap::new(),
                hist: Histogram::new(),
                completed: 0,
                shed: 0,
                stop_at,
                began: SimTime::ZERO,
                last_done: SimTime::ZERO,
                series: None,
                issue: None,
            })),
        }
    }

    /// Enables windowed-throughput recording with the given window.
    pub fn with_series(self, window: SimDuration) -> ClosedLoop {
        self.inner.borrow_mut().series = Some(TimeSeries::new(window));
        self
    }

    /// Books one answered request issued at `t0`; `true` while the driver
    /// should keep issuing.
    fn record(&self, now: SimTime, t0: SimTime) -> bool {
        let mut inner = self.inner.borrow_mut();
        inner.hist.record(now.saturating_since(t0));
        inner.completed += 1;
        inner.last_done = now;
        if let Some(series) = inner.series.as_mut() {
            series.record_at(now, 1.0);
        }
        now < inner.stop_at
    }

    /// Returns the completion callback to hand to chain registration.
    pub fn completion(&self) -> CompletionFn {
        let driver = self.clone();
        Rc::new(move |sim: &mut Sim, req_id: u64| {
            let Some(t0) = driver.inner.borrow_mut().pending.remove(&req_id) else {
                return; // duplicate or foreign completion
            };
            if driver.record(sim.now(), t0) {
                driver.issue_one(sim);
            }
        })
    }

    /// Installs a custom issue hook (`start` installs the standard one).
    pub fn set_issuer(&self, f: IssueFn) {
        self.inner.borrow_mut().issue = Some(f);
    }

    /// Issues one request through the installed hook.
    pub fn issue_one(&self, sim: &mut Sim) {
        let (req, issue) = {
            let mut inner = self.inner.borrow_mut();
            let Some(issue) = inner.issue.clone() else {
                return;
            };
            let req = inner.ids.get();
            inner.ids.set(req + 1);
            inner.pending.insert(req, sim.now());
            (req, issue)
        };
        issue(sim, req);
    }

    /// Marks a request as shed (admission failure) without latency record.
    pub fn shed(&self, req_id: u64) {
        let mut inner = self.inner.borrow_mut();
        inner.pending.remove(&req_id);
        inner.shed += 1;
    }

    /// Starts `clients` closed-loop clients against `chain` on `cluster`,
    /// with `payload` bytes per request. Request ids come from the
    /// cluster's one counter, so two drivers on one cluster never share one.
    pub fn start(
        &self,
        sim: &mut Sim,
        cluster: &Rc<Cluster>,
        chain: &ChainSpec,
        clients: usize,
        payload: usize,
    ) {
        {
            let mut inner = self.inner.borrow_mut();
            inner.began = sim.now();
            inner.ids = Rc::clone(&cluster.request_ids);
        }
        // The driver owns its issue hook and the cluster's endpoints own the
        // driver's completion, so the hook refers to both weakly: a strong
        // handle here would keep the driver — and every pool and engine of
        // the cluster — alive forever.
        let driver = Rc::downgrade(&self.inner);
        let cluster = Rc::downgrade(cluster);
        let chain = chain.clone();
        self.set_issuer(Rc::new(move |sim, req| {
            let entered = cluster
                .upgrade()
                .is_some_and(|c| c.inject(sim, &chain, req, payload));
            if !entered {
                if let Some(inner) = driver.upgrade() {
                    ClosedLoop { inner }.shed(req);
                }
            }
        }));
        for _ in 0..clients {
            self.issue_one(sim);
        }
    }

    /// Starts `clients` closed-loop flows of `tenant` through `gateway`
    /// into `upstream`, `req_bytes` per request. Each flow resubmits when
    /// its request is answered — `Ok` or not — until the stop time, and a
    /// flow refused at the door (shed or dropped) first waits
    /// [`RECONNECT`]; only `Ok` answers record a latency sample, every
    /// other answer (shed, dropped, expired, failed delivery) counts under
    /// [`ClosedLoop::shed_count`].
    pub fn start_gateway(
        &self,
        sim: &mut Sim,
        gateway: &Gateway,
        tenant: u16,
        upstream: &Upstream,
        clients: usize,
        req_bytes: usize,
    ) {
        self.inner.borrow_mut().began = sim.now();
        for client in 0..clients as u32 {
            let up = upstream.clone();
            self.submit(sim, gateway, tenant, up, client, req_bytes);
        }
    }

    /// One turn of one gateway flow: submit, and resubmit from the answer.
    /// A refusal is answered inside `submit_tenant` with the backlog
    /// unchanged, so resubmitting at once would be refused again, forever.
    /// The answer sits in the gateway's slot table, so it holds the gateway
    /// weakly: a flow ends with its gateway.
    fn submit(
        &self,
        sim: &mut Sim,
        gateway: &Gateway,
        tenant: u16,
        upstream: Upstream,
        client: u32,
        req_bytes: usize,
    ) {
        if sim.now() >= self.inner.borrow().stop_at {
            return;
        }
        let t0 = sim.now();
        let (driver, gw, up) = (self.clone(), gateway.downgrade(), upstream.clone());
        gateway.submit_tenant(
            sim,
            tenant,
            FlowId::from_client(client, 0),
            req_bytes,
            upstream,
            Box::new(move |sim, answer| {
                match answer {
                    Ok(_) => {
                        driver.record(sim.now(), t0);
                    }
                    Err(_) => driver.inner.borrow_mut().shed += 1,
                }
                let resubmit = move |sim: &mut Sim| {
                    if let Some(gw) = gw.upgrade() {
                        driver.submit(sim, &gw, tenant, up, client, req_bytes);
                    }
                };
                if let Err(Dropped::Overload | Dropped::Shed { .. }) = answer {
                    sim.schedule_after(RECONNECT, resubmit);
                } else {
                    resubmit(sim);
                }
            }),
        );
    }

    /// Returns completed request count.
    pub fn completed(&self) -> u64 {
        self.inner.borrow().completed
    }

    /// Returns the count of requests answered without a response: shed at
    /// injection, or (gateway mode) refused, expired or failed.
    pub fn shed_count(&self) -> u64 {
        self.inner.borrow().shed
    }

    /// Returns the latency histogram (cloned snapshot).
    pub fn latency(&self) -> Histogram {
        self.inner.borrow().hist.clone()
    }

    /// Sustained throughput: completions divided by active time.
    pub fn rps(&self) -> f64 {
        let inner = self.inner.borrow();
        let span = inner.last_done.saturating_since(inner.began).as_secs_f64();
        if span > 0.0 {
            inner.completed as f64 / span
        } else {
            0.0
        }
    }

    /// Finalizes and returns the windowed throughput series.
    pub fn series(&self, end: SimTime) -> Vec<(f64, f64)> {
        let mut inner = self.inner.borrow_mut();
        match inner.series.take() {
            Some(s) => s.finish(end),
            None => Vec::new(),
        }
    }
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
        assert_eq!(driver.inner.borrow().pending.len(), 0);
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
    /// the count, the rate and the mean latency have closed forms. An
    /// upstream that fails every request keeps the loop turning but records
    /// no latency sample.
    #[test]
    fn gateway_mode_matches_the_closed_form_and_reissues_on_failure() {
        let delay = SimDuration::from_micros(40);
        let run = |fail: bool| {
            let mut sim = Sim::new();
            let gateway = Gateway::new(GatewayConfig::default());
            let upstream: Upstream = Rc::new(move |sim: &mut Sim, _ctx: ReqCtx, reply: Reply| {
                let answer = if fail { Err(DeliveryFailed) } else { Ok(64) };
                sim.schedule_after(delay, move |sim| reply(sim, answer));
            });
            let driver = ClosedLoop::new(sim.now() + SimDuration::from_millis(10));
            driver.start_gateway(&mut sim, &gateway, 0, &upstream, 1, 64);
            sim.run();
            (driver, gateway.stats())
        };

        let (driver, stats) = run(false);
        let costs = ingress::StackCosts::for_kind(ingress::GatewayKind::Nadino);
        let turn = costs.ingress_service(1, 64) + delay;
        // A turn that starts before the stop time runs to completion.
        let turns = 10_000_000u64.div_ceil(turn.as_nanos());
        assert_eq!(driver.completed(), turns);
        assert_eq!(stats.completed, turns);
        assert_eq!(driver.shed_count(), 0);
        assert_eq!(driver.latency().count(), turns);
        assert_eq!(driver.latency().mean(), turn);
        let expect_rps = turns as f64 / (turn * turns).as_secs_f64();
        assert!((driver.rps() - expect_rps).abs() < 1e-6 * expect_rps);

        let (driver, stats) = run(true);
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
