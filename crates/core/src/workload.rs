//! Load generation and request tracking.
//!
//! [`ClosedLoop`] reproduces wrk's closed-loop behaviour: `clients`
//! outstanding requests, each reissued on completion until a deadline —
//! plus per-request latency and windowed-throughput recording. The same
//! tracker also powers the baseline and multi-tenant experiments.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use membuf::tenant::TenantId;
use runtime::function::CompletionFn;
use runtime::ChainSpec;
use simcore::{Histogram, Sim, SimDuration, SimTime, TimeSeries};

use crate::cluster::Cluster;

/// The issue hook installed by `start` (or a custom driver).
type IssueFn = Rc<dyn Fn(&mut Sim, u64)>;

struct Inner {
    next_req: u64,
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
                next_req: 0,
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

    /// Returns the completion callback to hand to chain registration.
    pub fn completion(&self) -> CompletionFn {
        let rc = self.inner.clone();
        let outer = self.clone();
        Rc::new(move |sim: &mut Sim, req_id: u64| {
            let reissue = {
                let mut inner = rc.borrow_mut();
                let Some(t0) = inner.pending.remove(&req_id) else {
                    return; // duplicate or foreign completion
                };
                inner.hist.record(sim.now().saturating_since(t0));
                inner.completed += 1;
                inner.last_done = sim.now();
                if let Some(series) = inner.series.as_mut() {
                    series.record_at(sim.now(), 1.0);
                }
                sim.now() < inner.stop_at
            };
            if reissue {
                outer.issue_one(sim);
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
            let req = inner.next_req;
            inner.next_req += 1;
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
    /// with `payload` bytes per request.
    pub fn start(
        &self,
        sim: &mut Sim,
        cluster: &Cluster,
        chain: &ChainSpec,
        clients: usize,
        payload: usize,
    ) {
        {
            let mut inner = self.inner.borrow_mut();
            inner.began = sim.now();
        }
        let injector = ClusterInjector {
            cluster: ClusterRef::new(cluster),
            chain: chain.clone(),
            payload,
        };
        // The driver owns its issue hook, so the hook refers back weakly:
        // a strong handle here would keep the driver — and through the
        // injector every pool and engine of the cluster — alive forever.
        let driver = Rc::downgrade(&self.inner);
        self.set_issuer(Rc::new(move |sim, req| {
            if !injector.inject(sim, req) {
                if let Some(inner) = driver.upgrade() {
                    ClosedLoop { inner }.shed(req);
                }
            }
        }));
        for _ in 0..clients {
            self.issue_one(sim);
        }
    }

    /// Returns completed request count.
    pub fn completed(&self) -> u64 {
        self.inner.borrow().completed
    }

    /// Returns shed (admission-failed) request count.
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

/// An open-loop Poisson load generator.
///
/// Unlike the closed loop, arrivals are time-driven at a configured rate
/// with exponential inter-arrival gaps (seeded, deterministic), so the
/// system can genuinely overload: requests keep arriving whether or not
/// earlier ones completed.
#[derive(Clone)]
pub struct OpenLoop {
    driver: ClosedLoop,
}

impl OpenLoop {
    /// Creates a generator that stops issuing at `stop_at`.
    pub fn new(stop_at: SimTime) -> OpenLoop {
        OpenLoop {
            driver: ClosedLoop::new(stop_at),
        }
    }

    /// Enables windowed-throughput recording.
    pub fn with_series(self, window: SimDuration) -> OpenLoop {
        OpenLoop {
            driver: self.driver.with_series(window),
        }
    }

    /// Returns the completion callback for chain registration.
    ///
    /// Open-loop completions record latency but never re-issue.
    pub fn completion(&self) -> CompletionFn {
        let inner = self.driver.inner.clone();
        Rc::new(move |sim: &mut Sim, req_id: u64| {
            let mut st = inner.borrow_mut();
            let Some(t0) = st.pending.remove(&req_id) else {
                return;
            };
            st.hist.record(sim.now().saturating_since(t0));
            st.completed += 1;
            st.last_done = sim.now();
            if let Some(series) = st.series.as_mut() {
                series.record_at(sim.now(), 1.0);
            }
        })
    }

    /// Starts Poisson arrivals at `rate_rps` against `chain` on `cluster`,
    /// seeded for reproducibility.
    pub fn start(
        &self,
        sim: &mut Sim,
        cluster: &Cluster,
        chain: &ChainSpec,
        rate_rps: f64,
        payload: usize,
        seed: u64,
    ) {
        assert!(rate_rps > 0.0, "arrival rate must be positive");
        {
            let mut inner = self.driver.inner.borrow_mut();
            inner.began = sim.now();
        }
        let injector = Rc::new(ClusterInjector {
            cluster: ClusterRef::new(cluster),
            chain: chain.clone(),
            payload,
        });
        let mean_gap_s = 1.0 / rate_rps;
        let rng = Rc::new(RefCell::new(simcore::SimRng::new(seed)));
        fn arrive(
            sim: &mut Sim,
            injector: Rc<ClusterInjector>,
            driver: ClosedLoop,
            rng: Rc<RefCell<simcore::SimRng>>,
            mean_gap_s: f64,
        ) {
            let (req, stopped) = {
                let mut inner = driver.inner.borrow_mut();
                if sim.now() >= inner.stop_at {
                    (0, true)
                } else {
                    let req = inner.next_req;
                    inner.next_req += 1;
                    inner.pending.insert(req, sim.now());
                    (req, false)
                }
            };
            if stopped {
                return;
            }
            if !injector.inject(sim, req) {
                driver.shed(req);
            }
            let gap = rng.borrow_mut().exponential(mean_gap_s);
            sim.schedule_after(SimDuration::from_secs_f64(gap), move |sim| {
                arrive(sim, injector, driver, rng, mean_gap_s);
            });
        }
        arrive(sim, injector, self.driver.clone(), rng, mean_gap_s);
    }

    /// Completed request count.
    pub fn completed(&self) -> u64 {
        self.driver.completed()
    }

    /// Requests shed at admission (pool exhaustion under overload).
    pub fn shed_count(&self) -> u64 {
        self.driver.shed_count()
    }

    /// Requests issued (offered load).
    pub fn offered(&self) -> u64 {
        self.driver.inner.borrow().next_req
    }

    /// Latency histogram of completed requests.
    pub fn latency(&self) -> Histogram {
        self.driver.latency()
    }

    /// Windowed throughput series.
    pub fn series(&self, end: SimTime) -> Vec<(f64, f64)> {
        self.driver.series(end)
    }
}

/// Injection plumbing: keeps only what `inject` needs from the cluster.
struct ClusterInjector {
    cluster: ClusterRef,
    chain: ChainSpec,
    payload: usize,
}

impl ClusterInjector {
    /// Returns `false` when the request could not be admitted.
    fn inject(&self, sim: &mut Sim, req: u64) -> bool {
        self.cluster.inject(sim, &self.chain, req, self.payload)
    }
}

/// A cheap cloneable view of the cluster pieces the injector touches.
///
/// The cluster itself is not `Clone`; we keep the pool handles, placement
/// and entry I/O library, which are.
struct ClusterRef {
    pools: Vec<(TenantId, usize, membuf::BufferPool)>,
    placement: Rc<RefCell<runtime::Placement>>,
    iolibs: Vec<runtime::IoLib>,
    node_ids: Vec<rdma_sim::NodeId>,
    tracer: obs::Tracer,
}

impl ClusterRef {
    fn new(cluster: &Cluster) -> ClusterRef {
        ClusterRef {
            pools: cluster.pools_snapshot(),
            placement: cluster.placement.clone(),
            iolibs: cluster.nodes.iter().map(|n| n.iolib.clone()).collect(),
            node_ids: cluster.nodes.iter().map(|n| n.id).collect(),
            tracer: cluster.tracer(),
        }
    }

    fn inject(&self, sim: &mut Sim, chain: &ChainSpec, req: u64, payload: usize) -> bool {
        let entry = chain.entry();
        let Some(node) = self.placement.borrow().node_of(entry) else {
            return false;
        };
        let Some(idx) = self.node_ids.iter().position(|&n| n == node) else {
            return false;
        };
        let Some((_, _, pool)) = self
            .pools
            .iter()
            .find(|(t, i, _)| *t == chain.tenant && *i == idx)
        else {
            return false;
        };
        let Ok(mut buf) = pool.get() else {
            return false;
        };
        // Payloads carry the on-wire trace context (24 bytes) even when
        // the caller asked for less, matching `Cluster::inject`.
        let mut payload_bytes = runtime::encode_request_payload(req, payload.max(obs::CTX_REGION));
        runtime::set_hop(&mut payload_bytes, 0);
        // The load driver is the ingress here: decide sampling once and
        // stamp the on-wire bit; downstream span sites gate on it.
        let sampled = self.tracer.decide_sample(req);
        if sampled {
            obs::ctx::write_ctx(&mut payload_bytes, 0, true);
        }
        if buf.write_payload(&payload_bytes).is_err() {
            return false;
        }
        // Pass the trace meta down so the local hop needs no pool peek.
        self.iolibs[idx].send_traced(
            sim,
            chain.tenant,
            buf.into_desc(entry),
            Some((req, sampled)),
        );
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;

    #[test]
    fn closed_loop_measures_latency_and_rps() {
        let mut sim = Sim::new();
        let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
        let tenant = TenantId(1);
        cluster.add_tenant(&mut sim, tenant, 1).unwrap();
        let chain = ChainSpec::new("echo", tenant, vec![1, 2, 1]);
        cluster.place(1, 0);
        cluster.place(2, 1);
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
    fn open_loop_matches_offered_rate_when_underloaded() {
        let mut sim = Sim::new();
        let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
        let tenant = TenantId(1);
        cluster.add_tenant(&mut sim, tenant, 1).unwrap();
        let chain = ChainSpec::new("echo", tenant, vec![1, 2, 1]);
        cluster.place(1, 0);
        cluster.place(2, 1);
        let stop = sim.now() + SimDuration::from_millis(200);
        let gen = OpenLoop::new(stop);
        cluster.register_chain(&chain, |_| SimDuration::from_micros(5), gen.completion());
        gen.start(&mut sim, &cluster, &chain, 10_000.0, 128, 42);
        sim.run();
        // ~2000 offered at 10K RPS over 200 ms; all complete (underload).
        let offered = gen.offered();
        assert!(
            (1700..=2300).contains(&(offered as i64)),
            "offered {offered}"
        );
        assert_eq!(gen.completed(), offered);
        assert_eq!(gen.shed_count(), 0);
        assert!(gen.latency().mean().as_micros_f64() < 200.0);
    }

    #[test]
    fn open_loop_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut sim = Sim::new();
            let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
            let tenant = TenantId(1);
            cluster.add_tenant(&mut sim, tenant, 1).unwrap();
            let chain = ChainSpec::new("echo", tenant, vec![1, 2, 1]);
            cluster.place(1, 0);
            cluster.place(2, 1);
            let gen = OpenLoop::new(sim.now() + SimDuration::from_millis(50));
            cluster.register_chain(&chain, |_| SimDuration::ZERO, gen.completion());
            gen.start(&mut sim, &cluster, &chain, 20_000.0, 64, seed);
            sim.run();
            (gen.offered(), gen.latency().mean().as_nanos())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).0, run(8).0, "different seeds, different arrivals");
    }

    #[test]
    fn stops_issuing_after_deadline() {
        let mut sim = Sim::new();
        let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
        let tenant = TenantId(1);
        cluster.add_tenant(&mut sim, tenant, 1).unwrap();
        let chain = ChainSpec::new("echo", tenant, vec![1, 2, 1]);
        cluster.place(1, 0);
        cluster.place(2, 1);
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
}
