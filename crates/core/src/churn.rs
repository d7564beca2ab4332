//! The elastic tenant-churn scale model.
//!
//! Swift's observation — and NADINO's §3.3 concern — is that in an
//! elastic multi-tenant cell the *control plane* of RDMA is what
//! collapses: RC establishment costs tens of milliseconds, so a cell
//! where tenants continuously arrive and depart pays that cost on the
//! request path exactly when a cold tenant gets its first call. This
//! module models that regime at populations the full-fidelity
//! [`crate::cluster::Cluster`] cannot hold (its tenant ids are on-wire
//! `u16`s and every tenant carries buffer pools and RQs):
//!
//! - a **real fabric** ([`rdma_sim::Fabric`]) carries the QP state, the
//!   pre-warm stock and the RNIC cache accounting, so cold connects,
//!   pre-warm claims and cache penalties are priced by the calibrated
//!   cost model rather than re-invented;
//! - tenants are **churn-level** entities keyed by `u32` (the engine's
//!   [`dne::connpool::ConnPool`] and [`dne::routing::RouteTable`] are
//!   generic over the key exactly for this), one function per tenant,
//!   placed round-robin over the backend nodes;
//! - per-descriptor engine work is charged **analytically** (the fig06
//!   pipeline validated those constants) instead of being simulated
//!   descriptor-by-descriptor, which is what buys the 10^5–10^6 scale.
//!
//! The workload is the elastic-cell trinity: **Poisson** arrivals and
//! exponential lifetimes hold the population near its target, **Zipf**
//! popularity concentrates traffic on a hot head while the long tail
//! stays cold (the worst case for a QP cache), and a **diurnal**
//! modulation sweeps the offered load so the pool sees both growth and
//! drain phases. Every statistic folds into a byte-stable determinism
//! digest; the CI churn-smoke job asserts same-seed identity.
//!
//! Each live tenant holds a route entry, a pool entry and two fabric QP
//! endpoints. What that costs in bytes has not been counted (ROADMAP
//! item 3), so the committed sweep stops at the largest population that
//! has been run, 10^5, and nothing is claimed about 10^6.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use dne::connpool::{ConnPool, ElasticConfig};
use dne::routing::RouteTable;
use ingress::prewarm::PrewarmController;
use membuf::tenant::TenantId;
use rdma_sim::cost::RdmaCosts;
use rdma_sim::fabric::{CqId, QpHandle, RqId};
use rdma_sim::{Fabric, NodeId};
use simcore::rng::{self, Zipf};
use simcore::{Histogram, Sim, SimDuration, SimRng, SimTime};

/// Per-message wire overhead added to the payload: descriptor + headers.
const WIRE_HEADER_BYTES: usize = 64;

/// Fabric nodes: node 0 is the gateway every request originates from,
/// nodes `1..` host tenant functions round-robin.
const NODES: usize = 4;
/// Mean request rate per live tenant at diurnal midpoint, Hz.
pub(crate) const RATE_PER_TENANT: f64 = 25.0;
/// Zipf popularity exponent across live tenants.
const ZIPF_S: f64 = 1.1;
/// Request payload bytes.
const PAYLOAD: usize = 1024;
/// How often the background controller restocks the pre-warm pools.
const PREWARM_INTERVAL: SimDuration = SimDuration::from_millis(5);
/// Elastic lifecycle of the gateway's connection pool: an LRU-bounded
/// active set and lazy teardown of connections idle for 200 ms.
const ELASTIC: ElasticConfig = ElasticConfig {
    active_capacity: 128,
    idle_teardown_age: Some(SimDuration::from_millis(200)),
};
/// How often the idle reaper / teardown sweep runs.
const REAP_INTERVAL: SimDuration = SimDuration::from_millis(10);
/// Diurnal amplitude: offered load swings between 0.6 and 1.4 times the
/// base rate.
const DIURNAL_AMPLITUDE: f64 = 0.4;
/// Diurnal period (compressed; real cells use 24 h).
const DIURNAL_PERIOD: SimDuration = SimDuration::from_millis(1_000);
/// Goodput SLO: a request counts as *good* iff its modeled latency is
/// within this bound (a cold connect never is).
const SLO: SimDuration = SimDuration::from_millis(1);
/// Number of equal windows the horizon is cut into for the per-window
/// thrash series ([`ChurnWindow`]).
const THRASH_WINDOWS: usize = 8;

/// Configuration of one churn cell.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Steady-state tenant population target (arrival rate is
    /// `tenants / mean_lifetime`, balancing expected departures).
    pub tenants: usize,
    /// Virtual time the cell runs.
    pub horizon: SimDuration,
    /// Root seed for every stochastic stream.
    pub seed: u64,
    /// Mean tenant lifetime (exponentially distributed).
    pub mean_lifetime: SimDuration,
    /// Pre-warm stock target per gateway→backend link; `0` disables
    /// pre-warming (every first contact is a cold connect).
    pub prewarm_target: usize,
    /// Hard cap on modeled requests (bounds event count at high
    /// populations; `0` = uncapped).
    pub max_requests: u64,
    /// Cold-start transient excluded from the steady-state metrics: at
    /// `t = 0` the whole initial population is connectionless, so the
    /// first contacts before any restock matures are cold by
    /// construction, not by control-plane failure.
    pub warmup: SimDuration,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            tenants: 1_000,
            horizon: SimDuration::from_millis(2_000),
            seed: 42,
            mean_lifetime: SimDuration::from_millis(800),
            prewarm_target: 8,
            max_requests: 200_000,
            warmup: SimDuration::from_millis(400),
        }
    }
}

/// One thrash window: the QP-churn counters (`qp_evictions_total` /
/// `qp_teardowns_total` and the pre-warm columns behind the PR 8
/// `qp_*` gauges) cut into an equal slice of the horizon, with rates
/// derived so the "thrash knee" — the population where LRU eviction
/// churn takes off — is visible as a series rather than one end-of-run
/// total. Integer columns fold into the cell digest; the rate columns
/// are derived.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnWindow {
    /// Window index, 0-based.
    pub index: usize,
    /// Window start, virtual ns.
    pub start_ns: u64,
    /// Window end, virtual ns.
    pub end_ns: u64,
    /// Requests modeled inside the window.
    pub requests: u64,
    /// First contacts that went cold inside the window.
    pub cold_connects: u64,
    /// First contacts served from pre-warm stock inside the window.
    pub prewarm_claims: u64,
    /// LRU evictions forced inside the window.
    pub evictions: u64,
    /// Idle-age teardowns inside the window.
    pub teardowns: u64,
    /// Evictions per virtual second.
    pub eviction_rate_per_s: f64,
    /// Teardowns per virtual second.
    pub teardown_rate_per_s: f64,
    /// Cold connects per virtual second.
    pub cold_rate_per_s: f64,
}

obs::impl_to_json!(ChurnWindow {
    index,
    start_ns,
    end_ns,
    requests,
    cold_connects,
    prewarm_claims,
    evictions,
    teardowns,
    eviction_rate_per_s,
    teardown_rate_per_s,
    cold_rate_per_s
});

/// The outcome of one churn cell, integer-dominated for digest
/// stability.
#[derive(Debug, Clone)]
pub struct ChurnReport {
    /// Population target the cell ran at.
    pub tenants: usize,
    /// Pre-warm stock target the cell ran with.
    pub prewarm_target: usize,
    /// Peak concurrently-live tenants observed.
    pub peak_alive: usize,
    /// Live tenants at the end of the run.
    pub final_alive: usize,
    /// Tenant arrivals (beyond the initial population).
    pub arrivals: u64,
    /// Tenant departures.
    pub departures: u64,
    /// Requests modeled.
    pub requests: u64,
    /// Requests within the SLO.
    pub good: u64,
    /// Good requests per virtual second of offered load: the horizon, or
    /// the time until `max_requests` ended the load early.
    pub goodput_rps: f64,
    /// Median modeled request latency, µs.
    pub p50_us: f64,
    /// Tail modeled request latency, µs.
    pub p99_us: f64,
    /// First contacts that paid the full RC establishment delay.
    pub cold_connects: u64,
    /// First contacts satisfied from the pre-warm stock.
    pub prewarm_claims: u64,
    /// `prewarm_claims / (prewarm_claims + cold_connects)` over the whole
    /// run, cold-start burst included; 0 when no connection was set up.
    pub prewarm_hit_rate: f64,
    /// First contacts after the warmup cutoff that went cold.
    pub steady_cold_connects: u64,
    /// First contacts after the warmup cutoff served from stock.
    pub steady_prewarm_claims: u64,
    /// Pre-warm hit rate measured only after the warmup cutoff — the
    /// steady-state figure the elastic control plane is judged on.
    pub steady_hit_rate: f64,
    /// Median modeled latency after the warmup cutoff, µs.
    pub steady_p50_us: f64,
    /// Tail modeled latency after the warmup cutoff, µs.
    pub steady_p99_us: f64,
    /// Shadow-QP picker hits (chosen QP already active).
    pub pool_hits: u64,
    /// Shadow-QP picker misses (activation required).
    pub pool_misses: u64,
    /// LRU evictions forced by the bounded active set.
    pub evictions: u64,
    /// Connections destroyed by idle-age teardown.
    pub teardowns: u64,
    /// Peak simultaneously-active QPs at the gateway RNIC.
    pub peak_active_qps: usize,
    /// Pooled connections remaining at the end.
    pub pooled_final: usize,
    /// Per-window thrash series.
    pub windows: Vec<ChurnWindow>,
    /// FNV-1a digest over every integer column, the per-window integer
    /// columns included — byte-identical across same-seed runs, the CI
    /// churn-smoke invariant.
    pub digest: u64,
}

obs::impl_to_json!(ChurnReport {
    tenants,
    prewarm_target,
    peak_alive,
    final_alive,
    arrivals,
    departures,
    requests,
    good,
    goodput_rps,
    p50_us,
    p99_us,
    cold_connects,
    prewarm_claims,
    prewarm_hit_rate,
    steady_cold_connects,
    steady_prewarm_claims,
    steady_hit_rate,
    steady_p50_us,
    steady_p99_us,
    pool_hits,
    pool_misses,
    evictions,
    teardowns,
    peak_active_qps,
    pooled_final,
    windows,
    digest
});

/// All churn traffic shares one fabric-level tenant: isolation between
/// churn tenants is modeled at the pool/routing layer (that is the
/// control plane under test), not at the RNIC protection domain.
const FABRIC_TENANT: TenantId = TenantId(0);

struct ChurnState {
    cfg: ChurnConfig,
    costs: RdmaCosts,
    fabric: Fabric,
    /// Per-node `(CQ, shared RQ)` wiring, indexed by node id.
    wiring: Vec<(CqId, RqId)>,
    routing: RouteTable<u32>,
    pool: ConnPool<u32>,
    /// Live tenants in sampling order (swap-removed on departure).
    alive: Vec<u32>,
    alive_pos: HashMap<u32, usize>,
    next_tenant: u32,
    rng: SimRng,
    /// Tenant popularity by rank in `alive`.
    popularity: Zipf,
    end: SimTime,
    // Counters.
    arrivals: u64,
    departures: u64,
    requests: u64,
    /// When `max_requests` ended the load, if it did.
    capped_at: Option<SimTime>,
    good: u64,
    cold_connects: u64,
    prewarm_claims: u64,
    steady_cold: u64,
    steady_claims: u64,
    warmup_end: SimTime,
    /// Per-backend-link restock controllers (index = node id); each
    /// sizes its next order to a floor plus the first-contact demand
    /// observed since the last tick.
    prewarm_ctl: Vec<PrewarmController>,
    peak_alive: usize,
    latency: Histogram,
    /// Latency of requests issued after the warmup cutoff only.
    steady_latency: Histogram,
    /// Closed thrash windows.
    windows: Vec<ChurnWindow>,
    /// Cumulative-counter snapshot at the last window boundary.
    win_mark: WinMark,
}

/// Cumulative-counter snapshot taken at a thrash-window boundary.
#[derive(Debug, Clone, Copy, Default)]
struct WinMark {
    at_ns: u64,
    requests: u64,
    cold: u64,
    claims: u64,
    evictions: u64,
    teardowns: u64,
}

impl ChurnState {
    fn gateway(&self) -> NodeId {
        NodeId(0)
    }

    /// Samples a live tenant by Zipf rank over the current population.
    fn sample_tenant(&mut self) -> Option<u32> {
        let n = self.alive.len();
        if n == 0 {
            return None;
        }
        Some(self.alive[self.popularity.sample(&mut self.rng, n)])
    }

    fn spawn_tenant(&mut self, initial: bool) -> u32 {
        let t = self.next_tenant;
        self.next_tenant += 1;
        // Round-robin placement over the backends: deterministic, and at
        // churn scale indistinguishable from a placement service.
        let backends = (NODES - 1) as u32;
        let home = NodeId(1 + (t % backends) as u16);
        self.routing.set(t, home);
        self.alive_pos.insert(t, self.alive.len());
        self.alive.push(t);
        self.peak_alive = self.peak_alive.max(self.alive.len());
        if !initial {
            self.arrivals += 1;
        }
        t
    }

    fn depart_tenant(&mut self, t: u32) {
        let Some(pos) = self.alive_pos.remove(&t) else {
            return; // Already departed.
        };
        self.alive.swap_remove(pos);
        if let Some(&moved) = self.alive.get(pos) {
            self.alive_pos.insert(moved, pos);
        }
        if let Some(home) = self.routing.remove(t) {
            let handles: Vec<QpHandle> = self.pool.remove_peer(&self.fabric, t, home);
            for h in handles {
                // Lazy teardown may already have destroyed it.
                let _ = self.fabric.destroy_qp(h);
            }
        }
        self.departures += 1;
    }

    /// Closes the thrash window ending at `now`: diffs the cumulative
    /// counters against the last boundary snapshot and derives rates.
    fn close_window(&mut self, now: SimTime) {
        let now_ns = now.as_nanos();
        let evictions = self.pool.evictions();
        let teardowns = self.pool.teardowns();
        let mark = self.win_mark;
        let dt_s = ((now_ns - mark.at_ns) as f64 / 1e9).max(1e-12);
        self.windows.push(ChurnWindow {
            index: self.windows.len(),
            start_ns: mark.at_ns,
            end_ns: now_ns,
            requests: self.requests - mark.requests,
            cold_connects: self.cold_connects - mark.cold,
            prewarm_claims: self.prewarm_claims - mark.claims,
            evictions: evictions - mark.evictions,
            teardowns: teardowns - mark.teardowns,
            eviction_rate_per_s: (evictions - mark.evictions) as f64 / dt_s,
            teardown_rate_per_s: (teardowns - mark.teardowns) as f64 / dt_s,
            cold_rate_per_s: (self.cold_connects - mark.cold) as f64 / dt_s,
        });
        self.win_mark = WinMark {
            at_ns: now_ns,
            requests: self.requests,
            cold: self.cold_connects,
            claims: self.prewarm_claims,
            evictions,
            teardowns,
        };
    }
}

fn schedule_departure(state: &Rc<RefCell<ChurnState>>, sim: &mut Sim, t: u32) {
    let life = {
        let mut s = state.borrow_mut();
        let mean = s.cfg.mean_lifetime.as_secs_f64();
        SimDuration::from_secs_f64(s.rng.exponential(mean))
    };
    let st = state.clone();
    sim.schedule_after(life, move |_sim| {
        st.borrow_mut().depart_tenant(t);
    });
}

fn schedule_next_arrival(state: &Rc<RefCell<ChurnState>>, sim: &mut Sim) {
    let (gap, end) = {
        let mut s = state.borrow_mut();
        let rate = s.cfg.tenants as f64 / s.cfg.mean_lifetime.as_secs_f64().max(1e-9);
        (
            SimDuration::from_secs_f64(s.rng.exponential(1.0 / rate)),
            s.end,
        )
    };
    if sim.now() + gap >= end {
        return;
    }
    let st = state.clone();
    sim.schedule_after(gap, move |sim| {
        let t = st.borrow_mut().spawn_tenant(false);
        schedule_departure(&st, sim, t);
        schedule_next_arrival(&st, sim);
    });
}

/// Models one request for tenant `t`: connection lookup (or first-contact
/// setup) plus the analytic delivery latency, priced against the live
/// RNIC cache occupancy.
fn model_request(s: &mut ChurnState, sim: &mut Sim, t: u32) {
    let now = sim.now();
    let Ok(home) = s.routing.resolve(t) else {
        return; // Departed between sampling and service.
    };
    let gw = s.gateway();
    let mut latency = s.costs.one_way(PAYLOAD + WIRE_HEADER_BYTES)
        + s.costs.qp_cache_penalty(s.fabric.active_qp_count(gw));
    let picked = s
        .pool
        .pick_least_congested(&s.fabric, now, t, home)
        .is_some();
    if !picked {
        // First contact (or every pooled conn torn down): the elastic
        // control plane decides whether this costs microseconds or tens
        // of milliseconds.
        let (cq_g, rq_g) = s.wiring[0];
        let (cq_h, rq_h) = s.wiring[home.0 as usize];
        let claimed = s
            .fabric
            .claim_prewarmed(sim, FABRIC_TENANT, gw, cq_g, rq_g, home, cq_h, rq_h)
            .unwrap_or(None);
        s.prewarm_ctl[home.0 as usize].note_demand(1);
        let steady = now >= s.warmup_end;
        let pair = match claimed {
            Some(pair) => {
                s.prewarm_claims += 1;
                if steady {
                    s.steady_claims += 1;
                }
                latency += s.costs.prewarm_claim_delay;
                Some(pair)
            }
            None => match s
                .fabric
                .connect(sim, FABRIC_TENANT, gw, cq_g, rq_g, home, cq_h, rq_h)
            {
                Ok(pair) => {
                    s.cold_connects += 1;
                    if steady {
                        s.steady_cold += 1;
                    }
                    latency += s.costs.connect_delay;
                    Some(pair)
                }
                Err(_) => None,
            },
        };
        if let Some((ha, _hb)) = pair {
            s.pool.add(t, home, ha, now);
            // Activate it for this request so the RNIC cache sees it.
            s.pool.pick_least_congested(&s.fabric, now, t, home);
        }
    }
    s.requests += 1;
    s.latency.record(latency);
    if now >= s.warmup_end {
        s.steady_latency.record(latency);
    }
    if latency <= SLO {
        s.good += 1;
    }
}

fn schedule_next_request(state: &Rc<RefCell<ChurnState>>, sim: &mut Sim) {
    let (gap, end, capped) = {
        let mut s = state.borrow_mut();
        let alive = s.alive.len();
        let capped = s.cfg.max_requests > 0 && s.requests >= s.cfg.max_requests;
        if capped {
            s.capped_at = Some(sim.now());
        }
        let gap = if alive == 0 {
            SimDuration::from_millis(1)
        } else {
            let period = DIURNAL_PERIOD.as_secs_f64();
            let swing = rng::diurnal(DIURNAL_AMPLITUDE, sim.now().as_secs_f64(), period);
            let rate = RATE_PER_TENANT * alive as f64 * swing;
            SimDuration::from_secs_f64(s.rng.exponential(1.0 / rate.max(1e-9)))
        };
        (gap, s.end, capped)
    };
    if capped || sim.now() + gap >= end {
        return;
    }
    let st = state.clone();
    sim.schedule_after(gap, move |sim| {
        let picked = st.borrow_mut().sample_tenant();
        if let Some(t) = picked {
            let mut s = st.borrow_mut();
            model_request(&mut s, sim, t);
        }
        schedule_next_request(&st, sim);
    });
}

fn schedule_prewarm_tick(state: &Rc<RefCell<ChurnState>>, sim: &mut Sim) {
    let (target, end) = {
        let s = state.borrow();
        (s.cfg.prewarm_target, s.end)
    };
    if target == 0 || sim.now() + PREWARM_INTERVAL >= end {
        return;
    }
    let st = state.clone();
    sim.schedule_after(PREWARM_INTERVAL, move |sim| {
        {
            let mut s = st.borrow_mut();
            let gw = s.gateway();
            for n in 1..NODES as u16 {
                let peer = NodeId(n);
                let stock = s.fabric.prewarmed_available(gw, peer);
                // Demand-driven restock: the controller holds a buffer of
                // `prewarm_target` *plus* whatever the last window consumed,
                // so the order pipeline (QPs take `connect_delay` to mature)
                // keeps pace with the first-contact rate, not a static floor.
                let order = s.prewarm_ctl[n as usize].order(stock);
                if order > 0 {
                    let _ = s.fabric.prewarm_link(sim, gw, peer, order);
                }
            }
        }
        schedule_prewarm_tick(&st, sim);
    });
}

fn schedule_reap_tick(state: &Rc<RefCell<ChurnState>>, sim: &mut Sim) {
    let end = state.borrow().end;
    if sim.now() + REAP_INTERVAL >= end {
        return;
    }
    let st = state.clone();
    sim.schedule_after(REAP_INTERVAL, move |sim| {
        {
            let mut s = st.borrow_mut();
            let fabric = s.fabric.clone();
            s.pool.deactivate_idle(&fabric, sim.now());
            s.pool.teardown_idle(&fabric, sim.now());
        }
        schedule_reap_tick(&st, sim);
    });
}

fn schedule_window_tick(state: &Rc<RefCell<ChurnState>>, sim: &mut Sim) {
    let (interval, end) = {
        let s = state.borrow();
        let window = s.cfg.horizon.as_nanos() / THRASH_WINDOWS as u64;
        (SimDuration::from_nanos(window), s.end)
    };
    if interval.as_nanos() == 0 || sim.now() + interval > end {
        return;
    }
    let st = state.clone();
    sim.schedule_after(interval, move |sim| {
        st.borrow_mut().close_window(sim.now());
        schedule_window_tick(&st, sim);
    });
}

/// Runs one churn cell to completion.
pub fn run(cfg: ChurnConfig) -> ChurnReport {
    let mut sim = Sim::new();
    let costs = RdmaCosts::default();
    let fabric = Fabric::new(costs.clone());
    let mut wiring = Vec::with_capacity(NODES);
    for _ in 0..NODES {
        let node = fabric.add_node();
        let cq = fabric.create_cq(node).expect("fresh node");
        let rq = fabric.create_rq(node, FABRIC_TENANT).expect("fresh node");
        wiring.push((cq, rq));
    }
    // Sized for the population plus churn headroom.
    let popularity = Zipf::new(cfg.tenants * 2 + 1024, ZIPF_S);
    let end = SimTime::ZERO + cfg.horizon;
    let pool = ConnPool::with_config(ELASTIC);
    let state = Rc::new(RefCell::new(ChurnState {
        routing: RouteTable::new(),
        pool,
        alive: Vec::with_capacity(cfg.tenants * 2),
        alive_pos: HashMap::with_capacity(cfg.tenants * 2),
        next_tenant: 0,
        rng: SimRng::new(cfg.seed),
        popularity,
        end,
        arrivals: 0,
        departures: 0,
        requests: 0,
        capped_at: None,
        good: 0,
        cold_connects: 0,
        prewarm_claims: 0,
        steady_cold: 0,
        steady_claims: 0,
        warmup_end: SimTime::ZERO + cfg.warmup,
        prewarm_ctl: (0..NODES)
            .map(|_| PrewarmController::new(cfg.prewarm_target))
            .collect(),
        steady_latency: Histogram::new(),
        peak_alive: 0,
        latency: Histogram::new(),
        windows: Vec::new(),
        win_mark: WinMark::default(),
        fabric: fabric.clone(),
        costs,
        wiring,
        cfg,
    }));
    // Initial population, each with its own exponential lifetime.
    let initial: Vec<u32> = {
        let mut s = state.borrow_mut();
        let n = s.cfg.tenants;
        (0..n).map(|_| s.spawn_tenant(true)).collect()
    };
    for t in initial {
        schedule_departure(&state, &mut sim, t);
    }
    // Pre-stock the pre-warm pools so steady state starts warm.
    {
        let s = state.borrow();
        if s.cfg.prewarm_target > 0 {
            let gw = s.gateway();
            for n in 1..NODES as u16 {
                let _ = s
                    .fabric
                    .prewarm_link(&mut sim, gw, NodeId(n), s.cfg.prewarm_target);
            }
        }
    }
    schedule_next_arrival(&state, &mut sim);
    schedule_next_request(&state, &mut sim);
    schedule_prewarm_tick(&state, &mut sim);
    schedule_reap_tick(&state, &mut sim);
    schedule_window_tick(&state, &mut sim);
    sim.run();

    let s = state.borrow();
    let (pool_hits, pool_misses) = s.pool.hit_miss();
    // Load ran until the cap was hit, or for the whole horizon.
    let load_s = s.capped_at.unwrap_or(s.end).as_secs_f64();
    let warm_total = s.prewarm_claims + s.cold_connects;
    let steady_total = s.steady_claims + s.steady_cold;
    let peak_active = s.fabric.peak_active_qp_count(s.gateway());
    let ints: [u64; 16] = [
        s.cfg.tenants as u64,
        s.cfg.prewarm_target as u64,
        s.peak_alive as u64,
        s.alive.len() as u64,
        s.arrivals,
        s.departures,
        s.requests,
        s.good,
        s.cold_connects,
        s.prewarm_claims,
        s.steady_cold,
        s.steady_claims,
        pool_hits,
        pool_misses,
        s.pool.evictions(),
        s.pool.teardowns(),
    ];
    let win_ints = s.windows.iter().flat_map(|w| {
        [
            w.start_ns,
            w.end_ns,
            w.requests,
            w.cold_connects,
            w.prewarm_claims,
            w.evictions,
            w.teardowns,
        ]
    });
    let digest = rng::fnv1a(
        ints.iter()
            .copied()
            .chain(win_ints)
            .flat_map(|v| v.to_le_bytes()),
    );
    ChurnReport {
        tenants: s.cfg.tenants,
        prewarm_target: s.cfg.prewarm_target,
        peak_alive: s.peak_alive,
        final_alive: s.alive.len(),
        arrivals: s.arrivals,
        departures: s.departures,
        requests: s.requests,
        good: s.good,
        goodput_rps: if load_s > 0.0 {
            s.good as f64 / load_s
        } else {
            0.0
        },
        p50_us: s.latency.percentile(50.0).as_micros_f64(),
        p99_us: s.latency.percentile(99.0).as_micros_f64(),
        cold_connects: s.cold_connects,
        prewarm_claims: s.prewarm_claims,
        prewarm_hit_rate: if warm_total > 0 {
            s.prewarm_claims as f64 / warm_total as f64
        } else {
            0.0
        },
        steady_cold_connects: s.steady_cold,
        steady_prewarm_claims: s.steady_claims,
        steady_hit_rate: if steady_total > 0 {
            s.steady_claims as f64 / steady_total as f64
        } else {
            0.0
        },
        steady_p50_us: s.steady_latency.percentile(50.0).as_secs_f64() * 1e6,
        steady_p99_us: s.steady_latency.percentile(99.0).as_secs_f64() * 1e6,
        pool_hits,
        pool_misses,
        evictions: s.pool.evictions(),
        teardowns: s.pool.teardowns(),
        peak_active_qps: peak_active,
        pooled_final: s.pool.pooled_total(),
        windows: s.windows.clone(),
        digest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(seed: u64) -> ChurnConfig {
        ChurnConfig {
            tenants: 200,
            horizon: SimDuration::from_millis(300),
            mean_lifetime: SimDuration::from_millis(150),
            max_requests: 20_000,
            warmup: SimDuration::from_millis(75),
            seed,
            ..ChurnConfig::default()
        }
    }

    #[test]
    fn default_cell_steady_hit_rate_exceeds_90_pct() {
        // The acceptance bar for the elastic control plane: in the
        // default cell (10^3 tenants, demand-driven restock) better
        // than nine of ten steady-state first contacts come from the
        // pre-warm stock.
        let rep = run(ChurnConfig::default());
        assert!(
            rep.steady_prewarm_claims + rep.steady_cold_connects > 100,
            "steady window too thin to judge"
        );
        assert!(
            rep.steady_hit_rate > 0.9,
            "default-cell steady hit rate {} <= 0.9",
            rep.steady_hit_rate
        );
    }

    #[test]
    fn churn_cell_reaches_steady_state_and_is_deterministic() {
        let a = run(quick_cfg(7));
        assert!(a.requests > 1_000, "requests {}", a.requests);
        assert!(a.arrivals > 0 && a.departures > 0, "{a:?}");
        // Population hovers near target: peak within 2x.
        assert!(
            a.peak_alive >= 200 && a.peak_alive < 400,
            "{}",
            a.peak_alive
        );
        let b = run(quick_cfg(7));
        assert_eq!(a.digest, b.digest, "same seed, same cell");
        let c = run(quick_cfg(8));
        assert_ne!(a.digest, c.digest, "different seed, different cell");
    }

    #[test]
    fn prewarm_raises_hit_rate_and_goodput() {
        let warm = run(quick_cfg(3));
        let cold = run(ChurnConfig {
            prewarm_target: 0,
            ..quick_cfg(3)
        });
        assert!(
            warm.steady_hit_rate > 0.9,
            "steady-state pre-warm hit rate {} <= 0.9",
            warm.steady_hit_rate
        );
        assert!(
            warm.prewarm_hit_rate >= warm.steady_hit_rate * 0.5,
            "whole-run rate collapsed: {} vs steady {}",
            warm.prewarm_hit_rate,
            warm.steady_hit_rate
        );
        assert_eq!(cold.prewarm_claims, 0, "no stock, no claims");
        assert!(cold.cold_connects > 0);
        assert!(
            warm.steady_p99_us < cold.steady_p99_us,
            "warm steady p99 {} !< cold steady p99 {}",
            warm.steady_p99_us,
            cold.steady_p99_us
        );
        assert!(warm.goodput_rps >= cold.goodput_rps);
    }

    #[test]
    fn a_request_cap_does_not_understate_goodput() {
        // Two whole diurnal periods uncapped against one whole period
        // capped: the same mean offered rate, so the same goodput.
        let cfg = |max_requests| ChurnConfig {
            tenants: 200,
            max_requests,
            ..ChurnConfig::default()
        };
        let uncapped = run(cfg(0));
        let capped = run(cfg(uncapped.requests / 2));
        assert_eq!(
            capped.requests,
            uncapped.requests / 2,
            "the cap ended the load"
        );
        let ratio = capped.goodput_rps / uncapped.goodput_rps;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "capped {} vs uncapped {} good requests per second",
            capped.goodput_rps,
            uncapped.goodput_rps
        );
    }

    #[test]
    fn teardown_and_eviction_engage_under_churn() {
        let r = run(quick_cfg(11));
        assert!(r.teardowns > 0, "idle-age teardown never engaged");
        // Departures release their pooled connections; whatever remains
        // is bounded by the live population.
        assert!(r.pooled_final <= r.final_alive, "{r:?}");
    }

    #[test]
    fn thrash_windows_tile_the_horizon_and_sum_to_totals() {
        let r = run(quick_cfg(7));
        assert_eq!(r.windows.len(), THRASH_WINDOWS);
        // Windows tile the horizon: contiguous, in order.
        for pair in r.windows.windows(2) {
            assert_eq!(pair[0].end_ns, pair[1].start_ns);
            assert_eq!(pair[0].index + 1, pair[1].index);
        }
        // Per-window deltas sum back to the run totals (the last window
        // boundary lands on the horizon, so nothing is lost).
        let evictions: u64 = r.windows.iter().map(|w| w.evictions).sum();
        let teardowns: u64 = r.windows.iter().map(|w| w.teardowns).sum();
        let cold: u64 = r.windows.iter().map(|w| w.cold_connects).sum();
        let claims: u64 = r.windows.iter().map(|w| w.prewarm_claims).sum();
        assert_eq!(evictions, r.evictions);
        assert_eq!(teardowns, r.teardowns);
        assert_eq!(cold, r.cold_connects);
        assert_eq!(claims, r.prewarm_claims);
        assert!(teardowns > 0, "teardown churn is visible per-window");
        // The series is digest-relevant: same-seed same-config reproduces
        // it byte-for-byte.
        let again = run(quick_cfg(7));
        assert_eq!(r.digest, again.digest);
        assert_eq!(r.windows, again.windows);
    }

    #[test]
    fn zipf_head_concentrates_picks() {
        let r = run(quick_cfg(5));
        // With s=1.1 the pool sees far more re-picks (hits+misses) than
        // first contacts: the head tenants dominate traffic.
        assert!(
            r.pool_hits + r.pool_misses > (r.cold_connects + r.prewarm_claims) * 3,
            "{r:?}"
        );
    }
}
