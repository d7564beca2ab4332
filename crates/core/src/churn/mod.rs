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
//! digest; `experiment::churn::tests::sweep_is_deterministic_across_repeats`
//! and `scripts/gates.sh results` hold same-seed runs to it.
//!
//! Each live tenant holds a route entry, a pool entry and two fabric QP
//! endpoints. What that costs in bytes has not been counted (ROADMAP
//! item 3), so the committed sweep stops at the largest population that
//! has been run, 10^5, and nothing is claimed about 10^6.
//!
//! The cell is the `core` submodule, which never sees the simulator; this
//! module is its [`Machine`] impl and [`run`] (DESIGN.md §12).

mod core;

use std::cell::RefCell;
use std::rc::Rc;

use membuf::tenant::TenantId;
use rdma_sim::cost::RdmaCosts;
use rdma_sim::fabric::{CqId, RqId};
use rdma_sim::Fabric;
use simcore::{Driver, Machine, Sim, SimDuration, SimTime, Sink};

pub(crate) use self::core::RATE_PER_TENANT;
use self::core::{Contact, Core, Input, Output, Setup, GATEWAY, NODES};

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

/// One thrash window: the QP-churn counters cut into an equal slice of the
/// horizon, with rates derived, so the "thrash knee" — the population where
/// LRU eviction churn takes off — shows as a series rather than one
/// end-of-run total. Integer columns fold into the cell digest.
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
#[derive(Debug, Clone, Default)]
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
    /// FNV-1a digest over every integer column, the per-window ones
    /// included: byte-identical across same-seed runs (held by
    /// `experiment::churn::tests::sweep_is_deterministic_across_repeats`
    /// and `scripts/gates.sh results`).
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

/// What an `At` points at: the cell, the fabric it runs on, and each
/// node's `(CQ, shared RQ)` indexed by node id.
struct Churn {
    core: RefCell<Core>,
    fabric: Fabric,
    wiring: Vec<(CqId, RqId)>,
}

impl Churn {
    /// A cell on `NODES` fresh nodes, each with one CQ and one shared RQ.
    fn new(cfg: ChurnConfig) -> Churn {
        let fabric = Fabric::new(RdmaCosts::default());
        let wiring = (0..NODES)
            .map(|_| {
                let node = fabric.add_node();
                let cq = fabric.create_cq(node).expect("fresh node");
                let rq = fabric.create_rq(node, FABRIC_TENANT).expect("fresh node");
                (cq, rq)
            })
            .collect();
        Churn {
            core: RefCell::new(Core::new(cfg, fabric.clone())),
            fabric,
            wiring,
        }
    }

    /// Gets a first contact a connection — claimed from the link's pre-warm
    /// stock, else connected cold — and answers with what it got.
    fn first_contact(&self, sim: &mut Sim, contact: Contact) -> Input {
        let (f, home) = (&self.fabric, contact.home);
        let ((cq_g, rq_g), (cq_h, rq_h)) = (self.wiring[0], self.wiring[home.0 as usize]);
        let claimed = f.claim_prewarmed(sim, FABRIC_TENANT, GATEWAY, cq_g, rq_g, home, cq_h, rq_h);
        let setup = match claimed.unwrap_or(None) {
            Some((qp, _)) => Some(Setup::Claimed(qp)),
            None => f
                .connect(sim, FABRIC_TENANT, GATEWAY, cq_g, rq_g, home, cq_h, rq_h)
                .ok()
                .map(|(qp, _)| Setup::Cold(qp)),
        };
        Input::Bound(contact, setup)
    }
}

/// `At` and `Stock` are applied as the core emits them; a `FirstContact`,
/// always its step's last output, waits for the step to return, and the
/// connection it got is stepped back in as `Bound`.
impl Machine for Churn {
    type In = Input;
    type Out = Output;
    type Answer = ();

    fn step(&self, now: SimTime, input: Input, sink: &mut Sink<'_, Self>) {
        self.core
            .borrow_mut()
            .step(now, input, &mut |o| sink.put(o));
    }

    fn apply(d: &Rc<Driver<Self>>, sim: &mut Sim, output: Output) -> Result<(), Output> {
        match output {
            Output::At(at, input) => d.schedule(sim, at, input),
            Output::Stock { peer, n } => {
                let _ = d.fabric.prewarm_link(sim, GATEWAY, peer, n);
            }
            first_contact => return Err(first_contact),
        }
        Ok(())
    }

    fn settle(d: &Rc<Driver<Self>>, sim: &mut Sim, output: Output) {
        if let Output::FirstContact(contact) = output {
            let bound = d.first_contact(sim, contact);
            d.drive(sim, bound);
        }
    }
}

/// Runs one churn cell to completion.
pub fn run(cfg: ChurnConfig) -> ChurnReport {
    let (d, mut sim) = (Driver::new(Churn::new(cfg)), Sim::new());
    d.run(&mut sim, |churn, now, sink| {
        churn.core.borrow_mut().start(now, &mut |o| sink.put(o));
    });
    sim.run();
    let report = d.core.borrow().report();
    report
}

#[cfg(test)]
mod tests {
    use super::core::THRASH_WINDOWS;
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
