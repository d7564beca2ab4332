//! The churn cell as a state machine that never sees a simulator.
//!
//! [`Core`] holds the population, the route table, the gateway's elastic
//! connection pool, the RNG, each link's pre-warm demand, the counters and
//! a [`Fabric`] handle for the verbs that need no simulator. [`Core::step`]
//! takes the instant and one [`Input`] and emits [`Output`]s into a sink:
//! `At` is the only timed one. A first contact ends its step; the driver
//! steps the connection it got back in as [`Input::Bound`].

use std::collections::HashMap;

use dne::connpool::{ConnPool, ElasticConfig};
use dne::routing::RouteTable;
use rdma_sim::cost::RdmaCosts;
use rdma_sim::fabric::QpHandle;
use rdma_sim::{Fabric, NodeId};
use simcore::rng::{self, Zipf};
use simcore::{Histogram, SimDuration, SimRng, SimTime};

use super::{ChurnConfig, ChurnReport, ChurnWindow};

/// Per-message wire overhead added to the payload: descriptor + headers.
const WIRE_HEADER_BYTES: usize = 64;
/// Fabric nodes: node 0 is the gateway every request originates from,
/// nodes `1..` host tenant functions round-robin.
pub(super) const NODES: usize = 4;
pub(super) const GATEWAY: NodeId = NodeId(0);
/// Mean request rate per live tenant at diurnal midpoint, Hz.
pub(crate) const RATE_PER_TENANT: f64 = 25.0;
/// Zipf popularity exponent across live tenants.
const ZIPF_S: f64 = 1.1;
/// Request payload bytes.
const PAYLOAD: usize = 1024;
/// How often the background controller restocks the pre-warm pools.
const PREWARM_INTERVAL: SimDuration = SimDuration::from_millis(5);
/// Upper bound on a single restock order, capping the in-flight pipeline
/// after a pathological burst (e.g. a cell-wide restart).
const MAX_ORDER: usize = 4_096;
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
pub(super) const THRASH_WINDOWS: usize = 8;

/// Something that happens to the cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) enum Input {
    /// A tenant arrives; the next arrival is drawn.
    Arrive,
    /// Tenant `.0` departs, with its route and its connections.
    Depart(u32),
    /// A request for a Zipf-sampled live tenant; the next one is drawn.
    Request,
    /// The pre-warm restock tick.
    Restock,
    /// The idle reaper and teardown sweep.
    Reap,
    /// A thrash-window boundary.
    Window,
    /// What a first contact got: `None` if the fabric refused the connect.
    Bound(Contact, Option<Setup>),
}

/// Tenant `t`'s first contact with `home`, and the latency its request has
/// so far.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct Contact {
    pub(super) t: u32,
    pub(super) home: NodeId,
    pub(super) latency: SimDuration,
}

/// How a first contact got its connection (the gateway's end).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) enum Setup {
    Claimed(QpHandle),
    Cold(QpHandle),
}

/// Something the cell wants done; the driver applies these in emission
/// order.
#[derive(Debug, PartialEq)]
pub(super) enum Output {
    /// Feed the input back at the instant.
    At(SimTime, Input),
    /// Order `n` pre-warmed connections on the gateway's link to `peer`.
    Stock { peer: NodeId, n: usize },
    /// No ready connection: claim one from the pre-warm stock, else connect
    /// cold, and step the answer back in. Always the last output of a step.
    FirstContact(Contact),
}

/// One churn cell's state.
pub(super) struct Core {
    cfg: ChurnConfig,
    costs: RdmaCosts,
    fabric: Fabric,
    routing: RouteTable<u32>,
    pool: ConnPool<u32>,
    /// Live tenants in sampling order (swap-removed on departure).
    alive: Vec<u32>,
    alive_pos: HashMap<u32, usize>,
    /// Tenants spawned so far, the initial population included.
    spawned: u32,
    rng: SimRng,
    /// Tenant popularity by rank in `alive`.
    popularity: Zipf,
    end: SimTime,
    warmup_end: SimTime,
    /// First contacts per backend link since its last restock (index = node
    /// id): each order replaces them on top of the stock floor.
    demand: [usize; NODES],
    /// The report's counters and windows, counted in place.
    counts: ChurnReport,
    /// When `max_requests` ended the load, if it did.
    capped_at: Option<SimTime>,
    latency: Histogram,
    /// Latency of requests issued after the warmup cutoff only.
    steady_latency: Histogram,
}

impl Core {
    /// A cell over `fabric` with its initial population live and nothing
    /// drawn yet.
    pub(super) fn new(cfg: ChurnConfig, fabric: Fabric) -> Core {
        let mut core = Core {
            costs: fabric.costs(),
            fabric,
            routing: RouteTable::new(),
            pool: ConnPool::with_config(ELASTIC),
            alive: Vec::with_capacity(cfg.tenants * 2),
            alive_pos: HashMap::with_capacity(cfg.tenants * 2),
            spawned: 0,
            rng: SimRng::new(cfg.seed),
            // Sized for the population plus churn headroom.
            popularity: Zipf::new(cfg.tenants * 2 + 1024, ZIPF_S),
            end: SimTime::ZERO + cfg.horizon,
            warmup_end: SimTime::ZERO + cfg.warmup,
            demand: [0; NODES],
            counts: ChurnReport::default(),
            capped_at: None,
            latency: Histogram::new(),
            steady_latency: Histogram::new(),
            cfg,
        };
        for _ in 0..core.cfg.tenants {
            core.spawn();
        }
        core
    }

    /// Emits what the cell starts with: each initial tenant's departure,
    /// the pre-warm stock on every backend link, then the first arrival,
    /// request, restock, reap and window boundary.
    pub(super) fn start(&mut self, now: SimTime, out: &mut impl FnMut(Output)) {
        for i in 0..self.alive.len() {
            self.depart_later(now, self.alive[i], out);
        }
        self.restock(out);
        self.next_arrival(now, out);
        self.next_request(now, out);
        for tick in [Input::Restock, Input::Reap, Input::Window] {
            self.tick(now, tick, out);
        }
    }

    /// Feeds one input at `now`, emitting outputs in the order the cell
    /// wants them applied.
    pub(super) fn step(&mut self, now: SimTime, input: Input, out: &mut impl FnMut(Output)) {
        match input {
            Input::Arrive => {
                let t = self.spawn();
                self.counts.arrivals += 1;
                self.depart_later(now, t, out);
                self.next_arrival(now, out);
            }
            Input::Depart(t) => self.depart(t),
            Input::Request => {
                if let Some((t, home)) = self.sample() {
                    if let Some(contact) = self.serve(now, t, home) {
                        out(contact);
                        return;
                    }
                }
                self.next_request(now, out);
            }
            Input::Bound(contact, setup) => {
                self.bind(now, contact, setup);
                self.next_request(now, out);
            }
            Input::Restock => {
                self.restock(out);
                self.tick(now, input, out);
            }
            Input::Reap => {
                self.pool.deactivate_idle(&self.fabric, now);
                self.pool.teardown_idle(&self.fabric, now);
                self.tick(now, input, out);
            }
            Input::Window => {
                self.close_window(now);
                self.tick(now, input, out);
            }
        }
    }

    /// Emits the next tick of periodic `input` while it falls inside the
    /// horizon. Only a window boundary may land on the horizon itself, so
    /// the last window closes there; restocking needs a stock target.
    fn tick(&self, now: SimTime, input: Input, out: &mut impl FnMut(Output)) {
        let window = SimDuration::from_nanos(self.cfg.horizon.as_nanos() / THRASH_WINDOWS as u64);
        let (every, last) = match input {
            Input::Restock if self.cfg.prewarm_target > 0 => (PREWARM_INTERVAL, false),
            Input::Reap => (REAP_INTERVAL, false),
            Input::Window if window > SimDuration::ZERO => (window, true),
            _ => return,
        };
        let at = now + every;
        if at < self.end || (last && at == self.end) {
            out(Output::At(at, input));
        }
    }

    fn spawn(&mut self) -> u32 {
        let t = self.spawned;
        self.spawned += 1;
        // Round-robin placement over the backends: deterministic, and at
        // churn scale indistinguishable from a placement service.
        let backends = (NODES - 1) as u32;
        self.routing.set(t, NodeId(1 + (t % backends) as u16));
        self.alive_pos.insert(t, self.alive.len());
        self.alive.push(t);
        self.counts.peak_alive = self.counts.peak_alive.max(self.alive.len());
        t
    }

    /// Draws tenant `t`'s exponential lifetime and emits its departure.
    fn depart_later(&mut self, now: SimTime, t: u32, out: &mut impl FnMut(Output)) {
        let mean = self.cfg.mean_lifetime.as_secs_f64();
        let life = SimDuration::from_secs_f64(self.rng.exponential(mean));
        out(Output::At(now + life, Input::Depart(t)));
    }

    /// Draws the next arrival gap; emits the arrival if inside the horizon.
    fn next_arrival(&mut self, now: SimTime, out: &mut impl FnMut(Output)) {
        let rate = self.cfg.tenants as f64 / self.cfg.mean_lifetime.as_secs_f64().max(1e-9);
        let gap = SimDuration::from_secs_f64(self.rng.exponential(1.0 / rate));
        if now + gap < self.end {
            out(Output::At(now + gap, Input::Arrive));
        }
    }

    /// Draws the next request gap from the live population's diurnal rate;
    /// emits the request unless capped or past the horizon. The gap is drawn
    /// even when capped: arrivals and lifetimes share the RNG.
    fn next_request(&mut self, now: SimTime, out: &mut impl FnMut(Output)) {
        let capped = self.cfg.max_requests > 0 && self.counts.requests >= self.cfg.max_requests;
        if capped {
            self.capped_at = Some(now);
        }
        let alive = self.alive.len();
        let gap = if alive == 0 {
            SimDuration::from_millis(1)
        } else {
            let period = DIURNAL_PERIOD.as_secs_f64();
            let swing = rng::diurnal(DIURNAL_AMPLITUDE, now.as_secs_f64(), period);
            let rate = RATE_PER_TENANT * alive as f64 * swing;
            SimDuration::from_secs_f64(self.rng.exponential(1.0 / rate.max(1e-9)))
        };
        if !capped && now + gap < self.end {
            out(Output::At(now + gap, Input::Request));
        }
    }

    /// Samples a live tenant by Zipf rank over the population, with its home.
    fn sample(&mut self) -> Option<(u32, NodeId)> {
        let n = self.alive.len();
        if n == 0 {
            return None;
        }
        let t = self.alive[self.popularity.sample(&mut self.rng, n)];
        let home = self.routing.lookup(t);
        debug_assert!(home.is_some(), "{t}: sampled and served in one step");
        home.map(|home| (t, home))
    }

    /// Tenant `t` departs: out of the population, its route, and its pooled
    /// connections with their QPs.
    fn depart(&mut self, t: u32) {
        let live = self.alive_pos.remove(&t).zip(self.routing.remove(t));
        debug_assert!(live.is_some(), "{t}: each tenant gets one Depart");
        if let Some((pos, home)) = live {
            self.alive.swap_remove(pos);
            if let Some(&moved) = self.alive.get(pos) {
                self.alive_pos.insert(moved, pos);
            }
            for h in self.pool.remove_peer(&self.fabric, t, home) {
                // Lazy teardown may already have destroyed it.
                let _ = self.fabric.destroy_qp(h);
            }
            self.counts.departures += 1;
        }
    }

    /// Models tenant `t`'s request on a pooled connection, priced against the
    /// live RNIC cache occupancy, or hands back its first contact: then the
    /// control plane decides whether it costs microseconds or milliseconds.
    fn serve(&mut self, now: SimTime, t: u32, home: NodeId) -> Option<Output> {
        let active = self.fabric.active_qp_count(GATEWAY);
        let cache = self.costs.qp_cache_penalty(active);
        let latency = self.costs.one_way(PAYLOAD + WIRE_HEADER_BYTES) + cache;
        let pooled = self.pool.pick_least_congested(&self.fabric, now, t, home);
        if pooled.is_none() {
            return Some(Output::FirstContact(Contact { t, home, latency }));
        }
        self.record(now, latency);
        None
    }

    /// Finishes a first contact with the connection it got.
    fn bind(&mut self, now: SimTime, Contact { t, home, latency }: Contact, setup: Option<Setup>) {
        self.demand[home.0 as usize] += 1;
        let steady = u64::from(now >= self.warmup_end);
        let c = &mut self.counts;
        let (qp, delay) = match setup {
            Some(Setup::Claimed(qp)) => {
                c.prewarm_claims += 1;
                c.steady_prewarm_claims += steady;
                (Some(qp), self.costs.prewarm_claim_delay)
            }
            Some(Setup::Cold(qp)) => {
                c.cold_connects += 1;
                c.steady_cold_connects += steady;
                (Some(qp), self.costs.connect_delay)
            }
            None => (None, SimDuration::ZERO),
        };
        if let Some(qp) = qp {
            self.pool.add(t, home, qp, now);
            // Activate it for this request so the RNIC cache sees it.
            self.pool.pick_least_congested(&self.fabric, now, t, home);
        }
        self.record(now, latency + delay);
    }

    fn record(&mut self, now: SimTime, latency: SimDuration) {
        self.counts.requests += 1;
        self.latency.record(latency);
        if now >= self.warmup_end {
            self.steady_latency.record(latency);
        }
        self.counts.good += u64::from(latency <= SLO);
    }

    /// Orders each backend link's pre-warm stock back up.
    fn restock(&mut self, out: &mut impl FnMut(Output)) {
        for peer in (1..NODES as u16).map(NodeId) {
            let stock = self.fabric.prewarmed_available(GATEWAY, peer);
            let n = self.order(peer.0 as usize, stock);
            if n > 0 {
                out(Output::Stock { peer, n });
            }
        }
    }

    /// Backend `link`'s order for a tick that finds `stock` claimable: the
    /// stock target plus the first contacts since the last tick, so orders
    /// (which take `connect_delay` to mature) keep pace with first contacts,
    /// not a static floor. Resets the link's demand; no target, no order.
    fn order(&mut self, link: usize, stock: usize) -> usize {
        let demand = std::mem::take(&mut self.demand[link]);
        let target = self.cfg.prewarm_target;
        let want = if target == 0 { 0 } else { target + demand };
        want.saturating_sub(stock).min(MAX_ORDER)
    }

    /// Closes the thrash window ending at `now`: the running totals less
    /// the windows before it.
    fn close_window(&mut self, now: SimTime) {
        let c = &mut self.counts;
        let start_ns = c.windows.last().map_or(0, |w| w.end_ns);
        let before = |f: fn(&ChurnWindow) -> u64| c.windows.iter().map(f).sum::<u64>();
        let requests = c.requests - before(|w| w.requests);
        let cold_connects = c.cold_connects - before(|w| w.cold_connects);
        let prewarm_claims = c.prewarm_claims - before(|w| w.prewarm_claims);
        let evictions = self.pool.evictions() - before(|w| w.evictions);
        let teardowns = self.pool.teardowns() - before(|w| w.teardowns);
        let dt_s = ((now.as_nanos() - start_ns) as f64 / 1e9).max(1e-12);
        c.windows.push(ChurnWindow {
            index: c.windows.len(),
            start_ns,
            end_ns: now.as_nanos(),
            requests,
            cold_connects,
            prewarm_claims,
            evictions,
            teardowns,
            eviction_rate_per_s: evictions as f64 / dt_s,
            teardown_rate_per_s: teardowns as f64 / dt_s,
            cold_rate_per_s: cold_connects as f64 / dt_s,
        });
    }

    /// The cell's report, its digest folded over every integer column.
    pub(super) fn report(&self) -> ChurnReport {
        let c = &self.counts;
        let (pool_hits, pool_misses) = self.pool.hit_miss();
        // Load ran until the cap was hit, or for the whole horizon.
        let load_s = self.capped_at.unwrap_or(self.end).as_secs_f64();
        let warm = c.prewarm_claims + c.cold_connects;
        let steady = c.steady_prewarm_claims + c.steady_cold_connects;
        let mut r = ChurnReport {
            tenants: self.cfg.tenants,
            prewarm_target: self.cfg.prewarm_target,
            final_alive: self.alive.len(),
            goodput_rps: ratio(c.good, load_s),
            p50_us: self.latency.percentile(50.0).as_micros_f64(),
            p99_us: self.latency.percentile(99.0).as_micros_f64(),
            prewarm_hit_rate: ratio(c.prewarm_claims, warm as f64),
            steady_hit_rate: ratio(c.steady_prewarm_claims, steady as f64),
            steady_p50_us: self.steady_latency.percentile(50.0).as_secs_f64() * 1e6,
            steady_p99_us: self.steady_latency.percentile(99.0).as_secs_f64() * 1e6,
            pool_hits,
            pool_misses,
            evictions: self.pool.evictions(),
            teardowns: self.pool.teardowns(),
            peak_active_qps: self.fabric.peak_active_qp_count(GATEWAY),
            pooled_final: self.pool.pooled_total(),
            ..c.clone()
        };
        let ints: [u64; 16] = [
            r.tenants as u64,
            r.prewarm_target as u64,
            r.peak_alive as u64,
            r.final_alive as u64,
            r.arrivals,
            r.departures,
            r.requests,
            r.good,
            r.cold_connects,
            r.prewarm_claims,
            r.steady_cold_connects,
            r.steady_prewarm_claims,
            r.pool_hits,
            r.pool_misses,
            r.evictions,
            r.teardowns,
        ];
        let win_ints = r.windows.iter().flat_map(|w| {
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
        let bytes = ints.into_iter().chain(win_ints).flat_map(u64::to_le_bytes);
        r.digest = rng::fnv1a(bytes);
        r
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: u64, den: f64) -> f64 {
    if den > 0.0 {
        num as f64 / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::super::Churn;
    use super::*;
    use simcore::Sim;

    /// A cell with no tenants and the given stock target, for its restock
    /// arithmetic.
    fn controller(target: usize) -> Core {
        let cfg = ChurnConfig {
            tenants: 0,
            prewarm_target: target,
            ..ChurnConfig::default()
        };
        Core::new(cfg, Fabric::new(RdmaCosts::default()))
    }

    #[test]
    fn idle_link_holds_the_floor() {
        let mut c = controller(8);
        assert_eq!(c.order(1, 0), 8, "empty pool orders up to the floor");
        assert_eq!(c.order(1, 8), 0, "full pool orders nothing");
        assert_eq!(c.order(1, 5), 3, "partial pool tops up the deficit");
    }

    #[test]
    fn demand_raises_the_order_beyond_the_floor() {
        let mut c = controller(8);
        c.demand[1] += 10;
        c.demand[1] += 2;
        // Stock is still at the floor, but 12 claims landed since the
        // last tick: the order replaces them on top of the floor.
        assert_eq!(c.order(1, 8), 12);
        // The window reset: with no new demand the floor suffices.
        assert_eq!(c.order(1, 8), 0);
    }

    #[test]
    fn max_order_caps_burst_response() {
        let mut c = controller(8);
        c.demand[1] += 10_000;
        assert_eq!(c.order(1, 0), 4_096);
    }

    #[test]
    fn zero_target_disables_ordering_and_drains_demand() {
        let mut c = controller(0);
        c.demand[1] += 50;
        assert_eq!(c.order(1, 0), 0);
        // The window still reset: re-enabled, only the floor is ordered.
        c.cfg.prewarm_target = 8;
        assert_eq!(c.order(1, 0), 8, "window still resets");
    }

    /// The lone tenant of [`Rig`], and its home.
    const T: u32 = 0;
    const HOME: NodeId = NodeId(1);

    /// One tenant whose link holds one matured pre-warmed connection, at
    /// the instant it matured. The fabric's own events from here on fall
    /// at least `prewarm_claim_delay` (100 µs) later, so the simulator only
    /// holds them.
    struct Rig {
        d: Churn,
        sim: Sim,
        now: SimTime,
        /// Every input fed, in order, for a failure's message.
        order: Vec<Input>,
    }

    impl Rig {
        fn new() -> Rig {
            let cfg = ChurnConfig {
                tenants: 1,
                prewarm_target: 1,
                warmup: SimDuration::ZERO,
                max_requests: 0,
                ..ChurnConfig::default()
            };
            let (d, mut sim) = (Churn::new(cfg), Sim::new());
            let _ = d.fabric.prewarm_link(&mut sim, GATEWAY, HOME, 1);
            sim.run();
            let now = sim.now();
            let order = Vec::new();
            Rig { d, sim, now, order }
        }

        /// Steps `input` the way the driver does, then checks the pool and
        /// the stock.
        fn step(&mut self, input: Input) {
            self.order.push(input);
            let mut outputs = Vec::new();
            let sink = &mut |o| outputs.push(o);
            self.d.core.borrow_mut().step(self.now, input, sink);
            for output in outputs {
                match output {
                    Output::At(..) => {}
                    Output::Stock { peer, n } => {
                        let _ = self.d.fabric.prewarm_link(&mut self.sim, GATEWAY, peer, n);
                    }
                    Output::FirstContact(contact) => {
                        let bound = self.d.first_contact(&mut self.sim, contact);
                        self.step(bound);
                    }
                }
            }
            let (core, order) = (self.d.core.borrow(), &self.order);
            for t in 0..core.spawned {
                if !core.alive_pos.contains_key(&t) {
                    let peers = core.pool.peers_of(t);
                    assert!(peers.is_empty(), "gone {t} pooled to {peers:?}: {order:?}");
                }
            }
            let active = core.fabric.active_qp_count(GATEWAY);
            assert_eq!(active, core.pool.active_total(), "active QPs: {order:?}");
            let stock = core.fabric.prewarmed_available(GATEWAY, HOME);
            let claims = core.counts.prewarm_claims as usize;
            assert_eq!(stock + claims, 1, "claims beyond the stock: {order:?}");
        }
    }

    /// The lone tenant's first-contact `Request`, its `Depart`, a `Reap`, a
    /// `Restock` and a window boundary at one instant, in all 120 orders.
    /// After every step no departed tenant holds a pooled connection, the
    /// gateway's active QPs are the pool's, and the claims never exceed the
    /// stock. At the end a last boundary closes the rest, and the windows
    /// sum to the totals. The request is served only ahead of `Depart`, and
    /// it lands in the window that the same-instant boundary closes only
    /// ahead of that boundary.
    #[test]
    fn every_order_of_one_instant_keeps_the_pool_and_the_stock() {
        let inputs = [
            Input::Request,
            Input::Depart(T),
            Input::Reap,
            Input::Restock,
            Input::Window,
        ];
        // Orders whose request lands in the first window, the second, none.
        let mut landed = [0; 3];
        let orders = simcore::explore(
            || (Rig::new(), inputs.to_vec()),
            |(_, left)| left.len(),
            |(rig, left), i| rig.step(left.remove(i)),
            |(mut rig, _)| {
                rig.step(Input::Window);
                let (core, order) = (rig.d.core.borrow(), &rig.order);
                let c = &core.counts;
                let sum = |f: fn(&ChurnWindow) -> u64| c.windows.iter().map(f).sum::<u64>();
                let totals = [
                    c.requests,
                    c.cold_connects,
                    c.prewarm_claims,
                    core.pool.evictions(),
                    core.pool.teardowns(),
                ];
                let sums = [
                    sum(|w| w.requests),
                    sum(|w| w.cold_connects),
                    sum(|w| w.prewarm_claims),
                    sum(|w| w.evictions),
                    sum(|w| w.teardowns),
                ];
                assert_eq!(sums, totals, "windows against totals: {order:?}");
                assert_eq!(c.prewarm_claims, c.requests, "one claim per request");
                let first = c.windows.iter().position(|w| w.requests > 0);
                landed[first.unwrap_or(2)] += 1;
            },
        );
        assert_eq!(orders, 120);
        assert_eq!(landed, [40, 20, 60]);
    }
}
