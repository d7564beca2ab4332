//! One repetition of one workload, inside a fresh child process: build,
//! warm up, time the measured window, drain, collect, check.
//!
//! Counters are read from the layers' public stats at the two edges of the
//! timed window; nothing inside the program is instrumented.

use std::time::Instant;

use obs::JsonValue;
use simcore::SimDuration;

use crate::spans::Spans;
use crate::stats::percentile_sorted;
use crate::trace::TraceSink;
use crate::world::{self, BuildCtx, Outcome, World};
use crate::{alloc, host};

/// Share of the virtual span run untimed before the measured window.
const WARMUP_SHARE: u64 = 10;

/// Declares the counter set once: the struct, its field-wise difference
/// and sum, and the JSON form the parent reads back.
macro_rules! counters {
    ($($field:ident),* $(,)?) => {
        /// Monotone counters summed over nodes, pools and engines.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Counts { $(pub $field: u64),* }

        impl Counts {
            fn minus(self, earlier: Counts) -> Counts {
                Counts { $($field: self.$field - earlier.$field),* }
            }

            fn plus(self, other: Counts) -> Counts {
                Counts { $($field: self.$field + other.$field),* }
            }

            pub fn to_json(self) -> JsonValue {
                JsonValue::obj(vec![$((stringify!($field), JsonValue::UInt(self.$field))),*])
            }

            pub fn from_json(v: &JsonValue) -> Option<Counts> {
                Some(Counts { $($field: v.get(stringify!($field))?.as_u64()?),* })
            }
        }
    };
}

counters!(
    events,
    events_cancelled,
    pool_gets,
    pool_redeems,
    pool_failed_gets,
    dne_submitted,
    dne_tx_posted,
    dne_rx_delivered,
    dne_retries,
    dne_failovers,
    dne_reconnects,
    dne_give_ups,
    dne_drops,
    dne_deadline_drops,
    conn_hits,
    conn_misses,
    fabric_tx,
    fabric_rx,
    fabric_rnr,
    faults,
    io_local,
    io_remote,
    io_dropped,
    gw_accepted,
    gw_completed,
    gw_shed,
    gw_dropped,
    gw_expired,
    gw_failed,
);

fn snapshot(w: &World) -> Counts {
    let p = w.sim.profile();
    let mut c = Counts {
        events: p.executed_events,
        events_cancelled: p.cancelled_events,
        ..Counts::default()
    };
    for (_, _, pool) in w.cluster.pools_snapshot() {
        let s = pool.stats();
        c.pool_gets += s.gets;
        c.pool_redeems += s.redeems;
        c.pool_failed_gets += s.failed_gets;
    }
    for node in &w.cluster.nodes {
        let s = node.dne.stats();
        c.dne_submitted += s.submitted;
        c.dne_tx_posted += s.tx_posted;
        c.dne_rx_delivered += s.rx_delivered;
        c.dne_retries += s.retries;
        c.dne_failovers += s.failovers;
        c.dne_reconnects += s.reconnects;
        c.dne_give_ups += s.give_ups;
        c.dne_drops += s.drops;
        c.dne_deadline_drops += s.deadline_drops;
        let (hits, misses) = node.dne.conn_hit_miss();
        c.conn_hits += hits;
        c.conn_misses += misses;
        let (tx, rx, rnr) = w.cluster.fabric.node_counters(node.id);
        c.fabric_tx += tx;
        c.fabric_rx += rx;
        c.fabric_rnr += rnr;
        let io = node.iolib.stats();
        c.io_local += io.local_sends;
        c.io_remote += io.remote_sends;
        c.io_dropped += io.dropped;
    }
    let f = w.cluster.fabric.fault_stats();
    c.faults = f.lost + f.corrupted + f.qp_kills + f.outage_drops;
    if let Some(gw) = &w.gateway {
        let s = gw.stats();
        c.gw_accepted = s.accepted;
        c.gw_completed = s.completed;
        c.gw_shed = s.shed;
        c.gw_dropped = s.dropped;
        c.gw_expired = s.expired;
        c.gw_failed = s.failed;
    }
    c
}

/// `(free, in_flight)` of every pool, in `pools_snapshot` order.
fn pool_levels(w: &World) -> Vec<(u32, u32)> {
    w.cluster
        .pools_snapshot()
        .iter()
        .map(|(_, _, p)| {
            let s = p.stats();
            (s.free, s.in_flight)
        })
        .collect()
}

/// What one repetition measured. Host-clock values differ run to run;
/// everything under `sim`, `counts` and `gauges` must repeat exactly for a
/// given seed.
pub struct RepOut {
    pub host: Host,
    pub sim: SimOut,
    pub counts: Counts,
    pub gauges: Gauges,
    pub checks: Checks,
    pub trace: Option<crate::trace::TraceOut>,
}

/// Host-clock measurements of one repetition.
#[derive(Debug, Clone, Copy, Default)]
pub struct Host {
    /// Process start to the start of the timed window.
    pub setup_ns: u64,
    /// Wall time of the timed window.
    pub timed_ns: u64,
    pub drain_ns: u64,
    /// Heap allocations (calls, bytes) inside the timed window.
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Resident-set growth across provisioning, in KiB.
    pub setup_rss_kb: u64,
    /// Wall time of tenant provisioning alone (inside `setup_ns`).
    pub provision_ns: u64,
}

/// Simulated (virtual-time) results of the measured set: requests due in
/// the timed window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimOut {
    pub span_ns: u64,
    pub attempted: u64,
    pub completed: u64,
    pub failed: u64,
    pub shed: u64,
    pub dropped: u64,
    pub expired: u64,
    /// Still unresolved after the drain.
    pub hung: u64,
    /// Completed, but over the workload's latency limit.
    pub over_limit: u64,
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub max_ns: u64,
    pub mean_ns: f64,
}

/// Level-type readings (not differences of counters).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Gauges {
    pub engine_cores: f64,
    pub host_cores: f64,
    pub gateway_cores: f64,
    pub peak_pending: u64,
    pub active_qps_peak: u64,
    pub tx_queue_wait_p99_ns: u64,
    pub sched_delay_p99_ns: u64,
    pub post_to_completion_p50_ns: u64,
    pub retry_latency_p99_ns: u64,
    pub dwrr_share_error: f64,
    pub tenants: u64,
    pub payload: u64,
}

/// Outcome of the correctness gate for this repetition.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Checks {
    /// Requests (whole run) that never resolved.
    pub hung_total: u64,
    /// Pools whose free/in-flight levels differ from their post-setup
    /// baseline after the drain.
    pub pools_leaking: u64,
    /// Whole-run identity: issued = ok + failed + shed + dropped + expired.
    pub all_attempted: u64,
    pub all_resolved: u64,
}

/// The fixed latency limits (virtual µs): the p99 measured when the
/// benchmark was defined (77, 1040, 263, 136) rounded up by about a
/// quarter — by a half on `tenants_open`, whose open-loop tail is long.
pub fn slo_limit_us(workload: &str) -> u64 {
    match workload {
        "echo_small" => 100,
        "boutique_gw" => 1_300,
        "tenants_open" => 400,
        "echo_lossy_4k" => 170,
        other => panic!("unknown workload {other}"),
    }
}

/// Weighted max-min fair allocation of `capacity` among `demand`s.
fn water_fill(demand: &[f64], weight: &[f64], capacity: f64) -> Vec<f64> {
    let mut alloc = vec![0.0; demand.len()];
    let mut open: Vec<usize> = (0..demand.len()).collect();
    let mut left = capacity;
    while !open.is_empty() && left > 0.0 {
        let wsum: f64 = open.iter().map(|&i| weight[i]).sum();
        let level = left / wsum;
        let (sat, unsat): (Vec<usize>, Vec<usize>) = open
            .iter()
            .partition(|&&i| demand[i] - alloc[i] <= level * weight[i]);
        if sat.is_empty() {
            for &i in &unsat {
                alloc[i] += level * weight[i];
            }
            break;
        }
        for &i in &sat {
            left -= demand[i] - alloc[i];
            alloc[i] = demand[i];
        }
        open = unsat;
    }
    alloc
}

/// Largest gap between a tenant's served share and its weighted max-min
/// fair share of what was served in total (0 = DWRR-ideal).
fn dwrr_share_error(offered: &[u64], served: &[u64], weights: &[u32]) -> f64 {
    let total: u64 = served.iter().sum();
    if total == 0 || offered.len() < 2 {
        return 0.0;
    }
    let demand: Vec<f64> = offered.iter().map(|&o| o as f64).collect();
    let weight: Vec<f64> = weights.iter().map(|&w| f64::from(w)).collect();
    let fair = water_fill(&demand, &weight, total as f64);
    served
        .iter()
        .zip(&fair)
        .map(|(&s, &f)| (s as f64 - f).abs() / total as f64)
        .fold(0.0, f64::max)
}

struct CellOut {
    host: Host,
    lat_ns: Vec<u64>,
    sim: SimOut,
    counts: Counts,
    gauges: Gauges,
    checks: Checks,
}

/// Runs one cell: build → warm-up → timed window → drain → collect.
fn run_cell(
    workload: &str,
    cell: usize,
    span: SimDuration,
    bctx: &BuildCtx,
    spans: &mut Spans,
    process_start: Instant,
) -> CellOut {
    let cell_span = spans.begin("cell", None);
    let setup_span = spans.begin("setup", Some(cell_span));
    let setup_from = Instant::now();
    let rss_before = host::rss_kb();
    let mut w = world::build(workload, cell, bctx);
    let provision_ns = setup_from.elapsed().as_nanos() as u64;
    let setup_rss_kb = host::rss_kb().saturating_sub(rss_before);
    let levels_before = pool_levels(&w);

    let t0 = w.sim.now();
    let t1 = t0 + SimDuration::from_nanos(span.as_nanos() / WARMUP_SHARE);
    let t2 = t0 + span;
    let start = std::mem::replace(&mut w.start, Box::new(|_, _| {}));
    start(&mut w.sim, t2);
    spans.end(setup_span);

    // The warm-up slice fills caches, grows vectors and brings the closed
    // loops to their steady phase pattern; it belongs to set-up.
    let warm_span = spans.begin("warmup", Some(cell_span));
    w.sim.run_until(t1);
    spans.end(warm_span);
    // The first cell's set-up runs from process start; later cells (the
    // second and third boutique chains) add their own build and warm-up.
    let setup_ns = if cell == 0 {
        process_start.elapsed().as_nanos() as u64
    } else {
        setup_from.elapsed().as_nanos() as u64
    };

    let timed_span = spans.begin("timed_run", Some(cell_span));
    let before = snapshot(&w);
    let (allocs0, bytes0) = alloc::snapshot();
    let timed_from = Instant::now();
    w.sim.run_until(t2);
    let timed_ns = timed_from.elapsed().as_nanos() as u64;
    let (allocs1, bytes1) = alloc::snapshot();
    let counts = snapshot(&w).minus(before);
    spans.end(timed_span);

    let drain_span = spans.begin("drain", Some(cell_span));
    let drain_from = Instant::now();
    w.sim.run();
    let drain_ns = drain_from.elapsed().as_nanos() as u64;
    spans.end(drain_span);

    let collect_span = spans.begin("collect", Some(cell_span));
    let ledger = w.ledger.borrow();
    let (t1_ns, t2_ns) = (t1.as_nanos(), t2.as_nanos());
    let limit_ns = slo_limit_us(workload) * 1_000;
    let mut sim = SimOut {
        span_ns: t2_ns - t1_ns,
        ..SimOut::default()
    };
    let mut lat_ns = Vec::new();
    let mut checks = Checks::default();
    let n_tenants = w.tenants.len();
    let mut offered = vec![0u64; n_tenants];
    let mut served = vec![0u64; n_tenants];
    let first_tenant = w.tenants[0].0 .0;
    for rec in &ledger.recs {
        checks.all_attempted += 1;
        if rec.outcome == Outcome::Pending {
            checks.hung_total += 1;
        } else {
            checks.all_resolved += 1;
        }
        if rec.due_ns < t1_ns || rec.due_ns >= t2_ns {
            continue;
        }
        sim.attempted += 1;
        // Gateway-fronted single-tenant runs submit as tenant 0.
        let slot = usize::from(rec.tenant.saturating_sub(first_tenant)).min(n_tenants - 1);
        offered[slot] += 1;
        match rec.outcome {
            Outcome::Ok => {
                sim.completed += 1;
                served[slot] += 1;
                let lat = rec.done_ns - rec.due_ns;
                if lat > limit_ns {
                    sim.over_limit += 1;
                }
                lat_ns.push(lat);
            }
            Outcome::Failed => sim.failed += 1,
            Outcome::Shed => sim.shed += 1,
            Outcome::Dropped => sim.dropped += 1,
            Outcome::Expired => sim.expired += 1,
            Outcome::Pending => sim.hung += 1,
        }
    }
    drop(ledger);
    checks.pools_leaking = pool_levels(&w)
        .iter()
        .zip(&levels_before)
        .filter(|(after, before)| after != before)
        .count() as u64;

    let weights: Vec<u32> = w.tenants.iter().map(|&(_, wt)| wt).collect();
    let mut gauges = Gauges {
        engine_cores: w.cluster.engine_utilization(t1, t2),
        host_cores: w.cluster.host_utilization(t1, t2),
        gateway_cores: w
            .gateway
            .as_ref()
            .map_or(0.0, |g| g.utilization_cores(t1, t2)),
        peak_pending: w.sim.profile().peak_pending as u64,
        dwrr_share_error: dwrr_share_error(&offered, &served, &weights),
        tenants: n_tenants as u64,
        payload: w.payload as u64,
        ..Gauges::default()
    };
    // The engines' latency histograms cover the whole run (they cannot be
    // differenced); bucketed, so these four are approximate by design.
    let mut tx_wait = simcore::Histogram::new();
    let mut sched = simcore::Histogram::new();
    let mut p2c = simcore::Histogram::new();
    let mut retry = simcore::Histogram::new();
    for node in &w.cluster.nodes {
        let s = node.dne.stats();
        tx_wait.merge(&s.tx_queue_wait);
        sched.merge(&s.sched_delay);
        p2c.merge(&s.post_to_completion);
        retry.merge(&s.retry_latency);
        gauges.active_qps_peak = gauges
            .active_qps_peak
            .max(w.cluster.fabric.peak_active_qp_count(node.id) as u64);
    }
    let pct = |h: &simcore::Histogram, p: f64| {
        if h.count() == 0 {
            0
        } else {
            h.percentile(p).as_nanos()
        }
    };
    gauges.tx_queue_wait_p99_ns = pct(&tx_wait, 99.0);
    gauges.sched_delay_p99_ns = pct(&sched, 99.0);
    gauges.post_to_completion_p50_ns = pct(&p2c, 50.0);
    gauges.retry_latency_p99_ns = pct(&retry, 99.0);
    spans.end(collect_span);
    spans.end(cell_span);

    CellOut {
        host: Host {
            setup_ns,
            timed_ns,
            drain_ns,
            allocs: allocs1 - allocs0,
            alloc_bytes: bytes1 - bytes0,
            setup_rss_kb,
            provision_ns,
        },
        lat_ns,
        sim,
        counts,
        gauges,
        checks,
    }
}

/// Runs every cell of `workload` and folds them into one repetition.
pub fn run(
    workload: &str,
    seed: u64,
    span: SimDuration,
    traced: bool,
    spans: &mut Spans,
    process_start: Instant,
) -> RepOut {
    let sink = TraceSink::new(traced);
    let bctx = BuildCtx {
        seed,
        expect_reqs: expected_requests(workload, span),
        tracer: sink.tracer(),
        trace_done: sink.done_hook(),
    };
    let mut host = Host::default();
    let mut sim = SimOut::default();
    let mut counts = Counts::default();
    let mut gauges = Gauges::default();
    let mut checks = Checks::default();
    let mut lat_ns: Vec<u64> = Vec::new();
    let cells = world::cells_of(workload);
    for cell in 0..cells {
        let out = run_cell(workload, cell, span, &bctx, spans, process_start);
        host.setup_ns += out.host.setup_ns;
        host.timed_ns += out.host.timed_ns;
        host.drain_ns += out.host.drain_ns;
        host.allocs += out.host.allocs;
        host.alloc_bytes += out.host.alloc_bytes;
        host.setup_rss_kb += out.host.setup_rss_kb;
        host.provision_ns += out.host.provision_ns;
        sim.span_ns += out.sim.span_ns;
        sim.attempted += out.sim.attempted;
        sim.completed += out.sim.completed;
        sim.failed += out.sim.failed;
        sim.shed += out.sim.shed;
        sim.dropped += out.sim.dropped;
        sim.expired += out.sim.expired;
        sim.hung += out.sim.hung;
        sim.over_limit += out.sim.over_limit;
        lat_ns.extend(out.lat_ns);
        counts = counts.plus(out.counts);
        // Utilisations average over cells (each cell spans the same
        // virtual time); high-water marks take the maximum.
        let g = out.gauges;
        gauges.engine_cores += g.engine_cores / cells as f64;
        gauges.host_cores += g.host_cores / cells as f64;
        gauges.gateway_cores += g.gateway_cores / cells as f64;
        gauges.peak_pending = gauges.peak_pending.max(g.peak_pending);
        gauges.active_qps_peak = gauges.active_qps_peak.max(g.active_qps_peak);
        gauges.tx_queue_wait_p99_ns = gauges.tx_queue_wait_p99_ns.max(g.tx_queue_wait_p99_ns);
        gauges.sched_delay_p99_ns = gauges.sched_delay_p99_ns.max(g.sched_delay_p99_ns);
        gauges.post_to_completion_p50_ns = gauges
            .post_to_completion_p50_ns
            .max(g.post_to_completion_p50_ns);
        gauges.retry_latency_p99_ns = gauges.retry_latency_p99_ns.max(g.retry_latency_p99_ns);
        gauges.dwrr_share_error = gauges.dwrr_share_error.max(g.dwrr_share_error);
        gauges.tenants = g.tenants;
        gauges.payload = g.payload;
        checks.hung_total += out.checks.hung_total;
        checks.pools_leaking += out.checks.pools_leaking;
        checks.all_attempted += out.checks.all_attempted;
        checks.all_resolved += out.checks.all_resolved;
    }
    lat_ns.sort_unstable();
    if !lat_ns.is_empty() {
        sim.p50_ns = percentile_sorted(&lat_ns, 50.0);
        sim.p99_ns = percentile_sorted(&lat_ns, 99.0);
        sim.max_ns = *lat_ns.last().expect("non-empty");
        sim.mean_ns = lat_ns.iter().sum::<u64>() as f64 / lat_ns.len() as f64;
    }
    RepOut {
        host,
        sim,
        counts,
        gauges,
        checks,
        trace: sink.finish(),
    }
}

/// Offered rates of the `tenants_open` ladder, requests per virtual
/// second: fixed, bracketing the frozen rate and the measured ceiling.
pub const LADDER_RPS: [f64; 5] = [80_000.0, 95_000.0, 107_000.0, 115_000.0, 122_000.0];

/// Runs `tenants_open` briefly at each ladder rate and reports the highest
/// rate that meets the latency limit at p99, loses no request and does not
/// grow its backlog over the slice. Deterministic for a seed; run once.
pub fn ladder(seed: u64, span: SimDuration) -> JsonValue {
    let limit_ns = slo_limit_us("tenants_open") * 1_000;
    let mut steps = Vec::new();
    let mut best = 0.0f64;
    for rate in LADDER_RPS {
        let sink = TraceSink::new(false);
        let bctx = BuildCtx {
            seed,
            expect_reqs: (span.as_secs_f64() * rate * 1.2) as usize + 1024,
            tracer: sink.tracer(),
            trace_done: sink.done_hook(),
        };
        let mut w = world::build_tenants(&bctx, rate);
        let t0 = w.sim.now();
        let t1 = t0 + SimDuration::from_nanos(span.as_nanos() / WARMUP_SHARE);
        let t2 = t0 + span;
        let mid = t0 + SimDuration::from_nanos(span.as_nanos() / 2);
        let start = std::mem::replace(&mut w.start, Box::new(|_, _| {}));
        start(&mut w.sim, t2);
        w.sim.run();
        let ledger = w.ledger.borrow();
        let in_flight_at = |t: u64| {
            ledger
                .recs
                .iter()
                .filter(|r| r.due_ns <= t && (r.outcome == Outcome::Pending || r.done_ns > t))
                .count() as u64
        };
        let mut lat: Vec<u64> = Vec::new();
        let mut lost = 0u64;
        for r in ledger
            .recs
            .iter()
            .filter(|r| r.due_ns >= t1.as_nanos() && r.due_ns < t2.as_nanos())
        {
            if r.outcome == Outcome::Ok {
                lat.push(r.done_ns - r.due_ns);
            } else {
                lost += 1;
            }
        }
        lat.sort_unstable();
        let p99_ns = if lat.is_empty() {
            u64::MAX
        } else {
            percentile_sorted(&lat, 99.0)
        };
        let (at_mid, at_end) = (
            in_flight_at(mid.as_nanos()),
            in_flight_at(t2.as_nanos() - 1),
        );
        let steady = at_end <= 2 * at_mid + 32;
        let ok = p99_ns <= limit_ns && lost == 0 && steady;
        if ok {
            best = best.max(rate);
        }
        steps.push(JsonValue::obj(vec![
            ("offered_rps", JsonValue::Float(rate)),
            ("p99_sim_us", JsonValue::Float(p99_ns as f64 / 1e3)),
            ("lost", JsonValue::UInt(lost)),
            ("in_flight_mid", JsonValue::UInt(at_mid)),
            ("in_flight_end", JsonValue::UInt(at_end)),
            ("meets_limit", JsonValue::Bool(ok)),
        ]));
    }
    JsonValue::obj(vec![
        ("limit_sim_us", JsonValue::UInt(limit_ns / 1_000)),
        ("rate_at_slo_rps", JsonValue::Float(best)),
        ("steps", JsonValue::Arr(steps)),
    ])
}

/// Runs three short repetitions in this one process and reports how much
/// resident memory each later one left behind after its `Sim` and
/// `Cluster` were dropped (the first also pays one-off allocator growth).
pub fn retained(workload: &str, seed: u64, span: SimDuration) -> JsonValue {
    let mut spans = Spans::new();
    let mut rss = Vec::new();
    for _ in 0..3 {
        drop(run(workload, seed, span, false, &mut spans, Instant::now()));
        rss.push(host::rss_kb());
    }
    JsonValue::obj(vec![
        (
            "retained_kb_per_rep",
            JsonValue::UInt(rss[2].saturating_sub(rss[0]) / 2),
        ),
        (
            "rss_kb_after_each",
            JsonValue::Arr(rss.iter().map(|&k| JsonValue::UInt(k)).collect()),
        ),
    ])
}

/// Generous upper estimate of requests per cell, to size the ledger.
fn expected_requests(workload: &str, span: SimDuration) -> usize {
    let per_sec = match workload {
        "boutique_gw" => 40_000.0,
        _ => 400_000.0,
    };
    (span.as_secs_f64() * per_sec) as usize + 1024
}

impl RepOut {
    /// The one-line JSON the child prints for its parent.
    pub fn to_json(&self) -> JsonValue {
        let h = &self.host;
        let s = &self.sim;
        let g = &self.gauges;
        let c = &self.checks;
        let u = JsonValue::UInt;
        let f = JsonValue::Float;
        JsonValue::obj(vec![
            (
                "host",
                JsonValue::obj(vec![
                    ("setup_ns", u(h.setup_ns)),
                    ("timed_ns", u(h.timed_ns)),
                    ("drain_ns", u(h.drain_ns)),
                    ("allocs", u(h.allocs)),
                    ("alloc_bytes", u(h.alloc_bytes)),
                    ("setup_rss_kb", u(h.setup_rss_kb)),
                    ("provision_ns", u(h.provision_ns)),
                    ("peak_rss_kb", u(host::peak_rss_kb())),
                ]),
            ),
            (
                "sim",
                JsonValue::obj(vec![
                    ("span_ns", u(s.span_ns)),
                    ("attempted", u(s.attempted)),
                    ("completed", u(s.completed)),
                    ("failed", u(s.failed)),
                    ("shed", u(s.shed)),
                    ("dropped", u(s.dropped)),
                    ("expired", u(s.expired)),
                    ("hung", u(s.hung)),
                    ("over_limit", u(s.over_limit)),
                    ("p50_ns", u(s.p50_ns)),
                    ("p99_ns", u(s.p99_ns)),
                    ("max_ns", u(s.max_ns)),
                    ("mean_ns", f(s.mean_ns)),
                ]),
            ),
            ("counts", self.counts.to_json()),
            (
                "gauges",
                JsonValue::obj(vec![
                    ("engine_cores", f(g.engine_cores)),
                    ("host_cores", f(g.host_cores)),
                    ("gateway_cores", f(g.gateway_cores)),
                    ("peak_pending", u(g.peak_pending)),
                    ("active_qps_peak", u(g.active_qps_peak)),
                    ("tx_queue_wait_p99_ns", u(g.tx_queue_wait_p99_ns)),
                    ("sched_delay_p99_ns", u(g.sched_delay_p99_ns)),
                    ("post_to_completion_p50_ns", u(g.post_to_completion_p50_ns)),
                    ("retry_latency_p99_ns", u(g.retry_latency_p99_ns)),
                    ("dwrr_share_error", f(g.dwrr_share_error)),
                    ("tenants", u(g.tenants)),
                    ("payload", u(g.payload)),
                ]),
            ),
            (
                "checks",
                JsonValue::obj(vec![
                    ("hung_total", u(c.hung_total)),
                    ("pools_leaking", u(c.pools_leaking)),
                    ("all_attempted", u(c.all_attempted)),
                    ("all_resolved", u(c.all_resolved)),
                ]),
            ),
            (
                "trace",
                self.trace
                    .as_ref()
                    .map_or(JsonValue::Null, crate::trace::TraceOut::to_json),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn water_fill_caps_the_heavy_hitter_and_serves_the_rest() {
        // Capacity 100, equal weights: demands 10 and 20 are met, the
        // 200-demand tenant gets what is left.
        let a = water_fill(&[10.0, 20.0, 200.0], &[1.0, 1.0, 1.0], 100.0);
        assert_eq!(a, vec![10.0, 20.0, 70.0]);
        // Under-loaded: everyone gets their demand.
        let a = water_fill(&[10.0, 20.0], &[1.0, 3.0], 100.0);
        assert_eq!(a, vec![10.0, 20.0]);
        // Both backlogged: split by weight.
        let a = water_fill(&[500.0, 500.0], &[1.0, 3.0], 100.0);
        assert_eq!(a, vec![25.0, 75.0]);
    }

    #[test]
    fn share_error_is_zero_when_served_is_fair() {
        assert_eq!(dwrr_share_error(&[10, 20], &[10, 20], &[1, 1]), 0.0);
        let e = dwrr_share_error(&[100, 100], &[80, 20], &[1, 1]);
        assert!((e - 0.3).abs() < 1e-12, "served 80/20 vs fair 50/50: {e}");
    }

    /// The 20 ms smoke span of every workload, in-process: each one
    /// completes requests, loses none, leaks no buffer, and repeats
    /// exactly for a seed while another seed gives other inputs.
    #[test]
    fn every_workload_runs_clean_at_the_smoke_span() {
        let span = SimDuration::from_millis(crate::spec::SMOKE_SPAN_MS);
        for w in crate::spec::WORKLOADS.iter().map(|w| w.name) {
            let run_seed = |seed| run(w, seed, span, false, &mut Spans::new(), Instant::now());
            let a = run_seed(7);
            assert!(a.sim.completed > 100, "{w}: {:?}", a.sim);
            assert_eq!(a.sim.attempted, a.sim.completed, "{w}: {:?}", a.sim);
            assert_eq!(a.checks.hung_total, 0, "{w}");
            assert_eq!(a.checks.pools_leaking, 0, "{w}");
            assert_eq!(a.checks.all_attempted, a.checks.all_resolved, "{w}");
            let again = run_seed(7);
            assert_eq!(a.sim, again.sim, "{w}: same seed, same simulated result");
            assert_eq!(a.counts, again.counts, "{w}");
            assert_ne!(a.sim, run_seed(8).sim, "{w}: the seed changes the inputs");
        }
    }

    /// Tracing observes and never steers: a traced repetition simulates
    /// the same result and sees every request's spans.
    #[test]
    fn tracing_does_not_change_the_simulated_result() {
        let span = SimDuration::from_millis(crate::spec::SMOKE_SPAN_MS);
        for w in ["echo_small", "boutique_gw"] {
            let plain = run(w, 3, span, false, &mut Spans::new(), Instant::now());
            let traced = run(w, 3, span, true, &mut Spans::new(), Instant::now());
            assert_eq!(plain.sim, traced.sim, "{w}");
            let t = traced.trace.expect("traced run reports its spans");
            assert!(t.traces >= traced.sim.completed, "{w}");
            assert_eq!(t.dropped, 0, "{w}");
            assert!(plain.trace.is_none());
        }
    }

    #[test]
    fn counts_round_trip_through_json() {
        let c = Counts {
            events: 7,
            gw_failed: 3,
            ..Counts::default()
        };
        assert_eq!(Counts::from_json(&c.to_json()), Some(c));
        assert_eq!(c.plus(c).minus(c), c);
    }
}
