//! Observability-overhead benchmark: two representative workloads run
//! under four tracing configurations, measuring the wall-clock cost the
//! tracer adds to a fixed slice of virtual time.
//!
//! Workloads:
//!
//! - `fig06_echo`: the two-node echo chain (DNE-proxied two-sided RDMA,
//!   closed loop) — the latency-critical hot path;
//! - `fig16_dag`: a four-way fan-out/fan-in DAG — the span-heavy path
//!   (every hop re-stamps a fresh payload's trace context).
//!
//! Modes:
//!
//! - `disabled`: no tracer installed — the zero-cost baseline every hot
//!   path must preserve (`Tracer::is_enabled()` is a single branch);
//! - `head_sampled`: the tracer keeps 1-in-8 traces — the ingress
//!   decides once at admission and unsampled requests cost one payload
//!   bit check per span site;
//! - `enabled`: every trace sampled, spans recorded into bounded
//!   per-node rings ([`RING_CAPACITY`] spans each, L2-resident); once a
//!   ring wraps the oldest span is evicted and counted — the production
//!   always-on configuration, and the reported `spans_dropped` makes the
//!   loss visible;
//! - `tail_sampled`: `enabled` plus the full [`obs::TracePipeline`]
//!   (per-request trace drain, tail sampler, flight-recorder ring) and
//!   the out-of-band low-priority flusher that moves closed spans to the
//!   cold tier between requests.
//!
//! Each (workload, mode) cell runs [`RUNS`] times at [`RUN_MILLIS`] ms of
//! virtual time and reports min/median/max wall time. Wall-clock noise on
//! a shared machine dwarfs the effect being measured (identical runs can
//! vary by double-digit percent), but that noise is strictly additive —
//! interference only ever slows a run down — so the minimum over rounds
//! is the best estimator of a configuration's true cost (the same
//! reasoning behind `timeit`'s "use the min"). The modes are interleaved
//! round by round to spread machine drift fairly, and each traced mode's
//! `overhead_pct` compares its minimum against the disabled minimum.
//! Virtual-time behaviour is identical across modes (tracing is off the
//! simulated clock), so wall-clock deltas isolate the tracer's CPU cost.
//!
//! Usage: `cargo bench -p bench --bench tracer_overhead [filter]` where
//! the optional filter substring selects workloads (`fig06`, `fig16`).

use membuf::tenant::TenantId;
use nadino::cluster::{Cluster, ClusterConfig};
use nadino::workload::ClosedLoop;
use runtime::ChainSpec;
use simcore::{Sim, SimDuration};
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// Tracing configuration under test.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Disabled,
    HeadSampled,
    Enabled,
    TailSampled,
}

const MODES: [Mode; 4] = [
    Mode::Disabled,
    Mode::HeadSampled,
    Mode::Enabled,
    Mode::TailSampled,
];

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Disabled => "disabled",
            Mode::HeadSampled => "head_sampled",
            Mode::Enabled => "enabled",
            Mode::TailSampled => "tail_sampled",
        }
    }
}

/// Benchmarked workload shape.
#[derive(Clone, Copy)]
enum Workload {
    Fig06Echo,
    Fig16Dag,
}

const WORKLOADS: [Workload; 2] = [Workload::Fig06Echo, Workload::Fig16Dag];

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Fig06Echo => "fig06_echo",
            Workload::Fig16Dag => "fig16_dag",
        }
    }
}

/// Virtual time simulated per run — long enough that per-span costs
/// dominate setup noise (tens of thousands of requests per run).
const RUN_MILLIS: u64 = 500;
/// Timed rounds per workload; each round runs every mode back to back so
/// machine drift hits all modes alike, and per-mode minima are compared.
const RUNS: usize = 7;
/// Closed-loop clients.
const CLIENTS: usize = 8;
/// Request payload (bytes).
const PAYLOAD: usize = 256;
/// Head-sampling rate for the `head_sampled` mode (keep 1-in-N).
const HEAD_EVERY: u64 = 8;
/// Out-of-band ring-flush period for the `tail_sampled` mode.
const FLUSH_EVERY_MICROS: u64 = 100;
/// Per-node ring capacity for the traced modes: big enough that a trace
/// pipeline draining per request never evicts, small enough that the
/// rings stay cache-resident (the capacity sweep found 1<<12 fastest
/// in situ; 1<<16 measurably worse).
const RING_CAPACITY: usize = 1 << 12;

/// Measurements from one complete run.
struct RunOut {
    wall: f64,
    completed: u64,
    spans_kept: usize,
    spans_dropped: u64,
    exemplars: u64,
}

fn run(workload: Workload, mode: Mode) -> RunOut {
    let t0 = Instant::now();
    let mut sim = Sim::new();
    let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
    let tracer = match mode {
        Mode::Disabled => obs::Tracer::disabled(),
        _ => obs::Tracer::with_capacity(RING_CAPACITY),
    };
    if mode == Mode::HeadSampled {
        tracer.set_head_sample(HEAD_EVERY);
    }
    cluster.set_tracer(&tracer);
    if mode == Mode::TailSampled {
        cluster.enable_trace_pipeline(obs::PipelineConfig::default());
    }
    let tenant = TenantId(1);
    cluster.add_tenant(&mut sim, tenant, 1).unwrap();
    // The traced modes also carry the exemplar-bearing observation sites
    // (per-node engine latency histograms), so the 15% overhead gate
    // prices histogram records + exemplar offers on the hot path too.
    let reg = matches!(mode, Mode::Enabled | Mode::TailSampled).then(|| {
        let reg = obs::MetricsRegistry::new();
        cluster.export_latency_histograms(&reg);
        reg
    });
    let cluster = Rc::new(cluster);
    let stop = sim.now() + SimDuration::from_millis(RUN_MILLIS);
    let driver = ClosedLoop::new(stop);
    match workload {
        Workload::Fig06Echo => {
            let chain = ChainSpec::new("echo", tenant, vec![1, 2, 1]);
            cluster.place(1, 0);
            cluster.place(2, 1);
            cluster.register_chain(&chain, |_| SimDuration::ZERO, driver.completion());
            if mode == Mode::TailSampled {
                cluster.start_trace_flusher(
                    &mut sim,
                    SimDuration::from_micros(FLUSH_EVERY_MICROS),
                    stop,
                );
            }
            driver.start(&mut sim, &cluster, &chain, CLIENTS, PAYLOAD);
        }
        Workload::Fig16Dag => {
            let dag = runtime::DagSpec::new("fanout", tenant, 1, &[(1, &[2, 3, 4, 5][..])]);
            cluster.place(1, 0);
            cluster.place(2, 1);
            cluster.place(3, 1);
            cluster.place(4, 0);
            cluster.place(5, 1);
            cluster.register_dag(&dag, |_| SimDuration::from_micros(5), driver.completion());
            if mode == Mode::TailSampled {
                cluster.start_trace_flusher(
                    &mut sim,
                    SimDuration::from_micros(FLUSH_EVERY_MICROS),
                    stop,
                );
            }
            let (d2, dag2, cluster) = (driver.clone(), dag.clone(), cluster.clone());
            driver.set_issuer(Rc::new(move |sim, req| {
                if !cluster.inject_dag(sim, &dag2, req) {
                    d2.shed(req);
                }
            }));
            for _ in 0..CLIENTS {
                driver.issue_one(&mut sim);
            }
        }
    }
    sim.run();
    let exemplars = reg.map_or(0, |r| {
        r.snapshot()
            .histograms_iter()
            .map(|(_, _, _, e)| e.len() as u64)
            .sum()
    });
    RunOut {
        wall: t0.elapsed().as_secs_f64(),
        completed: driver.completed(),
        spans_kept: tracer.len(),
        spans_dropped: tracer.dropped(),
        exemplars,
    }
}

struct ModeReport {
    mode: String,
    min_ms: f64,
    median_ms: f64,
    max_ms: f64,
    completed: u64,
    spans_kept: u64,
    spans_dropped: u64,
    exemplars: u64,
    overhead_pct: f64,
}

obs::impl_to_json!(ModeReport {
    mode,
    min_ms,
    median_ms,
    max_ms,
    completed,
    spans_kept,
    spans_dropped,
    exemplars,
    overhead_pct
});

struct WorkloadReport {
    workload: String,
    modes: Vec<ModeReport>,
}

obs::impl_to_json!(WorkloadReport { workload, modes });

struct Report {
    run_millis: u64,
    runs: usize,
    clients: usize,
    payload: usize,
    head_every: u64,
    ring_capacity: usize,
    notes: String,
    workloads: Vec<WorkloadReport>,
}

obs::impl_to_json!(Report {
    run_millis,
    runs,
    clients,
    payload,
    head_every,
    ring_capacity,
    notes,
    workloads
});

/// Change log carried with the numbers, so before/after comparisons for
/// layout changes survive in the committed JSON.
const NOTES: &str = "SpanRing is #[repr(align(64))] and the sharded engine's \
cross-thread hot words (published window minima, barrier counters) are \
CachePadded, so adjacent nodes' ring heads/cursor caches and adjacent \
shards' minima no longer share cache lines. Before alignment (previous \
committed run, same machine): fig06_echo enabled +8.8%, tail_sampled \
+12.2%; fig16_dag enabled +10.8%, tail_sampled +16.6%. The modes in this \
file are the after. \
Single-threaded runs see alignment only through cache-set pressure (noise \
on a shared 1-core box dwarfs it); the padding targets cross-core false \
sharing once rings are written while sharded workers run.";

fn main() {
    let filter = std::env::args().skip(1).find(|a| !a.starts_with("--"));
    let mut workloads = Vec::new();
    for wl in WORKLOADS {
        if let Some(f) = &filter {
            if !wl.name().contains(f.as_str()) {
                continue;
            }
        }
        // Warm-up: one untimed run per mode (page-in, allocator warm-up).
        for mode in MODES {
            black_box(run(wl, mode));
        }
        // Interleaved rounds with a rotated starting mode: machine-load
        // phases often last about as long as one round, so a fixed order
        // would hand each mode a systematically different slice of the
        // drift. Rotation spreads the phases evenly across modes.
        let mut walls: Vec<Vec<f64>> = vec![Vec::with_capacity(RUNS); MODES.len()];
        let mut last: Vec<Option<RunOut>> = (0..MODES.len()).map(|_| None).collect();
        for round in 0..RUNS {
            for i in 0..MODES.len() {
                let m = (round + i) % MODES.len();
                let out = run(wl, MODES[m]);
                walls[m].push(out.wall);
                last[m] = Some(out);
            }
        }
        let base_min = walls[0].iter().copied().fold(f64::INFINITY, f64::min);
        let mut modes = Vec::new();
        for (m, mode) in MODES.iter().enumerate() {
            let out = last[m].take().expect("at least one round ran");
            let mut sorted = walls[m].clone();
            sorted.sort_by(|a, b| a.total_cmp(b));
            // Noise is additive, so compare minima (see module docs).
            let overhead_pct = (sorted[0] / base_min - 1.0) * 100.0;
            let (completed, spans_kept, spans_dropped) =
                (out.completed, out.spans_kept as u64, out.spans_dropped);
            println!(
                "tracer_overhead/{}/{:<12} min {:>7.1} ms  median {:>7.1} ms  max {:>7.1} ms  \
                 ({completed} reqs, {overhead_pct:+.1}% vs disabled)",
                wl.name(),
                mode.name(),
                sorted[0] * 1e3,
                sorted[sorted.len() / 2] * 1e3,
                sorted[sorted.len() - 1] * 1e3,
            );
            modes.push(ModeReport {
                mode: mode.name().to_string(),
                min_ms: sorted[0] * 1e3,
                median_ms: sorted[sorted.len() / 2] * 1e3,
                max_ms: sorted[sorted.len() - 1] * 1e3,
                completed,
                spans_kept,
                spans_dropped,
                exemplars: out.exemplars,
                overhead_pct,
            });
        }
        workloads.push(WorkloadReport {
            workload: wl.name().to_string(),
            modes,
        });
    }
    if workloads.is_empty() {
        return;
    }
    let report = Report {
        run_millis: RUN_MILLIS,
        runs: RUNS,
        clients: CLIENTS,
        payload: PAYLOAD,
        head_every: HEAD_EVERY,
        ring_capacity: RING_CAPACITY,
        notes: NOTES.to_string(),
        workloads,
    };
    let path =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/BENCH_obs.json");
    match nadino::report::write_json(&path, &report) {
        Ok(()) => println!("[wrote {}]", path.display()),
        Err(e) => eprintln!("[failed to write {}: {e}]", path.display()),
    }
}
