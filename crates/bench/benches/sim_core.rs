//! Event-core benchmarks: timing-wheel `Sim` vs the reference binary-heap
//! engine (`simcore`'s test-support `BaselineSim`, included by path).
//!
//! Three workloads, each a complete schedule-and-drain mini-simulation:
//!
//! - `near_burst`: dense near-future events (the DNE completion-storm
//!   shape) — schedule/pop throughput where the wheel's L0 slots and the
//!   heap's log(n) differ most;
//! - `mixed_horizons`: times spread from nanoseconds to beyond the wheel
//!   horizon (retry/keep-warm timer shape) — the ISSUE's acceptance
//!   workload;
//! - `cancel_heavy`: half the scheduled timers are cancelled before they
//!   fire (connection-reaper shape) — lazy descheduling vs tombstones.
//!
//! Besides the usual ns/iter report, the run writes
//! `results/BENCH_simcore.json` with events/sec for both engines and the
//! wheel/heap speedup per workload.

use std::hint::black_box;
use std::rc::Rc;

use bench::harness::{Bench, BenchResult};
use simcore::{Sim, SimRng, SimTime};

// The bench drives only schedule/cancel/run of the differential oracle.
#[allow(dead_code)]
#[path = "../../simcore/tests/support/baseline.rs"]
mod baseline;
use baseline::BaselineSim;

/// Events per workload iteration.
const EVENTS: usize = 4096;

fn near_times(rng: &mut SimRng) -> Vec<u64> {
    (0..EVENTS).map(|_| rng.gen_range(40_000)).collect()
}

fn mixed_times(rng: &mut SimRng) -> Vec<u64> {
    (0..EVENTS)
        .map(|_| match rng.gen_range(10) {
            0..=4 => rng.gen_range(16_000),
            5..=6 => 16_000 + rng.gen_range(50_000_000),
            7..=8 => 50_000_000 + rng.gen_range(200_000_000_000),
            _ => 300_000_000_000 + rng.gen_range(1_000_000_000_000),
        })
        .collect()
}

fn run_wheel(times: &[u64], cancel_every: usize) {
    let mut sim = Sim::new();
    let hits = Rc::new(std::cell::Cell::new(0u64));
    let mut handles = Vec::with_capacity(times.len());
    for &t in times {
        let h = hits.clone();
        handles.push(sim.schedule_at(SimTime::from_nanos(t), move |_| h.set(h.get() + 1)));
    }
    if cancel_every > 0 {
        for h in handles.into_iter().step_by(cancel_every) {
            sim.cancel(h);
        }
    }
    sim.run();
    black_box(hits.get());
}

fn run_heap(times: &[u64], cancel_every: usize) {
    let mut sim = BaselineSim::new();
    let hits = Rc::new(std::cell::Cell::new(0u64));
    let mut handles = Vec::with_capacity(times.len());
    for &t in times {
        let h = hits.clone();
        handles.push(sim.schedule_at(SimTime::from_nanos(t), move |_| h.set(h.get() + 1)));
    }
    if cancel_every > 0 {
        for h in handles.into_iter().step_by(cancel_every) {
            sim.cancel(h);
        }
    }
    sim.run();
    black_box(hits.get());
}

struct WorkloadReport {
    workload: String,
    events: usize,
    heap_events_per_sec: f64,
    wheel_events_per_sec: f64,
    speedup: f64,
}

obs::impl_to_json!(WorkloadReport {
    workload,
    events,
    heap_events_per_sec,
    wheel_events_per_sec,
    speedup
});

struct Report {
    workloads: Vec<WorkloadReport>,
}

obs::impl_to_json!(Report { workloads });

fn events_per_sec(r: &BenchResult) -> f64 {
    if r.median_ns > 0.0 {
        EVENTS as f64 * 1e9 / r.median_ns
    } else {
        f64::INFINITY
    }
}

fn main() {
    let mut b = Bench::from_args();
    b.group("sim_core");
    // One fixed schedule per workload: both engines drain the exact same
    // event sequence.
    let mut rng = SimRng::new(0xbe7c);
    let near = near_times(&mut rng);
    let mixed = mixed_times(&mut rng);

    b.bench_function("heap/near_burst", || run_heap(&near, 0));
    b.bench_function("wheel/near_burst", || run_wheel(&near, 0));
    b.bench_function("heap/mixed_horizons", || run_heap(&mixed, 0));
    b.bench_function("wheel/mixed_horizons", || run_wheel(&mixed, 0));
    b.bench_function("heap/cancel_heavy", || run_heap(&mixed, 2));
    b.bench_function("wheel/cancel_heavy", || run_wheel(&mixed, 2));

    let find = |name: &str| b.results().iter().find(|r| r.name == name).cloned();
    let mut workloads = Vec::new();
    for w in ["near_burst", "mixed_horizons", "cancel_heavy"] {
        if let (Some(h), Some(n)) = (find(&format!("heap/{w}")), find(&format!("wheel/{w}"))) {
            let heap = events_per_sec(&h);
            let wheel = events_per_sec(&n);
            println!(
                "sim_core/{w}: heap {heap:.0} ev/s, wheel {wheel:.0} ev/s ({:.2}x)",
                wheel / heap
            );
            workloads.push(WorkloadReport {
                workload: w.to_string(),
                events: EVENTS,
                heap_events_per_sec: heap,
                wheel_events_per_sec: wheel,
                speedup: wheel / heap,
            });
        }
    }
    if !workloads.is_empty() {
        let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../results/BENCH_simcore.json");
        match nadino::report::write_json(&path, &Report { workloads }) {
            Ok(()) => println!("[wrote {}]", path.display()),
            Err(e) => eprintln!("[failed to write {}: {e}]", path.display()),
        }
    }
}
