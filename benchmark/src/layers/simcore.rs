//! `simcore`: schedule + dispatch of empty events, and schedule + cancel,
//! with the workload's observed number of events resident in the wheel.

use std::hint::black_box;

use ::simcore::{Sim, SimDuration};

use super::{Bench, Params};

const OPS: u64 = 65_536;

/// A simulator whose wheel already holds `pending` far-future events.
fn loaded_sim(pending: usize) -> Sim {
    let mut sim = Sim::new();
    for i in 0..pending {
        sim.schedule_after(SimDuration::from_secs(3600 + i as u64), |_| {});
    }
    sim
}

pub fn dispatch_ns(p: &Params, b: &mut Bench) -> f64 {
    let mut sim = loaded_sim(p.pending);
    b.run("simcore.dispatch", OPS, || {
        // Events land a microsecond or so ahead, as data-plane stages do.
        for round in 0..OPS / 16 {
            for k in 0..16u64 {
                let tag = black_box(round ^ k);
                sim.schedule_after(SimDuration::from_nanos(800 + k * 137), move |_| {
                    black_box(tag);
                });
            }
            sim.run_for(SimDuration::from_micros(4));
        }
    })
}

pub fn cancel_ns(p: &Params, b: &mut Bench) -> f64 {
    let mut sim = loaded_sim(p.pending);
    b.run("simcore.cancel", OPS, || {
        for k in 0..OPS {
            let h = sim.schedule_after(SimDuration::from_micros(10 + k % 64), |_| {});
            black_box(sim.cancel(h));
        }
    })
}
