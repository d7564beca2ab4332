//! Differential property test: the timing-wheel engine must reproduce the
//! reference binary-heap engine bit for bit.
//!
//! Randomized scripts — random times (near ticks, wheel levels, far-heap
//! horizons), deliberate ties, schedule-from-within-event, cancels of
//! live, fired and doubly-cancelled handles, and `run_until` in random
//! chunks — run through both `simcore::Sim` and
//! `support::baseline::BaselineSim`. Execution order, cancel outcomes and
//! final profile counts must match exactly.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use simcore::{Sim, SimRng, SimTime};

#[path = "support/baseline.rs"]
mod baseline;
use baseline::BaselineSim;

/// What one event does when it fires: schedule children, cancel victims.
#[derive(Debug, Default, Clone)]
struct Script {
    /// `(delay_ns, child_id)` pairs scheduled from within the event.
    children: Vec<(u64, u32)>,
    /// Event ids whose handles this event tries to cancel.
    cancels: Vec<u32>,
}

/// A full randomized scenario.
#[derive(Debug)]
struct Plan {
    /// `(at_ns, id)` root events scheduled up front.
    roots: Vec<(u64, u32)>,
    /// Per-id script (index = event id).
    scripts: Vec<Script>,
    /// Ids cancelled from outside, before the run starts.
    pre_cancels: Vec<u32>,
    /// `run_until` deadlines (ns) applied in order before the final `run`.
    chunks: Vec<u64>,
}

/// Draws a time that exercises a specific region of the wheel.
fn random_time(rng: &mut SimRng) -> u64 {
    match rng.gen_range(10) {
        // Dense near-future: lots of tick collisions (64 ns ticks).
        0..=3 => rng.gen_range(4_000),
        // Level 0 span.
        4..=5 => rng.gen_range(16_000),
        // Levels 1-2 (µs..ms).
        6..=7 => 16_000 + rng.gen_range(50_000_000),
        // Levels 3-4 (ms..minutes).
        8 => 50_000_000 + rng.gen_range(200_000_000_000),
        // Beyond the 2^32-tick horizon: the far heap (> ~275 s).
        _ => 300_000_000_000 + rng.gen_range(1_000_000_000_000),
    }
}

fn random_delay(rng: &mut SimRng) -> u64 {
    match rng.gen_range(8) {
        0 => 0, // same instant, later seq
        1..=3 => rng.gen_range(2_000),
        4..=5 => rng.gen_range(1_000_000),
        6 => rng.gen_range(10_000_000_000),
        _ => 400_000_000_000, // into the far heap
    }
}

fn make_plan(seed: u64) -> Plan {
    let mut rng = SimRng::new(seed);
    let n_roots = 20 + rng.gen_range(30) as usize;
    let total = n_roots + 150;
    let mut roots = Vec::new();
    for id in 0..n_roots as u32 {
        let mut at = random_time(&mut rng);
        if rng.gen_range(4) == 0 && !roots.is_empty() {
            // Deliberate exact-time tie with an earlier root.
            let (prev, _): (u64, u32) = roots[rng.gen_range(roots.len() as u64) as usize];
            at = prev;
        }
        roots.push((at, id));
    }
    let mut scripts = vec![Script::default(); total];
    let mut next_id = n_roots as u32;
    for script in scripts.iter_mut() {
        if next_id as usize >= total {
            break;
        }
        let n_children = match rng.gen_range(10) {
            0..=4 => 0,
            5..=7 => 1,
            8 => 2,
            _ => 3,
        };
        for _ in 0..n_children {
            if (next_id as usize) < total {
                script.children.push((random_delay(&mut rng), next_id));
                next_id += 1;
            }
        }
        if rng.gen_range(3) == 0 {
            // Cancel a random id: may be pending, already fired, a
            // never-scheduled child, or already cancelled — all legal.
            script.cancels.push(rng.gen_range(total as u64) as u32);
        }
    }
    let pre_cancels = (0..rng.gen_range(6))
        .map(|_| rng.gen_range(n_roots as u64) as u32)
        .collect();
    let mut chunks: Vec<u64> = (0..rng.gen_range(4))
        .map(|_| random_time(&mut rng))
        .collect();
    chunks.sort_unstable();
    Plan {
        roots,
        scripts,
        pre_cancels,
        chunks,
    }
}

/// The trace both engines must produce identically: fired event ids and
/// cancel outcomes, in order.
type Trace = Rc<RefCell<Vec<i64>>>;

/// Minimal façade over the two engines so one driver exercises both.
trait Engine: Sized + 'static {
    type Handle: Copy;
    fn schedule(&mut self, at: SimTime, f: Box<dyn FnOnce(&mut Self)>) -> Self::Handle;
    /// Relative scheduling: `now + delay`. "Now" during an event is the
    /// event's own timestamp in both engines.
    fn schedule_after_ns(&mut self, delay: u64, f: Box<dyn FnOnce(&mut Self)>) -> Self::Handle;
    fn cancel_handle(&mut self, h: Self::Handle) -> bool;
    fn run_until_ns(&mut self, deadline: u64);
    fn run_all(&mut self);
    /// `(scheduled, executed, cancelled, pending)`.
    fn counts(&self) -> (u64, u64, u64, usize);
}

impl Engine for Sim {
    type Handle = simcore::TimerHandle;
    fn schedule(&mut self, at: SimTime, f: Box<dyn FnOnce(&mut Self)>) -> Self::Handle {
        self.schedule_at(at, f)
    }
    fn schedule_after_ns(&mut self, delay: u64, f: Box<dyn FnOnce(&mut Self)>) -> Self::Handle {
        let at = self.now() + simcore::SimDuration::from_nanos(delay);
        self.schedule_at(at, f)
    }
    fn cancel_handle(&mut self, h: Self::Handle) -> bool {
        self.cancel(h)
    }
    fn run_until_ns(&mut self, deadline: u64) {
        self.run_until(SimTime::from_nanos(deadline));
    }
    fn run_all(&mut self) {
        self.run();
    }
    fn counts(&self) -> (u64, u64, u64, usize) {
        let p = self.profile();
        (
            p.scheduled_events,
            p.executed_events,
            p.cancelled_events,
            p.pending_events,
        )
    }
}

impl Engine for BaselineSim {
    type Handle = u64;
    fn schedule(&mut self, at: SimTime, f: Box<dyn FnOnce(&mut Self)>) -> Self::Handle {
        self.schedule_at(at, f)
    }
    fn schedule_after_ns(&mut self, delay: u64, f: Box<dyn FnOnce(&mut Self)>) -> Self::Handle {
        let at = self.now() + simcore::SimDuration::from_nanos(delay);
        self.schedule_at(at, f)
    }
    fn cancel_handle(&mut self, h: Self::Handle) -> bool {
        self.cancel(h)
    }
    fn run_until_ns(&mut self, deadline: u64) {
        self.run_until(SimTime::from_nanos(deadline));
    }
    fn run_all(&mut self) {
        self.run();
    }
    fn counts(&self) -> (u64, u64, u64, usize) {
        let p = self.profile();
        (
            p.scheduled_events,
            p.executed_events,
            p.cancelled_events,
            p.pending_events,
        )
    }
}

struct DriveState<E: Engine> {
    plan: Rc<Plan>,
    handles: RefCell<HashMap<u32, E::Handle>>,
    trace: Trace,
}

fn fire<E: Engine>(eng: &mut E, st: &Rc<DriveState<E>>, id: u32) {
    st.trace.borrow_mut().push(id as i64);
    let script = st.plan.scripts[id as usize].clone();
    for (delay, child) in script.children {
        let st2 = Rc::clone(st);
        let h = eng.schedule_after_ns(delay, Box::new(move |e: &mut E| fire(e, &st2, child)));
        st.handles.borrow_mut().insert(child, h);
    }
    for victim in script.cancels {
        let h = st.handles.borrow().get(&victim).copied();
        let outcome = match h {
            Some(h) => eng.cancel_handle(h),
            None => false,
        };
        // Cancel outcomes are part of the observable behaviour.
        st.trace
            .borrow_mut()
            .push(-(victim as i64 + 1) * if outcome { 2 } else { 3 });
    }
}

fn drive<E: Engine>(mut eng: E, plan: Rc<Plan>) -> (Vec<i64>, (u64, u64, u64, usize)) {
    let st = Rc::new(DriveState::<E> {
        plan: Rc::clone(&plan),
        handles: RefCell::new(HashMap::new()),
        trace: Rc::new(RefCell::new(Vec::new())),
    });
    for &(at, id) in &plan.roots {
        let st2 = Rc::clone(&st);
        let h = eng.schedule(
            SimTime::from_nanos(at),
            Box::new(move |e: &mut E| fire(e, &st2, id)),
        );
        st.handles.borrow_mut().insert(id, h);
    }
    for &victim in &plan.pre_cancels {
        let h = st.handles.borrow().get(&victim).copied();
        let outcome = match h {
            Some(h) => eng.cancel_handle(h),
            None => false,
        };
        st.trace
            .borrow_mut()
            .push(-(victim as i64 + 1) * if outcome { 2 } else { 3 });
    }
    for &deadline in &plan.chunks {
        eng.run_until_ns(deadline);
    }
    eng.run_all();
    let trace = st.trace.borrow().clone();
    (trace, eng.counts())
}

#[test]
fn wheel_matches_binary_heap_reference_on_randomized_schedules() {
    for seed in 0..60 {
        let plan = Rc::new(make_plan(0x5eed_0000 + seed));
        let (trace_w, counts_w) = drive(Sim::new(), Rc::clone(&plan));
        let (trace_b, counts_b) = drive(BaselineSim::new(), Rc::clone(&plan));
        assert_eq!(
            trace_w, trace_b,
            "execution/cancel trace diverged for seed {seed}"
        );
        assert_eq!(
            counts_w, counts_b,
            "profile counts diverged for seed {seed}"
        );
        assert_eq!(counts_w.3, 0, "queue drained, seed {seed}");
    }
}

#[test]
fn wheel_matches_reference_across_coarse_tick_granularities() {
    // Coarser buckets change the wheel's internal placement completely;
    // the observable order must not move.
    for &shift in &[0u32, 6, 12, 20] {
        for seed in 0..10u64 {
            let plan = Rc::new(make_plan(0xc0a5_0000 + seed));
            let (trace_w, counts_w) = drive(Sim::with_tick_shift(shift), Rc::clone(&plan));
            let (trace_b, counts_b) = drive(BaselineSim::new(), Rc::clone(&plan));
            assert_eq!(
                trace_w, trace_b,
                "diverged at tick_shift {shift} seed {seed}"
            );
            assert_eq!(counts_w, counts_b);
        }
    }
}

// The oracle's own sanity checks, so a differential failure points at the
// wheel and not at the reference.

#[test]
fn oracle_orders_and_cancels_like_the_real_engine() {
    let mut sim = BaselineSim::new();
    let log = Rc::new(RefCell::new(Vec::new()));
    let mut handles = Vec::new();
    for &t in &[30u64, 10, 20, 10] {
        let log = log.clone();
        handles.push(sim.schedule_at(SimTime::from_nanos(t), move |_| log.borrow_mut().push(t)));
    }
    assert!(sim.cancel(handles[2]));
    assert!(!sim.cancel(handles[2]));
    sim.run();
    assert_eq!(*log.borrow(), vec![10, 10, 30]);
    let p = sim.profile();
    assert_eq!(p.scheduled_events, 4);
    assert_eq!(p.executed_events, 3);
    assert_eq!(p.cancelled_events, 1);
    assert!(!sim.cancel(handles[0]), "fired handles are stale");
}

#[test]
fn oracle_run_until_matches_engine_semantics() {
    let mut sim = BaselineSim::new();
    let hits = Rc::new(RefCell::new(0u32));
    for t in [5u64, 25] {
        let hits = hits.clone();
        sim.schedule_at(SimTime::from_nanos(t), move |_| *hits.borrow_mut() += 1);
    }
    sim.run_until(SimTime::from_nanos(20));
    assert_eq!(*hits.borrow(), 1);
    assert_eq!(sim.now(), SimTime::from_nanos(20));
    assert_eq!(sim.pending_events(), 1);
}
