//! The discrete-event engine.
//!
//! [`Sim`] owns the virtual clock and a hierarchical timing wheel of
//! scheduled events (`crate::wheel`): scheduling and popping are O(1)
//! amortized instead of the O(log n) of a global binary heap, and event
//! closures are stored inline in a reusable slab ([`crate::event`]) so the
//! steady-state hot path does zero allocations. Components are usually
//! shared via `Rc<RefCell<_>>` and captured by the closures they schedule.
//! Ties in time are broken by a monotonically increasing sequence number,
//! so execution order is fully deterministic — and bit-for-bit identical
//! to the reference binary-heap engine (`tests/support/baseline.rs`), the
//! oracle of `tests/wheel_differential.rs`.
//!
//! Every `schedule_*` call returns a [`TimerHandle`]; [`Sim::cancel`]
//! deschedules the event (dropping its closure immediately) instead of
//! letting a dead closure fire, which is what the DNE's retry back-off
//! timers want.

pub use crate::wheel::{TimerHandle, DEFAULT_TICK_SHIFT};

use crate::time::{SimDuration, SimTime};
use crate::wheel::TimingWheel;

/// A deterministic single-threaded discrete-event simulator.
///
/// # Examples
///
/// ```
/// use simcore::{Sim, SimDuration};
/// use std::cell::Cell;
/// use std::rc::Rc;
///
/// let mut sim = Sim::new();
/// let hits = Rc::new(Cell::new(0));
/// let h = hits.clone();
/// sim.schedule_after(SimDuration::from_micros(5), move |_| h.set(h.get() + 1));
/// sim.run();
/// assert_eq!(hits.get(), 1);
/// assert_eq!(sim.now().as_nanos(), 5_000);
/// ```
///
/// Cancellation:
///
/// ```
/// use simcore::{Sim, SimDuration};
///
/// let mut sim = Sim::new();
/// let h = sim.schedule_after(SimDuration::from_micros(1), |_| panic!("descheduled"));
/// assert!(sim.cancel(h));
/// sim.run(); // nothing fires
/// assert_eq!(sim.profile().cancelled_events, 1);
/// ```
pub struct Sim {
    now: SimTime,
    seq: u64,
    /// `pub(crate)` for [`crate::wheel::Due::run`], which returns the
    /// running event's node once its handler is back.
    pub(crate) wheel: TimingWheel,
    executed: u64,
    cancelled: u64,
    boxed: u64,
    peak_pending: usize,
}

/// Engine-level profile: how much work the simulation itself did.
///
/// `scheduled_events` / `executed_events` / `cancelled_events` count
/// closures pushed, popped and descheduled; `peak_pending` is the event
/// queue's high-water mark (a proxy for model fan-out).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimProfile {
    pub scheduled_events: u64,
    pub executed_events: u64,
    pub cancelled_events: u64,
    /// Scheduled events whose closure exceeded the inline capture size and
    /// was heap-boxed; zero in steady state on the request path.
    pub boxed_events: u64,
    pub pending_events: usize,
    pub peak_pending: usize,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Creates an empty simulator at time zero with the default 64 ns
    /// wheel tick.
    pub fn new() -> Self {
        Sim::with_tick_shift(DEFAULT_TICK_SHIFT)
    }

    /// Creates an empty simulator with a wheel tick of 2^`tick_shift` ns.
    ///
    /// The tick only affects bucketing performance, never ordering:
    /// same-tick events still execute in exact `(time, seq)` order. Pick a
    /// coarser tick for workloads whose events cluster at millisecond
    /// scales, a finer one for nanosecond-dense traffic.
    ///
    /// # Panics
    ///
    /// Panics if `tick_shift > 26` (ticks above ~67 ms defeat the wheel).
    pub fn with_tick_shift(tick_shift: u32) -> Self {
        Sim {
            now: SimTime::ZERO,
            seq: 0,
            wheel: TimingWheel::new(tick_shift),
            executed: 0,
            cancelled: 0,
            boxed: 0,
            peak_pending: 0,
        }
    }

    /// Returns the current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Returns the total number of events executed so far.
    pub fn executed_events(&self) -> u64 {
        self.executed
    }

    /// Returns the number of events currently pending.
    pub fn pending_events(&self) -> usize {
        self.wheel.live()
    }

    /// Schedules `f` to run at absolute instant `at`, returning a handle
    /// that can later [`Sim::cancel`] it.
    ///
    /// Scheduling in the past is a logic error; the event is clamped to run
    /// "now" (still after all currently ready events) and a debug assertion
    /// fires in test builds.
    pub fn schedule_at<F: FnOnce(&mut Sim) + 'static>(&mut self, at: SimTime, f: F) -> TimerHandle {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < {:?}",
            self.now
        );
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        let handle = self.wheel.insert(at, seq, f, &mut self.boxed);
        self.peak_pending = self.peak_pending.max(self.wheel.live());
        handle
    }

    /// Schedules `f` to run `delay` after the current instant.
    pub fn schedule_after<F: FnOnce(&mut Sim) + 'static>(
        &mut self,
        delay: SimDuration,
        f: F,
    ) -> TimerHandle {
        self.schedule_at(self.now + delay, f)
    }

    /// Runs `f` every `interval`, first at `now + interval`. The firing at
    /// or after `until` is the last: nothing is left scheduled behind it,
    /// so a run that drains the event queue ends when the work does, not
    /// one `interval` later.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero (the simulation would never advance).
    pub fn every_until<F: FnMut(&mut Sim) + 'static>(
        &mut self,
        interval: SimDuration,
        until: SimTime,
        mut f: F,
    ) {
        assert!(
            interval > SimDuration::ZERO,
            "tick interval must be positive"
        );
        self.schedule_after(interval, move |sim| {
            f(sim);
            if sim.now() < until {
                sim.every_until(interval, until, f);
            }
        });
    }

    /// Deschedules a pending event, dropping its closure immediately.
    ///
    /// Returns `true` if the event was pending; `false` for stale handles
    /// (the event already fired or was already cancelled), which is always
    /// safe.
    pub fn cancel(&mut self, handle: TimerHandle) -> bool {
        if self.wheel.cancel(handle) {
            self.cancelled += 1;
            true
        } else {
            false
        }
    }

    /// Returns `true` while the event behind `handle` is still pending.
    pub fn is_scheduled(&self, handle: TimerHandle) -> bool {
        self.wheel.is_pending(handle)
    }

    /// Returns the engine profile accumulated so far.
    pub fn profile(&self) -> SimProfile {
        SimProfile {
            scheduled_events: self.seq,
            executed_events: self.executed,
            cancelled_events: self.cancelled,
            boxed_events: self.boxed,
            pending_events: self.wheel.live(),
            peak_pending: self.peak_pending,
        }
    }

    /// Executes the single next event, returning `false` if none remain.
    pub fn step(&mut self) -> bool {
        match self.wheel.pop_due(u64::MAX, SimTime::MAX) {
            Some(due) => {
                debug_assert!(due.at >= self.now);
                self.now = due.at;
                self.executed += 1;
                due.run(self);
                true
            }
            None => false,
        }
    }

    /// Runs until the event queue drains.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs events with `at <= deadline`, then advances the clock to
    /// `deadline` (even if the queue drained earlier).
    ///
    /// Events scheduled beyond the deadline remain pending.
    pub fn run_until(&mut self, deadline: SimTime) {
        let limit_tick = self.wheel.tick_of(deadline);
        while let Some(due) = self.wheel.pop_due(limit_tick, deadline) {
            self.now = due.at;
            self.executed += 1;
            due.run(self);
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Runs for `span` of virtual time from the current instant.
    pub fn run_for(&mut self, span: SimDuration) {
        let deadline = self.now + span;
        self.run_until(deadline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    #[test]
    fn events_run_in_time_order() {
        let mut sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for &t in &[30u64, 10, 20] {
            let log = log.clone();
            sim.schedule_at(SimTime::from_nanos(t), move |_| log.borrow_mut().push(t));
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![10, 20, 30]);
        assert_eq!(sim.now(), SimTime::from_nanos(30));
    }

    #[test]
    fn same_instant_events_run_fifo() {
        let mut sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..5 {
            let log = log.clone();
            sim.schedule_at(SimTime::from_nanos(7), move |_| log.borrow_mut().push(i));
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn events_can_schedule_more_events() {
        let mut sim = Sim::new();
        let count = Rc::new(RefCell::new(0u32));
        fn tick(sim: &mut Sim, count: Rc<RefCell<u32>>) {
            *count.borrow_mut() += 1;
            if *count.borrow() < 10 {
                sim.schedule_after(SimDuration::from_nanos(1), move |s| tick(s, count));
            }
        }
        let c = count.clone();
        sim.schedule_at(sim.now(), move |s| tick(s, c));
        sim.run();
        assert_eq!(*count.borrow(), 10);
        assert_eq!(sim.now(), SimTime::from_nanos(9));
        assert_eq!(sim.executed_events(), 10);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Sim::new();
        let hits = Rc::new(RefCell::new(0u32));
        for t in [5u64, 15, 25] {
            let hits = hits.clone();
            sim.schedule_at(SimTime::from_nanos(t), move |_| *hits.borrow_mut() += 1);
        }
        sim.run_until(SimTime::from_nanos(20));
        assert_eq!(*hits.borrow(), 2);
        assert_eq!(sim.now(), SimTime::from_nanos(20));
        assert_eq!(sim.pending_events(), 1);
        sim.run();
        assert_eq!(*hits.borrow(), 3);
    }

    #[test]
    fn run_until_advances_clock_on_empty_queue() {
        let mut sim = Sim::new();
        sim.run_until(SimTime::from_nanos(1_000));
        assert_eq!(sim.now(), SimTime::from_nanos(1_000));
    }

    #[test]
    fn run_for_is_relative() {
        let mut sim = Sim::new();
        sim.run_for(SimDuration::from_micros(1));
        sim.run_for(SimDuration::from_micros(1));
        assert_eq!(sim.now(), SimTime::from_nanos(2_000));
    }

    #[test]
    fn profile_tracks_events_and_depth() {
        let mut sim = Sim::new();
        for t in [5u64, 15, 25] {
            sim.schedule_at(SimTime::from_nanos(t), |_| {});
        }
        assert_eq!(sim.profile().peak_pending, 3);
        sim.run_until(SimTime::from_nanos(20));
        let p = sim.profile();
        assert_eq!(p.scheduled_events, 3);
        assert_eq!(p.executed_events, 2);
        assert_eq!(p.pending_events, 1);
    }

    #[test]
    fn cancelled_events_never_fire() {
        let mut sim = Sim::new();
        let hits = Rc::new(RefCell::new(0u32));
        let h1 = {
            let hits = hits.clone();
            sim.schedule_at(SimTime::from_nanos(10), move |_| *hits.borrow_mut() += 1)
        };
        let _h2 = {
            let hits = hits.clone();
            sim.schedule_at(SimTime::from_nanos(20), move |_| *hits.borrow_mut() += 10)
        };
        assert!(sim.is_scheduled(h1));
        assert!(sim.cancel(h1));
        assert!(!sim.is_scheduled(h1));
        assert!(!sim.cancel(h1), "double-cancel is a no-op");
        sim.run();
        assert_eq!(*hits.borrow(), 10);
        let p = sim.profile();
        assert_eq!(p.cancelled_events, 1);
        assert_eq!(p.executed_events, 1);
        assert_eq!(p.scheduled_events, 2);
    }

    #[test]
    fn cancel_from_within_an_event() {
        let mut sim = Sim::new();
        let hits = Rc::new(RefCell::new(0u32));
        let victim = {
            let hits = hits.clone();
            sim.schedule_at(SimTime::from_nanos(50), move |_| *hits.borrow_mut() += 1)
        };
        sim.schedule_at(SimTime::from_nanos(10), move |sim| {
            assert!(sim.cancel(victim));
        });
        sim.run();
        assert_eq!(*hits.borrow(), 0);
    }

    #[test]
    fn a_running_event_is_no_longer_pending() {
        use std::cell::Cell;
        let mut sim = Sim::new();
        let own = Rc::new(Cell::new(None::<TimerHandle>));
        let seen = Rc::new(Cell::new(None));
        let handle = {
            let (own, seen) = (own.clone(), seen.clone());
            sim.schedule_at(SimTime::from_nanos(10), move |sim| {
                let h = own.get().expect("handle published");
                let scheduled = sim.is_scheduled(h);
                let cancelled = sim.cancel(h);
                seen.set(Some((scheduled, cancelled, sim.pending_events())));
            })
        };
        own.set(Some(handle));
        sim.schedule_at(SimTime::from_nanos(20), |_| {});
        assert!(sim.is_scheduled(handle));
        assert_eq!(sim.pending_events(), 2);
        sim.run();
        // Stale from the moment it was popped; only the later event counted.
        assert_eq!(seen.get(), Some((false, false, 1)));
        assert_eq!(sim.profile().cancelled_events, 0);
        assert_eq!(sim.executed_events(), 2);
    }

    #[test]
    fn a_handler_may_outgrow_the_slab_it_runs_from() {
        // The first event runs from node 0 of a one-node slab and schedules
        // enough events to reallocate the node vector several times over.
        const FAN_OUT: u64 = 1_000;
        let mut sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        sim.schedule_at(SimTime::from_nanos(5), move |sim| {
            for i in 0..FAN_OUT {
                let l = l.clone();
                // Times repeat, so ties fall back on scheduling order.
                let at = SimTime::from_nanos(5 + (i * 7) % 50);
                sim.schedule_at(at, move |sim| l.borrow_mut().push((sim.now(), i)));
            }
            // The captures are still intact after the slab moved.
            l.borrow_mut().push((sim.now(), u64::MAX));
        });
        sim.run();
        let log = log.borrow();
        assert_eq!(log[0], (SimTime::from_nanos(5), u64::MAX));
        assert_eq!(log.len() as u64, FAN_OUT + 1);
        let mut want: Vec<(SimTime, u64)> = (0..FAN_OUT)
            .map(|i| (SimTime::from_nanos(5 + (i * 7) % 50), i))
            .collect();
        want.sort();
        assert_eq!(log[1..], want[..], "(time, seq) order");
        assert_eq!(sim.pending_events(), 0);
    }

    #[test]
    fn a_panicking_handler_drops_its_captures_once_and_spares_the_queue() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut sim = Sim::new();
        let token = Rc::new(());
        let hits = Rc::new(RefCell::new(0u32));
        let t = token.clone();
        sim.schedule_at(SimTime::from_nanos(10), move |_| {
            let _held = t;
            panic!("handler failed");
        });
        let h = hits.clone();
        sim.schedule_at(SimTime::from_nanos(20), move |_| *h.borrow_mut() += 1);
        assert_eq!(Rc::strong_count(&token), 2);
        let unwound = catch_unwind(AssertUnwindSafe(|| sim.run()));
        assert!(unwound.is_err());
        assert_eq!(Rc::strong_count(&token), 1, "dropped by the unwind");
        assert_eq!(sim.pending_events(), 1);
        sim.run();
        assert_eq!(*hits.borrow(), 1, "later events still fire");
        // Dropping the engine finds nothing left to drop in the leaked node.
        drop(sim);
        assert_eq!(Rc::strong_count(&token), 1);
    }

    #[test]
    fn oversized_closures_are_boxed_counted_run_and_cancellable() {
        let mut sim = Sim::new();
        let big = [3u64; 32]; // 256 B of capture, past `INLINE_BYTES`
        let sum = Rc::new(RefCell::new(0u64));
        let token = Rc::new(());
        let s = sum.clone();
        sim.schedule_at(SimTime::from_nanos(10), move |_| {
            *s.borrow_mut() = big.iter().sum();
        });
        let t = token.clone();
        let doomed = sim.schedule_at(SimTime::from_nanos(20), move |_| {
            let _ = (&big, &t);
            unreachable!("cancelled");
        });
        let t = token.clone();
        sim.schedule_at(SimTime::from_nanos(1_000_000), move |_| {
            let _ = (&big, &t);
        });
        assert_eq!(sim.profile().boxed_events, 3);
        assert!(sim.cancel(doomed));
        assert_eq!(Rc::strong_count(&token), 2, "cancel frees the box now");
        sim.run_until(SimTime::from_nanos(100));
        assert_eq!(*sum.borrow(), 96);
        drop(sim);
        assert_eq!(Rc::strong_count(&token), 1, "pending box freed on drop");
    }

    #[test]
    fn coarse_tick_keeps_exact_order() {
        // 1.048ms ticks: everything below lands in very few buckets, yet
        // order stays exact.
        let mut sim = Sim::with_tick_shift(20);
        let log = Rc::new(RefCell::new(Vec::new()));
        for &t in &[900u64, 100, 500, 100, 2_000_000, 1_500_000] {
            let log = log.clone();
            sim.schedule_at(SimTime::from_nanos(t), move |_| log.borrow_mut().push(t));
        }
        sim.run();
        assert_eq!(
            *log.borrow(),
            vec![100, 100, 500, 900, 1_500_000, 2_000_000]
        );
    }

    #[test]
    fn every_until_leaves_nothing_scheduled_behind_its_last_firing() {
        let mut sim = Sim::new();
        let count = Rc::new(Cell::new(0u32));
        let c = count.clone();
        let until = SimTime::from_nanos(12_000);
        sim.every_until(SimDuration::from_micros(5), until, move |_| {
            c.set(c.get() + 1);
        });
        sim.run();
        assert_eq!(
            count.get(),
            3,
            "t = 5, 10, 15us: the first firing past until ends it"
        );
        assert_eq!(sim.now(), SimTime::from_nanos(15_000), "no event behind it");
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_panics() {
        let mut sim = Sim::new();
        sim.every_until(SimDuration::ZERO, SimTime::MAX, |_| {});
    }
}
