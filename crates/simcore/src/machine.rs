//! One driver for every simulator-free core, and one explorer for their
//! every-order tests (DESIGN.md §3, "A machine behind one driver").
//!
//! A core takes the instant and one input and emits its outputs, in order,
//! into a [`Sink`]. Each is applied as it is emitted until
//! [`Machine::apply`] hands one back; from then on every output of that
//! step waits, and once the step has returned they run in order — the
//! handed-back one through [`Machine::settle`], the rest through `apply`
//! and, if handed back again, `settle`.

use std::cell::RefCell;
use std::ops::Deref;
use std::rc::Rc;

use crate::event::EventFn;
use crate::{Sim, SimTime};

/// A simulator-free core and what its step borrows and its outputs call.
pub trait Machine: Sized + 'static {
    /// What the core steps on; a scheduled event carries one.
    type In: 'static;
    /// What the core wants done.
    type Out;
    /// What the sink answers an output with: `()`, unless the core reads
    /// back what an output did.
    type Answer: Default;

    /// Feeds `input` to the core under the borrows it needs.
    fn step(&self, now: SimTime, input: Self::In, sink: &mut Sink<'_, Self>);

    /// Applies `out` while a step may hold the core, or hands it back.
    fn apply(
        this: &Rc<Driver<Self>>,
        sim: &mut Sim,
        out: Self::Out,
    ) -> Result<Self::Answer, Self::Out>;

    /// Applies what `apply` handed back, once no step holds the core. The
    /// driver passes it nothing else.
    fn settle(this: &Rc<Driver<Self>>, sim: &mut Sim, out: Self::Out);
}

/// A machine behind its driver. Derefs to the machine.
pub struct Driver<M: Machine> {
    machine: M,
    /// Buffers for the outputs that wait behind a step's first, one per
    /// nesting level, reused so the steady state allocates nothing.
    spare: RefCell<Vec<Vec<M::Out>>>,
}

impl<M: Machine> Deref for Driver<M> {
    type Target = M;

    fn deref(&self) -> &M {
        &self.machine
    }
}

/// Where a step emits.
pub struct Sink<'a, M: Machine> {
    this: &'a Rc<Driver<M>>,
    sim: &'a mut Sim,
    /// The first output `apply` handed back, and what was emitted after it.
    first: Option<M::Out>,
    rest: Option<Vec<M::Out>>,
}

// Only `put` and `finish` are inline: the sink a core calls must stay small
// enough to inline at every emission site, so the rare paths (`wait`,
// `drain`) and the scheduling site are out of line. With `schedule` inlined
// too, the gateway's and the fabric's sinks became calls again, and both
// layers measured slower per event.
impl<'a, M: Machine> Sink<'a, M> {
    fn new(this: &'a Rc<Driver<M>>, sim: &'a mut Sim) -> Self {
        let (first, rest) = (None, None);
        Sink {
            this,
            sim,
            first,
            rest,
        }
    }

    /// Applies `out` now, or queues it behind an output that waits.
    #[inline(always)]
    pub fn put(&mut self, out: M::Out) -> M::Answer {
        if self.first.is_some() {
            self.wait(out);
        } else {
            match M::apply(self.this, self.sim, out) {
                Ok(answer) => return answer,
                Err(out) => self.first = Some(out),
            }
        }
        M::Answer::default()
    }

    /// Queues `out` behind the first output that waits.
    #[cold]
    #[inline(never)]
    fn wait(&mut self, out: M::Out) {
        let spare = &self.this.spare;
        let rest = self
            .rest
            .get_or_insert_with(|| spare.borrow_mut().pop().unwrap_or_default());
        rest.push(out);
    }

    /// Applies what waited, once the step has returned.
    #[inline(always)]
    fn finish(&mut self) {
        if let Some(out) = self.first.take() {
            M::settle(self.this, self.sim, out);
            if let Some(rest) = self.rest.take() {
                self.drain(rest);
            }
        }
    }

    /// Applies the outputs that waited behind the first, in order.
    #[cold]
    #[inline(never)]
    fn drain(&mut self, mut rest: Vec<M::Out>) {
        for out in rest.drain(..) {
            if let Err(out) = M::apply(self.this, self.sim, out) {
                M::settle(self.this, self.sim, out);
            }
        }
        self.this.spare.borrow_mut().push(rest);
    }
}

impl<M: Machine> Driver<M> {
    /// Puts `machine` behind a driver.
    pub fn new(machine: M) -> Rc<Driver<M>> {
        let spare = RefCell::default();
        Rc::new(Driver { machine, spare })
    }

    /// Steps the machine on `input` now.
    pub fn drive(self: &Rc<Self>, sim: &mut Sim, input: M::In) {
        let now = sim.now();
        let mut sink = Sink::new(self, sim);
        self.machine.step(now, input, &mut sink);
        sink.finish();
    }

    /// Runs `step` — a core call emitting into the sink — then applies what
    /// waited, as [`Driver::drive`] does for a step. Every output leaves
    /// through a sink, also one a verb makes outside a step.
    #[inline(always)]
    pub fn run(self: &Rc<Self>, sim: &mut Sim, step: impl FnOnce(&M, SimTime, &mut Sink<'_, M>)) {
        let now = sim.now();
        let mut sink = Sink::new(self, sim);
        step(&self.machine, now, &mut sink);
        sink.finish();
    }

    /// Feeds `input` to the machine at `at`: the data plane's one
    /// scheduling site. The event — one handle and one input — must fit
    /// inline in its slab node, checked at compile time for every machine.
    #[inline(never)]
    pub fn schedule(self: &Rc<Self>, sim: &mut Sim, at: SimTime, input: M::In) {
        fn inline<F: FnOnce(&mut Sim)>(f: F) -> F {
            const {
                assert!(
                    EventFn::fits_inline::<F>(),
                    "a scheduled input must fit inline"
                )
            };
            f
        }
        let this = self.clone();
        sim.schedule_at(at, inline(move |sim: &mut Sim| this.drive(sim, input)));
    }
}

/// Visits every order of a world's choices depth first; returns how many.
/// Each order replays from `fresh()` (inputs own buffers, so a world cannot
/// be cloned): while `choices` offers any, `act` takes the one the order
/// names, by index, and then `end` gets the world. A replay offered a
/// different number of choices than the first visit panics.
pub fn explore<W>(
    mut fresh: impl FnMut() -> W,
    mut choices: impl FnMut(&W) -> usize,
    mut act: impl FnMut(&mut W, usize),
    mut end: impl FnMut(W),
) -> usize {
    // (choice, number of choices) at each depth of the current order.
    let mut path: Vec<(usize, usize)> = Vec::new();
    let mut orders = 0;
    loop {
        let mut world = fresh();
        for depth in 0.. {
            let of = choices(&world);
            if of == 0 {
                break;
            }
            if depth == path.len() {
                path.push((0, of));
            }
            assert_eq!(path[depth].1, of, "replay diverged");
            act(&mut world, path[depth].0);
        }
        end(world);
        orders += 1;
        // The next order takes the deepest choice that has a next one.
        while let Some((choice, of)) = path.pop() {
            if choice + 1 < of {
                path.push((choice + 1, of));
                break;
            }
        }
        if path.is_empty() {
            return orders;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A step on `depth` logs `a`, schedules itself, asks to nest (which
    /// waits, and drives `depth - 1` once settled), logs `b` and schedules
    /// itself again.
    struct Toy {
        steps: RefCell<u32>,
        log: RefCell<String>,
    }

    enum Out {
        Log(char, u32),
        At(SimTime, u32),
        Nest(u32),
    }

    impl Machine for Toy {
        type In = u32;
        type Out = Out;
        type Answer = ();

        fn step(&self, now: SimTime, depth: u32, sink: &mut Sink<'_, Self>) {
            *self.steps.borrow_mut() += 1;
            let _held = self.steps.borrow_mut();
            sink.put(Out::Log('a', depth));
            sink.put(Out::At(now, depth));
            sink.put(Out::Nest(depth));
            sink.put(Out::Log('b', depth));
            sink.put(Out::At(now, depth));
        }

        fn apply(this: &Rc<Driver<Self>>, sim: &mut Sim, out: Out) -> Result<(), Out> {
            let mut log = this.log.borrow_mut();
            match out {
                Out::Log(what, depth) => *log += &format!("{what}{depth} "),
                Out::At(at, depth) => {
                    *log += &format!("@{depth} ");
                    this.schedule(sim, at, depth);
                }
                nest => return Err(nest),
            }
            Ok(())
        }

        fn settle(this: &Rc<Driver<Self>>, sim: &mut Sim, out: Out) {
            if let Out::Nest(depth) = out {
                let free = this.steps.try_borrow_mut().is_ok();
                assert!(free, "the step's borrow is gone");
                *this.log.borrow_mut() += &format!("n{depth} ");
                if depth > 0 {
                    this.drive(sim, depth - 1);
                }
            }
        }
    }

    #[test]
    fn drive_keeps_emission_order_and_defers_from_the_first_output_that_waits() {
        let (steps, log) = (RefCell::default(), RefCell::default());
        let (toy, mut sim) = (Driver::new(Toy { steps, log }), Sim::new());
        toy.drive(&mut sim, 1);
        // Depth 1's `b` and second `@` wait behind its nest, which drives
        // depth 0 through first.
        assert_eq!(toy.log.take(), "a1 @1 n1 a0 @0 n0 b0 @0 b1 @1 ");
        assert_eq!(sim.pending_events(), 4);
        // Three levels deep, 1 000 times: one spare buffer per level, so
        // the steady state allocates nothing.
        for _ in 0..1_000 {
            toy.drive(&mut sim, 2);
        }
        assert_eq!(*toy.steps.borrow(), 2 + 3_000);
        assert_eq!(toy.spare.borrow().len(), 3);
    }
}
