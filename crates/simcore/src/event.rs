//! Type-erased event closures stored in place in the event slab.
//!
//! The engine's steady state schedules millions of short-lived closures.
//! Boxing each one (`Box<dyn FnOnce>`) costs an allocation plus a pointer
//! chase per event; an [`EventFn`] is instead the slab node's own storage:
//! a two-word header plus [`INLINE_BYTES`] of payload. Scheduling writes
//! the closure (or, for oversized captures, a `Box` of it) straight into
//! the node with [`EventFn::arm`], and the engine calls it *from* the node
//! through `EventFn::fire`, so a closure's bytes move exactly twice —
//! into the node, and out of it onto the handler's stack frame — with no
//! by-value `EventFn` temporary in between. Combined with the slab's
//! free-list reuse, the common scheduling path performs zero allocations.
//!
//! Safety model: an `EventFn` is either *empty* (`ops` is `None`, `data`
//! is dead bytes) or *armed* with exactly one pending closure. Only the
//! `call` / `drop_in_place` function pointers reinterpret `data`, and they
//! are monomorphized together with the write in [`EventFn::arm`], so the
//! type read always matches the type written. Every way out of the armed
//! state clears `ops` *before* touching the payload — `EventFn::fire`
//! hands the payload's address to the caller, who reads it out before any
//! user code runs; [`EventFn::cancel`] and `Drop` drop it in place — so
//! the closure is dropped exactly once whether it runs, panics while
//! running, is cancelled, or the engine itself is dropped.

use std::mem::{align_of, size_of, MaybeUninit};
use std::ptr;

use crate::engine::Sim;

/// Maximum closure capture size (bytes) stored without allocating.
///
/// Ten words, sized to the largest capture on a request's path. Measured
/// captures (x86-64): every `rdma_sim` fabric event 72 B (a `Fabric` handle
/// and one fabric `Input`), `Dne::kick` → `complete` 72 B (`Rc`, work item,
/// dispatch instant), every `runtime` event 56 B (an `IoLib` handle and one
/// runtime `Input`); `ingress` gateway events are smaller (a `Gateway`
/// handle and one plain-data gateway `Input`). The frozen benchmark's `cluster_upstream`
/// closure is the 80 B one: three handles, a `ReqCtx` and the `Reply` box.
/// Anything larger is boxed and counted in `SimProfile::boxed_events`.
pub const INLINE_BYTES: usize = 80;

type InlineBuf = MaybeUninit<[usize; INLINE_BYTES / size_of::<usize>()]>;

/// Moves the payload out of `data` and calls it. `data` must hold a live
/// payload of the monomorphized type; it is dead afterwards.
// SAFETY: `arm` pairs it with its write, `fire`'s caller calls it once
// (`tests::small_closures_are_inline_and_run`,
// `tests::large_closures_fall_back_to_boxing_and_run`).
pub(crate) type CallFn = unsafe fn(*mut u8, &mut Sim);

/// A slab-resident, type-erased `FnOnce(&mut Sim)` with inline storage for
/// small closures: empty, or armed with one pending closure.
pub struct EventFn {
    /// `Some` exactly while a closure is pending in `data`.
    ops: Option<Ops>,
    data: InlineBuf,
}

/// The two ways out of the armed state, monomorphized for the payload.
#[derive(Clone, Copy)]
struct Ops {
    call: CallFn,
    /// Drops the payload in place without calling it (cancellation path).
    // SAFETY: `arm` pairs it with its write, `cancel` calls it once
    // (`tests::dropping_without_invoking_releases_captures_once`).
    drop_in_place: unsafe fn(*mut u8),
}

// SAFETY: as in the body (`tests::small_closures_are_inline_and_run`).
unsafe fn call_inline<F: FnOnce(&mut Sim)>(p: *mut u8, sim: &mut Sim) {
    // SAFETY: the caller passes the address of a live `F` written by
    // `arm::<F>` and never reads it again; reading it out here, before `f`
    // runs, means nothing `f` does to the slab can reach the payload.
    let f = unsafe { ptr::read(p.cast::<F>()) };
    f(sim)
}

// SAFETY: as in the body (`tests::large_closures_fall_back_to_boxing_and_run`).
unsafe fn call_boxed<F: FnOnce(&mut Sim)>(p: *mut u8, sim: &mut Sim) {
    // SAFETY: as in `call_inline`, with the `Box<F>` that `arm::<F>` wrote.
    let b = unsafe { ptr::read(p.cast::<Box<F>>()) };
    (*b)(sim)
}

// SAFETY: as in the body (`tests::dropping_without_invoking_releases_captures_once`).
unsafe fn drop_inline<F>(p: *mut u8) {
    // SAFETY: the caller passes the address of a live `F` it will not use
    // again.
    unsafe { ptr::drop_in_place(p.cast::<F>()) }
}

// SAFETY: as in the body (`tests::dropping_without_invoking_releases_captures_once`).
unsafe fn drop_boxed<F>(p: *mut u8) {
    // SAFETY: as in `drop_inline`, for the `Box<F>` the boxed path wrote.
    unsafe { ptr::drop_in_place(p.cast::<Box<F>>()) }
}

impl EventFn {
    /// An empty slot: no closure, nothing to drop.
    pub const fn empty() -> EventFn {
        EventFn {
            ops: None,
            data: MaybeUninit::uninit(),
        }
    }

    /// Returns `true` if a closure of this size/alignment is stored inline.
    pub const fn fits_inline<F>() -> bool {
        size_of::<F>() <= INLINE_BYTES && align_of::<F>() <= align_of::<usize>()
    }

    /// Returns `true` while a closure is pending in this slot.
    #[inline]
    pub fn is_armed(&self) -> bool {
        self.ops.is_some()
    }

    /// Writes `f` into this (empty) slot, inline when it fits; otherwise
    /// boxes it and bumps `boxed` (the engine's count of allocating events).
    #[inline]
    pub fn arm<F: FnOnce(&mut Sim) + 'static>(&mut self, f: F, boxed: &mut u64) {
        // Overwriting a pending closure would leak it (never a double drop).
        debug_assert!(!self.is_armed(), "arming a slot that holds a closure");
        let data = self.data.as_mut_ptr();
        if Self::fits_inline::<F>() {
            // SAFETY: `data` is `INLINE_BYTES` of word-aligned storage owned
            // by `self`, `F` fits both bounds, and the slot is empty, so the
            // write overwrites no live value (`tests::small_closures_are_inline_and_run`).
            unsafe { ptr::write(data.cast::<F>(), f) };
            self.ops = Some(Ops {
                call: call_inline::<F>,
                drop_in_place: drop_inline::<F>,
            });
        } else {
            *boxed += 1;
            // SAFETY: as above; a `Box` is one word and always fits
            // (`tests::large_closures_fall_back_to_boxing_and_run`).
            unsafe { ptr::write(data.cast::<Box<F>>(), Box::new(f)) };
            self.ops = Some(Ops {
                call: call_boxed::<F>,
                drop_in_place: drop_boxed::<F>,
            });
        }
    }

    /// Empties the slot for execution: returns the trampoline and the
    /// payload's address, or `None` if the slot was empty.
    ///
    /// The payload is now owned by whoever calls the trampoline — exactly
    /// once, with that address, before this slot is armed again or moved.
    /// An unused return value leaks the closure's captures (never a
    /// double drop).
    #[inline]
    pub(crate) fn fire(&mut self) -> Option<(CallFn, *mut u8)> {
        let ops = self.ops.take()?;
        Some((ops.call, self.data.as_mut_ptr().cast::<u8>()))
    }

    /// Drops the pending closure without running it. Returns `false` if
    /// the slot was already empty.
    #[inline]
    pub fn cancel(&mut self) -> bool {
        // Emptied first, so a panicking destructor cannot be run twice.
        let Some(ops) = self.ops.take() else {
            return false;
        };
        // SAFETY: `ops` was `Some`, so `data` holds the live payload that
        // `drop_in_place` was monomorphized for, and clearing `ops` made
        // this the last use of it (`tests::a_slot_is_reusable_after_firing_and_after_cancel`).
        unsafe { (ops.drop_in_place)(self.data.as_mut_ptr().cast::<u8>()) };
        true
    }
}

impl Drop for EventFn {
    fn drop(&mut self) {
        self.cancel();
    }
}

impl std::fmt::Debug for EventFn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.is_armed() {
            "EventFn(armed)"
        } else {
            "EventFn(empty)"
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    /// Runs an armed slot the way the engine does.
    fn run(slot: &mut EventFn, sim: &mut Sim) {
        let (call, data) = slot.fire().expect("armed");
        // SAFETY: `data` is the payload `fire` just released, passed once.
        unsafe { call(data, sim) }
    }

    struct Probe(Rc<Cell<u32>>);
    impl Drop for Probe {
        fn drop(&mut self) {
            self.0.set(self.0.get() + 1);
        }
    }

    #[test]
    fn small_closures_are_inline_and_run() {
        let hits = Rc::new(Cell::new(0u32));
        let h = hits.clone();
        assert!(EventFn::fits_inline::<Rc<Cell<u32>>>());
        let mut boxed = 0;
        let mut ev = EventFn::empty();
        assert!(!ev.is_armed());
        ev.arm(move |_sim| h.set(h.get() + 1), &mut boxed);
        assert!(ev.is_armed());
        assert_eq!(boxed, 0);
        let mut sim = Sim::new();
        run(&mut ev, &mut sim);
        assert!(!ev.is_armed(), "a fired slot is empty");
        assert!(ev.fire().is_none());
        assert_eq!(hits.get(), 1);
    }

    #[test]
    fn large_closures_fall_back_to_boxing_and_run() {
        let big = [7u64; 16]; // 128 bytes of capture
        let hits = Rc::new(Cell::new(0u64));
        let h = hits.clone();
        let mut boxed = 0;
        let mut ev = EventFn::empty();
        ev.arm(move |_sim| h.set(big.iter().sum()), &mut boxed);
        assert_eq!(boxed, 1, "the box branch is counted");
        let mut sim = Sim::new();
        run(&mut ev, &mut sim);
        assert_eq!(hits.get(), 7 * 16);
    }

    #[test]
    fn a_slot_is_reusable_after_firing_and_after_cancel() {
        let hits = Rc::new(Cell::new(0u32));
        let mut sim = Sim::new();
        let mut ev = EventFn::empty();
        for round in 1..=3u32 {
            let h = hits.clone();
            ev.arm(move |_sim| h.set(h.get() + 1), &mut 0);
            run(&mut ev, &mut sim);
            assert_eq!(hits.get(), round);
            let h = hits.clone();
            ev.arm(move |_sim| h.set(100), &mut 0);
            assert!(ev.cancel());
            assert!(!ev.cancel(), "second cancel finds the slot empty");
        }
        assert_eq!(Rc::strong_count(&hits), 1, "every capture was released");
    }

    #[test]
    fn dropping_without_invoking_releases_captures_once() {
        let drops = Rc::new(Cell::new(0u32));
        // Inline case.
        let mut boxed = 0;
        let p = Probe(drops.clone());
        let mut ev = EventFn::empty();
        ev.arm(move |_sim| drop(p), &mut boxed);
        drop(ev);
        assert_eq!(drops.get(), 1);
        // Boxed case.
        let p = Probe(drops.clone());
        let big = [0u8; 128];
        let mut ev = EventFn::empty();
        ev.arm(
            move |_sim| {
                let _ = &big;
                drop(p);
            },
            &mut boxed,
        );
        drop(ev);
        assert_eq!(drops.get(), 2);
        // Cancelled case: dropped by `cancel`, not again by the destructor.
        let p = Probe(drops.clone());
        let mut ev = EventFn::empty();
        ev.arm(move |_sim| drop(p), &mut boxed);
        assert!(ev.cancel());
        assert_eq!(drops.get(), 3);
        drop(ev);
        assert_eq!(drops.get(), 3);
        // Invoked case drops via the call itself, not the destructor.
        let p = Probe(drops.clone());
        let mut ev = EventFn::empty();
        ev.arm(move |_sim| drop(p), &mut boxed);
        let mut sim = Sim::new();
        run(&mut ev, &mut sim);
        drop(ev);
        assert_eq!(drops.get(), 4);
    }
}
