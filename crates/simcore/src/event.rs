//! Type-erased event closures with inline small-closure storage.
//!
//! The engine's steady state schedules millions of short-lived closures.
//! Boxing each one (`Box<dyn FnOnce>`) costs an allocation plus a pointer
//! chase per event; [`EventFn`] instead stores closures up to
//! [`INLINE_BYTES`] bytes *inline* in the event slab node and only falls
//! back to a heap box for oversized captures. Combined with the slab's
//! free-list reuse, the common scheduling path performs zero allocations.
//!
//! Safety model: an `EventFn` owns exactly one pending closure. The
//! closure is either written inline into `data` or a `Box<F>` (8 bytes,
//! always fits) is written there. The `call` / `drop_in_place` function
//! pointers are the only code that reinterprets `data`, and they are
//! monomorphized together with the write in [`EventFn::new`], so the type
//! read always matches the type written. `invoke` consumes the value and
//! disarms the destructor before moving the payload out, so the closure
//! is dropped exactly once whether it runs, is cancelled, or the engine
//! itself is dropped.

use std::mem::{align_of, size_of, MaybeUninit};
use std::ptr;

use crate::engine::Sim;

/// Maximum closure capture size (bytes) stored without allocating.
///
/// Ten words, sized to the largest capture on a request's path. Measured
/// captures (x86-64): `Fabric::schedule_cqe` 72 B (`Rc` + `CqId` + `Cqe`),
/// `Dne::kick` → `complete` 72 B (`Rc` + work item + dispatch instant),
/// `ChainFunction::endpoint` 72 B, `Fabric::post_send` → `deliver_send`
/// 64 B (`Rc` + `Delivery` + `OwnedBuf`), `Gateway::submit_tenant` 80 B.
/// Anything larger is boxed and counted in `SimProfile::boxed_events`.
pub const INLINE_BYTES: usize = 80;

type InlineBuf = MaybeUninit<[usize; INLINE_BYTES / size_of::<usize>()]>;

/// A type-erased `FnOnce(&mut Sim)` with inline storage for small closures.
pub struct EventFn {
    /// Moves the payload out of `data` and calls it. `data` must hold a
    /// live payload of the monomorphized type; it is dead afterwards.
    call: unsafe fn(*mut u8, &mut Sim),
    /// Drops the payload in place without calling it (cancellation path).
    drop_in_place: unsafe fn(*mut u8),
    data: InlineBuf,
}

unsafe fn call_inline<F: FnOnce(&mut Sim)>(p: *mut u8, sim: &mut Sim) {
    let f = unsafe { ptr::read(p.cast::<F>()) };
    f(sim)
}

unsafe fn call_boxed<F: FnOnce(&mut Sim)>(p: *mut u8, sim: &mut Sim) {
    let b = unsafe { ptr::read(p.cast::<Box<F>>()) };
    (*b)(sim)
}

unsafe fn drop_inline<F>(p: *mut u8) {
    unsafe { ptr::drop_in_place(p.cast::<F>()) }
}

unsafe fn drop_boxed<F>(p: *mut u8) {
    unsafe { ptr::drop_in_place(p.cast::<Box<F>>()) }
}

unsafe fn drop_noop(_p: *mut u8) {}

impl EventFn {
    /// Wraps `f`, storing it inline when it fits; otherwise boxes it and
    /// bumps `boxed` (the engine's count of allocating events).
    pub fn new<F: FnOnce(&mut Sim) + 'static>(f: F, boxed: &mut u64) -> EventFn {
        let mut data: InlineBuf = MaybeUninit::uninit();
        if size_of::<F>() <= INLINE_BYTES && align_of::<F>() <= align_of::<usize>() {
            unsafe { ptr::write(data.as_mut_ptr().cast::<F>(), f) };
            EventFn {
                call: call_inline::<F>,
                drop_in_place: drop_inline::<F>,
                data,
            }
        } else {
            *boxed += 1;
            unsafe { ptr::write(data.as_mut_ptr().cast::<Box<F>>(), Box::new(f)) };
            EventFn {
                call: call_boxed::<F>,
                drop_in_place: drop_boxed::<F>,
                data,
            }
        }
    }

    /// Returns `true` if a closure of this size/alignment is stored inline.
    pub fn fits_inline<F>() -> bool {
        size_of::<F>() <= INLINE_BYTES && align_of::<F>() <= align_of::<usize>()
    }

    /// Consumes the event and runs the closure.
    pub fn invoke(mut self, sim: &mut Sim) {
        let call = self.call;
        // The payload is moved out by `call`; disarm the destructor first
        // so a panic inside the closure cannot double-drop it.
        self.drop_in_place = drop_noop;
        unsafe { call(self.data.as_mut_ptr().cast::<u8>(), sim) }
    }
}

impl Drop for EventFn {
    fn drop(&mut self) {
        unsafe { (self.drop_in_place)(self.data.as_mut_ptr().cast::<u8>()) }
    }
}

impl std::fmt::Debug for EventFn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("EventFn")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    #[test]
    fn small_closures_are_inline_and_run() {
        let hits = Rc::new(Cell::new(0u32));
        let h = hits.clone();
        assert!(EventFn::fits_inline::<Rc<Cell<u32>>>());
        let mut boxed = 0;
        let ev = EventFn::new(move |_sim| h.set(h.get() + 1), &mut boxed);
        assert_eq!(boxed, 0);
        let mut sim = Sim::new();
        ev.invoke(&mut sim);
        assert_eq!(hits.get(), 1);
    }

    #[test]
    fn large_closures_fall_back_to_boxing_and_run() {
        let big = [7u64; 16]; // 128 bytes of capture
        let hits = Rc::new(Cell::new(0u64));
        let h = hits.clone();
        let mut boxed = 0;
        let ev = EventFn::new(move |_sim| h.set(big.iter().sum()), &mut boxed);
        assert_eq!(boxed, 1, "the box branch is counted");
        let mut sim = Sim::new();
        ev.invoke(&mut sim);
        assert_eq!(hits.get(), 7 * 16);
    }

    #[test]
    fn dropping_without_invoking_releases_captures_once() {
        struct Probe(Rc<Cell<u32>>);
        impl Drop for Probe {
            fn drop(&mut self) {
                self.0.set(self.0.get() + 1);
            }
        }
        let drops = Rc::new(Cell::new(0u32));
        // Inline case.
        let mut boxed = 0;
        let p = Probe(drops.clone());
        let ev = EventFn::new(move |_sim| drop(p), &mut boxed);
        drop(ev);
        assert_eq!(drops.get(), 1);
        // Boxed case.
        let p = Probe(drops.clone());
        let big = [0u8; 128];
        let ev = EventFn::new(
            move |_sim| {
                let _ = &big;
                drop(p);
            },
            &mut boxed,
        );
        drop(ev);
        assert_eq!(drops.get(), 2);
        // Invoked case drops via the call itself, not the destructor.
        let p = Probe(drops.clone());
        let ev = EventFn::new(move |_sim| drop(p), &mut boxed);
        let mut sim = Sim::new();
        ev.invoke(&mut sim);
        assert_eq!(drops.get(), 3);
    }
}
