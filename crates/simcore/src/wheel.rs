//! Hierarchical timing wheel: the engine's O(1)-amortized event queue.
//!
//! Classic DES schedulers (Varghese & Lauck's hashed timing wheels, the
//! calendar queues behind ns-3-class simulators) replace the global
//! `O(log n)` priority heap with a bucketed structure:
//!
//! - **Level 0** is an array of 256 slots, one virtual-time *tick* each
//!   (tick granularity is configurable; default 64 ns). An event due
//!   within the current 256-tick block lands directly in its slot.
//! - **Levels 1–4** are 64-slot wheels of geometrically coarser spans
//!   (each level covers 64× the one below). An event due further out
//!   lands in the coarsest-level slot whose block still matches the
//!   current tick's high bits, and *cascades* down toward level 0 as the
//!   clock approaches it. The advance logic jumps straight to a coarse
//!   slot's minimum event tick where possible (see
//!   [`TimingWheel::next_jump`]), so sparse timers usually cascade in a
//!   single hop rather than once per level.
//! - Events beyond the total horizon (2³² ticks ≈ 4.6 virtual minutes at
//!   the default tick) overflow to a fallback binary heap (`far`), which
//!   is exact but rarely touched.
//!
//! Slots hold flat `(time, seq, slab index)` entry vectors, so drains
//! and minimum scans stream through contiguous memory; each slot buffer's
//! capacity is recycled on drain, and event closures live in a slab with
//! an intrusive free list (see [`crate::event::EventFn`] for the in-place
//! closure representation), so steady-state scheduling allocates nothing.
//! A closure is written into its node when scheduled and called from it
//! when due ([`TimingWheel::insert`], [`TimingWheel::pop_due`]); the slab
//! is only touched then or on cancellation — never while entries cascade.
//! Generation counts make [`TimerHandle`]s safe to hold after the event
//! fired: cancelling a dead handle is a no-op.
//!
//! Popping drains one slot at a time into a tiny `ready` heap that
//! restores the engine's exact `(time, seq)` total order, so execution
//! order is bit-for-bit identical to the reference binary-heap
//! implementation (`tests/support/baseline.rs`).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::engine::Sim;
use crate::event::{CallFn, EventFn};
use crate::time::SimTime;

/// Default tick granularity exponent: 2⁶ = 64 ns per tick.
pub const DEFAULT_TICK_SHIFT: u32 = 6;

const NIL: u32 = u32::MAX;
const L0_BITS: u32 = 8;
const L0_SLOTS: usize = 1 << L0_BITS; // 256
const LK_BITS: u32 = 6;
const LK_SLOTS: usize = 1 << LK_BITS; // 64
const LEVELS: usize = 4;

/// A queued event's identity as stored in slots and heaps: `(time, seq,
/// slab index)`. The tuple order is exactly the engine's total order.
type Entry = (SimTime, u64, u32);

/// A cancellable reference to a scheduled event.
///
/// Returned by the `Sim::schedule_*` family; pass to `Sim::cancel` to
/// deschedule the event before it fires. Handles are generation-counted:
/// once the event has run (or been cancelled) the handle goes stale and
/// cancelling it is a harmless no-op.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TimerHandle {
    idx: u32,
    gen: u32,
}

/// One slab node: just the closure plus the generation word that keeps
/// [`TimerHandle`]s honest. Queue position lives in the slot [`Entry`]s.
struct Node {
    gen: u32,
    /// Free-list link while the node is unallocated.
    next: u32,
    /// Armed while pending; emptied on execution or cancellation.
    event: EventFn,
}

impl Node {
    #[inline]
    fn is_live(&self) -> bool {
        self.event.is_armed()
    }
}

/// A due event taken off the queue by [`TimingWheel::pop_due`]: its handle
/// is already stale and it no longer counts as pending, but its closure
/// still sits in slab node `idx`, which stays off the free list until
/// [`TimingWheel::free`] — so nothing can be scheduled over the payload
/// before [`Due::run`] has read it out.
pub(crate) struct Due {
    pub at: SimTime,
    idx: u32,
    call: CallFn,
    data: *mut u8,
}

impl Due {
    /// Calls the closure, then returns its node to the slab.
    ///
    /// A panicking closure skips the `free`: the node leaks (it is empty,
    /// so nothing is dropped twice) and the wheel stays consistent.
    #[inline]
    pub fn run(self, sim: &mut Sim) {
        // SAFETY: `pop_due` took `call` and `data` out of node `idx` and
        // nothing has touched the slab since (the caller holds the only
        // `&mut Sim`), so `data` is the live payload `call` expects; `call`
        // reads it out before any user code can reallocate the slab.
        unsafe { (self.call)(self.data, sim) };
        sim.wheel.free(self.idx);
    }
}

pub(crate) struct TimingWheel {
    tick_shift: u32,
    /// The wheel's position, in ticks. Invariant: no queued entry's tick
    /// is below `current`; all slots "behind" it (including the slot at
    /// every level containing `current`) are empty.
    current: u64,
    slots0: [Vec<Entry>; L0_SLOTS],
    occ0: [u64; L0_SLOTS / 64],
    slots: [[Vec<Entry>; LK_SLOTS]; LEVELS],
    occ: [u64; LEVELS],
    /// Events at ticks <= `current`, sorted descending by `(at, seq)` so
    /// the head pops off the tail in O(1). This is the only ordered
    /// structure on the pop path: each drained slot batch is sorted once
    /// ([`TimingWheel::advance_to`]), and it only ever holds the current
    /// tick's batch plus same-instant events scheduled from within
    /// handlers (binary-inserted), so it stays tiny.
    ready: Vec<Entry>,
    /// Fallback heap for events beyond the wheel horizon.
    far: BinaryHeap<Reverse<Entry>>,
    nodes: Vec<Node>,
    free_head: u32,
    /// Queued, not-cancelled events.
    live: usize,
}

/// Next set bit strictly after `after` in a 64-bit occupancy word.
fn next_bit_64(word: u64, after: usize) -> Option<usize> {
    if after >= 63 {
        return None;
    }
    let masked = word & ((!0u64) << (after + 1));
    if masked == 0 {
        None
    } else {
        Some(masked.trailing_zeros() as usize)
    }
}

/// Next set bit strictly after `after` in a 256-bit occupancy bitmap.
fn next_bit_256(occ: &[u64; 4], after: usize) -> Option<usize> {
    let start = after + 1;
    if start >= 256 {
        return None;
    }
    let mut w = start / 64;
    let mut word = occ[w] & ((!0u64) << (start % 64));
    loop {
        if word != 0 {
            return Some(w * 64 + word.trailing_zeros() as usize);
        }
        w += 1;
        if w >= 4 {
            return None;
        }
        word = occ[w];
    }
}

impl TimingWheel {
    pub fn new(tick_shift: u32) -> TimingWheel {
        assert!(tick_shift <= 26, "tick granularity above ~67ms is absurd");
        TimingWheel {
            tick_shift,
            current: 0,
            slots0: std::array::from_fn(|_| Vec::new()),
            occ0: [0; L0_SLOTS / 64],
            slots: std::array::from_fn(|_| std::array::from_fn(|_| Vec::new())),
            occ: [0; LEVELS],
            ready: Vec::new(),
            far: BinaryHeap::new(),
            nodes: Vec::new(),
            free_head: NIL,
            live: 0,
        }
    }

    #[inline]
    pub fn tick_of(&self, at: SimTime) -> u64 {
        at.as_nanos() >> self.tick_shift
    }

    pub fn live(&self) -> usize {
        self.live
    }

    /// Takes an empty node off the free list (or grows the slab).
    #[inline]
    fn alloc(&mut self) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            let node = &mut self.nodes[idx as usize];
            self.free_head = node.next;
            node.next = NIL;
            idx
        } else {
            let idx = self.nodes.len() as u32;
            assert!(idx != NIL, "event slab exhausted");
            self.nodes.push(Node {
                gen: 0,
                next: NIL,
                event: EventFn::empty(),
            });
            idx
        }
    }

    /// Returns an empty node to the free list, bumping its generation so
    /// stale [`TimerHandle`]s can no longer reach it.
    #[inline]
    pub(crate) fn free(&mut self, idx: u32) {
        let node = &mut self.nodes[idx as usize];
        debug_assert!(!node.is_live(), "freeing a node with a live event");
        node.gen = node.gen.wrapping_add(1);
        node.next = self.free_head;
        self.free_head = idx;
    }

    /// Places an entry into the right container for its tick, relative to
    /// `current`.
    #[inline]
    fn place(&mut self, entry: Entry) {
        let t = self.tick_of(entry.0);
        let c = self.current;
        if t <= c {
            // Binary-insert into the descending-sorted ready vector; the
            // index is the number of entries ordered after this one.
            let pos = self.ready.partition_point(|&e| e > entry);
            self.ready.insert(pos, entry);
            return;
        }
        // Highest differing bit between `t` and `c` picks the level
        // directly: below bit 8 the event shares the current 256-tick block
        // (level 0); each 6-bit band above maps to one coarser level; past
        // bit 31 the event is beyond the 2^32-tick horizon.
        let h = 63 - (t ^ c).leading_zeros();
        if h < L0_BITS {
            let s = (t & (L0_SLOTS as u64 - 1)) as usize;
            self.slots0[s].push(entry);
            self.occ0[s >> 6] |= 1 << (s & 63);
            return;
        }
        let k = ((h - L0_BITS) / LK_BITS) as usize;
        if k < LEVELS {
            let below = L0_BITS + k as u32 * LK_BITS;
            let s = ((t >> below) & (LK_SLOTS as u64 - 1)) as usize;
            self.slots[k][s].push(entry);
            self.occ[k] |= 1 << s;
            return;
        }
        self.far.push(Reverse(entry));
    }

    /// Queues `f` at `(at, seq)`, writing it straight into its slab node;
    /// `boxed` counts closures too large to store inline.
    #[inline]
    pub fn insert<F: FnOnce(&mut Sim) + 'static>(
        &mut self,
        at: SimTime,
        seq: u64,
        f: F,
        boxed: &mut u64,
    ) -> TimerHandle {
        let (handle, slot) = self.enqueue(at, seq);
        slot.arm(f, boxed);
        handle
    }

    /// The closure-type-independent part of [`TimingWheel::insert`]: queues
    /// an entry and returns its still-empty slot for the caller to arm.
    fn enqueue(&mut self, at: SimTime, seq: u64) -> (TimerHandle, &mut EventFn) {
        let idx = self.alloc();
        self.place((at, seq, idx));
        self.live += 1;
        let node = &mut self.nodes[idx as usize];
        let handle = TimerHandle { idx, gen: node.gen };
        (handle, &mut node.event)
    }

    /// Deschedules the event behind `h`. Returns `false` for stale handles
    /// (already fired, already cancelled, or slab slot since reused).
    ///
    /// The entry stays in its container until the wheel naturally reaches
    /// it (lazy deletion); only the closure is dropped eagerly.
    pub fn cancel(&mut self, h: TimerHandle) -> bool {
        let cancelled = self
            .nodes
            .get_mut(h.idx as usize)
            // `EventFn::cancel` drops the closure now, if one is pending.
            .is_some_and(|node| node.gen == h.gen && node.event.cancel());
        self.live -= cancelled as usize;
        cancelled
    }

    /// Returns `true` while the event behind `h` is still pending.
    pub fn is_pending(&self, h: TimerHandle) -> bool {
        matches!(self.nodes.get(h.idx as usize),
                 Some(node) if node.gen == h.gen && node.is_live())
    }

    /// The tick to advance to next. A safe jump target `j` satisfies
    /// `current < j <= min queued entry tick`, so every occupied slot
    /// either lies ahead of `j` or contains `j` itself (and gets drained
    /// by [`TimingWheel::advance_to`]).
    ///
    /// Candidates: the next occupied level-0 slot and the far-heap minimum
    /// (both exact entry ticks), plus each coarser level's next occupied
    /// slot *block start* (a lower bound). When a coarse slot wins, its
    /// block start would force the classic level-by-level cascade — one
    /// full rescan per level. Instead we scan that slot's (contiguous)
    /// entries for its true minimum tick and jump to
    /// `min(slot_min, runner_up)`, collapsing the cascade into (usually)
    /// a single hop.
    fn next_jump(&self) -> Option<u64> {
        let c = self.current;
        let mut best = u64::MAX;
        let mut second = u64::MAX;
        let mut best_slot: Option<(usize, usize)> = None;
        let s0 = (c & (L0_SLOTS as u64 - 1)) as usize;
        if let Some(s) = next_bit_256(&self.occ0, s0) {
            // Fast path: every coarser level's next occupied slot starts at
            // or beyond the next 256-tick boundary, and far entries due
            // inside the current block were migrated out on the last
            // advance, so an occupied level-0 slot always wins outright.
            return Some((c & !(L0_SLOTS as u64 - 1)) | s as u64);
        }
        for k in 0..LEVELS {
            let below = L0_BITS + k as u32 * LK_BITS;
            let sk = ((c >> below) & (LK_SLOTS as u64 - 1)) as usize;
            if let Some(s) = next_bit_64(self.occ[k], sk) {
                let prefix = ((c >> below) & !(LK_SLOTS as u64 - 1)) | s as u64;
                let start = prefix << below;
                if start < best {
                    second = best;
                    best = start;
                    best_slot = Some((k, s));
                } else if start < second {
                    second = start;
                }
            }
        }
        if let Some(&Reverse((at, _, _))) = self.far.peek() {
            let t = self.tick_of(at);
            if t < best {
                second = best;
                best = t;
                best_slot = None;
            } else if t < second {
                second = t;
            }
        }
        if best == u64::MAX {
            return None;
        }
        let (k, s) = match best_slot {
            None => return Some(best),
            Some(ks) => ks,
        };
        // Min over *all* entries, cancelled included: a cancelled entry
        // still occupies the slot and must not be jumped past, or the slot
        // index would alias a future block.
        let mut t_min = u64::MAX;
        for &(at, _, _) in &self.slots[k][s] {
            t_min = t_min.min(self.tick_of(at));
        }
        // `t_min` stays inside the winning block, and every other
        // structure's events sit at or past `second`, so the minimum is a
        // valid jump target.
        Some(t_min.min(second))
    }

    /// Jumps the wheel to tick `j` (a target from
    /// [`TimingWheel::next_jump`]), draining the slot containing `j` at
    /// every level top-down: entries due at `j` land in `ready`, later
    /// ones re-place into strictly finer slots ahead.
    fn advance_to(&mut self, j: u64) {
        let old = self.current;
        debug_assert!(j > old);
        self.current = j;
        // Within the same 256-tick block the coarser levels' slots
        // containing `j` are the (empty) ones containing `old`, and far
        // entries stay beyond the horizon — only the level-0 drain applies.
        if (j ^ old) >> L0_BITS != 0 {
            for k in (0..LEVELS).rev() {
                let below = L0_BITS + k as u32 * LK_BITS;
                let s = ((j >> below) & (LK_SLOTS as u64 - 1)) as usize;
                if self.occ[k] & (1 << s) == 0 {
                    continue;
                }
                self.occ[k] &= !(1 << s);
                // Entries re-place into strictly finer levels (or `ready`),
                // never back into this slot, so swapping the buffer out is
                // safe; swapping it back afterwards recycles its capacity.
                let mut batch = std::mem::take(&mut self.slots[k][s]);
                for &entry in &batch {
                    self.place(entry);
                }
                batch.clear();
                self.slots[k][s] = batch;
            }
            // Migrate far entries that the jump brought inside the current
            // 256-tick block (entries due exactly at `j` go straight to
            // `ready` via `place`). Keeping the rest in the heap avoids
            // double-handling; this much is what the level-0 fast path in
            // `next_jump` relies on.
            while let Some(&Reverse(entry)) = self.far.peek() {
                if (self.tick_of(entry.0) ^ j) >> L0_BITS != 0 {
                    break; // beyond the current block: leave it in the heap
                }
                self.far.pop();
                self.place(entry);
            }
        }
        let s = (j & (L0_SLOTS as u64 - 1)) as usize;
        if self.occ0[s >> 6] & (1 << (s & 63)) != 0 {
            self.occ0[s >> 6] &= !(1 << (s & 63));
            let mut batch = std::mem::take(&mut self.slots0[s]);
            self.ready.extend_from_slice(&batch);
            batch.clear();
            self.slots0[s] = batch;
            // One sort per drained slot replaces a heap sift per event.
            // Keys are unique (seq), so the unstable sort is deterministic.
            self.ready.sort_unstable_by(|a, b| b.cmp(a));
        }
    }

    /// Returns the instant of the next pending event, advancing the wheel
    /// no further than `limit_tick`. Returns `None` when the queue is
    /// drained or the next event lies beyond the limit.
    ///
    /// The peek half of [`TimingWheel::pop_due`], which is what the engine
    /// calls; the unit tests below step the wheel with this and
    /// [`TimingWheel::discard_ready`] to read `(time, seq)` without running
    /// anything.
    #[cfg(test)]
    pub fn next_at(&mut self, limit_tick: u64) -> Option<SimTime> {
        loop {
            while let Some(&(at, _, idx)) = self.ready.last() {
                if self.nodes[idx as usize].is_live() {
                    return Some(at);
                }
                self.ready.pop();
                self.free(idx);
            }
            let j = self.next_jump()?;
            if j > limit_tick {
                return None;
            }
            self.advance_to(j);
        }
    }

    /// Combined advance-and-pop for the engine's hot loop: takes the next
    /// event with `at <= deadline` off the queue, or returns `None`
    /// (leaving the event queued) when the queue is drained, the wheel
    /// would have to advance past `limit_tick`, or the head is beyond
    /// `deadline`.
    ///
    /// From here on the event is no longer pending — its handle is stale
    /// and [`TimingWheel::live`] no longer counts it — so a handler that
    /// cancels or queries its own handle gets `false`.
    pub fn pop_due(&mut self, limit_tick: u64, deadline: SimTime) -> Option<Due> {
        loop {
            while let Some(&(at, _, idx)) = self.ready.last() {
                if at > deadline && self.nodes[idx as usize].is_live() {
                    return None;
                }
                self.ready.pop();
                match self.nodes[idx as usize].event.fire() {
                    Some((call, data)) => {
                        self.live -= 1;
                        return Some(Due {
                            at,
                            idx,
                            call,
                            data,
                        });
                    }
                    // Cancelled while queued: only the node was left.
                    None => self.free(idx),
                }
            }
            let j = self.next_jump()?;
            if j > limit_tick {
                return None;
            }
            self.advance_to(j);
        }
    }

    /// Drops the head of `ready` unrun and reports its `(time, seq)`.
    /// Callers must have observed a `Some` from [`TimingWheel::next_at`]
    /// with no intervening mutation.
    #[cfg(test)]
    fn discard_ready(&mut self) -> (SimTime, u64) {
        let (at, seq, idx) = self
            .ready
            .pop()
            .expect("discard_ready on empty ready queue");
        assert!(
            self.nodes[idx as usize].event.cancel(),
            "ready head was cancelled"
        );
        self.free(idx);
        self.live -= 1;
        (at, seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn insert(w: &mut TimingWheel, ns: u64, seq: u64) -> TimerHandle {
        w.insert(SimTime::from_nanos(ns), seq, |_| {}, &mut 0)
    }

    #[test]
    fn orders_across_levels_and_far_heap() {
        let mut w = TimingWheel::new(DEFAULT_TICK_SHIFT);
        // Spread events over every level: ns, µs, ms, s, and beyond the
        // 2^32-tick horizon (~275 s at 64 ns ticks).
        let times: Vec<u64> = vec![
            50,
            1_000,
            90_000,
            7_000_000,
            2_000_000_000,
            40_000_000_000,
            400_000_000_000, // far heap
            3,
        ];
        for (i, &t) in times.iter().enumerate() {
            insert(&mut w, t, i as u64);
        }
        let mut sorted = times.clone();
        sorted.sort_unstable();
        let mut popped = Vec::new();
        while w.next_at(u64::MAX).is_some() {
            let (at, _) = w.discard_ready();
            popped.push(at.as_nanos());
        }
        assert_eq!(popped, sorted);
        assert_eq!(w.live(), 0);
    }

    #[test]
    fn same_tick_events_keep_seq_order() {
        let mut w = TimingWheel::new(DEFAULT_TICK_SHIFT);
        // 64ns ticks: nanos 128..131 share tick 2.
        for (seq, ns) in [(0u64, 130u64), (1, 128), (2, 130), (3, 131)] {
            insert(&mut w, ns, seq);
        }
        let mut order = Vec::new();
        while w.next_at(u64::MAX).is_some() {
            let (at, seq) = w.discard_ready();
            order.push((at.as_nanos(), seq));
        }
        assert_eq!(order, vec![(128, 1), (130, 0), (130, 2), (131, 3)]);
    }

    #[test]
    fn cancel_is_lazy_but_effective() {
        let mut w = TimingWheel::new(DEFAULT_TICK_SHIFT);
        let h1 = insert(&mut w, 500, 0);
        let h2 = insert(&mut w, 1_000_000, 1);
        assert!(w.is_pending(h1) && w.is_pending(h2));
        assert!(w.cancel(h1));
        assert!(!w.cancel(h1), "double cancel is a no-op");
        assert_eq!(w.live(), 1);
        let at = w.next_at(u64::MAX).unwrap();
        assert_eq!(at.as_nanos(), 1_000_000, "cancelled event skipped");
        let (_, seq) = w.discard_ready();
        assert_eq!(seq, 1);
        assert!(!w.cancel(h2), "fired handles are stale");
        assert!(w.next_at(u64::MAX).is_none());
    }

    #[test]
    fn handles_survive_slab_reuse() {
        let mut w = TimingWheel::new(DEFAULT_TICK_SHIFT);
        let h1 = insert(&mut w, 10, 0);
        w.next_at(u64::MAX);
        let _ = w.discard_ready();
        // The slab node is reused for a new event; the old handle must not
        // reach it.
        let h2 = insert(&mut w, 20, 1);
        assert!(!w.cancel(h1), "stale handle after reuse");
        assert!(w.is_pending(h2));
        assert!(w.cancel(h2));
    }

    #[test]
    fn limit_tick_bounds_advance() {
        let mut w = TimingWheel::new(DEFAULT_TICK_SHIFT);
        insert(&mut w, 1_000_000, 0);
        assert!(w.next_at(100).is_none(), "event beyond limit stays put");
        // An event scheduled behind an already-advanced wheel still runs
        // in exact time order.
        insert(&mut w, 5_000, 1);
        let at = w.next_at(u64::MAX).unwrap();
        assert_eq!(at.as_nanos(), 5_000);
    }

    #[test]
    fn slab_reuses_nodes() {
        let mut w = TimingWheel::new(DEFAULT_TICK_SHIFT);
        for round in 0..10u64 {
            for i in 0..100u64 {
                insert(&mut w, round * 1000 + i, round * 100 + i);
            }
            while w.next_at(u64::MAX).is_some() {
                let _ = w.discard_ready();
            }
        }
        assert!(
            w.nodes.len() <= 100,
            "slab grew to {} nodes for 100 concurrent events",
            w.nodes.len()
        );
    }

    #[test]
    fn dense_same_time_burst() {
        let mut w = TimingWheel::new(DEFAULT_TICK_SHIFT);
        let _ = SimDuration::ZERO;
        for seq in 0..1000u64 {
            insert(&mut w, 42, seq);
        }
        let mut last = None;
        while w.next_at(u64::MAX).is_some() {
            let (_, seq) = w.discard_ready();
            if let Some(l) = last {
                assert!(seq > l);
            }
            last = Some(seq);
        }
        assert_eq!(last, Some(999));
    }
}
