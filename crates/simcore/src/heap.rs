//! The engine's event queue: one array-backed binary min-heap.
//!
//! Heap entries are flat `(time, seq, slab index)` triples ordered by
//! `(time, seq)`, the engine's total order, so popping the minimum is
//! popping the next event, ties broken by scheduling order — bit-for-bit
//! the execution order of the reference engine
//! (`tests/support/baseline.rs`). The queue stays small: the benchmark
//! workloads peak at 10–22 pending events (`simcore.peak_pending`), a heap
//! three to five levels deep that lives in a few cache lines. Both sifts
//! walk one path with a hole and a branch-free `(time, seq)` comparison:
//! against `std::collections::BinaryHeap<Reverse<_>>`, which sifts a pop
//! to the bottom and back up, that took echo_small's median
//! `host_ns_per_req` from 2 466 to 2 369 ns (ten alternating pairs, nine
//! won, on a 2-core x86-64 box).
//!
//! Event closures live in a slab with an intrusive free list (see
//! [`crate::event::EventFn`] for the in-place closure representation), so
//! steady-state scheduling allocates nothing. A closure is written into
//! its node when scheduled and called from it when due
//! ([`EventHeap::insert`], [`EventHeap::pop_due`]); the slab is only
//! touched then or on cancellation, never while entries sift. Generation
//! counts make [`TimerHandle`]s safe to hold after the event fired:
//! cancelling a dead handle is a no-op. Cancellation is lazy: the closure
//! is dropped at once, its entry when it reaches the top.

use crate::engine::Sim;
use crate::event::{CallFn, EventFn};
use crate::time::SimTime;

const NIL: u32 = u32::MAX;

/// A queued event's identity: its slab index, at its place in the
/// engine's total order.
#[derive(Clone, Copy)]
struct Entry {
    at: SimTime,
    seq: u64,
    idx: u32,
}

impl Entry {
    /// `(at, seq) < (other.at, other.seq)`, without a branch.
    #[inline(always)]
    fn before(&self, other: &Entry) -> bool {
        (self.at < other.at) | ((self.at == other.at) & (self.seq < other.seq))
    }
}

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
/// [`TimerHandle`]s honest. Queue position lives in the heap [`Entry`]s.
struct Node {
    gen: u32,
    /// Free-list link while the node is unallocated.
    next: u32,
    /// Armed while pending; emptied on execution or cancellation.
    event: EventFn,
}

/// A due event taken off the queue by [`EventHeap::pop_due`]: its handle
/// is already stale and it no longer counts as pending, but its closure
/// still sits in slab node `idx`, which stays off the free list until
/// [`EventHeap::free`] — so nothing can be scheduled over the payload
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
    /// so nothing is dropped twice) and the queue stays consistent.
    #[inline]
    pub fn run(self, sim: &mut Sim) {
        // SAFETY: `pop_due` took `call` and `data` out of node `idx` and
        // nothing has touched the slab since (the caller holds the only
        // `&mut Sim`), so `data` is the live payload `call` expects; `call`
        // reads it out before any user code can reallocate the slab.
        // Exercised by every `Sim` test, and across a slab reallocation by
        // `engine::tests::a_handler_may_outgrow_the_slab_it_runs_from`.
        unsafe { (self.call)(self.data, sim) };
        sim.events.free(self.idx);
    }
}

#[derive(Default)]
pub(crate) struct EventHeap {
    /// Queued entries as an implicit binary tree (the children of `i` are
    /// `2i + 1` and `2i + 2`), none before its parent; cancelled ones stay
    /// until they reach the top.
    heap: Vec<Entry>,
    nodes: Vec<Node>,
    free_head: u32,
    /// Queued, not-cancelled events.
    live: usize,
}

impl EventHeap {
    pub fn new() -> EventHeap {
        EventHeap {
            free_head: NIL,
            ..EventHeap::default()
        }
    }

    /// Adds `entry`, moving the hole it fills up from the last leaf.
    #[inline]
    fn push(&mut self, entry: Entry) {
        let mut hole = self.heap.len();
        self.heap.push(entry);
        while hole > 0 {
            let parent = (hole - 1) / 2;
            if !entry.before(&self.heap[parent]) {
                break;
            }
            self.heap[hole] = self.heap[parent];
            hole = parent;
        }
        self.heap[hole] = entry;
    }

    /// Removes the first entry, moving the hole it leaves down until the
    /// last entry fits.
    #[inline]
    fn pop_top(&mut self) {
        let Some(last) = self.heap.pop() else { return };
        let len = self.heap.len();
        if len == 0 {
            return;
        }
        let mut hole = 0;
        loop {
            let mut child = 2 * hole + 1;
            if child >= len {
                break;
            }
            if child + 1 < len && self.heap[child + 1].before(&self.heap[child]) {
                child += 1;
            }
            if !self.heap[child].before(&last) {
                break;
            }
            self.heap[hole] = self.heap[child];
            hole = child;
        }
        self.heap[hole] = last;
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
        debug_assert!(!node.event.is_armed(), "freeing a node with a live event");
        node.gen = node.gen.wrapping_add(1);
        node.next = self.free_head;
        self.free_head = idx;
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

    /// The closure-type-independent part of [`EventHeap::insert`]: queues
    /// an entry and returns its still-empty slot for the caller to arm.
    fn enqueue(&mut self, at: SimTime, seq: u64) -> (TimerHandle, &mut EventFn) {
        let idx = self.alloc();
        self.push(Entry { at, seq, idx });
        self.live += 1;
        let node = &mut self.nodes[idx as usize];
        let handle = TimerHandle { idx, gen: node.gen };
        (handle, &mut node.event)
    }

    /// Deschedules the event behind `h`. Returns `false` for stale handles
    /// (already fired, already cancelled, or slab slot since reused).
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
                 Some(node) if node.gen == h.gen && node.event.is_armed())
    }

    /// Takes the next event with `at <= deadline` off the queue, or returns
    /// `None` (leaving the event queued) when the queue is drained or the
    /// next event is beyond `deadline`. Cancelled entries met on the way
    /// are discarded whatever their time.
    ///
    /// From here on the event is no longer pending — its handle is stale
    /// and [`EventHeap::live`] no longer counts it — so a handler that
    /// cancels or queries its own handle gets `false`.
    #[inline]
    pub fn pop_due(&mut self, deadline: SimTime) -> Option<Due> {
        while let Some(&Entry { at, idx, .. }) = self.heap.first() {
            if at > deadline && self.nodes[idx as usize].event.is_armed() {
                return None;
            }
            self.pop_top();
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
        None
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use crate::engine::Sim;
    use crate::time::SimTime;

    type Log = Rc<RefCell<Vec<(u64, u64)>>>;

    /// Schedules an event at `ns` that logs `(ns, seq)`, where `seq` is
    /// its scheduling order.
    fn insert(sim: &mut Sim, log: &Log, ns: u64) -> super::TimerHandle {
        let (log, seq) = (log.clone(), sim.profile().scheduled_events);
        sim.schedule_at(SimTime::from_nanos(ns), move |_| {
            log.borrow_mut().push((ns, seq))
        })
    }

    #[test]
    fn orders_across_time_scales() {
        let (mut sim, log) = (Sim::new(), Log::default());
        // ns, µs, ms, s and minutes, out of order.
        let times = [
            50,
            1_000,
            90_000,
            7_000_000,
            2_000_000_000,
            40_000_000_000,
            400_000_000_000,
            3,
        ];
        for t in times {
            insert(&mut sim, &log, t);
        }
        sim.run();
        let mut sorted = times.to_vec();
        sorted.sort_unstable();
        let popped: Vec<u64> = log.borrow().iter().map(|&(ns, _)| ns).collect();
        assert_eq!(popped, sorted);
        assert_eq!(sim.events.live(), 0);
    }

    #[test]
    fn same_instant_events_keep_seq_order() {
        let (mut sim, log) = (Sim::new(), Log::default());
        for ns in [130, 128, 130, 131] {
            insert(&mut sim, &log, ns);
        }
        sim.run();
        assert_eq!(*log.borrow(), [(128, 1), (130, 0), (130, 2), (131, 3)]);
    }

    #[test]
    fn cancel_is_lazy_but_effective() {
        let (mut sim, log) = (Sim::new(), Log::default());
        let h1 = insert(&mut sim, &log, 500);
        let h2 = insert(&mut sim, &log, 1_000_000);
        assert!(sim.is_scheduled(h1) && sim.is_scheduled(h2));
        assert!(sim.cancel(h1));
        assert!(!sim.cancel(h1), "double cancel is a no-op");
        assert_eq!(sim.pending_events(), 1);
        assert_eq!(sim.events.heap.len(), 2, "the entry stays queued");
        sim.run();
        assert_eq!(*log.borrow(), [(1_000_000, 1)], "cancelled event skipped");
        assert!(!sim.cancel(h2), "fired handles are stale");
        assert!(sim.events.heap.is_empty());
    }

    #[test]
    fn handles_survive_slab_reuse() {
        let (mut sim, log) = (Sim::new(), Log::default());
        let h1 = insert(&mut sim, &log, 10);
        sim.run();
        // The slab node is reused for a new event; the old handle must not
        // reach it.
        let h2 = insert(&mut sim, &log, 20);
        assert!(!sim.cancel(h1), "stale handle after reuse");
        assert!(sim.is_scheduled(h2));
        assert!(sim.cancel(h2));
    }

    #[test]
    fn run_until_leaves_later_events_queued() {
        let (mut sim, log) = (Sim::new(), Log::default());
        insert(&mut sim, &log, 1_000_000);
        sim.run_until(SimTime::from_nanos(100));
        assert!(
            log.borrow().is_empty(),
            "event beyond the deadline stays put"
        );
        assert_eq!(sim.pending_events(), 1);
        // An event scheduled after the clock moved still runs in exact time
        // order ahead of the one left queued.
        insert(&mut sim, &log, 5_000);
        sim.run_until(SimTime::from_nanos(5_000));
        assert_eq!(*log.borrow(), [(5_000, 1)]);
        sim.run();
        assert_eq!(log.borrow().len(), 2);
    }

    #[test]
    fn slab_reuses_nodes() {
        let (mut sim, log) = (Sim::new(), Log::default());
        for round in 0..10u64 {
            for i in 0..100u64 {
                insert(&mut sim, &log, round * 1000 + i);
            }
            sim.run();
        }
        assert_eq!(log.borrow().len(), 1000);
        let nodes = sim.events.nodes.len();
        assert!(
            nodes <= 100,
            "slab grew to {nodes} nodes for 100 concurrent events"
        );
    }

    #[test]
    fn dense_same_time_burst() {
        let (mut sim, log) = (Sim::new(), Log::default());
        for _ in 0..1000 {
            insert(&mut sim, &log, 42);
        }
        sim.run();
        let seqs: Vec<u64> = log.borrow().iter().map(|&(_, seq)| seq).collect();
        assert_eq!(seqs, (0..1000).collect::<Vec<_>>());
    }
}
