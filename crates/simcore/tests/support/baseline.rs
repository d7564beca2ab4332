//! Reference binary-heap event engine.
//!
//! The oracle of `heap_differential.rs`: the engine's slab-backed event
//! heap must reproduce its execution order bit-for-bit. It is deliberately
//! the naive design: one `Box<dyn FnOnce>` per event pushed
//! into a global `BinaryHeap` (`O(log n)` per operation), with
//! cancellation grafted on via a tombstone set so randomized cancel
//! scripts can run against it.
//!
//! Test support, not part of the `simcore` API.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

use simcore::SimTime;

struct Scheduled {
    at: SimTime,
    seq: u64,
    run: Box<dyn FnOnce(&mut BaselineSim)>,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Counter snapshot mirroring `SimProfile`'s event counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BaselineProfile {
    pub scheduled_events: u64,
    pub executed_events: u64,
    pub cancelled_events: u64,
    pub pending_events: usize,
    pub peak_pending: usize,
}

/// The reference engine. Same scheduling semantics as [`simcore::Sim`]
/// (clamp-to-now, `(time, seq)` total order, `run_until` clock advance),
/// with `u64` sequence numbers as cancellation handles.
#[derive(Default)]
pub struct BaselineSim {
    now: SimTime,
    seq: u64,
    heap: BinaryHeap<Reverse<Scheduled>>,
    cancelled: HashSet<u64>,
    executed: u64,
    cancelled_count: u64,
    peak_pending: usize,
}

impl BaselineSim {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    pub fn pending_events(&self) -> usize {
        self.heap.len() - self.cancelled.len()
    }

    /// Schedules `f` at `at`, returning the event's sequence number as a
    /// cancellation handle.
    pub fn schedule_at<F: FnOnce(&mut BaselineSim) + 'static>(&mut self, at: SimTime, f: F) -> u64 {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Scheduled {
            at,
            seq,
            run: Box::new(f),
        }));
        self.peak_pending = self.peak_pending.max(self.pending_events());
        seq
    }

    /// Tombstones a pending event. Returns `true` if it was pending.
    pub fn cancel(&mut self, handle: u64) -> bool {
        if handle >= self.seq {
            return false;
        }
        // A handle at or above every pending seq could also be stale; the
        // tombstone set only holds live tombstones, so membership plus the
        // heap tells the truth.
        if self.heap.iter().any(|Reverse(s)| s.seq == handle) && self.cancelled.insert(handle) {
            self.cancelled_count += 1;
            true
        } else {
            false
        }
    }

    pub fn profile(&self) -> BaselineProfile {
        BaselineProfile {
            scheduled_events: self.seq,
            executed_events: self.executed,
            cancelled_events: self.cancelled_count,
            pending_events: self.pending_events(),
            peak_pending: self.peak_pending,
        }
    }

    pub fn step(&mut self) -> bool {
        while let Some(Reverse(ev)) = self.heap.pop() {
            // The empty-set check keeps the cancel-free hot path clear of
            // hashing, so the benchmark comparison stays fair.
            if !self.cancelled.is_empty() && self.cancelled.remove(&ev.seq) {
                continue;
            }
            self.now = ev.at;
            self.executed += 1;
            (ev.run)(self);
            return true;
        }
        false
    }

    pub fn run(&mut self) {
        while self.step() {}
    }

    pub fn run_until(&mut self, deadline: SimTime) {
        loop {
            match self.heap.peek() {
                Some(Reverse(ev)) if ev.at <= deadline => {
                    if !self.step() {
                        break;
                    }
                }
                _ => break,
            }
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }
}
