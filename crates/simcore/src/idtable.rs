//! Tables keyed by the small integer ids the substrates hand out.
//!
//! Every per-message lookup in the fabric and the network engine is keyed
//! by an id some counter allocated (QP, tenant, function, WR, retry). A
//! hash map pays a SipHash round and a probe for each; these two tables
//! pay an index instead.
//!
//! - [`IdTable`] serves ids that live long and may be sparse (tenant,
//!   function, QP): `index[id]` names a slot in a dense entry vector, so an
//!   absent or removed id costs one `u32`, never an entry.
//! - [`IdRing`] serves ids from a monotone counter whose entries die
//!   roughly in allocation order (posted WRs, parked retries): a deque
//!   covering `[oldest live id, newest live id]`, so its size follows the
//!   in-flight window, not the ids ever issued.

use std::collections::VecDeque;

const ABSENT: u32 = u32::MAX;

/// A map from `u32` ids to values, indexed rather than hashed.
///
/// Memory is 4 B per id up to the largest ever inserted plus one entry per
/// *live* id; removal frees the entry for reuse and leaves only the 4 B
/// tombstone. Iteration order is unspecified but deterministic (it depends
/// only on the insert/remove history).
#[derive(Debug, Clone)]
pub struct IdTable<T> {
    /// `id → slot in entries`, [`ABSENT`] when the id is not present.
    index: Vec<u32>,
    entries: Vec<(u32, T)>,
}

impl<T> Default for IdTable<T> {
    fn default() -> Self {
        IdTable::new()
    }
}

impl<T> IdTable<T> {
    /// Creates an empty table.
    pub const fn new() -> Self {
        IdTable {
            index: Vec::new(),
            entries: Vec::new(),
        }
    }

    fn slot(&self, id: u32) -> Option<usize> {
        match self.index.get(id as usize) {
            Some(&s) if s != ABSENT => Some(s as usize),
            _ => None,
        }
    }

    /// Returns the value stored under `id`.
    #[inline]
    pub fn get(&self, id: u32) -> Option<&T> {
        self.slot(id).map(|s| &self.entries[s].1)
    }

    /// Returns the value stored under `id`, mutably.
    #[inline]
    pub fn get_mut(&mut self, id: u32) -> Option<&mut T> {
        self.slot(id).map(|s| &mut self.entries[s].1)
    }

    /// Returns `true` when `id` is present.
    pub fn contains(&self, id: u32) -> bool {
        self.slot(id).is_some()
    }

    /// Stores `value` under `id`, returning the value it replaced.
    pub fn insert(&mut self, id: u32, value: T) -> Option<T> {
        if let Some(s) = self.slot(id) {
            return Some(std::mem::replace(&mut self.entries[s].1, value));
        }
        if self.index.len() <= id as usize {
            self.index.resize(id as usize + 1, ABSENT);
        }
        self.index[id as usize] = self.entries.len() as u32;
        self.entries.push((id, value));
        None
    }

    /// Returns the value under `id`, inserting `make()` first when absent.
    pub fn get_or_insert_with(&mut self, id: u32, make: impl FnOnce() -> T) -> &mut T {
        let s = match self.slot(id) {
            Some(s) => s,
            None => {
                self.insert(id, make());
                self.entries.len() - 1
            }
        };
        &mut self.entries[s].1
    }

    /// Removes and returns the value under `id`.
    pub fn remove(&mut self, id: u32) -> Option<T> {
        let s = self.slot(id)?;
        self.index[id as usize] = ABSENT;
        let (_, value) = self.entries.swap_remove(s);
        if let Some(&(moved, _)) = self.entries.get(s) {
            self.index[moved as usize] = s as u32;
        }
        Some(value)
    }

    /// Returns the number of live ids.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when no id is present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(id, value)` over the live ids.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.entries.iter().map(|(id, v)| (*id, v))
    }
}

/// A map from `u64` ids issued by a counter to values, stored as a deque
/// spanning the oldest to the newest live id.
///
/// Lookup, insert and remove are O(1) amortized. Memory is one slot per id
/// in `[oldest live, newest live]`, so one long-lived entry pins every
/// younger slot until it is removed — right for WRs and retries, which
/// complete within a bounded time, wrong for ids that may never die.
#[derive(Debug, Clone)]
pub struct IdRing<T> {
    /// The id `slots[0]` stands for (meaningless while `slots` is empty).
    base: u64,
    slots: VecDeque<Option<T>>,
    live: usize,
}

impl<T> Default for IdRing<T> {
    fn default() -> Self {
        IdRing::new()
    }
}

impl<T> IdRing<T> {
    /// Creates an empty ring.
    pub const fn new() -> Self {
        IdRing {
            base: 0,
            slots: VecDeque::new(),
            live: 0,
        }
    }

    fn pos(&self, id: u64) -> Option<usize> {
        let off = id.checked_sub(self.base)?;
        (off < self.slots.len() as u64).then_some(off as usize)
    }

    /// Returns the value stored under `id`.
    #[inline]
    pub fn get(&self, id: u64) -> Option<&T> {
        self.pos(id).and_then(|p| self.slots[p].as_ref())
    }

    /// Returns the value stored under `id`, mutably.
    #[inline]
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        self.pos(id).and_then(|p| self.slots[p].as_mut())
    }

    /// Stores `value` under `id`, returning the value it replaced. The
    /// ring grows (at either end) to cover `id`.
    pub fn insert(&mut self, id: u64, value: T) -> Option<T> {
        if self.slots.is_empty() {
            self.base = id;
        }
        while id < self.base {
            self.slots.push_front(None);
            self.base -= 1;
        }
        while id - self.base >= self.slots.len() as u64 {
            self.slots.push_back(None);
        }
        let old = self.slots[(id - self.base) as usize].replace(value);
        self.live += usize::from(old.is_none());
        old
    }

    /// Removes and returns the value under `id`, then releases the dead
    /// slots at both ends.
    pub fn remove(&mut self, id: u64) -> Option<T> {
        let value = self.pos(id).and_then(|p| self.slots[p].take())?;
        self.live -= 1;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        while let Some(None) = self.slots.back() {
            self.slots.pop_back();
        }
        Some(value)
    }

    /// Returns the number of live ids.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Returns `true` when no id is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Returns how many slots the ring spans (live ids plus the dead ones
    /// a live id still pins).
    pub fn span(&self) -> usize {
        self.slots.len()
    }

    /// Iterates `(id, value)` over the live ids in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        let base = self.base;
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(i, s)| s.as_ref().map(|v| (base + i as u64, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;
    use std::collections::BTreeMap;

    #[test]
    fn table_absent_ids_cost_an_index_word_not_an_entry() {
        let mut t: IdTable<[u8; 256]> = IdTable::new();
        t.insert(60_000, [1; 256]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.index.len(), 60_001);
        assert_eq!(t.get(59_999), None);
        assert_eq!(t.get(70_000), None, "past the end is absent, not a panic");
        assert_eq!(t.remove(60_000).map(|v| v[0]), Some(1));
        assert_eq!(t.remove(60_000), None, "a tombstone stays absent");
        assert!(t.is_empty());
    }

    /// Property: random insert / overwrite / remove / lookup sequences
    /// agree with a `BTreeMap` at every step, including the swap-remove
    /// fix-up of the moved entry's index word.
    #[test]
    fn table_matches_btreemap_model() {
        for seed in 0..8u64 {
            let mut rng = SimRng::new(0x1D7A + seed);
            let mut table: IdTable<u64> = IdTable::new();
            let mut model: BTreeMap<u32, u64> = BTreeMap::new();
            for step in 0..4_000u64 {
                let id = rng.gen_range(96) as u32 * if rng.chance(0.1) { 97 } else { 1 };
                match rng.gen_range(4) {
                    0 | 1 => assert_eq!(table.insert(id, step), model.insert(id, step)),
                    2 => assert_eq!(table.remove(id), model.remove(&id)),
                    _ => {
                        *table.get_or_insert_with(id, || step) += 1;
                        *model.entry(id).or_insert(step) += 1;
                    }
                }
                assert_eq!(table.get(id), model.get(&id));
                assert_eq!(table.contains(id), model.contains_key(&id));
                assert_eq!(table.len(), model.len());
            }
            let mut seen: Vec<(u32, u64)> = table.iter().map(|(id, v)| (id, *v)).collect();
            seen.sort_unstable();
            assert_eq!(seen, model.into_iter().collect::<Vec<_>>());
        }
    }

    #[test]
    fn ring_span_follows_the_live_window() {
        let mut r: IdRing<u32> = IdRing::new();
        for id in 100..200u64 {
            r.insert(id, id as u32);
        }
        assert_eq!((r.len(), r.span()), (100, 100));
        // In-order completion: the window slides, nothing accumulates.
        for id in 100..190u64 {
            assert_eq!(r.remove(id), Some(id as u32));
        }
        assert_eq!((r.len(), r.span()), (10, 10));
        // Out-of-order: a dead middle slot is held until an end reaches it.
        assert_eq!(r.remove(195), Some(195));
        assert_eq!((r.len(), r.span()), (9, 10));
        assert_eq!(r.remove(195), None, "double remove is rejected");
        assert_eq!(r.get(99), None);
        assert_eq!(r.get(u64::MAX), None, "far ids are absent, not allocated");
        // Re-parking an id below the window grows the ring downwards.
        r.insert(188, 7);
        assert_eq!(r.iter().next(), Some((188, &7)));
        assert_eq!(r.span(), 12);
    }

    /// Property: counter-issued ids inserted in order, completed out of
    /// order, occasionally re-inserted under their old id, agree with a
    /// `BTreeMap` (including ascending iteration), and the span never
    /// exceeds the live id window.
    #[test]
    fn ring_matches_btreemap_model_under_out_of_order_completion() {
        for seed in 0..8u64 {
            let mut rng = SimRng::new(0x12_176 + seed);
            let mut ring: IdRing<u64> = IdRing::new();
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            let mut next = 1u64 << 40;
            let mut dead: Vec<u64> = Vec::new();
            for step in 0..6_000u64 {
                match rng.gen_range(8) {
                    0..=3 => {
                        assert_eq!(ring.insert(next, step), model.insert(next, step));
                        next += 1;
                    }
                    4 | 5 if !model.is_empty() => {
                        // Mostly the oldest (FIFO completion), sometimes any.
                        let nth = if rng.chance(0.7) {
                            0
                        } else {
                            rng.gen_range(model.len() as u64) as usize
                        };
                        let id = *model.keys().nth(nth).expect("in range");
                        assert_eq!(ring.remove(id), model.remove(&id));
                        dead.push(id);
                    }
                    6 if !dead.is_empty() => {
                        let id = dead.swap_remove(rng.gen_range(dead.len() as u64) as usize);
                        assert_eq!(ring.insert(id, step), model.insert(id, step));
                    }
                    _ => {
                        let id = next - rng.gen_range(64).min(next);
                        assert_eq!(ring.get(id), model.get(&id));
                        assert_eq!(ring.remove(id), model.remove(&id));
                    }
                }
                assert_eq!(ring.len(), model.len());
                let window = match (model.keys().next(), model.keys().next_back()) {
                    (Some(lo), Some(hi)) => (hi - lo + 1) as usize,
                    _ => 0,
                };
                assert_eq!(ring.span(), window, "span is exactly the live window");
            }
            let seen: Vec<(u64, u64)> = ring.iter().map(|(id, v)| (id, *v)).collect();
            assert_eq!(seen, model.into_iter().collect::<Vec<_>>());
        }
    }
}
