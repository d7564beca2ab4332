//! A single-producer single-consumer descriptor ring.
//!
//! Comch-P ("producer-consumer ring with busy polling", §3.5.4) and the
//! intra-node descriptor fast path both reduce to an SPSC ring of 16-byte
//! descriptors. The ring lives on the simulation's one thread, like the
//! pool (DESIGN.md §2.2): a bounded queue in a `RefCell`, shared by its two
//! endpoints through an `Rc`. It carries any payload but is typically used
//! with [`crate::BufferDesc`].

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

struct RingShared<T> {
    queue: RefCell<VecDeque<T>>,
    capacity: usize,
}

/// Handle used to construct an SPSC ring.
pub struct SpscRing;

impl SpscRing {
    /// Creates a ring with capacity rounded up to a power of two, returning
    /// the two endpoints.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use membuf::SpscRing;
    ///
    /// let (tx, rx) = SpscRing::with_capacity::<u64>(4);
    /// tx.push(1).unwrap();
    /// assert_eq!(rx.pop(), Some(1));
    /// assert_eq!(rx.pop(), None);
    /// ```
    pub fn with_capacity<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
        assert!(capacity > 0, "ring capacity must be positive");
        let capacity = capacity.next_power_of_two();
        let queue = RefCell::new(VecDeque::with_capacity(capacity));
        let shared = Rc::new(RingShared { queue, capacity });
        let producer = Producer {
            shared: shared.clone(),
        };
        (producer, Consumer { shared })
    }
}

/// The producing endpoint; exactly one exists per ring.
pub struct Producer<T> {
    shared: Rc<RingShared<T>>,
}

/// The consuming endpoint; exactly one exists per ring.
pub struct Consumer<T> {
    shared: Rc<RingShared<T>>,
}

impl<T> Producer<T> {
    /// Pushes an item, returning it back in `Err` when the ring is full.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut queue = self.shared.queue.borrow_mut();
        if queue.len() == self.shared.capacity {
            return Err(item);
        }
        queue.push_back(item);
        Ok(())
    }

    /// Returns the number of items currently queued.
    pub fn len(&self) -> usize {
        self.shared.queue.borrow().len()
    }

    /// Returns `true` if the ring holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the ring capacity.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }
}

impl<T> Consumer<T> {
    /// Pops the oldest item, or `None` when the ring is empty.
    pub fn pop(&self) -> Option<T> {
        self.shared.queue.borrow_mut().pop_front()
    }

    /// Returns the number of items currently queued.
    pub fn len(&self) -> usize {
        self.shared.queue.borrow().len()
    }

    /// Returns `true` if the ring holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_single_thread() {
        let (tx, rx) = SpscRing::with_capacity::<u32>(8);
        for i in 0..8 {
            tx.push(i).unwrap();
        }
        assert!(tx.push(99).is_err(), "ring full");
        for i in 0..8 {
            assert_eq!(rx.pop(), Some(i));
        }
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        let (tx, _rx) = SpscRing::with_capacity::<u8>(5);
        assert_eq!(tx.capacity(), 8);
    }

    #[test]
    fn wraps_around_many_times() {
        let (tx, rx) = SpscRing::with_capacity::<u64>(4);
        for i in 0..10_000u64 {
            tx.push(i).unwrap();
            assert_eq!(rx.pop(), Some(i));
        }
    }

    #[test]
    fn len_tracks_occupancy() {
        let (tx, rx) = SpscRing::with_capacity::<u8>(8);
        assert!(tx.is_empty());
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        assert_eq!(tx.len(), 2);
        assert_eq!(rx.len(), 2);
        rx.pop();
        assert_eq!(rx.len(), 1);
    }

    #[test]
    fn carries_buffer_descriptors() {
        use crate::descriptor::BufferDesc;
        let (tx, rx) = SpscRing::with_capacity::<BufferDesc>(4);
        let d = BufferDesc {
            tenant: 1,
            pool_id: 2,
            buf_index: 3,
            len: 4,
            generation: 5,
            dst_fn: 6,
        };
        tx.push(d).unwrap();
        assert_eq!(rx.pop(), Some(d));
    }
}
