//! Token-passing ownership transfer between pipeline stages.
//!
//! §3.5.1 of the paper transfers buffer ownership along a function chain
//! `A → B → C` with one semaphore per communicating pair: the upstream
//! producer `sem_post`s, the downstream consumer `sem_wait`s, emulating a
//! single-producer single-consumer ring without locks on the data itself.
//! [`Semaphore`] is the counting semaphore and [`TokenChain`] wires one
//! semaphore per edge of a linear chain.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A counting semaphore (the `sem_post`/`sem_wait` of §3.5.1).
///
/// # Examples
///
/// ```
/// use membuf::Semaphore;
///
/// let sem = Semaphore::new(0);
/// sem.post();
/// sem.wait(); // consumes the token immediately
/// assert_eq!(sem.value(), 0);
/// ```
#[derive(Clone)]
pub struct Semaphore {
    inner: Arc<(Mutex<u64>, Condvar)>,
}

impl Semaphore {
    /// Creates a semaphore with an initial token count.
    pub fn new(initial: u64) -> Self {
        Semaphore {
            inner: Arc::new((Mutex::new(initial), Condvar::new())),
        }
    }

    /// Adds one token and wakes one waiter.
    pub fn post(&self) {
        let (lock, cvar) = &*self.inner;
        let mut count = lock.lock().unwrap();
        *count += 1;
        cvar.notify_one();
    }

    /// Blocks until a token is available, then consumes it.
    pub fn wait(&self) {
        let (lock, cvar) = &*self.inner;
        let mut count = lock.lock().unwrap();
        while *count == 0 {
            count = cvar.wait(count).unwrap();
        }
        *count -= 1;
    }

    /// Consumes a token if one is available without blocking.
    pub fn try_wait(&self) -> bool {
        let (lock, _) = &*self.inner;
        let mut count = lock.lock().unwrap();
        if *count > 0 {
            *count -= 1;
            true
        } else {
            false
        }
    }

    /// Waits up to `timeout` for a token; returns `false` on timeout.
    pub fn wait_timeout(&self, timeout: Duration) -> bool {
        let (lock, cvar) = &*self.inner;
        let mut count = lock.lock().unwrap();
        let deadline = std::time::Instant::now() + timeout;
        while *count == 0 {
            let now = std::time::Instant::now();
            let Some(left) = deadline.checked_duration_since(now) else {
                return false;
            };
            let (guard, result) = cvar.wait_timeout(count, left).unwrap();
            count = guard;
            if result.timed_out() && *count == 0 {
                return false;
            }
        }
        *count -= 1;
        true
    }

    /// Returns the current token count (racy; for tests and diagnostics).
    pub fn value(&self) -> u64 {
        *self.inner.0.lock().unwrap()
    }
}

/// Per-edge semaphores for a linear chain of `n` stages.
///
/// Stage `i` hands ownership to stage `i + 1` by calling
/// [`TokenChain::pass`]; stage `i + 1` blocks in [`TokenChain::acquire`]
/// until the token arrives. All semaphores start at zero, matching the
/// paper's initialization.
pub struct TokenChain {
    edges: Vec<Semaphore>,
}

impl TokenChain {
    /// Creates the semaphores for a chain of `stages` stages.
    ///
    /// # Panics
    ///
    /// Panics if `stages < 2` (a chain needs at least one edge).
    pub fn new(stages: usize) -> Self {
        assert!(stages >= 2, "a token chain needs at least two stages");
        TokenChain {
            edges: (0..stages - 1).map(|_| Semaphore::new(0)).collect(),
        }
    }

    /// Returns the number of stages.
    pub fn stages(&self) -> usize {
        self.edges.len() + 1
    }

    /// Stage `from` passes ownership downstream to stage `from + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is the last stage.
    pub fn pass(&self, from: usize) {
        assert!(from < self.edges.len(), "last stage has no downstream edge");
        self.edges[from].post();
    }

    /// Stage `to` blocks until ownership arrives from stage `to - 1`.
    ///
    /// # Panics
    ///
    /// Panics if `to == 0` (the head of the chain owns the buffer initially).
    pub fn acquire(&self, to: usize) {
        assert!(to >= 1 && to <= self.edges.len(), "invalid consumer stage");
        self.edges[to - 1].wait();
    }

    /// Returns the semaphore for edge `from → from + 1` (for integration
    /// with event loops that poll many chains).
    pub fn edge(&self, from: usize) -> &Semaphore {
        &self.edges[from]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn post_then_wait_does_not_block() {
        let s = Semaphore::new(0);
        s.post();
        s.post();
        s.wait();
        s.wait();
        assert!(!s.try_wait());
    }

    #[test]
    fn wait_timeout_expires() {
        let s = Semaphore::new(0);
        assert!(!s.wait_timeout(Duration::from_millis(10)));
        s.post();
        assert!(s.wait_timeout(Duration::from_millis(10)));
    }

    #[test]
    fn wakes_blocked_waiter() {
        let s = Semaphore::new(0);
        let s2 = s.clone();
        let h = std::thread::spawn(move || s2.wait());
        std::thread::sleep(Duration::from_millis(20));
        s.post();
        h.join().unwrap();
    }

    #[test]
    fn chain_orders_three_stages() {
        // A -> B -> C with a shared counter: each stage appends its id only
        // after acquiring the token, so order must be 0, 1, 2.
        let chain = Arc::new(TokenChain::new(3));
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for stage in (1..3).rev() {
            let chain = chain.clone();
            let order = order.clone();
            handles.push(std::thread::spawn(move || {
                chain.acquire(stage);
                order.lock().unwrap().push(stage);
                if stage + 1 < chain.stages() {
                    chain.pass(stage);
                }
            }));
        }
        order.lock().unwrap().push(0);
        chain.pass(0);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn tokens_are_conserved_under_contention() {
        // N posts from many threads are matched by exactly N successful waits.
        let s = Semaphore::new(0);
        let posted = 1_000;
        let consumed = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let s = s.clone();
            let consumed = consumed.clone();
            handles.push(std::thread::spawn(move || {
                while s.wait_timeout(Duration::from_millis(100)) {
                    consumed.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        for _ in 0..posted {
            s.post();
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(consumed.load(Ordering::Relaxed), posted);
        assert_eq!(s.value(), 0);
    }

    #[test]
    #[should_panic(expected = "at least two stages")]
    fn single_stage_chain_panics() {
        let _ = TokenChain::new(1);
    }
}
