//! Thread fan-out for independent experiment cells — the one way this
//! workspace uses a second core (DESIGN.md §2.2, "One simulation, one
//! thread").
//!
//! Every sweep point in fig06/fig09/fig11/fig12 builds a *fresh* `Sim`
//! and shares nothing with its siblings, so the cells can run on separate
//! OS threads. `Sim` itself is `!Send` (components share state via `Rc`),
//! which is why [`pmap`] takes `Send` *constructor* closures: each job
//! creates its whole simulation inside the worker thread. Results come
//! back in input index order regardless of completion order, so rendered
//! tables and JSON are byte-identical to a sequential run — determinism
//! per cell (seeded RNG, virtual time) plus deterministic collection
//! equals determinism of the whole figure.
//!
//! That a simulation stays on the thread that built it is enforced by the
//! compiler, not convention:
//!
//! ```compile_fail
//! fn require_send<T: Send>() {}
//! require_send::<nadino::cluster::Cluster>();
//! ```
//!
//! ```compile_fail
//! fn require_send<T: Send>() {}
//! require_send::<dne::Dne>();
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `jobs` closures on up to `threads` worker threads, returning
/// their results in input order.
///
/// `threads <= 1` runs inline on the caller's thread (the `--jobs 1`
/// path is the same code shape, just without the fan-out). A panicking
/// job propagates the panic to the caller once the pool joins.
pub fn pmap<T, F>(jobs: Vec<F>, threads: usize) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 {
        return jobs.into_iter().map(|f| f()).collect();
    }
    let queue: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|f| Mutex::new(Some(f))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let f = queue[i].lock().unwrap().take().expect("job taken once");
                let r = f();
                *results[i].lock().unwrap() = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("job completed"))
        .collect()
}

/// The machine's available parallelism (the `--jobs` default).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves a user-facing thread-count request: `0` means "auto" —
/// [`default_jobs`], i.e. `available_parallelism()` — anything else is
/// taken literally. Every entry point that accepts `--jobs` routes
/// through this, so `0` means the same thing everywhere, and callers
/// print the resolved value in their run header.
pub fn resolve_jobs(requested: usize) -> usize {
    if requested == 0 {
        default_jobs()
    } else {
        requested
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        // Jobs finish in scrambled wall-clock order; index order must hold.
        let jobs: Vec<_> = (0..32u64)
            .map(|i| {
                move || {
                    if i % 3 == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    }
                    i * i
                }
            })
            .collect();
        let seq: Vec<u64> = (0..32).map(|i| i * i).collect();
        assert_eq!(pmap(jobs.clone(), 1), seq);
        assert_eq!(pmap(jobs, 8), seq);
    }

    #[test]
    fn handles_empty_and_oversubscribed_pools() {
        let empty: Vec<fn() -> u32> = Vec::new();
        assert!(pmap(empty, 4).is_empty());
        let jobs: Vec<_> = (0..3u32).map(|i| move || i).collect();
        assert_eq!(pmap(jobs, 64), vec![0, 1, 2], "threads capped at job count");
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn zero_resolves_to_available_parallelism() {
        assert_eq!(resolve_jobs(0), default_jobs());
        assert_eq!(resolve_jobs(1), 1);
        assert_eq!(resolve_jobs(7), 7);
    }

    #[test]
    fn each_job_can_own_a_full_simulation() {
        // The whole point: !Send sims built inside the worker threads.
        let jobs: Vec<_> = (0..4u64)
            .map(|i| {
                move || {
                    let mut sim = simcore::Sim::new();
                    let hits = std::rc::Rc::new(std::cell::Cell::new(0u64));
                    for t in 0..=i {
                        let h = hits.clone();
                        sim.schedule_at(simcore::SimTime::from_nanos(t), move |_| {
                            h.set(h.get() + 1)
                        });
                    }
                    hits.set(0);
                    sim.run();
                    hits.get()
                }
            })
            .collect();
        assert_eq!(pmap(jobs, 4), vec![1, 2, 3, 4]);
    }
}
