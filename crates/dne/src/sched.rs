//! Tenant schedulers: Deficit Weighted Round Robin and FCFS.
//!
//! §3.3: "Traffic from tenants of greater importance is prioritized using a
//! Deficit Weighted Round Robin-like scheduler" — [`DwrrScheduler`] is the
//! classic Shreedhar–Varghese algorithm with per-tenant quantum equal to
//! `weight × base quantum` and unit service cost per descriptor.
//! [`FcfsScheduler`] is the no-isolation baseline Fig. 15 compares against.

use std::collections::VecDeque;

use membuf::tenant::TenantId;

/// A work scheduler across tenant queues.
pub trait TenantScheduler<T> {
    /// Registers a tenant with a scheduling weight.
    fn register(&mut self, tenant: TenantId, weight: u32);
    /// Enqueues an item for a tenant (unknown tenants are auto-registered
    /// with weight 1).
    fn enqueue(&mut self, tenant: TenantId, item: T);
    /// Dequeues the next item according to the policy.
    fn dequeue(&mut self) -> Option<(TenantId, T)>;
    /// Returns the number of queued items.
    fn len(&self) -> usize;
    /// Returns `true` when no items are queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Returns the number of queued items for one tenant.
    fn tenant_backlog(&self, tenant: TenantId) -> usize;
    /// Returns the tenant's current scheduling deficit, for policies that
    /// maintain one (`None` otherwise — e.g. FCFS).
    fn deficit_of(&self, tenant: TenantId) -> Option<f64> {
        let _ = tenant;
        None
    }
    /// Returns every registered tenant, for observability sweeps.
    fn tenants(&self) -> Vec<TenantId> {
        Vec::new()
    }
}

struct DwrrQueue<T> {
    tenant: TenantId,
    weight: u32,
    deficit: f64,
    queue: VecDeque<T>,
}

/// Deficit Weighted Round Robin over per-tenant queues.
///
/// # Examples
///
/// ```
/// use dne::sched::{DwrrScheduler, TenantScheduler};
/// use membuf::tenant::TenantId;
///
/// let mut s = DwrrScheduler::new(1.0);
/// s.register(TenantId(1), 3);
/// s.register(TenantId(2), 1);
/// for i in 0..8 {
///     s.enqueue(TenantId(1), i);
///     s.enqueue(TenantId(2), i);
/// }
/// // Over a long run tenant 1 gets ~3x the service of tenant 2.
/// let first: Vec<_> = (0..4).filter_map(|_| s.dequeue()).map(|(t, _)| t).collect();
/// assert_eq!(first.len(), 4);
/// assert!(first.iter().filter(|t| **t == TenantId(1)).count() >= 3);
/// ```
pub struct DwrrScheduler<T> {
    queues: Vec<DwrrQueue<T>>,
    cursor: usize,
    quantum: f64,
    total: usize,
}

impl<T> DwrrScheduler<T> {
    /// Creates a scheduler with the given base quantum (messages per weight
    /// unit per round).
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is not positive.
    pub fn new(quantum: f64) -> Self {
        assert!(quantum > 0.0, "DWRR quantum must be positive");
        DwrrScheduler {
            queues: Vec::new(),
            cursor: 0,
            quantum,
            total: 0,
        }
    }

    fn index_of(&self, tenant: TenantId) -> Option<usize> {
        self.queues.iter().position(|q| q.tenant == tenant)
    }
}

impl<T> TenantScheduler<T> for DwrrScheduler<T> {
    fn register(&mut self, tenant: TenantId, weight: u32) {
        assert!(weight > 0, "tenant weight must be positive");
        match self.index_of(tenant) {
            Some(i) => self.queues[i].weight = weight,
            None => self.queues.push(DwrrQueue {
                tenant,
                weight,
                deficit: 0.0,
                queue: VecDeque::new(),
            }),
        }
    }

    fn enqueue(&mut self, tenant: TenantId, item: T) {
        let i = match self.index_of(tenant) {
            Some(i) => i,
            None => {
                self.register(tenant, 1);
                self.queues.len() - 1
            }
        };
        self.queues[i].queue.push_back(item);
        self.total += 1;
    }

    fn dequeue(&mut self) -> Option<(TenantId, T)> {
        if self.total == 0 {
            return None;
        }
        let n = self.queues.len();
        loop {
            let q = &mut self.queues[self.cursor];
            if q.deficit >= 1.0 {
                if let Some(item) = q.queue.pop_front() {
                    q.deficit -= 1.0;
                    self.total -= 1;
                    return Some((q.tenant, item));
                }
            }
            // This tenant's turn ends: empty queues forfeit their deficit
            // (classic DRR), then the next backlogged tenant earns a quantum.
            if q.queue.is_empty() {
                q.deficit = 0.0;
            }
            self.cursor = (self.cursor + 1) % n;
            let q = &mut self.queues[self.cursor];
            if !q.queue.is_empty() {
                q.deficit += q.weight as f64 * self.quantum;
            }
        }
    }

    fn len(&self) -> usize {
        self.total
    }

    fn tenant_backlog(&self, tenant: TenantId) -> usize {
        self.index_of(tenant)
            .map(|i| self.queues[i].queue.len())
            .unwrap_or(0)
    }

    fn deficit_of(&self, tenant: TenantId) -> Option<f64> {
        self.index_of(tenant).map(|i| self.queues[i].deficit)
    }

    fn tenants(&self) -> Vec<TenantId> {
        self.queues.iter().map(|q| q.tenant).collect()
    }
}

/// First-come-first-served across all tenants (no isolation).
pub struct FcfsScheduler<T> {
    queue: VecDeque<(TenantId, T)>,
}

impl<T> FcfsScheduler<T> {
    /// Creates an empty FCFS scheduler.
    pub fn new() -> Self {
        FcfsScheduler {
            queue: VecDeque::new(),
        }
    }
}

impl<T> Default for FcfsScheduler<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TenantScheduler<T> for FcfsScheduler<T> {
    fn register(&mut self, _tenant: TenantId, _weight: u32) {}

    fn enqueue(&mut self, tenant: TenantId, item: T) {
        self.queue.push_back((tenant, item));
    }

    fn dequeue(&mut self) -> Option<(TenantId, T)> {
        self.queue.pop_front()
    }

    fn len(&self) -> usize {
        self.queue.len()
    }

    fn tenant_backlog(&self, tenant: TenantId) -> usize {
        self.queue.iter().filter(|(t, _)| *t == tenant).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_shares(s: &mut dyn TenantScheduler<u32>, rounds: usize) -> Vec<(TenantId, usize)> {
        let mut counts: Vec<(TenantId, usize)> = Vec::new();
        for _ in 0..rounds {
            let Some((t, _)) = s.dequeue() else { break };
            match counts.iter_mut().find(|(id, _)| *id == t) {
                Some((_, c)) => *c += 1,
                None => counts.push((t, 1)),
            }
        }
        counts
    }

    #[test]
    fn dwrr_shares_match_weights_under_backlog() {
        let mut s = DwrrScheduler::new(1.0);
        s.register(TenantId(1), 6);
        s.register(TenantId(2), 1);
        s.register(TenantId(3), 2);
        for i in 0..3000u32 {
            s.enqueue(TenantId(1), i);
            s.enqueue(TenantId(2), i);
            s.enqueue(TenantId(3), i);
        }
        let counts = drain_shares(&mut s, 900);
        let get = |t| counts.iter().find(|(id, _)| *id == TenantId(t)).unwrap().1 as f64;
        let (a, b, c) = (get(1), get(2), get(3));
        assert!((a / b - 6.0).abs() < 0.4, "6:1 ratio, got {}", a / b);
        assert!((c / b - 2.0).abs() < 0.3, "2:1 ratio, got {}", c / b);
    }

    #[test]
    fn dwrr_is_work_conserving_when_one_tenant_idle() {
        let mut s = DwrrScheduler::new(1.0);
        s.register(TenantId(1), 6);
        s.register(TenantId(2), 1);
        for i in 0..10u32 {
            s.enqueue(TenantId(2), i);
        }
        // Tenant 1 has nothing queued: tenant 2 gets everything.
        let counts = drain_shares(&mut s, 10);
        assert_eq!(counts, vec![(TenantId(2), 10)]);
        assert!(s.is_empty());
    }

    #[test]
    fn dwrr_fifo_within_a_tenant() {
        let mut s = DwrrScheduler::new(1.0);
        s.register(TenantId(1), 1);
        for i in 0..5u32 {
            s.enqueue(TenantId(1), i);
        }
        let order: Vec<u32> = (0..5).map(|_| s.dequeue().unwrap().1).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn dwrr_auto_registers_unknown_tenants() {
        let mut s = DwrrScheduler::new(1.0);
        s.enqueue(TenantId(9), 42u32);
        assert_eq!(s.dequeue(), Some((TenantId(9), 42)));
    }

    #[test]
    fn dwrr_empty_queue_forfeits_deficit() {
        let mut s = DwrrScheduler::new(1.0);
        s.register(TenantId(1), 100);
        s.register(TenantId(2), 1);
        // Tenant 1 builds a big deficit then goes idle...
        s.enqueue(TenantId(1), 0u32);
        assert_eq!(s.dequeue().unwrap().0, TenantId(1));
        // ...now only tenant 2 is backlogged; it must not starve.
        for i in 0..5u32 {
            s.enqueue(TenantId(2), i);
        }
        assert_eq!(s.dequeue().unwrap().0, TenantId(2));
    }

    #[test]
    fn fcfs_ignores_weights() {
        let mut s = FcfsScheduler::new();
        s.register(TenantId(1), 100);
        s.enqueue(TenantId(2), 1u32);
        s.enqueue(TenantId(1), 2u32);
        s.enqueue(TenantId(2), 3u32);
        let order: Vec<TenantId> = (0..3).map(|_| s.dequeue().unwrap().0).collect();
        assert_eq!(order, vec![TenantId(2), TenantId(1), TenantId(2)]);
    }

    #[test]
    fn backlog_counts_per_tenant() {
        let mut s = DwrrScheduler::new(1.0);
        s.enqueue(TenantId(1), 0u32);
        s.enqueue(TenantId(1), 1u32);
        s.enqueue(TenantId(2), 2u32);
        assert_eq!(s.tenant_backlog(TenantId(1)), 2);
        assert_eq!(s.tenant_backlog(TenantId(2)), 1);
        assert_eq!(s.tenant_backlog(TenantId(3)), 0);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn deficit_is_observable_per_tenant() {
        let mut s = DwrrScheduler::new(1.0);
        s.register(TenantId(1), 4);
        s.register(TenantId(2), 1);
        assert_eq!(s.deficit_of(TenantId(1)), Some(0.0));
        assert_eq!(s.deficit_of(TenantId(9)), None);
        for i in 0..8u32 {
            s.enqueue(TenantId(1), i);
            s.enqueue(TenantId(2), i);
        }
        s.dequeue().unwrap();
        // After a dequeue the serviced tenant carries deficit < its quantum.
        let d = s.deficit_of(TenantId(1)).unwrap() + s.deficit_of(TenantId(2)).unwrap();
        assert!(d >= 0.0);
        assert_eq!(s.tenants(), vec![TenantId(1), TenantId(2)]);
        // FCFS exposes no deficit.
        let mut f = FcfsScheduler::new();
        f.enqueue(TenantId(1), 0u32);
        assert_eq!(f.deficit_of(TenantId(1)), None);
    }

    #[test]
    fn fractional_quantum_still_makes_progress() {
        let mut s = DwrrScheduler::new(0.25);
        s.register(TenantId(1), 1);
        s.enqueue(TenantId(1), 7u32);
        assert_eq!(s.dequeue(), Some((TenantId(1), 7)));
    }
}
