//! Work-conserving FIFO service resources.
//!
//! A [`Server`] models a single execution lane (one CPU core, one DMA
//! channel): jobs are admitted with a service demand and complete in FIFO
//! order. Admission returns the completion instant, which the caller then
//! schedules a callback at — the analytic shortcut for FIFO queues that
//! avoids materializing an explicit queue while remaining exact.
//!
//! A [`MultiServer`] is `k` identical lanes fed by a single FIFO queue
//! (jobs go to the earliest-available lane), modelling a multi-core stage.
//! Both track cumulative busy time so experiments can derive utilization
//! over arbitrary sampling windows.

use crate::time::{SimDuration, SimTime};

/// A single work-conserving FIFO server with utilization accounting.
///
/// # Examples
///
/// ```
/// use simcore::{Server, SimDuration, SimTime};
///
/// let mut cpu = Server::new();
/// let t0 = SimTime::ZERO;
/// let c1 = cpu.admit(t0, SimDuration::from_micros(10));
/// let c2 = cpu.admit(t0, SimDuration::from_micros(10));
/// assert_eq!(c1.as_nanos(), 10_000);
/// assert_eq!(c2.as_nanos(), 20_000); // queued behind the first job
/// ```
#[derive(Debug, Clone, Default)]
pub struct Server {
    busy_until: SimTime,
    /// Total service demand of every job admitted so far.
    busy_accum: SimDuration,
    jobs: u64,
}

impl Server {
    /// Creates an idle server.
    pub fn new() -> Self {
        Server::default()
    }

    /// Admits a job at `now` with the given service demand and returns its
    /// completion instant.
    pub fn admit(&mut self, now: SimTime, service: SimDuration) -> SimTime {
        self.admit_not_before(now, SimTime::ZERO, service)
    }

    /// Admits a job that may not start before `floor` (e.g. the resource is
    /// restarting). The wait until `floor` is idle time, not busy time.
    pub fn admit_not_before(
        &mut self,
        now: SimTime,
        floor: SimTime,
        service: SimDuration,
    ) -> SimTime {
        let start = self.busy_until.max(now).max(floor);
        let done = start + service;
        // An enforced start delay shows up as an idle gap: exclude it from
        // the busy accumulator by accounting only the service time, but keep
        // `busy_ns_until` consistent by treating the gap as a fresh idle
        // period (the accumulator plus overhang arithmetic already does).
        self.busy_until = done;
        self.busy_accum += service;
        self.jobs += 1;
        done
    }

    /// Returns the instant the server next becomes idle.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Returns the queueing delay a job admitted at `now` would experience.
    pub fn backlog(&self, now: SimTime) -> SimDuration {
        self.busy_until.saturating_since(now)
    }

    /// Returns `true` if a job admitted at `now` would start immediately.
    pub fn idle_at(&self, now: SimTime) -> bool {
        self.busy_until <= now
    }

    /// Returns the number of jobs admitted so far.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// Returns cumulative busy time up to instant `t`.
    ///
    /// Work admitted but not yet elapsed at `t` is excluded, so utilization
    /// over `[a, b]` is `(busy_ns_until(b) - busy_ns_until(a)) / (b - a)`.
    pub fn busy_ns_until(&self, t: SimTime) -> SimDuration {
        let overhang = self.busy_until.saturating_since(t);
        self.busy_accum - overhang
    }

    /// Returns the utilization fraction over the window `[a, b]`.
    pub fn utilization(&self, a: SimTime, b: SimTime) -> f64 {
        let span = b.saturating_since(a);
        if span == SimDuration::ZERO {
            return 0.0;
        }
        let busy = self.busy_ns_until(b) - self.busy_ns_until(a);
        (busy.as_nanos() as f64 / span.as_nanos() as f64).min(1.0)
    }
}

/// `k` identical FIFO lanes fed by a single queue.
///
/// Jobs are dispatched to the lane that frees up first, which is exact for
/// a FIFO multi-server with deterministic per-job service demands.
#[derive(Debug, Clone)]
pub struct MultiServer {
    lanes: Vec<Server>,
}

impl MultiServer {
    /// Creates a multi-server with `lanes` execution lanes.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn new(lanes: usize) -> Self {
        assert!(lanes > 0, "MultiServer requires at least one lane");
        MultiServer {
            lanes: vec![Server::new(); lanes],
        }
    }

    /// Admits a job at `now`, dispatching to the earliest-available lane,
    /// and returns its completion instant.
    pub fn admit(&mut self, now: SimTime, service: SimDuration) -> SimTime {
        let lane = self
            .lanes
            .iter_mut()
            .min_by_key(|l| l.busy_until())
            .expect("at least one lane");
        lane.admit(now, service)
    }

    /// Returns the earliest instant any lane becomes idle.
    pub fn next_free(&self) -> SimTime {
        self.lanes
            .iter()
            .map(|l| l.busy_until())
            .min()
            .unwrap_or(SimTime::ZERO)
    }

    /// Returns the total number of jobs admitted across all lanes.
    pub fn jobs(&self) -> u64 {
        self.lanes.iter().map(|l| l.jobs()).sum()
    }

    /// Returns aggregate utilization over `[a, b]` (0..=lanes).
    ///
    /// A value of 2.0 means two full cores' worth of work, matching how the
    /// paper reports multi-core CPU usage percentages (e.g. "200%").
    pub fn utilization_cores(&self, a: SimTime, b: SimTime) -> f64 {
        self.lanes.iter().map(|l| l.utilization(a, b)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }
    fn at(v: u64) -> SimTime {
        SimTime::from_nanos(v * 1_000)
    }

    #[test]
    fn fifo_backlog_accumulates() {
        let mut s = Server::new();
        assert!(s.idle_at(at(0)));
        assert_eq!(s.admit(at(0), us(5)), at(5));
        assert_eq!(s.admit(at(1), us(5)), at(10));
        assert_eq!(s.backlog(at(1)), us(9));
        assert!(!s.idle_at(at(9)));
        assert!(s.idle_at(at(10)));
    }

    #[test]
    fn idle_gap_is_not_busy() {
        let mut s = Server::new();
        s.admit(at(0), us(2));
        // Idle from 2..10.
        s.admit(at(10), us(3));
        assert_eq!(s.busy_ns_until(at(13)), us(5));
        let u = s.utilization(at(0), at(13));
        assert!((u - 5.0 / 13.0).abs() < 1e-9, "u = {u}");
    }

    #[test]
    fn partial_job_counts_partially() {
        let mut s = Server::new();
        s.admit(at(0), us(10));
        assert_eq!(s.busy_ns_until(at(4)), us(4));
        assert_eq!(s.busy_ns_until(at(10)), us(10));
        assert_eq!(s.busy_ns_until(at(20)), us(10));
    }

    #[test]
    fn multiserver_runs_jobs_in_parallel() {
        let mut m = MultiServer::new(2);
        assert_eq!(m.admit(at(0), us(10)), at(10));
        assert_eq!(m.admit(at(0), us(10)), at(10)); // second lane
        assert_eq!(m.admit(at(0), us(10)), at(20)); // queues
        assert_eq!(m.jobs(), 3);
    }

    #[test]
    fn multiserver_utilization_sums_lanes() {
        let mut m = MultiServer::new(4);
        for _ in 0..4 {
            m.admit(at(0), us(10));
        }
        let u = m.utilization_cores(at(0), at(10));
        assert!((u - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_panics() {
        let _ = MultiServer::new(0);
    }
}
