//! Processor models: host Xeon cores vs. wimpy DPU ARM cores.
//!
//! The paper's testbed pairs 2.4–3.7 GHz Xeon Gold 6148 cores with the
//! BlueField-2's 2.0–2.5 GHz ARM A72 cores. For the control-plane style
//! work the DNE performs, the A72 is roughly 2× slower per operation —
//! the *wimpy factor*. A [`Processor`] is a set of cores (a
//! [`simcore::MultiServer`]) that scales every admitted service demand by
//! its kind's factor, so the same network-engine code measurably slows
//! down when "moved" from CPU to DPU, exactly the comparison NADINO (DNE)
//! vs. NADINO (CNE) makes in §4.3.

use simcore::{MultiServer, SimDuration, SimTime};

/// Which silicon the processor models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcessorKind {
    /// Host Xeon core: the service-time reference (factor 1.0).
    HostCpu,
    /// BlueField-2 ARM A72 core: wimpy factor applied to all work.
    DpuArm,
}

impl ProcessorKind {
    /// The default service-time multiplier for this kind.
    pub fn default_factor(self) -> f64 {
        match self {
            ProcessorKind::HostCpu => 1.0,
            ProcessorKind::DpuArm => 2.0,
        }
    }
}

/// A set of cores of one processor kind with a service-time multiplier.
///
/// # Examples
///
/// ```
/// use dpu_sim::{Processor, ProcessorKind};
/// use simcore::{SimDuration, SimTime};
///
/// let mut dpu = Processor::new(ProcessorKind::DpuArm, 2);
/// let done = dpu.run(SimTime::ZERO, SimDuration::from_micros(5));
/// assert_eq!(done.as_nanos(), 10_000); // 5us of work takes 10us on a wimpy core
/// ```
#[derive(Debug, Clone)]
pub struct Processor {
    factor: f64,
    cores: MultiServer,
    /// Busy core-nanoseconds attributed per pipeline stage by
    /// [`Processor::run_staged`]. A small linear-scan vec in first-use
    /// order: stage sets are tiny and callers tag with static strings,
    /// so iteration order is deterministic.
    stage_busy: Vec<(&'static str, u128)>,
}

impl Processor {
    /// Creates a processor of `kind` with `cores` cores and the default
    /// wimpy factor for that kind.
    pub fn new(kind: ProcessorKind, cores: usize) -> Self {
        Self::with_factor(cores, kind.default_factor())
    }

    /// Creates a processor with an explicit service-time multiplier
    /// (the wimpy-factor ablation sweeps this).
    pub fn with_factor(cores: usize, factor: f64) -> Self {
        assert!(factor > 0.0, "wimpy factor must be positive");
        Processor {
            factor,
            cores: MultiServer::new(cores),
            stage_busy: Vec::new(),
        }
    }

    /// Returns the service-time multiplier.
    pub fn factor(&self) -> f64 {
        self.factor
    }

    /// Scales a reference service demand to this processor's speed.
    pub fn scale(&self, reference: SimDuration) -> SimDuration {
        reference.mul_f64(self.factor)
    }

    /// Admits `reference` worth of work (reference = host-CPU time) at
    /// `now`, returning the completion instant.
    pub fn run(&mut self, now: SimTime, reference: SimDuration) -> SimTime {
        let scaled = self.scale(reference);
        self.cores.admit(now, scaled)
    }

    /// Admits work that is *not* CPU-bound (already in wall-clock terms),
    /// bypassing the wimpy factor.
    pub fn run_unscaled(&mut self, now: SimTime, wall: SimDuration) -> SimTime {
        self.cores.admit(now, wall)
    }

    /// Like [`Processor::run`], but attributes the (scaled) busy
    /// core-time to a named pipeline stage for the utilization profiler.
    pub fn run_staged(
        &mut self,
        now: SimTime,
        reference: SimDuration,
        stage: &'static str,
    ) -> SimTime {
        let scaled = self.scale(reference);
        self.credit_stage(stage, scaled.as_nanos() as u128);
        self.cores.admit(now, scaled)
    }

    fn credit_stage(&mut self, stage: &'static str, busy_ns: u128) {
        match self.stage_busy.iter_mut().find(|(s, _)| *s == stage) {
            Some((_, sum)) => *sum += busy_ns,
            None => self.stage_busy.push((stage, busy_ns)),
        }
    }

    /// Per-stage busy core-nanoseconds accumulated by
    /// [`Processor::run_staged`], in first-use order.
    pub fn stage_busy(&self) -> &[(&'static str, u128)] {
        &self.stage_busy
    }

    /// Returns the earliest instant any core is free.
    pub fn next_free(&self) -> SimTime {
        self.cores.next_free()
    }

    /// Returns aggregate core utilization over `[a, b]` (0..=cores).
    pub fn utilization_cores(&self, a: SimTime, b: SimTime) -> f64 {
        self.cores.utilization_cores(a, b)
    }

    /// Returns the number of jobs admitted so far.
    pub fn jobs(&self) -> u64 {
        self.cores.jobs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    #[test]
    fn dpu_cores_are_wimpy() {
        let mut cpu = Processor::new(ProcessorKind::HostCpu, 1);
        let mut dpu = Processor::new(ProcessorKind::DpuArm, 1);
        let c = cpu.run(SimTime::ZERO, us(10));
        let d = dpu.run(SimTime::ZERO, us(10));
        assert_eq!(c.as_nanos(), 10_000);
        assert_eq!(d.as_nanos(), 20_000);
    }

    #[test]
    fn custom_factor_applies() {
        let mut p = Processor::with_factor(1, 3.5);
        let done = p.run(SimTime::ZERO, us(2));
        assert_eq!(done.as_nanos(), 7_000);
        assert_eq!(p.factor(), 3.5);
    }

    #[test]
    fn unscaled_work_ignores_factor() {
        let mut p = Processor::new(ProcessorKind::DpuArm, 1);
        let done = p.run_unscaled(SimTime::ZERO, us(4));
        assert_eq!(done.as_nanos(), 4_000);
    }

    #[test]
    fn multiple_cores_run_in_parallel() {
        let mut p = Processor::new(ProcessorKind::DpuArm, 2);
        let a = p.run(SimTime::ZERO, us(5));
        let b = p.run(SimTime::ZERO, us(5));
        let c = p.run(SimTime::ZERO, us(5));
        assert_eq!(a.as_nanos(), 10_000);
        assert_eq!(b.as_nanos(), 10_000);
        assert_eq!(c.as_nanos(), 20_000);
        assert_eq!(p.jobs(), 3);
    }

    #[test]
    fn utilization_counts_scaled_time() {
        let mut p = Processor::new(ProcessorKind::DpuArm, 1);
        p.run(SimTime::ZERO, us(5)); // 10us busy
        let u = p.utilization_cores(SimTime::ZERO, SimTime::from_nanos(20_000));
        assert!((u - 0.5).abs() < 1e-9, "u = {u}");
    }

    #[test]
    #[should_panic(expected = "wimpy factor must be positive")]
    fn zero_factor_panics() {
        let _ = Processor::with_factor(1, 0.0);
    }

    #[test]
    fn staged_runs_attribute_scaled_busy_time() {
        let mut p = Processor::new(ProcessorKind::DpuArm, 2);
        let done = p.run_staged(SimTime::ZERO, us(5), "tx_post");
        assert_eq!(done.as_nanos(), 10_000, "same semantics as run()");
        p.run_staged(SimTime::ZERO, us(3), "rx_complete");
        p.run_staged(done, us(1), "tx_post");
        assert_eq!(
            p.stage_busy(),
            &[("tx_post", 12_000), ("rx_complete", 6_000)],
            "scaled ns per stage, first-use order"
        );
    }
}
