//! The SoC DMA engine of a BlueField-2-class DPU.
//!
//! §4.1.1 of the paper contrasts two data movers. The **SoC DMA engine**,
//! used by *on-path* offloading to stage payloads in DPU memory, has low
//! latency when idle (2.6 µs for a 64 B read, quoting the paper's citation
//! of Wei et al.) but "poor processing capability": a single channel that
//! queues up and inflates latency as concurrency grows. The **RNIC DMA**
//! moves data between the wire and *host* memory at line rate, which is
//! what makes the off-path cross-processor-shared-memory design win under
//! load; its cost is part of `rdma_sim::RdmaCosts`, not a queue here.
//!
//! [`SocDma`] is a FIFO resource: `transfer` admits an operation and
//! returns its completion instant.

use simcore::{MultiServer, SimDuration, SimTime};

/// The slow single-channel SoC DMA engine.
///
/// Besides its high fixed per-op cost, the engine's *sustained* throughput
/// degrades under concurrent load (descriptor-ring contention and
/// write-combining stalls reported by Wei et al.): each queued
/// microsecond of backlog inflates the next op's service time by
/// `degrade_per_backlog_us`, capped at `max_degradation`. This is why the
/// on-path design falls behind precisely at high concurrency (Fig. 11).
#[derive(Debug, Clone)]
pub struct SocDma {
    engine: MultiServer,
    fixed: SimDuration,
    bytes_per_sec: f64,
    /// Service-time inflation per microsecond of queued backlog.
    pub degrade_per_backlog_us: f64,
    /// Upper bound on the inflation factor.
    pub max_degradation: f64,
}

impl Default for SocDma {
    fn default() -> Self {
        SocDma {
            engine: MultiServer::new(1),
            // 64 B op completes in ~2.6us when idle: ~2.58us fixed + wire time.
            fixed: SimDuration::from_nanos(2_580),
            // Effective SoC DMA throughput, far below the RNIC's line rate.
            bytes_per_sec: 3_000_000_000.0,
            degrade_per_backlog_us: 0.12,
            max_degradation: 2.5,
        }
    }
}

impl SocDma {
    /// Returns the idle-engine service demand of one `bytes`-sized op.
    pub fn op_time(&self, bytes: usize) -> SimDuration {
        self.fixed + SimDuration::from_secs_f64(bytes as f64 / self.bytes_per_sec)
    }

    /// Admits a transfer of `bytes` at `now`; returns its completion instant.
    ///
    /// The service time inflates with the engine's current backlog, up to
    /// the configured maximum degradation.
    pub fn transfer(&mut self, now: SimTime, bytes: usize) -> SimTime {
        let backlog_us = self
            .engine
            .next_free()
            .saturating_since(now)
            .as_micros_f64();
        let factor = (1.0 + backlog_us * self.degrade_per_backlog_us).min(self.max_degradation);
        let t = self.op_time(bytes).mul_f64(factor);
        self.engine.admit(now, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soc_dma_matches_measured_small_op_latency() {
        let mut dma = SocDma::default();
        let done = dma.transfer(SimTime::ZERO, 64);
        let us = (done - SimTime::ZERO).as_micros_f64();
        assert!((us - 2.6).abs() < 0.05, "64B SoC DMA = {us}us (paper: 2.6)");
    }

    #[test]
    fn soc_dma_queues_and_degrades_under_concurrency() {
        let mut dma = SocDma::default();
        let first = dma.transfer(SimTime::ZERO, 1024);
        let mut last = first;
        for _ in 0..63 {
            last = dma.transfer(SimTime::ZERO, 1024);
        }
        // 64 concurrent ops serialize on the single channel, and backlog
        // degradation makes the later ops strictly slower than 64x one op.
        let first_us = first.as_micros_f64();
        let last_us = last.as_micros_f64();
        assert!(
            last_us > 64.0 * first_us,
            "queueing + degradation must dominate: first {first_us}us, last {last_us}us"
        );
        // Degradation is bounded.
        assert!(last_us < 64.0 * first_us * 2.6, "bounded by max factor");
    }

    #[test]
    fn idle_engine_is_not_degraded() {
        let mut dma = SocDma::default();
        let a = dma.transfer(SimTime::ZERO, 64);
        // Next op starts long after the first completed: no backlog.
        let later = a + SimDuration::from_millis(1);
        let b = dma.transfer(later, 64);
        assert_eq!((b - later).as_nanos(), dma.op_time(64).as_nanos());
    }

    #[test]
    fn bandwidth_term_scales_with_size() {
        let dma = SocDma::default();
        let d64 = dma.op_time(64);
        let d1m = dma.op_time(1 << 20);
        // 1 MiB at 3 GB/s is ~350us of wire time.
        assert!((d1m - d64).as_micros_f64() > 300.0);
    }
}
