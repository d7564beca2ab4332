//! The calibrated RDMA timing model.
//!
//! Constants are chosen so the microbenchmarks reproduce the latencies the
//! paper states for its ConnectX-6 / 200 Gbps testbed:
//!
//! - two-sided 64 B echo RTT ≈ 8.4 µs and 4 KiB ≈ 11.6 µs (§4.1.2) once the
//!   DNE's per-descriptor handling is added on both ends;
//! - a single one-sided write completing in ≈ 4 µs (§4.1.2);
//! - RC connection establishment "of the order of tens of milliseconds"
//!   (§3.3).
//!
//! Every field is public so ablation benches can sweep it.

use simcore::SimDuration;

/// Timing parameters of an RNIC + fabric.
#[derive(Debug, Clone)]
pub struct RdmaCosts {
    /// Fixed RNIC processing per work request on the requester side.
    pub rnic_tx_fixed: SimDuration,
    /// Fixed RNIC processing per message on the responder side.
    pub rnic_rx_fixed: SimDuration,
    /// One-way propagation + switching delay.
    pub propagation: SimDuration,
    /// Link bandwidth in bytes per second (200 Gb/s = 25 GB/s).
    pub link_bytes_per_sec: f64,
    /// Effective host-memory DMA rate per RNIC for payload fetch/deposit
    /// (PCIe + memory-subsystem blend), charged once on each side.
    pub host_dma_bytes_per_sec: f64,
    /// Burst tolerance of the egress shaper, bytes.
    pub link_burst_bytes: f64,
    /// Largest message the transport accepts (RC max message size).
    pub max_msg_size: usize,
    /// RC connection establishment delay.
    pub connect_delay: SimDuration,
    /// Time to claim a pre-warmed connection: the three-way handshake and
    /// QP state machine already ran in the background, so a claim only
    /// binds the pair to a tenant and arms the receive side (Swift's
    /// control/data-plane split: microseconds instead of tens of
    /// milliseconds on the request path).
    pub prewarm_claim_delay: SimDuration,
    /// Receiver-not-ready retry timer.
    pub rnr_timer: SimDuration,
    /// Number of RNR retries before the send fails.
    pub rnr_retries: u32,
    /// Number of *active* QPs the RNIC caches without penalty.
    pub qp_cache_entries: usize,
    /// Extra per-op cost once the active-QP set overflows the cache,
    /// applied in proportion to the overflow fraction.
    pub qp_cache_miss_penalty: SimDuration,
    /// Number of memory-translation entries cached without penalty.
    pub mtt_cache_entries: usize,
    /// Extra per-op cost when registered MTT entries overflow the cache.
    pub mtt_miss_penalty: SimDuration,
    /// Extra latency of an ACK returning to the requester (affects when the
    /// sender sees its completion, not when data lands).
    pub ack_delay: SimDuration,
    /// Responder-side processing of an atomic (compare-and-swap), on top of
    /// the usual RX fixed cost. Used by the distributed-lock baseline.
    pub atomic_extra: SimDuration,
}

impl Default for RdmaCosts {
    fn default() -> Self {
        RdmaCosts {
            rnic_tx_fixed: SimDuration::from_nanos(850),
            rnic_rx_fixed: SimDuration::from_nanos(850),
            propagation: SimDuration::from_nanos(950),
            link_bytes_per_sec: 25_000_000_000.0,
            host_dma_bytes_per_sec: 5_500_000_000.0,
            link_burst_bytes: 64.0 * 1024.0,
            max_msg_size: 1 << 20,
            connect_delay: SimDuration::from_millis(20),
            prewarm_claim_delay: SimDuration::from_micros(100),
            rnr_timer: SimDuration::from_micros(50),
            rnr_retries: 7,
            qp_cache_entries: 128,
            qp_cache_miss_penalty: SimDuration::from_nanos(1_200),
            mtt_cache_entries: 4_096,
            mtt_miss_penalty: SimDuration::from_nanos(500),
            ack_delay: SimDuration::from_nanos(950),
            atomic_extra: SimDuration::from_nanos(300),
        }
    }
}

impl RdmaCosts {
    /// Serialization delay for `bytes` at the link rate.
    pub fn serialization(&self, bytes: usize) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.link_bytes_per_sec)
    }

    /// Host-memory DMA time for `bytes` on one side of a transfer.
    pub fn host_dma(&self, bytes: usize) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.host_dma_bytes_per_sec)
    }

    /// One-way delivery latency for an uncontended message of `bytes`:
    /// requester RNIC + serialization + propagation + responder RNIC.
    pub fn one_way(&self, bytes: usize) -> SimDuration {
        self.rnic_tx_fixed
            + self.host_dma(bytes)
            + self.serialization(bytes)
            + self.propagation
            + self.rnic_rx_fixed
            + self.host_dma(bytes)
    }

    /// The cache-overflow penalty given `active` QPs.
    ///
    /// Deterministic proportional model: when the active set exceeds the
    /// cache, the expected per-op penalty is the miss penalty scaled by the
    /// fraction of QP state that cannot reside in the cache.
    pub fn qp_cache_penalty(&self, active: usize) -> SimDuration {
        if active <= self.qp_cache_entries || active == 0 {
            return SimDuration::ZERO;
        }
        let overflow = (active - self.qp_cache_entries) as f64 / active as f64;
        self.qp_cache_miss_penalty.mul_f64(overflow)
    }

    /// The MTT-overflow penalty given `entries` registered translations.
    pub fn mtt_penalty(&self, entries: usize) -> SimDuration {
        if entries <= self.mtt_cache_entries || entries == 0 {
            return SimDuration::ZERO;
        }
        let overflow = (entries - self.mtt_cache_entries) as f64 / entries as f64;
        self.mtt_miss_penalty.mul_f64(overflow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_scales_with_size() {
        let c = RdmaCosts::default();
        // 25 GB/s: 4 KiB should take ~164 ns.
        let d = c.serialization(4096);
        assert!(d.as_nanos() >= 160 && d.as_nanos() <= 170, "{d:?}");
        assert_eq!(c.serialization(0), SimDuration::ZERO);
    }

    #[test]
    fn one_way_small_message_is_a_few_microseconds() {
        let c = RdmaCosts::default();
        let us = c.one_way(64).as_micros_f64();
        assert!(us > 2.0 && us < 4.0, "one-way 64B = {us}us");
    }

    #[test]
    fn qp_cache_penalty_kicks_in_past_capacity() {
        let c = RdmaCosts::default();
        assert_eq!(c.qp_cache_penalty(0), SimDuration::ZERO);
        assert_eq!(c.qp_cache_penalty(128), SimDuration::ZERO);
        let p256 = c.qp_cache_penalty(256);
        assert_eq!(p256, c.qp_cache_miss_penalty.mul_f64(0.5));
        let p512 = c.qp_cache_penalty(512);
        assert!(p512 > p256, "penalty grows with overflow");
    }

    #[test]
    fn mtt_penalty_monotone() {
        let c = RdmaCosts::default();
        assert_eq!(c.mtt_penalty(4096), SimDuration::ZERO);
        assert!(c.mtt_penalty(8192) > SimDuration::ZERO);
        assert!(c.mtt_penalty(16384) > c.mtt_penalty(8192));
    }
}
