//! Transport-stack cost models for the three ingress designs of §4.1.3.
//!
//! Per-request CPU costs on a gateway worker core, decomposed as:
//!
//! - a per-direction *stack* cost (socket/syscall work for the kernel
//!   stack, polling and mbuf work for F-stack), which grows mildly with
//!   the number of concurrent connections (wakeups, epoll scans);
//! - an *application* cost: full NGINX-style HTTP reverse proxying for the
//!   deferred-conversion baselines, versus NADINO's lean parse-and-convert;
//! - for NADINO only, the RDMA post/receive cost replacing the upstream
//!   TCP leg.
//!
//! The deferred-conversion baselines (Fig. 4 (1)) terminate the client
//! connection *and* maintain an upstream TCP connection per request, so
//! they pay the per-direction stack cost four times per request where
//! NADINO pays it twice — "this in fact doubles TCP/IP processing work at
//! the cluster ingress" (§4.1.3).
//!
//! Calibration targets: NADINO over K-Ingress ≈ 11.4× RPS and over
//! F-Ingress ≈ 3.2× RPS at high client counts.

use simcore::SimDuration;

/// Which ingress design is in use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GatewayKind {
    /// NGINX on the interrupt-driven kernel TCP/IP stack, proxying to
    /// workers over TCP (deferred conversion).
    KIngress,
    /// NGINX on DPDK F-stack, proxying to workers over TCP (deferred
    /// conversion).
    FIngress,
    /// NADINO: F-stack termination + HTTP/TCP-to-RDMA conversion at the
    /// edge (early conversion).
    Nadino,
}

impl GatewayKind {
    /// One-way transport latency between this ingress and a worker node:
    /// RDMA for NADINO, a TCP hop on the F-stack or kernel stack for the
    /// deferred-conversion designs.
    pub fn worker_transport(self) -> SimDuration {
        SimDuration::from_micros(match self {
            GatewayKind::Nadino => 3,
            GatewayKind::FIngress => 12,
            GatewayKind::KIngress => 25,
        })
    }
}

/// Calibrated per-request costs for one gateway kind.
#[derive(Debug, Clone)]
pub struct StackCosts {
    /// Stack cost per direction (rx or tx) per request, at 1 connection.
    pub stack_per_dir: SimDuration,
    /// Additional stack cost per direction per concurrent connection.
    pub stack_per_conn: SimDuration,
    /// How many stack directions a request crosses at the ingress
    /// (2 for early conversion, 4 for deferred proxying).
    pub stack_dirs: u32,
    /// Application-layer work (HTTP parse/convert or full proxying).
    pub app_work: SimDuration,
    /// RDMA post + completion handling (NADINO only).
    pub rdma_work: SimDuration,
    /// Per-request TCP termination work on the *worker node* CPU —
    /// deferred conversion pushes a second termination there; zero for
    /// NADINO whose workers speak RDMA/shared memory.
    pub worker_stack_per_req: SimDuration,
    /// Per-byte cost of moving payload through the gateway's userspace.
    pub per_byte: SimDuration,
    /// Receive-livelock knee: when set, the per-connection cost inflates
    /// by `1 + conns / knee` (interrupt storms service no one), the
    /// Mogul–Ramakrishnan effect that collapses the kernel ingress.
    pub livelock_knee: Option<f64>,
}

impl StackCosts {
    /// Returns the calibrated model for `kind`.
    pub fn for_kind(kind: GatewayKind) -> StackCosts {
        match kind {
            GatewayKind::KIngress => StackCosts {
                stack_per_dir: SimDuration::from_nanos(30_000),
                stack_per_conn: SimDuration::from_nanos(300),
                stack_dirs: 4,
                app_work: SimDuration::from_nanos(40_000),
                rdma_work: SimDuration::ZERO,
                worker_stack_per_req: SimDuration::from_nanos(24_000),
                per_byte: SimDuration::from_nanos(1),
                livelock_knee: Some(64.0),
            },
            GatewayKind::FIngress => StackCosts {
                stack_per_dir: SimDuration::from_nanos(5_200),
                stack_per_conn: SimDuration::from_nanos(25),
                stack_dirs: 4,
                app_work: SimDuration::from_nanos(28_000),
                rdma_work: SimDuration::ZERO,
                worker_stack_per_req: SimDuration::from_nanos(10_400),
                per_byte: SimDuration::from_nanos(1),
                livelock_knee: None,
            },
            GatewayKind::Nadino => StackCosts {
                stack_per_dir: SimDuration::from_nanos(5_200),
                stack_per_conn: SimDuration::from_nanos(25),
                stack_dirs: 2,
                app_work: SimDuration::from_nanos(4_200),
                rdma_work: SimDuration::from_nanos(1_000),
                worker_stack_per_req: SimDuration::ZERO,
                per_byte: SimDuration::ZERO,
                livelock_knee: None,
            },
        }
    }

    /// Total ingress-side CPU per request with `conns` concurrent
    /// connections and `bytes` of payload through the gateway.
    pub fn ingress_service(&self, conns: usize, bytes: usize) -> SimDuration {
        let livelock = match self.livelock_knee {
            Some(knee) => 1.0 + conns as f64 / knee,
            None => 1.0,
        };
        let conn_cost = (self.stack_per_conn * conns as u64).mul_f64(livelock);
        let dir = self.stack_per_dir + conn_cost;
        dir * self.stack_dirs as u64 + self.app_work + self.rdma_work + self.per_byte * bytes as u64
    }

    /// The receive-side half of [`StackCosts::ingress_service`] (request
    /// path); the rest is charged on the response path.
    pub fn ingress_rx(&self, conns: usize, bytes: usize) -> SimDuration {
        let total = self.ingress_service(conns, bytes);
        SimDuration::from_nanos(total.as_nanos() / 2)
    }

    /// The transmit-side half (response path).
    pub fn ingress_tx(&self, conns: usize, bytes: usize) -> SimDuration {
        self.ingress_service(conns, bytes) - self.ingress_rx(conns, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_ratios_match_the_paper() {
        let conns = 16;
        let n = StackCosts::for_kind(GatewayKind::Nadino).ingress_service(conns, 64);
        let f = StackCosts::for_kind(GatewayKind::FIngress).ingress_service(conns, 64);
        let k = StackCosts::for_kind(GatewayKind::KIngress).ingress_service(conns, 64);
        let f_ratio = f.as_nanos() as f64 / n.as_nanos() as f64;
        let k_ratio = k.as_nanos() as f64 / n.as_nanos() as f64;
        assert!(
            (2.8..=3.6).contains(&f_ratio),
            "F-Ingress/NADINO = {f_ratio} (paper: 3.2x)"
        );
        assert!(
            (10.0..=13.0).contains(&k_ratio),
            "K-Ingress/NADINO = {k_ratio} (paper: 11.4x)"
        );
    }

    #[test]
    fn deferred_conversion_doubles_stack_crossings() {
        assert_eq!(StackCosts::for_kind(GatewayKind::KIngress).stack_dirs, 4);
        assert_eq!(StackCosts::for_kind(GatewayKind::FIngress).stack_dirs, 4);
        assert_eq!(StackCosts::for_kind(GatewayKind::Nadino).stack_dirs, 2);
    }

    #[test]
    fn only_deferred_variants_charge_the_worker_node() {
        assert_eq!(
            StackCosts::for_kind(GatewayKind::Nadino).worker_stack_per_req,
            SimDuration::ZERO
        );
        assert!(
            StackCosts::for_kind(GatewayKind::FIngress).worker_stack_per_req > SimDuration::ZERO
        );
    }

    #[test]
    fn service_grows_with_concurrency() {
        let c = StackCosts::for_kind(GatewayKind::KIngress);
        assert!(c.ingress_service(64, 64) > c.ingress_service(1, 64));
    }

    #[test]
    fn kernel_livelock_is_superlinear() {
        let k = StackCosts::for_kind(GatewayKind::KIngress);
        let at16 = k.ingress_service(16, 64).as_nanos() as f64;
        let at128 = k.ingress_service(128, 64).as_nanos() as f64;
        // The conn-dependent part must grow faster than linearly.
        let base = k.ingress_service(0, 64).as_nanos() as f64;
        assert!((at128 - base) > 8.0 * (at16 - base) * 1.2);
        // F-stack has no livelock knee.
        let f = StackCosts::for_kind(GatewayKind::FIngress);
        let f16 = f.ingress_service(16, 64).as_nanos() as f64;
        let f128 = f.ingress_service(128, 64).as_nanos() as f64;
        let fbase = f.ingress_service(0, 64).as_nanos() as f64;
        assert!(((f128 - fbase) / (f16 - fbase) - 8.0).abs() < 0.1);
    }

    #[test]
    fn rx_tx_halves_sum_to_total() {
        let c = StackCosts::for_kind(GatewayKind::FIngress);
        let total = c.ingress_service(8, 128);
        assert_eq!(c.ingress_rx(8, 128) + c.ingress_tx(8, 128), total);
    }

    #[test]
    fn kernel_stack_dwarfs_fstack() {
        let k = StackCosts::for_kind(GatewayKind::KIngress);
        let f = StackCosts::for_kind(GatewayKind::FIngress);
        assert!(k.stack_per_dir.as_nanos() > 4 * f.stack_per_dir.as_nanos());
    }
}
