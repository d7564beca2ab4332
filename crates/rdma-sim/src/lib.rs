//! Simulated RDMA substrate for the NADINO reproduction.
//!
//! This crate stands in for the ConnectX-6 RNIC and the 200 Gbps RDMA
//! fabric of the paper's testbed. It implements Reliable Connected (RC)
//! transport semantics — the transport NADINO uses exclusively (§2.1) —
//! over the deterministic event engine from [`simcore`]:
//!
//! - [`types`]: identifiers, work-request ids, completion entries, errors.
//! - [`cost`]: the calibrated timing model (RNIC processing, propagation,
//!   serialization at 200 Gbps, RNR timers, QP-cache and MTT penalties).
//! - [`mr`]: memory-region registration — only pools exported with the
//!   `Rdma` grant may be registered, reproducing the DOCA mmap contract.
//! - [`fabric`]: the fabric's handle over a simulator-free state machine
//!   (its driver schedules what that core asks) — nodes, RC connection
//!   establishment (tens of milliseconds, as measured in the paper),
//!   two-sided send/receive with shared receive queues and RNR NAK
//!   behaviour, completion queues with optional wakers, and shadow QPs.
//! - [`onesided`]: one-sided WRITE and compare-and-swap plus the landing-zone
//!   helpers used by the Fig. 12 baselines (OWRC, OWDL).
//!
//! Payload bytes really move: a two-sided send copies from the sender's
//! [`membuf`] pool buffer into the receiver's posted buffer at the instant
//! the simulated DMA completes, so end-to-end tests can assert content
//! integrity, not just timing.

mod core;
pub mod cost;
pub mod fabric;
pub mod fault;
pub mod mr;
pub mod onesided;
pub mod types;

pub use cost::RdmaCosts;
pub use fabric::{Fabric, QpCounters, QpHandle, QpLoad};
pub use fault::{FaultPlane, FaultStats};
pub use types::{Cqe, CqeStatus, NodeId, QpId, RdmaError, WrId};
