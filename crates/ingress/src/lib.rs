//! NADINO's cluster-wide ingress gateway (§3.6).
//!
//! The ingress is the single place where external HTTP/TCP traffic is
//! terminated and converted to RDMA before entering the serverless cluster
//! — the paper's *early transport conversion* (Design Implication #4).
//! This crate provides:
//!
//! - [`stack`]: calibrated cost models for the three transport stacks the
//!   evaluation compares — interrupt-driven kernel TCP (*K-Ingress*),
//!   DPDK-based F-stack (*F-Ingress*), and NADINO's F-stack + RDMA
//!   conversion. HTTP termination is part of that price: the gateway
//!   charges it per request and parses no bytes.
//! - [`rss`]: receive-side scaling: hashing client flows onto worker
//!   processes pinned to cores.
//! - [`autoscale`]: the hysteresis policy that spawns a worker above 60%
//!   average utilization and retires one below 30%.
//! - [`gateway`]: the master/worker gateway model tying it together in the
//!   discrete-event simulation, including overload (tail-drop) behaviour
//!   and the brief restart interruption the paper observes when scaling.
//!   Its state machine is `core`, which the `Gateway` handle drives.

pub mod admission;
pub mod autoscale;
mod core;
pub mod gateway;
pub mod rss;
pub mod stack;

pub use admission::{Admission, AdmissionConfig, AdmissionController};
pub use gateway::{
    DeliveryFailed, Dropped, Gateway, GatewayConfig, GatewayStats, ReqCtx, Upstream,
};
pub use stack::{GatewayKind, StackCosts};
