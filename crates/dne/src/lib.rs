//! The DPU-enabled Network Engine (DNE) — NADINO's core contribution.
//!
//! The DNE (§3.2) is a node-wide reverse proxy that owns all RDMA queue
//! pairs on behalf of untrusted tenant functions. It runs a non-blocking
//! run-to-completion event loop on (by default) a single wimpy DPU core,
//! processing each descriptor through all transfer stages without
//! interruption. The loop's state and every decision it takes live in a
//! state machine that never sees the simulator (`core`: one
//! `step(now, input) → effects`); [`engine`] is the public [`Dne`] handle
//! and the driver that applies the effects — the only code here that
//! schedules, posts to the RNIC, or calls out. The stages:
//!
//! - **TX stage**: consume a buffer descriptor from the source function
//!   (over Comch), look up the destination node in the inter-node routing
//!   table, pick the least-congested RC connection, wrap the descriptor in
//!   a work request and post it to the RNIC.
//! - **RX stage**: poll completions, recover the posted receive buffer
//!   (receive-buffer registry), extract the destination function from the
//!   immediate data, and forward the descriptor over the function's Comch
//!   endpoint; replenish consumed receive buffers from the tenant's pool.
//!
//! Multi-tenancy (§3.3) is enforced by a Deficit Weighted Round Robin
//! scheduler over per-tenant TX queues ([`sched`]), per-tenant shared RQs
//! fed from per-tenant memory pools, and shadow-QP connection pooling
//! ([`connpool`]).
//!
//! The same engine also instantiates the paper's comparison points:
//! NADINO (CNE) — the engine on a host CPU core with SK_MSG IPC and its
//! interrupt-load penalty — and the *on-path* DPU variant that stages
//! payloads through the slow SoC DMA (§4.1.1).

pub mod connpool;
mod core;
pub mod engine;
pub mod rbr;
pub mod routing;
pub mod sched;
pub mod types;

pub use engine::{DeliveryFailureHandler, Dne, DneObsSink};
pub use routing::{RouteError, RoutingTable};
pub use sched::{DwrrScheduler, FcfsScheduler, TenantScheduler};
pub use types::{
    DeliveryFailure, DneConfig, DneStats, FailureReason, IpcCosts, IpcKind, OffloadMode,
    SchedPolicy, TenantFailureStats,
};
