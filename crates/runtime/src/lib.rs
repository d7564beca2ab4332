//! NADINO's function runtime (§3.5).
//!
//! User functions never see transports: they call the unified I/O
//! library's `send()` and the library transparently routes intra-node
//! (shared memory descriptor over SK_MSG) or inter-node (hand-off to the
//! DNE for two-sided RDMA). This crate provides:
//!
//! - [`placement`]: the function → node map that drives routing.
//! - [`sidecar`]: the streamlined eBPF-style sidecar enforcing tenant
//!   access control on every descriptor exchange.
//! - [`iolib`]: the unified I/O library's handle and driver, in front of a
//!   state machine (`core`) that runs chain and DAG functions as data —
//!   a [`Spec`] and an execution cost on the node's host cores.
//! - [`function`]: the payload convention carrying request ids for
//!   end-to-end latency measurement and the chain hop index.
//! - [`chain`] and [`dag`]: chain and fan-out/fan-in DAG descriptions.

pub mod chain;
mod core;
pub mod dag;
pub mod function;
pub mod iolib;
pub mod placement;
pub mod sidecar;

pub use crate::core::Spec;
pub use chain::ChainSpec;
pub use dag::DagSpec;
pub use function::{decode_hop, decode_request_id, set_hop, write_request_payload, CompletionFn};
pub use iolib::IoLib;
pub use placement::Placement;
pub use sidecar::{AccessDecision, Sidecar};
