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
//! - [`iolib`]: the unified I/O library itself.
//! - [`function`]: simulated function containers — chain functions with
//!   configurable execution cost running on the node's host cores — plus
//!   the payload convention carrying request ids for end-to-end latency
//!   measurement.
//! - [`chain`]: chain (call-graph) descriptions and validation.

pub mod chain;
pub mod dag;
pub mod function;
pub mod iolib;
pub mod placement;
pub mod sidecar;

pub use chain::ChainSpec;
pub use dag::{DagFunction, DagSpec};
pub use function::{
    decode_hop, decode_request_id, encode_request_payload, set_hop, ChainFunction, CompletionFn,
};
pub use iolib::IoLib;
pub use placement::Placement;
pub use sidecar::{AccessDecision, Sidecar};
