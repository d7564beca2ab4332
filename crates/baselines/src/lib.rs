//! Baselines the paper evaluates NADINO against.
//!
//! - [`primitives`]: the Fig. 12 / Fig. 6 echo drivers over raw RDMA verbs:
//!   two-sided send/receive, one-sided write with distributed locks
//!   (OWDL), and one-sided write with receiver-side copy (OWRC, in both
//!   its cache-hot "Best" and memory-bound "Worst" variants).
//! - [`systems`]: descriptors of the comparison data planes of §4.3 —
//!   SPRIGHT, NightCore, FUYAO (with K- and F-Ingress), and Junction —
//!   capturing each design's transport choices and per-hop costs as
//!   published (Table 1). A comparator's [`systems::Modelled`] plane is a
//!   generic per-node network engine (a CPU core charged
//!   [`systems::EngineCosts::service`] per message, plus transport latency
//!   between nodes) standing in for the system's own proxy or engine
//!   component; `nadino::baseline_cluster` runs it.

pub mod primitives;
pub mod systems;

pub use primitives::{run_echo, EchoConfig, EchoResult, Primitive};
pub use systems::{SystemKind, SystemModel};
