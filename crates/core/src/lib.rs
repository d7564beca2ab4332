//! # NADINO — a DPU-centric serverless data plane (reproduction)
//!
//! This is the top-level crate of the NADINO reproduction: it assembles the
//! substrates ([`membuf`], [`rdma_sim`], [`dpu_sim`], [`dne`], [`ingress`],
//! [`runtime`], [`baselines`]) into complete clusters and reproduces every
//! experiment of the paper's evaluation (§4).
//!
//! ## Quick start
//!
//! ```
//! use nadino::cluster::{Cluster, ClusterConfig};
//! use nadino::workload::ClosedLoop;
//! use membuf::tenant::TenantId;
//! use runtime::ChainSpec;
//! use simcore::{Sim, SimDuration, SimTime};
//!
//! let mut sim = Sim::new();
//! let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
//! let tenant = TenantId(1);
//! cluster.add_tenant(&mut sim, tenant, 1).unwrap();
//!
//! // A 3-hop chain: fn 1 (node 0) -> fn 2 (node 1) -> fn 1 again.
//! let chain = ChainSpec::new("echo", tenant, vec![1, 2, 1]);
//! cluster.place(1, 0);
//! cluster.place(2, 1);
//! // Load drivers and gateways hold the cluster by reference count.
//! let cluster = std::rc::Rc::new(cluster);
//!
//! let driver = ClosedLoop::new(SimTime::ZERO + SimDuration::from_millis(50));
//! cluster.register_chain(&chain, |_f| SimDuration::from_micros(10), driver.completion());
//! driver.start(&mut sim, &cluster, &chain, 4, 256);
//! sim.run();
//! assert!(driver.completed() > 100);
//! ```
//!
//! ## Experiments
//!
//! Each module under [`experiment`] regenerates one table or figure; the
//! `experiments` binary in the `bench` crate prints them all.

pub mod baseline_cluster;
pub mod boutique;
pub mod churn;
pub mod cluster;
pub mod experiment;
pub mod fleet;
pub mod fleetctl;
pub mod health;
pub mod report;
pub mod trace;
pub mod workload;

pub use cluster::{Cluster, ClusterConfig};
pub use fleetctl::{FleetController, FleetCounters, FleetEvent, NodeLifecycle};
pub use health::{HealthEvent, HealthMonitor, NodeState};
pub use workload::ClosedLoop;
