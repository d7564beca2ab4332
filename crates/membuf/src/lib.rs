//! Unified shared-memory pool substrate for NADINO.
//!
//! This crate implements the memory subsystem of §3.4 of the paper as a
//! library of its own (no simulation involved). A pool lives on the one
//! thread that built it, as a simulation does; only the SPSC ring below
//! crosses threads:
//!
//! - [`hugepage`]: 2 MiB hugepage-style backing segments (the paper uses
//!   hugepages to shrink the RNIC memory-translation-table footprint; we
//!   track the segment count so the RNIC model can charge MTT entries).
//! - [`pool`]: fixed-size buffer pools with `get`/`put` in the style of DPDK's
//!   `rte_mempool`, plus a per-buffer ownership state machine
//!   (`Free → Owned → InFlight → Owned → Free`) that makes zero-copy
//!   descriptor passing sound.
//! - [`descriptor`]: the 16-byte buffer descriptor exchanged over SK_MSG,
//!   Comch and RDMA instead of the payload itself.
//! - [`tenant`]: the tenant identity a pool is created for and refuses
//!   foreign descriptors by (§3.4.1).
//! - [`export`]: DOCA-mmap-style export descriptors that grant another
//!   processor (DPU cores, RNIC) access to a host pool (§3.4.2).
//! - [`spsc`]: a lock-free single-producer single-consumer descriptor ring —
//!   what a Comch-P channel is underneath. The simulated transports price a
//!   descriptor hop and move the struct; only
//!   `dpu_sim::comch::DescriptorChannel`, which the frozen benchmark drives,
//!   pushes descriptors through this ring.

pub mod descriptor;
pub mod export;
pub mod hugepage;
pub mod pool;
pub mod spsc;
pub mod tenant;

pub use descriptor::BufferDesc;
pub use export::{ExportDescriptor, ExportTarget, MappedPool};
pub use pool::{BufferPool, OwnedBuf, PoolConfig, PoolError};
pub use spsc::SpscRing;
pub use tenant::TenantId;
