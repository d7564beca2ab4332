//! DPU (BlueField-2-style) substrate for the NADINO reproduction.
//!
//! The paper's DPU contributes four hardware ingredients, each modelled
//! here on top of [`simcore`]:
//!
//! - [`soc`]: the SoC's *wimpy* ARM A72 cores — a service-time multiplier
//!   relative to host Xeon cores, plus a [`soc::Processor`] abstraction the
//!   network-engine crate runs its event loop on.
//! - [`dma`]: the slow SoC DMA engine used by *on-path* offloading (2.6 µs
//!   for a 64 B read, §4.1.1) — the data mover the *off-path* design avoids.
//! - [`comch`]: the DOCA Comch descriptor channels between host functions
//!   and the DNE — the event-driven `Comch-E`, the busy-polling `Comch-P`
//!   (whose progress engine costs grow with the number of monitored
//!   functions, which is why it collapses beyond ~6 functions in Fig. 9),
//!   and the kernel TCP baseline.
//! - [`mmap`]: a thin DOCA-named facade over [`membuf::export`], mirroring
//!   `doca_mmap_export_pci` / `doca_mmap_export_rdma` /
//!   `doca_mmap_create_from_export` (§3.4.2).

pub mod comch;
pub mod dma;
pub mod mmap;
pub mod soc;

pub use comch::{ChannelKind, ComchCosts};
pub use dma::SocDma;
pub use soc::{Processor, ProcessorKind};
