//! DOCA-named facade over the cross-processor memory-map handshake.
//!
//! §3.4.2 describes the three-step protocol with DOCA API names; this
//! module exposes the same vocabulary over [`membuf::export`] so the DNE
//! code reads like the paper:
//!
//! 1. the host agent calls [`doca_mmap_export_full`] on the unified pool
//!    (one descriptor carrying the PCIe and the RNIC grant);
//! 2. the export descriptor travels to the DNE over Comch;
//! 3. the DNE calls [`doca_mmap_create_from_export`] and can then register
//!    the host memory with the RNIC.

use membuf::export::{ExportDescriptor, ExportError, ExportTarget, MappedPool};
use membuf::pool::BufferPool;

/// Exports `pool` for access by the DPU's ARM cores over PCIe.
pub fn doca_mmap_export_pci(pool: &BufferPool) -> Result<ExportDescriptor, ExportError> {
    ExportDescriptor::export(pool, &[ExportTarget::Pci])
}

/// Exports `pool` with both grants in one descriptor — what NADINO's
/// shared-memory agent ships to the DNE.
pub fn doca_mmap_export_full(pool: &BufferPool) -> Result<ExportDescriptor, ExportError> {
    ExportDescriptor::export(pool, &[ExportTarget::Pci, ExportTarget::Rdma])
}

/// Recreates the memory map on the DPU from a received export descriptor.
pub fn doca_mmap_create_from_export(export: &ExportDescriptor) -> Result<MappedPool, ExportError> {
    export.import(ExportTarget::Pci)
}

#[cfg(test)]
mod tests {
    use super::*;
    use membuf::pool::PoolConfig;
    use membuf::tenant::TenantId;

    fn mk_pool() -> BufferPool {
        let mut cfg = PoolConfig::new(TenantId(1), 0, 256, 4);
        cfg.segment_size = 4096;
        BufferPool::new(cfg).unwrap()
    }

    #[test]
    fn full_export_round_trips_through_the_dpu() {
        let pool = mk_pool();
        let export = doca_mmap_export_full(&pool).unwrap();
        let mapped = doca_mmap_create_from_export(&export).unwrap();
        assert!(mapped.allows(ExportTarget::Rdma));
        // Host-side write is visible through the DPU mapping.
        let mut b = pool.get().unwrap();
        b.write_payload(b"dne visible").unwrap();
        let desc = b.into_desc(0);
        assert_eq!(
            mapped.pool().redeem(desc).unwrap().as_slice(),
            b"dne visible"
        );
    }

    #[test]
    fn pci_only_export_cannot_reach_the_rnic() {
        let pool = mk_pool();
        let export = doca_mmap_export_pci(&pool).unwrap();
        let mapped = doca_mmap_create_from_export(&export).unwrap();
        assert!(!mapped.allows(ExportTarget::Rdma));
    }
}
