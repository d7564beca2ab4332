//! Cross-processor shared memory via export descriptors (DOCA mmap model).
//!
//! §3.4.2: the host-side shared-memory agent *exports* the unified pool with
//! `doca_mmap_export_pci()` (granting the DPU ARM cores access) and
//! `doca_mmap_export_rdma()` (granting the RNIC access), ships the export
//! descriptor over Comch, and the DNE *imports* it with
//! `doca_mmap_create_from_export()`. After the handshake the DNE can
//! register the host memory with the RNIC without ever copying data.
//!
//! [`ExportDescriptor`] reproduces that three-step protocol: it is created
//! from a pool with an explicit set of [`ExportTarget`] grants, is handed to
//! the importing side (over Comch in the paper), and imports into a
//! [`MappedPool`] whose capability set is checked by downstream consumers
//! (the RNIC model refuses to register memory whose export lacks the `Rdma`
//! grant).

use std::fmt;

use crate::pool::BufferPool;

/// A processor that can be granted access to an exported pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExportTarget {
    /// DPU SoC cores over PCIe (`doca_mmap_export_pci`).
    Pci,
    /// The integrated RNIC (`doca_mmap_export_rdma`).
    Rdma,
}

/// Errors from the export/import handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExportError {
    /// The export carries no grants at all.
    NoTargets,
    /// The importer requested a capability the export does not grant.
    MissingGrant(ExportTarget),
}

impl fmt::Display for ExportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExportError::NoTargets => write!(f, "export descriptor grants no targets"),
            ExportError::MissingGrant(t) => write!(f, "export lacks the {t:?} grant"),
        }
    }
}

impl std::error::Error for ExportError {}

/// An export descriptor representing a host memory pool in a remote
/// processor's memory space.
#[derive(Clone)]
pub struct ExportDescriptor {
    pool: BufferPool,
    grants: Vec<ExportTarget>,
}

impl ExportDescriptor {
    /// Exports `pool` with the given grants
    /// (`doca_mmap_export_{pci,rdma}` analogue).
    pub fn export(pool: &BufferPool, grants: &[ExportTarget]) -> Result<Self, ExportError> {
        if grants.is_empty() {
            return Err(ExportError::NoTargets);
        }
        Ok(ExportDescriptor {
            pool: pool.clone(),
            grants: grants.to_vec(),
        })
    }

    /// Returns `true` if the export grants access to `target`.
    pub fn grants(&self, target: ExportTarget) -> bool {
        self.grants.contains(&target)
    }

    /// Imports the export on the remote processor
    /// (`doca_mmap_create_from_export` analogue).
    ///
    /// `as_target` identifies the importing processor; the import fails if
    /// the export does not grant it.
    pub fn import(&self, as_target: ExportTarget) -> Result<MappedPool, ExportError> {
        if !self.grants(as_target) {
            return Err(ExportError::MissingGrant(as_target));
        }
        Ok(MappedPool {
            pool: self.pool.clone(),
            grants: self.grants.clone(),
            imported_as: as_target,
        })
    }
}

impl fmt::Debug for ExportDescriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExportDescriptor")
            .field("grants", &self.grants)
            .finish()
    }
}

/// A host pool mapped into a remote processor's address space.
///
/// The wrapped [`BufferPool`] shares state with the host-side pool:
/// allocations, redemptions and recycles are visible on both sides, which
/// is exactly the unified-memory-pool property the off-path DNE relies on.
#[derive(Clone)]
pub struct MappedPool {
    pool: BufferPool,
    grants: Vec<ExportTarget>,
    imported_as: ExportTarget,
}

impl MappedPool {
    /// Returns the underlying pool handle.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Returns `true` if the originating export also granted `target`.
    ///
    /// The DNE uses this to check that a PCI-imported mapping may be
    /// registered with the RNIC.
    pub fn allows(&self, target: ExportTarget) -> bool {
        self.grants.contains(&target)
    }
}

impl fmt::Debug for MappedPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MappedPool")
            .field("imported_as", &self.imported_as)
            .field("grants", &self.grants)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolConfig;
    use crate::tenant::TenantId;

    fn mk_pool() -> BufferPool {
        let mut cfg = PoolConfig::new(TenantId(1), 0, 512, 8);
        cfg.segment_size = 8192;
        BufferPool::new(cfg).unwrap()
    }

    #[test]
    fn empty_grants_rejected() {
        let p = mk_pool();
        assert_eq!(
            ExportDescriptor::export(&p, &[]).unwrap_err(),
            ExportError::NoTargets
        );
    }

    #[test]
    fn import_requires_grant() {
        let p = mk_pool();
        let exp = ExportDescriptor::export(&p, &[ExportTarget::Pci]).unwrap();
        assert!(exp.import(ExportTarget::Pci).is_ok());
        assert_eq!(
            exp.import(ExportTarget::Rdma).unwrap_err(),
            ExportError::MissingGrant(ExportTarget::Rdma)
        );
    }

    #[test]
    fn mapping_shares_pool_state() {
        let host_pool = mk_pool();
        let exp =
            ExportDescriptor::export(&host_pool, &[ExportTarget::Pci, ExportTarget::Rdma]).unwrap();
        let dpu = exp.import(ExportTarget::Pci).unwrap();

        // Host writes, detaches; DPU-side mapping redeems and reads —
        // zero copies, one shared pool.
        let mut b = host_pool.get().unwrap();
        b.write_payload(b"off-path").unwrap();
        let desc = b.into_desc(0);
        let got = dpu.pool().redeem(desc).unwrap();
        assert_eq!(got.as_slice(), b"off-path");
        assert!(dpu.allows(ExportTarget::Rdma));
    }
}
