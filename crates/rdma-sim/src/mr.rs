//! Memory-region registration.
//!
//! The DNE registers the (cross-processor mapped) unified memory pool with
//! the RNIC before any RDMA traffic can touch it (§3.4.2). Registration is
//! keyed by `(tenant, pool_id)` and returns an [`RKey`]; the fabric checks
//! every verb against this table, and the registered MTT entry count feeds
//! the RNIC cache-penalty model (hugepages keep it small, §3.4).

use std::collections::HashMap;

use membuf::export::{ExportTarget, MappedPool};
use membuf::pool::BufferPool;
use membuf::tenant::TenantId;
use simcore::IdTable;

use crate::types::{RKey, RdmaError};

/// A registered memory region.
pub(crate) struct MemoryRegion {
    pub pool: BufferPool,
}

/// The per-node MR table.
#[derive(Default)]
pub(crate) struct MrTable {
    /// `tenant → [(pool id, rkey)]`: checked on every post, so indexed by
    /// tenant id; a tenant registers a handful of pools at most.
    by_pool: IdTable<Vec<(u16, RKey)>>,
    by_rkey: HashMap<RKey, MemoryRegion>,
    next_rkey: u32,
    total_mtt: usize,
}

impl MrTable {
    /// Registers a pool directly (host-side registration path).
    pub fn register_pool(&mut self, pool: BufferPool) -> RKey {
        if let Some(rkey) = self.rkey_of(pool.tenant(), pool.pool_id()) {
            return rkey;
        }
        let rkey = RKey(self.next_rkey);
        self.next_rkey += 1;
        self.total_mtt += pool.mtt_entries();
        self.by_pool
            .get_or_insert_with(pool.tenant().0.into(), Vec::new)
            .push((pool.pool_id(), rkey));
        self.by_rkey.insert(rkey, MemoryRegion { pool });
        rkey
    }

    /// Registers a cross-processor mapping; fails unless the originating
    /// export carried the `Rdma` grant (the DOCA contract).
    pub fn register_mapped(&mut self, mapped: &MappedPool) -> Result<RKey, RdmaError> {
        if !mapped.allows(ExportTarget::Rdma) {
            return Err(RdmaError::UnregisteredMemory);
        }
        Ok(self.register_pool(mapped.pool().clone()))
    }

    /// Looks up the rkey for a pool, if registered.
    pub fn rkey_of(&self, tenant: TenantId, pool_id: u16) -> Option<RKey> {
        let pools = self.by_pool.get(tenant.0.into())?;
        pools.iter().find(|(id, _)| *id == pool_id).map(|(_, k)| *k)
    }

    /// Resolves an rkey to its region.
    pub fn region(&self, rkey: RKey) -> Result<&MemoryRegion, RdmaError> {
        self.by_rkey.get(&rkey).ok_or(RdmaError::BadRKey(rkey))
    }

    /// Returns `true` if the pool backing `tenant/pool_id` is registered.
    pub fn is_registered(&self, tenant: TenantId, pool_id: u16) -> bool {
        self.rkey_of(tenant, pool_id).is_some()
    }

    /// Total registered translation entries (drives the MTT penalty).
    pub fn total_mtt_entries(&self) -> usize {
        self.total_mtt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use membuf::export::ExportDescriptor;
    use membuf::pool::PoolConfig;

    fn mk_pool(tenant: u16, pool_id: u16) -> BufferPool {
        let mut cfg = PoolConfig::new(TenantId(tenant), pool_id, 256, 4);
        cfg.segment_size = 4096;
        BufferPool::new(cfg).unwrap()
    }

    #[test]
    fn register_is_idempotent() {
        let mut t = MrTable::default();
        let p = mk_pool(1, 0);
        let k1 = t.register_pool(p.clone());
        let k2 = t.register_pool(p);
        assert_eq!(k1, k2);
        assert_eq!(t.total_mtt_entries(), 1);
    }

    #[test]
    fn rkey_resolves_to_the_right_pool() {
        let mut t = MrTable::default();
        let a = mk_pool(1, 0);
        let b = mk_pool(2, 3);
        let ka = t.register_pool(a);
        let kb = t.register_pool(b);
        assert_ne!(ka, kb);
        assert_eq!(t.region(kb).unwrap().pool.tenant(), TenantId(2));
        assert_eq!(t.rkey_of(TenantId(1), 0), Some(ka));
        assert_eq!(t.rkey_of(TenantId(1), 9), None);
    }

    #[test]
    fn mapped_registration_requires_rdma_grant() {
        let mut t = MrTable::default();
        let p = mk_pool(1, 0);
        let pci_only = ExportDescriptor::export(&p, &[ExportTarget::Pci])
            .unwrap()
            .import(ExportTarget::Pci)
            .unwrap();
        assert_eq!(
            t.register_mapped(&pci_only).unwrap_err(),
            RdmaError::UnregisteredMemory
        );
        let full = ExportDescriptor::export(&p, &[ExportTarget::Pci, ExportTarget::Rdma])
            .unwrap()
            .import(ExportTarget::Pci)
            .unwrap();
        assert!(t.register_mapped(&full).is_ok());
    }

    #[test]
    fn unknown_rkey_errors() {
        let t = MrTable::default();
        assert_eq!(
            t.region(RKey(9)).map(|_| ()).unwrap_err(),
            RdmaError::BadRKey(RKey(9))
        );
    }
}
