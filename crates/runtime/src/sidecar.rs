//! The streamlined sidecar: tenant access control on the descriptor path.
//!
//! NADINO replaces heavy per-function sidecar containers with an
//! eBPF-based check plus a node-wide shared sidecar in the DNE (§3.1).
//! The enforced policy follows the paper's trust model: functions of the
//! same tenant may exchange shared-memory descriptors freely; any
//! cross-tenant exchange is denied, because tenants do not share memory
//! pools.

use membuf::tenant::TenantId;
use simcore::{IdTable, SimDuration};

/// The sidecar's verdict for one descriptor exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessDecision {
    /// Same tenant: zero-copy descriptor hand-off allowed.
    Allow,
    /// Denied: the exchange is dropped and counted.
    Deny,
}

/// Node-wide sidecar state.
#[derive(Debug, Default)]
pub struct Sidecar {
    /// Indexed by function id: checked once per descriptor.
    owner: IdTable<TenantId>,
    denials: u64,
    checks: u64,
}

impl Sidecar {
    /// Per-descriptor CPU cost of the eBPF check (reference CPU time).
    pub const CHECK_COST: SimDuration = SimDuration::from_nanos(150);

    /// Creates an empty sidecar.
    pub fn new() -> Self {
        Sidecar::default()
    }

    /// Records that `fn_id` belongs to `tenant`.
    pub fn assign(&mut self, fn_id: u16, tenant: TenantId) {
        self.owner.insert(fn_id.into(), tenant);
    }

    /// Checks whether `src_tenant` may deliver a descriptor to `dst_fn`.
    pub fn check(&mut self, src_tenant: TenantId, dst_fn: u16) -> AccessDecision {
        self.checks += 1;
        match self.owner.get(dst_fn.into()) {
            Some(&owner) if owner == src_tenant => AccessDecision::Allow,
            _ => {
                self.denials += 1;
                AccessDecision::Deny
            }
        }
    }

    /// Returns how many checks were performed.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Returns how many exchanges were denied.
    pub fn denials(&self) -> u64 {
        self.denials
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_tenant_allowed_zero_copy() {
        let mut sc = Sidecar::new();
        sc.assign(1, TenantId(1));
        assert_eq!(sc.check(TenantId(1), 1), AccessDecision::Allow);
        assert_eq!(sc.denials(), 0);
    }

    #[test]
    fn cross_tenant_denied_by_default() {
        let mut sc = Sidecar::new();
        sc.assign(2, TenantId(2));
        assert_eq!(sc.check(TenantId(1), 2), AccessDecision::Deny);
        assert_eq!(sc.denials(), 1);
    }

    #[test]
    fn unknown_destination_denied() {
        let mut sc = Sidecar::new();
        assert_eq!(sc.check(TenantId(1), 42), AccessDecision::Deny);
        assert_eq!(sc.checks(), 1);
    }
}
