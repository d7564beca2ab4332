//! The tenant identity every pool, descriptor and engine table is keyed by.
//!
//! The paper enforces memory isolation by giving each tenant (function
//! chain) its own memory pool (§3.4.1). Here a
//! [`BufferPool`](crate::BufferPool) is created for one [`TenantId`] and
//! refuses any descriptor that names another
//! ([`PoolError::WrongPool`](crate::PoolError::WrongPool)); the sidecar and
//! the DNE apply the same check before a descriptor moves.

use std::fmt;

/// Identifier of a tenant; the paper treats each function chain as a tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u16);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant_{}", self.0)
    }
}
