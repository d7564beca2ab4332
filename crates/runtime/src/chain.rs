//! Chain (call-graph) descriptions.
//!
//! A chain is the unit of tenancy in NADINO (§3.1: "NADINO treats each
//! function chain as an independent 'tenant'"). We describe a chain as the
//! *sequence of functions a request visits* — e.g. the Online Boutique's
//! Home Query revisits the frontend between downstream calls, producing
//! the ">11 data exchanges" the paper counts.

use membuf::tenant::TenantId;

/// A chain: a named sequence of function hops owned by one tenant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainSpec {
    /// Human-readable chain name (e.g. `"Home Query"`).
    pub name: String,
    /// Owning tenant.
    pub tenant: TenantId,
    /// The functions a request visits, in order. The first hop receives
    /// the ingress payload; the last hop produces the response.
    pub hops: Vec<u16>,
}

impl ChainSpec {
    /// Creates a chain, validating it is non-trivial.
    ///
    /// # Panics
    ///
    /// Panics if the chain has fewer than one hop or a hop immediately
    /// repeats (a function never messages itself).
    pub fn new(name: &str, tenant: TenantId, hops: Vec<u16>) -> ChainSpec {
        assert!(!hops.is_empty(), "a chain needs at least one hop");
        for w in hops.windows(2) {
            assert_ne!(w[0], w[1], "a function cannot call itself directly");
        }
        ChainSpec {
            name: name.to_string(),
            tenant,
            hops,
        }
    }

    /// The number of inter-function data exchanges a request incurs
    /// (hops minus one; the ingress legs are counted by the experiment).
    pub fn exchanges(&self) -> usize {
        self.hops.len().saturating_sub(1)
    }

    /// The distinct functions participating in the chain (sorted).
    pub fn functions(&self) -> Vec<u16> {
        let mut v = self.hops.clone();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The function receiving ingress traffic.
    pub fn entry(&self) -> u16 {
        self.hops[0]
    }

    /// The function producing the final response.
    pub fn exit(&self) -> u16 {
        *self.hops.last().expect("non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exchanges_and_functions() {
        let c = ChainSpec::new("t", TenantId(1), vec![1, 2, 1, 3, 1]);
        assert_eq!(c.exchanges(), 4);
        assert_eq!(c.functions(), vec![1, 2, 3]);
        assert_eq!(c.entry(), 1);
        assert_eq!(c.exit(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one hop")]
    fn empty_chain_panics() {
        let _ = ChainSpec::new("t", TenantId(1), vec![]);
    }

    #[test]
    #[should_panic(expected = "cannot call itself")]
    fn self_call_panics() {
        let _ = ChainSpec::new("t", TenantId(1), vec![1, 1]);
    }
}
