//! DAG-style dataflows with RPC semantics (§3.5).
//!
//! "Beyond simple messaging, the API is extensible: we layer RPC semantics
//! and DAG-style dataflows on top of the same primitives." A [`DagSpec`]
//! describes a call tree: each function calls all of its children *in
//! parallel* (fan-out), waits for every response (fan-in join), then
//! responds to its own caller. Calls and responses are ordinary pool
//! buffers moved by the unified I/O library, so the zero-copy and
//! isolation properties carry over unchanged.
//!
//! Wire convention inside the payload (after the 8-byte request id):
//! byte 8 is the message kind (call/response) and bytes 9..11 carry the
//! sender's function id, so a callee knows whom to respond to.

use std::collections::HashMap;

use membuf::tenant::TenantId;

/// Sender id used for calls injected by the client/ingress.
pub const CLIENT_CALLER: u16 = 0;

/// Message kinds on the DAG plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DagMsg {
    /// A downstream invocation.
    Call,
    /// A response travelling back up the tree.
    Response,
}

/// Encodes the DAG header into a payload (which must already hold the
/// request id in bytes 0..8 and be at least [`DAG_HEADER_LEN`] long).
pub fn set_dag_header(payload: &mut [u8], kind: DagMsg, src_fn: u16) {
    payload[8] = match kind {
        DagMsg::Call => 0,
        DagMsg::Response => 1,
    };
    payload[9..11].copy_from_slice(&src_fn.to_le_bytes());
}

/// Decodes the DAG header; `None` when the payload is too short.
pub fn dag_header(payload: &[u8]) -> Option<(DagMsg, u16)> {
    if payload.len() < DAG_HEADER_LEN {
        return None;
    }
    let kind = match payload[8] {
        0 => DagMsg::Call,
        1 => DagMsg::Response,
        _ => return None,
    };
    Some((kind, u16::from_le_bytes([payload[9], payload[10]])))
}

/// Minimum payload length carrying a DAG header.
pub const DAG_HEADER_LEN: usize = 11;

/// A fan-out/fan-in call tree.
#[derive(Debug, Clone)]
pub struct DagSpec {
    /// Human-readable name.
    pub name: String,
    /// Owning tenant.
    pub tenant: TenantId,
    /// The function receiving the external request.
    pub root: u16,
    /// Children invoked (in parallel) by each function.
    pub children: HashMap<u16, Vec<u16>>,
}

impl DagSpec {
    /// Builds and validates a DAG from `(parent, children)` pairs.
    ///
    /// # Panics
    ///
    /// Panics when a function with children has more than one caller
    /// (interior nodes must form a tree so join state is unambiguous;
    /// leaves may be shared), when a function calls itself, or when the
    /// root is missing.
    pub fn new(name: &str, tenant: TenantId, root: u16, edges: &[(u16, &[u16])]) -> DagSpec {
        let mut children: HashMap<u16, Vec<u16>> = HashMap::new();
        for (parent, kids) in edges {
            assert!(
                !kids.contains(parent),
                "function {parent} cannot call itself"
            );
            children.insert(*parent, kids.to_vec());
        }
        let mut callers: HashMap<u16, usize> = HashMap::new();
        for kids in children.values() {
            for &k in kids {
                *callers.entry(k).or_insert(0) += 1;
            }
        }
        for (f, kids) in &children {
            if !kids.is_empty() && *f != root {
                assert_eq!(
                    callers.get(f).copied().unwrap_or(0),
                    1,
                    "interior function {f} must have exactly one caller"
                );
            }
        }
        assert!(
            children.contains_key(&root) || callers.contains_key(&root),
            "root {root} must appear in the DAG"
        );
        DagSpec {
            name: name.to_string(),
            tenant,
            root,
            children,
        }
    }

    /// All functions participating in the DAG (sorted).
    pub fn functions(&self) -> Vec<u16> {
        let mut v: Vec<u16> = self.children.keys().copied().collect();
        for kids in self.children.values() {
            v.extend(kids.iter().copied());
        }
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Children of `f` (empty slice for leaves).
    pub fn children_of(&self, f: u16) -> &[u16] {
        self.children.get(&f).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total messages (calls + responses) one request generates.
    pub fn messages_per_request(&self) -> usize {
        let calls: usize = self.children.values().map(Vec::len).sum();
        2 * calls
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let mut p = crate::function::encode_request_payload(42, 64);
        set_dag_header(&mut p, DagMsg::Call, 7);
        assert_eq!(dag_header(&p), Some((DagMsg::Call, 7)));
        set_dag_header(&mut p, DagMsg::Response, 9);
        assert_eq!(dag_header(&p), Some((DagMsg::Response, 9)));
        assert_eq!(dag_header(&p[..5]), None);
    }

    #[test]
    fn spec_accounting() {
        let dag = DagSpec::new("t", TenantId(1), 1, &[(1, &[2, 3, 4][..]), (4, &[2][..])]);
        assert_eq!(dag.functions(), vec![1, 2, 3, 4]);
        assert_eq!(dag.children_of(1), &[2, 3, 4]);
        assert!(dag.children_of(2).is_empty());
        // 4 calls + 4 responses.
        assert_eq!(dag.messages_per_request(), 8);
    }

    #[test]
    #[should_panic(expected = "exactly one caller")]
    fn shared_interior_node_rejected() {
        // Function 4 has children and two callers: ambiguous joins.
        let _ = DagSpec::new(
            "bad",
            TenantId(1),
            1,
            &[(1, &[2, 4][..]), (2, &[4][..]), (4, &[5][..])],
        );
    }

    #[test]
    #[should_panic(expected = "cannot call itself")]
    fn self_call_rejected() {
        let _ = DagSpec::new("bad", TenantId(1), 1, &[(1, &[1][..])]);
    }
}
