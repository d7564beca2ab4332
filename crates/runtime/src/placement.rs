//! Function placement: which node hosts which function.

use rdma_sim::NodeId;
use simcore::IdTable;

/// The cluster-wide function → node map.
#[derive(Debug, Clone, Default)]
pub struct Placement {
    /// Indexed by function id: every send looks its target up here.
    map: IdTable<NodeId>,
}

impl Placement {
    /// Creates an empty placement.
    pub fn new() -> Self {
        Placement::default()
    }

    /// Places (or moves) a function onto a node.
    pub fn place(&mut self, fn_id: u16, node: NodeId) {
        self.map.insert(fn_id.into(), node);
    }

    /// Returns the node hosting `fn_id`.
    pub fn node_of(&self, fn_id: u16) -> Option<NodeId> {
        self.map.get(fn_id.into()).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn place_and_query() {
        let mut p = Placement::new();
        p.place(1, NodeId(0));
        p.place(2, NodeId(1));
        p.place(3, NodeId(0));
        assert_eq!(p.node_of(1), Some(NodeId(0)));
        assert_eq!(p.node_of(2), Some(NodeId(1)));
        assert_eq!(p.node_of(3), Some(NodeId(0)));
    }

    #[test]
    fn replace_moves_function() {
        let mut p = Placement::new();
        p.place(1, NodeId(0));
        p.place(1, NodeId(2));
        assert_eq!(p.node_of(1), Some(NodeId(2)));
    }
}
