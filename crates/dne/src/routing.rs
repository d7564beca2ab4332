//! The inter-node routing table, indexed by function id.
//!
//! The TX stage (§3.2) "determines the destination node via the inter-node
//! routing table". Keys are function identifiers; values are fabric node
//! identifiers. The control plane (placement) populates it; the data plane
//! only reads.
//!
//! Keys are the dense small integers a counter hands out (on-wire `u16`
//! function ids; the churn model's `u32` tenant-function ids, 10^5 live at
//! a time), so the table is one [`IdTable`] of `{route, backup,
//! displaced}` entries: a lookup is an index, not a hash. Fail-over stays
//! sub-linear via a per-node reverse index (only the functions actually
//! placed on the dead node are visited, never the whole table).
//!
//! Beyond the primary placement, each function may carry a **backup
//! replica** route. When the health monitor declares a node down it calls
//! [`RouteTable::fail_over`], which marks the node down and re-points
//! every function whose active route targets it at the best *healthy*
//! alternative — the backup replica if it is up, else the function's
//! displaced original primary if that has recovered. A function with no
//! healthy alternative is **stranded**: its route is left in place but
//! [`RouteTable::resolve`] reports a typed
//! [`RouteError::DestinationDown`] instead of silently handing the engine
//! a dead node (the old behavior, which turned cascading failures into
//! retry storms against a corpse). [`RouteTable::restore`] marks the
//! node healthy again, fails displaced primaries back home, and rescues
//! stranded functions for which the recovered node is a valid target.
//! Lookups never panic: a missing route is a typed [`RouteError`] the
//! engine turns into a delivery failure.

use std::collections::{BTreeSet, HashMap, HashSet};

use rdma_sim::NodeId;
use simcore::IdTable;

/// A typed routing failure (no implicit panics on the lookup path).
///
/// `fn_id` is widened to `u64` so the same error type serves the engine's
/// on-wire `u16` function ids and the churn model's million-entry key
/// space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// No route — primary or backup — is installed for the function.
    UnknownDestination {
        /// The function id the lookup was for.
        fn_id: u64,
    },
    /// A route exists but its node is marked down and no healthy
    /// alternative (backup or displaced primary) was available at
    /// fail-over time.
    DestinationDown {
        /// The function id the lookup was for.
        fn_id: u64,
        /// The down node the route still points at.
        node: NodeId,
    },
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::UnknownDestination { fn_id } => {
                write!(f, "no route installed for function {fn_id}")
            }
            RouteError::DestinationDown { fn_id, node } => {
                write!(
                    f,
                    "function {fn_id} is stranded on down node {} (no healthy replica)",
                    node.0
                )
            }
        }
    }
}

/// A key type the table can route on: the engine's on-wire `u16` function
/// ids, or the churn model's wider `u32` tenant-function ids. Either way a
/// small integer that indexes the table directly.
pub trait RouteKey: Copy + Ord + std::fmt::Debug + Into<u32> + TryFrom<u32> {}

impl RouteKey for u16 {}
impl RouteKey for u32 {}

/// What the table knows about one function.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    /// The active route (`None`: only a standby is installed so far).
    route: Option<NodeId>,
    /// Standby replica placement, used when the active node fails.
    backup: Option<NodeId>,
    /// Original primary placement displaced by a fail-over, kept so
    /// recovery can restore it.
    displaced: Option<NodeId>,
}

/// Maps function ids to the node hosting them.
///
/// The engine's table is the [`RoutingTable`] alias (`u16` keys); the
/// churn model instantiates a wider key.
#[derive(Debug, Clone)]
pub struct RouteTable<K: RouteKey = u16> {
    entries: IdTable<Entry>,
    /// Reverse index: which functions are actively routed at each node.
    /// Makes fail-over O(functions on the node), not O(table).
    by_node: HashMap<NodeId, BTreeSet<K>>,
    /// Nodes the health monitor has declared down.
    down: HashSet<NodeId>,
    /// Installed routes (entries holding only a standby do not count).
    len: usize,
}

/// The name the frozen `dne.route_lookup_ns` benchmark driver imports.
pub type ShardedTable<K = u16> = RouteTable<K>;

impl<K: RouteKey> Default for RouteTable<K> {
    fn default() -> Self {
        RouteTable::new()
    }
}

impl<K: RouteKey> RouteTable<K> {
    /// Creates an empty table.
    pub fn new() -> Self {
        RouteTable {
            entries: IdTable::new(),
            by_node: HashMap::new(),
            down: HashSet::new(),
            len: 0,
        }
    }

    fn entry(&self, key: K) -> Option<&Entry> {
        self.entries.get(key.into())
    }

    fn unindex(&mut self, key: K, node: NodeId) {
        if let Some(set) = self.by_node.get_mut(&node) {
            set.remove(&key);
            if set.is_empty() {
                self.by_node.remove(&node);
            }
        }
    }

    /// Re-points `key`'s route to `to`, keeping the reverse index in sync.
    /// Returns the previous node, if any.
    fn install(&mut self, key: K, to: NodeId) -> Option<NodeId> {
        let entry = self.entries.get_or_insert_with(key.into(), Entry::default);
        let prev = entry.route.replace(to);
        match prev {
            Some(old) if old == to => return prev,
            Some(old) => self.unindex(key, old),
            None => self.len += 1,
        }
        self.by_node.entry(to).or_default().insert(key);
        prev
    }

    /// Installs `node` as `key`'s route and remembers the primary it
    /// displaced (the first one, across a cascade).
    fn displace(&mut self, key: K, node: NodeId) {
        let prev = self.install(key, node).expect("route existed");
        let entry = self.entries.get_mut(key.into()).expect("just installed");
        entry.displaced.get_or_insert(prev);
    }

    /// Installs (or moves) a function's placement. Clears any fail-over
    /// memory for the function: an explicit placement wins.
    pub fn set(&mut self, fn_id: K, node: NodeId) {
        self.install(fn_id, node);
        let entry = self.entries.get_mut(fn_id.into()).expect("just installed");
        entry.displaced = None;
    }

    /// Installs a standby replica for a function. The backup only serves
    /// traffic after [`RouteTable::fail_over`] switches to it.
    pub fn set_backup(&mut self, fn_id: K, node: NodeId) {
        let entry = self
            .entries
            .get_or_insert_with(fn_id.into(), Entry::default);
        entry.backup = Some(node);
    }

    /// Returns the function's standby replica node, if one is installed.
    pub fn backup_of(&self, fn_id: K) -> Option<NodeId> {
        self.entry(fn_id)?.backup
    }

    /// Removes a function's route (and its standby and fail-over memory),
    /// returning the node it was routed at.
    pub fn remove(&mut self, fn_id: K) -> Option<NodeId> {
        let prev = self.entries.remove(fn_id.into())?.route;
        if let Some(node) = prev {
            self.len -= 1;
            self.unindex(fn_id, node);
        }
        prev
    }

    /// Looks up the node hosting `fn_id` — the raw route, whether or not
    /// the node is currently down. Callers that must not talk to a dead
    /// node use [`RouteTable::resolve`].
    #[inline]
    pub fn lookup(&self, fn_id: K) -> Option<NodeId> {
        self.entry(fn_id)?.route
    }

    /// Looks up the node hosting `fn_id`, as a typed result: a missing
    /// route and a route stranded on a down node are distinct, surfaced
    /// errors rather than silent drops or sends into a dead peer.
    pub fn resolve(&self, fn_id: K) -> Result<NodeId, RouteError> {
        let id = u64::from(fn_id.into());
        match self.lookup(fn_id) {
            None => Err(RouteError::UnknownDestination { fn_id: id }),
            Some(node) if self.down.contains(&node) => {
                Err(RouteError::DestinationDown { fn_id: id, node })
            }
            Some(node) => Ok(node),
        }
    }

    /// Returns `true` if `fn_id` is placed on `node`.
    pub fn is_local(&self, fn_id: K, node: NodeId) -> bool {
        self.lookup(fn_id) == Some(node)
    }

    /// The healthy fail-over target for a function currently routed at a
    /// down node: its backup replica if healthy, else its displaced
    /// original primary if that has recovered.
    fn healthy_alternative(&self, fn_id: K, avoid: NodeId) -> Option<NodeId> {
        let entry = self.entry(fn_id)?;
        [entry.backup, entry.displaced]
            .into_iter()
            .flatten()
            .find(|n| *n != avoid && !self.down.contains(n))
    }

    /// Marks `failed` down and re-points every function actively routed to
    /// it at a healthy alternative, remembering the function's original
    /// primary so recovery can restore it. Functions with no healthy
    /// alternative keep their route but fail [`RouteTable::resolve`]
    /// with [`RouteError::DestinationDown`] until a target recovers.
    ///
    /// Returns the switched function ids, sorted.
    pub fn fail_over(&mut self, failed: NodeId) -> Vec<K> {
        self.down.insert(failed);
        let mut moved = Vec::new();
        for fn_id in self.functions_on(failed) {
            // No alternative = stranded: resolve() reports DestinationDown.
            if let Some(target) = self.healthy_alternative(fn_id, failed) {
                self.displace(fn_id, target);
                moved.push(fn_id);
            }
        }
        moved
    }

    /// Marks `node` healthy again and repairs routes:
    ///
    /// 1. every primary displaced *from* `node` fails back home;
    /// 2. every function stranded on a still-down node for which `node` is
    ///    now a healthy alternative is rescued onto it.
    ///
    /// Returns the re-routed function ids, sorted.
    pub fn restore(&mut self, node: NodeId) -> Vec<K> {
        self.down.remove(&node);
        // (1) fail displaced primaries back home. Restores are rare and
        // tables that fail over are small, so this reads every entry.
        let home: Vec<u32> = self
            .entries
            .iter()
            .filter(|(_, e)| e.displaced == Some(node))
            .map(|(id, _)| id)
            .collect();
        let mut back: Vec<K> = Vec::new();
        for id in home {
            let fn_id = K::try_from(id).ok().expect("table ids come from keys");
            self.entries.get_mut(id).expect("listed above").displaced = None;
            if self.install(fn_id, node) != Some(node) {
                back.push(fn_id);
            }
        }
        // (2) rescue functions stranded on nodes that are still down.
        let stranded: Vec<K> = self
            .down
            .iter()
            .filter_map(|d| self.by_node.get(d))
            .flat_map(|set| set.iter().copied())
            .collect();
        for fn_id in stranded {
            let at = self.lookup(fn_id).expect("indexed route exists");
            if self.healthy_alternative(fn_id, at) == Some(node) {
                self.displace(fn_id, node);
                back.push(fn_id);
            }
        }
        back.sort_unstable();
        back.dedup();
        back
    }

    /// Returns the number of installed routes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no routes are installed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The functions actively routed at `node`, sorted. Sub-linear: reads
    /// the reverse index, not the table.
    pub fn functions_on(&self, node: NodeId) -> Vec<K> {
        self.by_node
            .get(&node)
            .map(|set| set.iter().copied().collect())
            .unwrap_or_default()
    }

    /// The functions stranded at `node`: still routed there while the node
    /// is marked down because [`RouteTable::fail_over`] found no healthy
    /// alternative. Every entry fails [`RouteTable::resolve`] with
    /// [`RouteError::DestinationDown`] until a target recovers. Sorted;
    /// empty when the node is up.
    pub fn stranded_on(&self, node: NodeId) -> Vec<K> {
        if !self.down.contains(&node) {
            return Vec::new();
        }
        self.functions_on(node)
    }
}

/// The engine's routing table: on-wire `u16` function ids.
pub type RoutingTable = RouteTable<u16>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_lookup_remove() {
        let mut rt = RoutingTable::new();
        assert!(rt.is_empty());
        rt.set(1, NodeId(0));
        rt.set(2, NodeId(1));
        assert_eq!(rt.lookup(1), Some(NodeId(0)));
        assert_eq!(rt.lookup(3), None);
        assert!(rt.is_local(2, NodeId(1)));
        assert!(!rt.is_local(2, NodeId(0)));
        assert_eq!(rt.remove(1), Some(NodeId(0)));
        assert_eq!(rt.len(), 1);
    }

    #[test]
    fn reinstall_moves_function() {
        let mut rt = RoutingTable::new();
        rt.set(5, NodeId(0));
        rt.set(5, NodeId(3));
        assert_eq!(rt.lookup(5), Some(NodeId(3)));
        assert_eq!(rt.len(), 1);
        assert_eq!(rt.functions_on(NodeId(0)), Vec::<u16>::new());
        assert_eq!(rt.functions_on(NodeId(3)), vec![5]);
    }

    #[test]
    fn resolve_is_typed() {
        let mut rt = RoutingTable::new();
        rt.set(1, NodeId(0));
        assert_eq!(rt.resolve(1), Ok(NodeId(0)));
        assert_eq!(
            rt.resolve(9),
            Err(RouteError::UnknownDestination { fn_id: 9 })
        );
    }

    #[test]
    fn fail_over_switches_only_backed_up_functions() {
        let mut rt = RoutingTable::new();
        rt.set(1, NodeId(1));
        rt.set(2, NodeId(1));
        rt.set(3, NodeId(2));
        rt.set_backup(1, NodeId(2));
        // fn 2 has no backup; fn 3 is not on the failed node.
        let moved = rt.fail_over(NodeId(1));
        assert_eq!(moved, vec![1]);
        assert_eq!(rt.lookup(1), Some(NodeId(2)));
        assert_eq!(rt.lookup(2), Some(NodeId(1)), "no backup, stays put");
        assert_eq!(rt.lookup(3), Some(NodeId(2)));
        // fn 2 is stranded: the route remains but resolve refuses it.
        assert_eq!(
            rt.resolve(2),
            Err(RouteError::DestinationDown {
                fn_id: 2,
                node: NodeId(1)
            })
        );
        assert_eq!(rt.resolve(1), Ok(NodeId(2)));
    }

    #[test]
    fn restore_undoes_fail_over() {
        let mut rt = RoutingTable::new();
        rt.set(1, NodeId(1));
        rt.set(2, NodeId(1));
        rt.set_backup(1, NodeId(2));
        rt.set_backup(2, NodeId(0));
        assert_eq!(rt.fail_over(NodeId(1)), vec![1, 2]);
        assert_eq!(rt.lookup(1), Some(NodeId(2)));
        assert_eq!(rt.lookup(2), Some(NodeId(0)));
        assert_eq!(rt.restore(NodeId(1)), vec![1, 2]);
        assert_eq!(rt.lookup(1), Some(NodeId(1)));
        assert_eq!(rt.lookup(2), Some(NodeId(1)));
        // A second restore is a no-op.
        assert_eq!(rt.restore(NodeId(1)), Vec::<u16>::new());
    }

    /// Regression (cascading fail-over, part 1): a backup placed on the
    /// node that just failed is useless, and the old table silently left
    /// the route pointing at the dead node while `lookup` kept serving it.
    /// Now the function is stranded with a typed error until recovery.
    #[test]
    fn backup_on_failed_node_strands_with_typed_error() {
        let mut rt = RoutingTable::new();
        rt.set(1, NodeId(1));
        rt.set_backup(1, NodeId(1));
        assert_eq!(rt.fail_over(NodeId(1)), Vec::<u16>::new());
        assert_eq!(rt.lookup(1), Some(NodeId(1)), "route kept for recovery");
        assert_eq!(
            rt.resolve(1),
            Err(RouteError::DestinationDown {
                fn_id: 1,
                node: NodeId(1)
            })
        );
        // The node coming back rescues the function in place.
        rt.restore(NodeId(1));
        assert_eq!(rt.resolve(1), Ok(NodeId(1)));
    }

    /// Regression (cascading fail-over, part 2): backup node fails first,
    /// then the primary. The old table switched fn onto the already-down
    /// backup; now fail-over skips down candidates and the function is
    /// stranded until either node recovers.
    #[test]
    fn fail_over_never_targets_a_down_backup() {
        let mut rt = RoutingTable::new();
        rt.set(1, NodeId(1));
        rt.set_backup(1, NodeId(2));
        assert_eq!(rt.fail_over(NodeId(2)), Vec::<u16>::new());
        assert_eq!(rt.resolve(1), Ok(NodeId(1)), "primary still healthy");
        // Primary dies too: the backup is down, so the function strands
        // instead of being switched onto a corpse.
        assert_eq!(rt.fail_over(NodeId(1)), Vec::<u16>::new());
        assert_eq!(
            rt.resolve(1),
            Err(RouteError::DestinationDown {
                fn_id: 1,
                node: NodeId(1)
            })
        );
        // The backup recovering rescues the stranded function onto it.
        assert_eq!(rt.restore(NodeId(2)), vec![1]);
        assert_eq!(rt.resolve(1), Ok(NodeId(2)));
        // And the primary recovering fails it back home.
        assert_eq!(rt.restore(NodeId(1)), vec![1]);
        assert_eq!(rt.resolve(1), Ok(NodeId(1)));
    }

    /// Regression (cascading fail-over, part 3): the old `restore` would
    /// reinstall a displaced primary even while the backup currently
    /// serving the function went down in the meantime — and, worse, a
    /// cascade could reinstall routes onto nodes that never recovered.
    /// The down-set makes both transitions explicit.
    #[test]
    fn cascading_failure_falls_back_to_recovered_primary() {
        let mut rt = RoutingTable::new();
        rt.set(1, NodeId(1));
        rt.set_backup(1, NodeId(2));
        assert_eq!(rt.fail_over(NodeId(1)), vec![1]);
        assert_eq!(rt.resolve(1), Ok(NodeId(2)));
        // Primary recovers while the backup is serving; then the backup
        // dies. Fail-over must fall back to the recovered primary rather
        // than strand the function (the backup IS the failed node here).
        rt.restore(NodeId(1));
        // restore() already failed fn 1 back home to node 1.
        assert_eq!(rt.resolve(1), Ok(NodeId(1)));
        // Re-run the cascade the other way: backup serving, primary down.
        rt.fail_over(NodeId(1));
        assert_eq!(rt.resolve(1), Ok(NodeId(2)));
        rt.restore(NodeId(1)); // home again
        rt.fail_over(NodeId(2)); // backup node dies while fn is home
        assert_eq!(rt.resolve(1), Ok(NodeId(1)), "unaffected");
        // Now the primary dies with the backup still down — stranded —
        // and the backup's recovery rescues it.
        rt.fail_over(NodeId(1));
        assert!(matches!(
            rt.resolve(1),
            Err(RouteError::DestinationDown { .. })
        ));
        assert_eq!(rt.restore(NodeId(2)), vec![1]);
        assert_eq!(rt.resolve(1), Ok(NodeId(2)));
    }

    #[test]
    fn explicit_set_clears_failover_memory() {
        let mut rt = RoutingTable::new();
        rt.set(1, NodeId(1));
        rt.set_backup(1, NodeId(2));
        rt.fail_over(NodeId(1));
        rt.set(1, NodeId(3)); // control plane re-placed it for real
        assert_eq!(rt.restore(NodeId(1)), Vec::<u16>::new());
        assert_eq!(rt.lookup(1), Some(NodeId(3)));
    }

    #[test]
    fn reverse_index_tracks_moves() {
        let mut rt = RouteTable::<u32>::new();
        for k in 0..100u32 {
            rt.set(k, NodeId((k % 3) as u16));
        }
        assert_eq!(rt.functions_on(NodeId(0)).len(), 34);
        rt.set(0, NodeId(2));
        assert_eq!(rt.functions_on(NodeId(0)).len(), 33);
        assert!(rt.functions_on(NodeId(2)).contains(&0));
        rt.remove(0);
        assert!(!rt.functions_on(NodeId(2)).contains(&0));
        assert_eq!(rt.len(), 99);
    }
}
