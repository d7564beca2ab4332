//! The inter-node routing table, sharded by function id.
//!
//! The TX stage (§3.2) "determines the destination node via the inter-node
//! routing table". Keys are function identifiers; values are fabric node
//! identifiers. The control plane (placement) populates it; the data plane
//! only reads.
//!
//! Under elastic multi-tenancy the table holds one entry per tenant
//! function, and the population reaches 10^6 in the churn sweeps, so the
//! table is **sharded**: keys scatter across a power-of-two number of
//! independent sub-maps, keeping every per-shard map small enough that a
//! lookup touches a cache-sized structure, and keeping fail-over sub-linear
//! via a per-node reverse index (only the functions actually placed on the
//! dead node are visited, never the whole table).
//!
//! Beyond the primary placement, each function may carry a **backup
//! replica** route. When the health monitor declares a node down it calls
//! [`ShardedTable::fail_over`], which marks the node down and re-points
//! every function whose active route targets it at the best *healthy*
//! alternative — the backup replica if it is up, else the function's
//! displaced original primary if that has recovered. A function with no
//! healthy alternative is **stranded**: its route is left in place but
//! [`ShardedTable::resolve`] reports a typed
//! [`RouteError::DestinationDown`] instead of silently handing the engine
//! a dead node (the old behavior, which turned cascading failures into
//! retry storms against a corpse). [`ShardedTable::restore`] marks the
//! node healthy again, fails displaced primaries back home, and rescues
//! stranded functions for which the recovered node is a valid target.
//! Lookups never panic: a missing route is a typed [`RouteError`] the
//! engine turns into a delivery failure.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::hash::Hash;

use rdma_sim::NodeId;

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

/// A key type the sharded table can route on: the engine's on-wire `u16`
/// function ids, or the churn model's wider `u32` tenant-function ids.
pub trait RouteKey: Copy + Eq + Hash + Ord + std::fmt::Debug {
    /// The key as a plain integer, for shard scattering and diagnostics.
    fn as_u64(self) -> u64;
}

impl RouteKey for u16 {
    fn as_u64(self) -> u64 {
        self as u64
    }
}

impl RouteKey for u32 {
    fn as_u64(self) -> u64 {
        self as u64
    }
}

impl RouteKey for u64 {
    fn as_u64(self) -> u64 {
        self
    }
}

/// Default shard count: small enough to be negligible for a ten-function
/// microbenchmark, large enough that a million-entry table keeps each
/// shard in the tens of thousands.
pub const DEFAULT_SHARDS: usize = 64;

/// One shard: an independent slice of the key space.
#[derive(Debug, Clone, Default)]
struct Shard<K> {
    routes: HashMap<K, NodeId>,
    /// Standby replica placements, used when the active node fails.
    backups: HashMap<K, NodeId>,
    /// Original primary placements displaced by a fail-over, kept so
    /// recovery can restore them.
    displaced: HashMap<K, NodeId>,
}

impl<K> Shard<K> {
    fn new() -> Self {
        Shard {
            routes: HashMap::new(),
            backups: HashMap::new(),
            displaced: HashMap::new(),
        }
    }
}

/// Maps function ids to the node hosting them, sharded by key.
///
/// The engine's table is the [`RoutingTable`] alias (`u16` keys); the
/// churn model instantiates a wider key.
#[derive(Debug, Clone)]
pub struct ShardedTable<K: RouteKey = u16> {
    shards: Vec<Shard<K>>,
    /// `log2(shards.len())`, for the multiplicative shard hash.
    shard_bits: u32,
    /// Reverse index: which functions are actively routed at each node.
    /// Makes fail-over O(functions on the node), not O(table).
    by_node: HashMap<NodeId, BTreeSet<K>>,
    /// Nodes the health monitor has declared down.
    down: HashSet<NodeId>,
    /// Total installed routes across all shards.
    len: usize,
}

impl<K: RouteKey> Default for ShardedTable<K> {
    fn default() -> Self {
        ShardedTable::new()
    }
}

impl<K: RouteKey> ShardedTable<K> {
    /// Creates an empty table with [`DEFAULT_SHARDS`] shards.
    pub fn new() -> Self {
        ShardedTable::with_shards(DEFAULT_SHARDS)
    }

    /// Creates an empty table with `shards` shards (rounded up to a power
    /// of two; minimum 1). A single-shard table is the flat reference the
    /// differential tests compare against.
    pub fn with_shards(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        ShardedTable {
            shards: (0..n).map(|_| Shard::new()).collect(),
            shard_bits: n.trailing_zeros(),
            by_node: HashMap::new(),
            down: HashSet::new(),
            len: 0,
        }
    }

    /// Returns the shard count (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index a key scatters to. Multiplicative (Fibonacci)
    /// hashing: sequential ids — the common allocation pattern — spread
    /// uniformly instead of clustering in one shard.
    fn shard_index(&self, key: K) -> usize {
        if self.shard_bits == 0 {
            return 0;
        }
        (key.as_u64().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - self.shard_bits)) as usize
    }

    fn shard(&self, key: K) -> &Shard<K> {
        &self.shards[self.shard_index(key)]
    }

    fn shard_mut(&mut self, key: K) -> &mut Shard<K> {
        let idx = self.shard_index(key);
        &mut self.shards[idx]
    }

    /// Re-points `key`'s route to `to`, keeping the reverse index in sync.
    /// Returns the previous node, if any.
    fn install(&mut self, key: K, to: NodeId) -> Option<NodeId> {
        let prev = self.shard_mut(key).routes.insert(key, to);
        if let Some(old) = prev {
            if old != to {
                if let Some(set) = self.by_node.get_mut(&old) {
                    set.remove(&key);
                    if set.is_empty() {
                        self.by_node.remove(&old);
                    }
                }
                self.by_node.entry(to).or_default().insert(key);
            }
        } else {
            self.len += 1;
            self.by_node.entry(to).or_default().insert(key);
        }
        prev
    }

    /// Installs (or moves) a function's placement. Clears any fail-over
    /// memory for the function: an explicit placement wins.
    pub fn set(&mut self, fn_id: K, node: NodeId) {
        self.install(fn_id, node);
        self.shard_mut(fn_id).displaced.remove(&fn_id);
    }

    /// Installs a standby replica for a function. The backup only serves
    /// traffic after [`ShardedTable::fail_over`] switches to it.
    pub fn set_backup(&mut self, fn_id: K, node: NodeId) {
        self.shard_mut(fn_id).backups.insert(fn_id, node);
    }

    /// Returns the function's standby replica node, if one is installed.
    pub fn backup_of(&self, fn_id: K) -> Option<NodeId> {
        self.shard(fn_id).backups.get(&fn_id).copied()
    }

    /// Removes a function's route, returning its previous node.
    pub fn remove(&mut self, fn_id: K) -> Option<NodeId> {
        let shard = self.shard_mut(fn_id);
        shard.backups.remove(&fn_id);
        shard.displaced.remove(&fn_id);
        let prev = shard.routes.remove(&fn_id);
        if let Some(node) = prev {
            self.len -= 1;
            if let Some(set) = self.by_node.get_mut(&node) {
                set.remove(&fn_id);
                if set.is_empty() {
                    self.by_node.remove(&node);
                }
            }
        }
        prev
    }

    /// Looks up the node hosting `fn_id` — the raw route, whether or not
    /// the node is currently down. Callers that must not talk to a dead
    /// node use [`ShardedTable::resolve`].
    pub fn lookup(&self, fn_id: K) -> Option<NodeId> {
        self.shard(fn_id).routes.get(&fn_id).copied()
    }

    /// Looks up the node hosting `fn_id`, as a typed result: a missing
    /// route and a route stranded on a down node are distinct, surfaced
    /// errors rather than silent drops or sends into a dead peer.
    pub fn resolve(&self, fn_id: K) -> Result<NodeId, RouteError> {
        match self.lookup(fn_id) {
            None => Err(RouteError::UnknownDestination {
                fn_id: fn_id.as_u64(),
            }),
            Some(node) if self.down.contains(&node) => Err(RouteError::DestinationDown {
                fn_id: fn_id.as_u64(),
                node,
            }),
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
        let shard = self.shard(fn_id);
        if let Some(&b) = shard.backups.get(&fn_id) {
            if b != avoid && !self.down.contains(&b) {
                return Some(b);
            }
        }
        if let Some(&home) = shard.displaced.get(&fn_id) {
            if home != avoid && !self.down.contains(&home) {
                return Some(home);
            }
        }
        None
    }

    /// Marks `failed` down and re-points every function actively routed to
    /// it at a healthy alternative, remembering the function's original
    /// primary so recovery can restore it. Functions with no healthy
    /// alternative keep their route but fail [`ShardedTable::resolve`]
    /// with [`RouteError::DestinationDown`] until a target recovers.
    ///
    /// Returns the switched function ids, sorted — deterministic
    /// regardless of map iteration order.
    pub fn fail_over(&mut self, failed: NodeId) -> Vec<K> {
        self.down.insert(failed);
        let candidates: Vec<K> = self
            .by_node
            .get(&failed)
            .map(|set| set.iter().copied().collect())
            .unwrap_or_default();
        let mut moved = Vec::new();
        for fn_id in candidates {
            let Some(target) = self.healthy_alternative(fn_id, failed) else {
                continue; // stranded: resolve() reports DestinationDown
            };
            let prev = self.install(fn_id, target).expect("route existed");
            self.shard_mut(fn_id).displaced.entry(fn_id).or_insert(prev);
            moved.push(fn_id);
        }
        moved.sort_unstable();
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
        let mut back: Vec<K> = Vec::new();
        // (1) fail displaced primaries back home.
        for shard in 0..self.shards.len() {
            let mut home: Vec<K> = self.shards[shard]
                .displaced
                .iter()
                .filter(|(_, primary)| **primary == node)
                .map(|(fn_id, _)| *fn_id)
                .collect();
            home.sort_unstable();
            for fn_id in home {
                self.shards[shard].displaced.remove(&fn_id);
                if self.lookup(fn_id) != Some(node) {
                    self.install(fn_id, node);
                    back.push(fn_id);
                }
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
            if self.healthy_alternative(fn_id, at) != Some(node) {
                continue;
            }
            let prev = self.install(fn_id, node).expect("route existed");
            self.shard_mut(fn_id).displaced.entry(fn_id).or_insert(prev);
            back.push(fn_id);
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
    /// the reverse index, not the shards.
    pub fn functions_on(&self, node: NodeId) -> Vec<K> {
        self.by_node
            .get(&node)
            .map(|set| set.iter().copied().collect())
            .unwrap_or_default()
    }

    /// The functions stranded at `node`: still routed there while the node
    /// is marked down because [`ShardedTable::fail_over`] found no healthy
    /// alternative. Every entry fails [`ShardedTable::resolve`] with
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
pub type RoutingTable = ShardedTable<u16>;

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
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(ShardedTable::<u32>::with_shards(0).shard_count(), 1);
        assert_eq!(ShardedTable::<u32>::with_shards(1).shard_count(), 1);
        assert_eq!(ShardedTable::<u32>::with_shards(48).shard_count(), 64);
        assert_eq!(ShardedTable::<u32>::new().shard_count(), DEFAULT_SHARDS);
    }

    #[test]
    fn sequential_keys_spread_across_shards() {
        let mut rt = ShardedTable::<u32>::with_shards(16);
        for k in 0..4096u32 {
            rt.set(k, NodeId(0));
        }
        let mut per_shard = vec![0usize; rt.shard_count()];
        for k in 0..4096u32 {
            per_shard[rt.shard_index(k)] += 1;
        }
        let expect = 4096 / 16;
        for (i, n) in per_shard.iter().enumerate() {
            assert!(
                *n > expect / 2 && *n < expect * 2,
                "shard {i} holds {n} of 4096 keys — scatter is skewed"
            );
        }
    }

    #[test]
    fn reverse_index_tracks_moves() {
        let mut rt = ShardedTable::<u32>::with_shards(4);
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
