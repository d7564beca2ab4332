//! Randomized properties of the elastic connection control plane, and a
//! model check of the routing table against plain `BTreeMap`s.
//!
//! Pool invariants exercised under seeded-random op sequences:
//!
//! - **accounting**: every successful pick is exactly one hit or one
//!   miss (`hits + misses == picks`), and lifecycle counters never go
//!   negative (`deactivations <= activations`);
//! - **containment**: the active set is always a subset of the pooled
//!   set and never exceeds `active_capacity`;
//! - **liveness**: neither LRU eviction nor lazy teardown ever strands
//!   an in-flight send — a QP with SQ backlog survives both, still
//!   pooled and still ready.
//!
//! The routing model test drives a [`RouteTable`] and a three-map
//! specification through the same random set/remove/fail-over/restore
//! schedule and asserts every observable (lookup, resolve, backup, length,
//! move lists, stranded sets) agrees — the id-indexed layout is a layout
//! choice, not a semantic one.

use std::collections::{BTreeMap, BTreeSet};

use dne::connpool::{ConnPool, ElasticConfig};
use dne::routing::{RouteError, RouteTable};
use membuf::pool::{BufferPool, PoolConfig};
use membuf::tenant::TenantId;
use rdma_sim::fabric::{CqId, QpHandle, RqId};
use rdma_sim::{Fabric, NodeId, RdmaCosts, WrId};
use simcore::{Sim, SimDuration, SimRng, SimTime};

struct Cell {
    fabric: Fabric,
    sim: Sim,
    tenant: TenantId,
    gw: NodeId,
    peer: NodeId,
    wiring: Vec<(CqId, RqId)>,
    bufs: BufferPool,
}

/// Two-node fabric with registered pools and per-node CQ/RQ wiring.
fn cell() -> Cell {
    let fabric = Fabric::new(RdmaCosts::default());
    let sim = Sim::new();
    let tenant = TenantId(1);
    let gw = fabric.add_node();
    let peer = fabric.add_node();
    let mut cfg = PoolConfig::new(tenant, 0, 1024, 64);
    cfg.segment_size = 64 * 1024;
    let bufs = BufferPool::new(cfg).unwrap();
    let mut cfg_b = PoolConfig::new(tenant, 1, 1024, 64);
    cfg_b.segment_size = 64 * 1024;
    fabric.register_pool(gw, bufs.clone()).unwrap();
    fabric
        .register_pool(peer, BufferPool::new(cfg_b).unwrap())
        .unwrap();
    let mut wiring = Vec::new();
    for node in [gw, peer] {
        let cq = fabric.create_cq(node).unwrap();
        let rq = fabric.create_rq(node, tenant).unwrap();
        wiring.push((cq, rq));
    }
    Cell {
        fabric,
        sim,
        tenant,
        gw,
        peer,
        wiring,
        bufs,
    }
}

fn connect(c: &mut Cell) -> QpHandle {
    let (cq_g, rq_g) = c.wiring[0];
    let (cq_p, rq_p) = c.wiring[1];
    let (ha, _) = c
        .fabric
        .connect(&mut c.sim, c.tenant, c.gw, cq_g, rq_g, c.peer, cq_p, rq_p)
        .unwrap();
    c.sim.run();
    ha
}

#[test]
fn hits_plus_misses_equals_picks_under_random_schedules() {
    let mut rng = SimRng::new(0xe1a5);
    for _ in 0..24 {
        let mut c = cell();
        let cap = 1 + rng.gen_range(6) as usize;
        let mut pool: ConnPool = ConnPool::with_config(ElasticConfig {
            active_capacity: cap,
            idle_teardown_age: Some(SimDuration::from_millis(5)),
        });
        let mut now = SimTime::ZERO;
        let mut picks = 0u64;
        let ops = 40 + rng.gen_range(80);
        for _ in 0..ops {
            now += SimDuration::from_micros(1 + rng.gen_range(2_000));
            match rng.gen_range(10) {
                0..=2 => {
                    let h = connect(&mut c);
                    pool.add(c.tenant, c.peer, h, now);
                }
                3..=7 => {
                    if pool
                        .pick_least_congested(&c.fabric, now, c.tenant, c.peer)
                        .is_some()
                    {
                        picks += 1;
                    }
                }
                8 => {
                    pool.deactivate_idle(&c.fabric, now);
                }
                _ => {
                    pool.teardown_idle(&c.fabric, now);
                }
            }
            // Containment invariants hold at every step.
            let (hits, misses) = pool.hit_miss();
            assert_eq!(hits + misses, picks, "every pick is one hit or miss");
            assert!(
                pool.active_total() <= pool.pooled_total(),
                "active set is a subset of the pool"
            );
            assert!(
                pool.active_total() <= cap,
                "active set bounded by capacity {cap}"
            );
            assert!(
                pool.deactivations() <= pool.activations(),
                "lifecycle counters stay ordered"
            );
        }
    }
}

#[test]
fn eviction_and_teardown_never_strand_an_inflight_send() {
    let mut rng = SimRng::new(0x57a0);
    for _ in 0..16 {
        let mut c = cell();
        let cap = 2 + rng.gen_range(3) as usize;
        let age = SimDuration::from_micros(1 + rng.gen_range(500));
        let mut pool: ConnPool = ConnPool::with_config(ElasticConfig {
            active_capacity: cap,
            idle_teardown_age: Some(age),
        });
        let mut now = SimTime::ZERO;
        // One connection with a genuinely in-flight send: no recv is
        // posted on the peer, so the WR lingers in RNR retry.
        let busy = connect(&mut c);
        pool.add(c.tenant, c.peer, busy, now);
        pool.pick_least_congested(&c.fabric, now, c.tenant, c.peer)
            .unwrap();
        let buf = c.bufs.get().unwrap();
        c.fabric
            .post_send(&mut c.sim, busy, WrId(1), buf, 0)
            .unwrap();
        assert!(c.fabric.sq_depth(busy) > 0, "send is in flight");
        // Pressure: far more activations than capacity, plus idle ages
        // long past the teardown threshold.
        for _ in 0..(cap * 4) {
            now += age + SimDuration::from_micros(1 + rng.gen_range(100));
            let h = connect(&mut c);
            pool.add(c.tenant, c.peer, h, now);
            pool.pick_least_congested(&c.fabric, now, c.tenant, c.peer);
            pool.deactivate_idle(&c.fabric, now);
            pool.teardown_idle(&c.fabric, now);
            assert!(pool.contains(busy), "in-flight QP evicted out of the pool");
            assert!(
                c.fabric.qp_ready(busy),
                "in-flight QP destroyed under the send"
            );
        }
        assert!(pool.evictions() + pool.teardowns() > 0, "pressure was real");
    }
}

/// What the routing table promises, written the slow, obvious way: one
/// ordered map per fact and whole-table scans.
#[derive(Default)]
struct Model {
    routes: BTreeMap<u32, NodeId>,
    backups: BTreeMap<u32, NodeId>,
    displaced: BTreeMap<u32, NodeId>,
    down: BTreeSet<NodeId>,
}

impl Model {
    fn set(&mut self, k: u32, node: NodeId) {
        self.routes.insert(k, node);
        self.displaced.remove(&k);
    }

    fn remove(&mut self, k: u32) -> Option<NodeId> {
        self.backups.remove(&k);
        self.displaced.remove(&k);
        self.routes.remove(&k)
    }

    fn functions_on(&self, node: NodeId) -> Vec<u32> {
        let on = self.routes.iter().filter(|(_, n)| **n == node);
        on.map(|(k, _)| *k).collect()
    }

    fn stranded_on(&self, node: NodeId) -> Vec<u32> {
        if self.down.contains(&node) {
            self.functions_on(node)
        } else {
            Vec::new()
        }
    }

    /// Backup first, then the displaced primary; never `avoid`, never down.
    fn alternative(&self, k: u32, avoid: NodeId) -> Option<NodeId> {
        [self.backups.get(&k), self.displaced.get(&k)]
            .into_iter()
            .flatten()
            .copied()
            .find(|n| *n != avoid && !self.down.contains(n))
    }

    fn switch(&mut self, k: u32, to: NodeId) {
        let prev = self.routes.insert(k, to).unwrap();
        self.displaced.entry(k).or_insert(prev);
    }

    fn fail_over(&mut self, failed: NodeId) -> Vec<u32> {
        self.down.insert(failed);
        let mut moved = Vec::new();
        for k in self.functions_on(failed) {
            if let Some(to) = self.alternative(k, failed) {
                self.switch(k, to);
                moved.push(k);
            }
        }
        moved
    }

    fn restore(&mut self, node: NodeId) -> Vec<u32> {
        self.down.remove(&node);
        let mut back = BTreeSet::new();
        let home = self.displaced.iter().filter(|(_, n)| **n == node);
        for k in home.map(|(k, _)| *k).collect::<Vec<_>>() {
            self.displaced.remove(&k);
            if self.routes.insert(k, node) != Some(node) {
                back.insert(k);
            }
        }
        for (k, at) in self.routes.clone() {
            if self.down.contains(&at) && self.alternative(k, at) == Some(node) {
                self.switch(k, node);
                back.insert(k);
            }
        }
        back.into_iter().collect()
    }

    fn resolve(&self, k: u32) -> Result<NodeId, RouteError> {
        let fn_id = u64::from(k);
        match self.routes.get(&k) {
            None => Err(RouteError::UnknownDestination { fn_id }),
            Some(&node) if self.down.contains(&node) => {
                Err(RouteError::DestinationDown { fn_id, node })
            }
            Some(&node) => Ok(node),
        }
    }
}

/// Drives the table and the model through one random schedule, asserting
/// observational equality after every mutation.
fn model_round(rng: &mut SimRng) {
    let mut table = RouteTable::<u32>::new();
    let mut model = Model::default();
    let key_space = 1 + rng.gen_range(60) as u32;
    let nodes = 2 + rng.gen_range(4) as u16;
    let ops = 60 + rng.gen_range(120);
    for _ in 0..ops {
        let k = rng.gen_range(key_space as u64) as u32;
        let node = NodeId(rng.gen_range(nodes as u64) as u16);
        match rng.gen_range(12) {
            0..=3 => {
                table.set(k, node);
                model.set(k, node);
            }
            4..=5 => {
                table.set_backup(k, node);
                model.backups.insert(k, node);
            }
            6 => assert_eq!(table.remove(k), model.remove(k)),
            7..=8 => assert_eq!(
                table.fail_over(node),
                model.fail_over(node),
                "fail_over({node:?})"
            ),
            9..=10 => assert_eq!(
                table.restore(node),
                model.restore(node),
                "restore({node:?})"
            ),
            _ => assert_eq!(table.is_local(k, node), model.routes.get(&k) == Some(&node)),
        }
        // Full observable state must agree after every op.
        assert_eq!(table.len(), model.routes.len());
        assert_eq!(table.is_empty(), model.routes.is_empty());
        for k in 0..key_space {
            assert_eq!(
                table.lookup(k),
                model.routes.get(&k).copied(),
                "lookup({k})"
            );
            assert_eq!(
                table.backup_of(k),
                model.backups.get(&k).copied(),
                "backup_of({k})"
            );
            assert_eq!(table.resolve(k), model.resolve(k), "resolve({k})");
        }
        for n in (0..nodes).map(NodeId) {
            assert_eq!(table.functions_on(n), model.functions_on(n), "{n:?}");
            assert_eq!(table.stranded_on(n), model.stranded_on(n), "{n:?}");
        }
    }
}

#[test]
fn route_table_matches_its_btreemap_model() {
    let mut rng = SimRng::new(0xd1ff);
    for _ in 0..20 {
        model_round(&mut rng);
    }
}
