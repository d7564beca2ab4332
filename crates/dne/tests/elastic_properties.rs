//! Randomized properties of the elastic connection control plane, and a
//! differential check of the sharded routing table against a flat one.
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
//! The routing differential drives a 64-shard table and a 1-shard table
//! through the same random set/remove/fail-over/restore schedule and
//! asserts every observable (lookup, resolve, backup, length, move
//! lists) agrees — sharding is a layout choice, not a semantic one.

use dne::connpool::{ConnPool, ElasticConfig};
use dne::routing::{RouteError, ShardedTable};
use membuf::pool::{BufferPool, PoolConfig};
use membuf::tenant::TenantId;
use rdma_sim::fabric::{CqId, QpHandle, RqId};
use rdma_sim::{Fabric, NodeId, RdmaCosts, WrId};
use simcore::{Sim, SimDuration, SimRng, SimTime};

fn cases(light: usize, heavy: usize) -> usize {
    if cfg!(feature = "heavy-tests") {
        heavy
    } else {
        light
    }
}

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
    for _ in 0..cases(24, 192) {
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
    for _ in 0..cases(16, 128) {
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

/// Drives `a` (sharded) and `b` (flat) through one random schedule,
/// asserting observational equality after every mutation.
fn differential_round(rng: &mut SimRng, a: &mut ShardedTable<u32>, b: &mut ShardedTable<u32>) {
    let key_space = 1 + rng.gen_range(60) as u32;
    let nodes = 2 + rng.gen_range(4) as u16;
    let ops = 60 + rng.gen_range(120);
    for _ in 0..ops {
        let k = rng.gen_range(key_space as u64) as u32;
        let node = NodeId(rng.gen_range(nodes as u64) as u16);
        match rng.gen_range(12) {
            0..=3 => {
                a.set(k, node);
                b.set(k, node);
            }
            4..=5 => {
                a.set_backup(k, node);
                b.set_backup(k, node);
            }
            6 => {
                assert_eq!(a.remove(k), b.remove(k));
            }
            7..=8 => {
                assert_eq!(a.fail_over(node), b.fail_over(node), "fail_over({node:?})");
            }
            9 => {
                assert_eq!(a.restore(node), b.restore(node), "restore({node:?})");
            }
            _ => {
                assert_eq!(a.lookup(k), b.lookup(k));
            }
        }
        // Full observable state must agree after every op.
        assert_eq!(a.len(), b.len());
        for k in 0..key_space {
            assert_eq!(a.lookup(k), b.lookup(k), "lookup({k})");
            assert_eq!(a.backup_of(k), b.backup_of(k), "backup_of({k})");
            match (a.resolve(k), b.resolve(k)) {
                (Ok(x), Ok(y)) => assert_eq!(x, y),
                (
                    Err(RouteError::UnknownDestination { .. }),
                    Err(RouteError::UnknownDestination { .. }),
                ) => {}
                (
                    Err(RouteError::DestinationDown { node: x, .. }),
                    Err(RouteError::DestinationDown { node: y, .. }),
                ) => assert_eq!(x, y),
                (x, y) => panic!("resolve({k}) diverged: {x:?} vs {y:?}"),
            }
        }
        for n in 0..nodes {
            assert_eq!(
                a.functions_on(NodeId(n)),
                b.functions_on(NodeId(n)),
                "functions_on({n})"
            );
        }
    }
}

#[test]
fn sharded_routing_is_observationally_equal_to_flat() {
    let mut rng = SimRng::new(0xd1ff);
    for round in 0..cases(20, 160) {
        let shards = [2usize, 8, 64][round % 3];
        let mut sharded = ShardedTable::<u32>::with_shards(shards);
        let mut flat = ShardedTable::<u32>::with_shards(1);
        assert_eq!(flat.shard_count(), 1);
        differential_round(&mut rng, &mut sharded, &mut flat);
    }
}
