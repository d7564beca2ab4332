//! `dne`: one remote hop through two engines over a fabric (submit on
//! node A → delivered to an endpoint on node B), and the engine's three
//! per-descriptor lookups on their own: DWRR enqueue/dequeue, route
//! resolution and the connection-pool pick.

use std::hint::black_box;
use std::rc::Rc;

use ::dne::connpool::ConnPool;
use ::dne::routing::ShardedTable;
use ::dne::sched::{DwrrScheduler, TenantScheduler};
use ::dne::types::DneConfig;
use ::dne::Dne;
use ::dpu_sim::mmap::{doca_mmap_create_from_export, doca_mmap_export_full};
use ::membuf::pool::BufferPool;
use ::membuf::tenant::TenantId;
use ::rdma_sim::{Fabric, NodeId, RdmaCosts};
use ::simcore::{Sim, SimTime};

use super::{tenant_pool, Bench, Children, Params};

const OPS: u64 = 1024;
/// Descriptors in flight per batch step (the echo workloads keep eight).
const WINDOW: usize = 8;

fn tenant_ids(p: &Params) -> Vec<TenantId> {
    (1..=p.tenants as u16).map(TenantId).collect()
}

fn weight_of(t: TenantId) -> u32 {
    u32::from((t.0 - 1) % 8 + 1)
}

/// Returns total ns per hop and the per-hop child counts.
pub fn hop_ns(p: &Params, b: &mut Bench) -> (f64, Children) {
    let fabric = Fabric::new(RdmaCosts::default());
    let mut sim = Sim::new();
    let (a, bn) = (fabric.add_node(), fabric.add_node());
    let dne_a = Dne::new(fabric.clone(), a, DneConfig::nadino_dne()).expect("engine a");
    let dne_b = Dne::new(fabric.clone(), bn, DneConfig::nadino_dne()).expect("engine b");
    let tenants = tenant_ids(p);
    let mut pools_a: Vec<BufferPool> = Vec::new();
    let mut all_pools: Vec<BufferPool> = Vec::new();
    for &t in &tenants {
        let (pa, pb) = (tenant_pool(t.0), tenant_pool(t.0));
        for (dne, pool) in [(&dne_a, &pa), (&dne_b, &pb)] {
            let export = doca_mmap_export_full(pool).expect("grants");
            let mapped = doca_mmap_create_from_export(&export).expect("import");
            dne.register_tenant(t, weight_of(t), &mapped)
                .expect("tenant");
        }
        // Each tenant's server function lives on node B.
        let fn_id = t.0 * 10 + 2;
        for dne in [&dne_a, &dne_b] {
            dne.set_route(fn_id, bn);
        }
        let sink = pb.clone();
        dne_b.register_endpoint(
            fn_id,
            Rc::new(move |_sim, desc| drop(sink.redeem(desc).expect("valid descriptor"))),
        );
        Dne::connect_pair(&mut sim, &dne_a, &dne_b, t, 2).expect("connect");
        pools_a.push(pa.clone());
        all_pools.push(pa);
        all_pools.push(pb);
    }
    sim.run();

    let pool_ops = |pools: &[BufferPool]| {
        pools.iter().fold((0u64, 0u64), |(g, r), pool| {
            let s = pool.stats();
            (g + s.gets, r + s.redeems)
        })
    };
    let events_before = sim.profile().executed_events;
    let (gets_before, redeems_before) = pool_ops(&all_pools);
    let (fabric_before, _, _) = fabric.node_counters(a);
    let mut batches = 0u64;
    let mut next = 0usize;
    let total = b.run("dne.hop", OPS, || {
        batches += 1;
        for _ in 0..OPS as usize / WINDOW {
            for _ in 0..WINDOW {
                let i = next % tenants.len();
                next += 1;
                let mut buf = pools_a[i].get().expect("send buffer");
                buf.set_len(p.payload).expect("payload fits");
                let desc = buf.into_desc(tenants[i].0 * 10 + 2);
                dne_a.submit(&mut sim, tenants[i], desc);
            }
            sim.run();
        }
    });
    let hops = (batches * OPS) as f64;
    let (gets, redeems) = pool_ops(&all_pools);
    let (fabric_after, _, _) = fabric.node_counters(a);
    let children = Children {
        events: (sim.profile().executed_events - events_before) as f64 / hops,
        fabric_msgs: (fabric_after - fabric_before) as f64 / hops,
        pool_gets: (gets - gets_before) as f64 / hops,
        pool_redeems: (redeems - redeems_before) as f64 / hops,
    };
    (total, children)
}

pub fn dwrr_enq_deq_ns(p: &Params, b: &mut Bench) -> f64 {
    const N: u64 = 262_144;
    let mut sched: DwrrScheduler<u64> = DwrrScheduler::new(1.0);
    let tenants = tenant_ids(p);
    for &t in &tenants {
        sched.register(t, weight_of(t));
        // A standing backlog, so dequeue really arbitrates between queues.
        sched.enqueue(t, 0);
        sched.enqueue(t, 0);
    }
    b.run("dne.dwrr_enq_deq", N, || {
        for i in 0..N {
            sched.enqueue(tenants[i as usize % tenants.len()], black_box(i));
            black_box(sched.dequeue());
        }
    })
}

pub fn route_lookup_ns(p: &Params, b: &mut Bench) -> f64 {
    const N: u64 = 262_144;
    let mut table: ShardedTable<u16> = ShardedTable::new();
    let fns: Vec<u16> = tenant_ids(p)
        .iter()
        .flat_map(|t| [t.0 * 10 + 1, t.0 * 10 + 2])
        .collect();
    for (i, &f) in fns.iter().enumerate() {
        table.set(f, NodeId((i % 2) as u16));
    }
    b.run("dne.route_lookup", N, || {
        for i in 0..N as usize {
            black_box(
                table
                    .resolve(black_box(fns[i % fns.len()]))
                    .expect("routed"),
            );
        }
    })
}

pub fn connpool_pick_ns(p: &Params, b: &mut Bench) -> f64 {
    const N: u64 = 32_768;
    let fabric = Fabric::new(RdmaCosts::default());
    let mut sim = Sim::new();
    let (a, bn) = (fabric.add_node(), fabric.add_node());
    let (cq_a, cq_b) = (
        fabric.create_cq(a).expect("cq a"),
        fabric.create_cq(bn).expect("cq b"),
    );
    let mut conns: ConnPool = ConnPool::new();
    let tenants = tenant_ids(p);
    for &t in &tenants {
        let rq_a = fabric.create_rq(a, t).expect("rq a");
        let rq_b = fabric.create_rq(bn, t).expect("rq b");
        for _ in 0..2 {
            let (qp, _) = fabric
                .connect(&mut sim, t, a, cq_a, rq_a, bn, cq_b, rq_b)
                .expect("connect");
            conns.add(t, bn, qp, SimTime::ZERO);
        }
    }
    sim.run();
    let now = sim.now();
    b.run("dne.connpool_pick", N, || {
        for i in 0..N as usize {
            let t = tenants[i % tenants.len()];
            black_box(conns.pick_least_congested(&fabric, now, t, bn));
        }
    })
}
