//! `rdma-sim`: a two-node fabric alone — `post_recv` + `post_send`, run
//! the delivery events, `poll_cq` on both sides.

use ::membuf::tenant::TenantId;
use ::rdma_sim::{Fabric, RdmaCosts, WrId};
use ::simcore::Sim;

use super::{tenant_pool, Bench, Children, Params};

const OPS: u64 = 4096;
/// Sends kept in flight between polls (the engines' completion batches
/// are of this order).
const WINDOW: u64 = 16;

/// Returns total ns per message and the per-message child counts.
pub fn post_poll_ns(p: &Params, b: &mut Bench) -> (f64, Children) {
    let fabric = Fabric::new(RdmaCosts::default());
    let mut sim = Sim::new();
    let (a, bn) = (fabric.add_node(), fabric.add_node());
    let tenant = TenantId(1);
    let (pool_a, pool_b) = (tenant_pool(1), tenant_pool(1));
    fabric.register_pool(a, pool_a.clone()).expect("node a");
    fabric.register_pool(bn, pool_b.clone()).expect("node b");
    let (cq_a, cq_b) = (
        fabric.create_cq(a).expect("cq a"),
        fabric.create_cq(bn).expect("cq b"),
    );
    let (rq_a, rq_b) = (
        fabric.create_rq(a, tenant).expect("rq a"),
        fabric.create_rq(bn, tenant).expect("rq b"),
    );
    let (qp, _) = fabric
        .connect(&mut sim, tenant, a, cq_a, rq_a, bn, cq_b, rq_b)
        .expect("connect");
    sim.run();
    fabric.set_qp_active(qp, true).expect("activate");

    let events_before = sim.profile().executed_events;
    let gets_before = pool_a.stats().gets + pool_b.stats().gets;
    let mut batches = 0u64;
    let total = b.run("rdma-sim.post_poll", OPS, || {
        batches += 1;
        let mut wr = 0u64;
        for _ in 0..OPS / WINDOW {
            for _ in 0..WINDOW {
                wr += 1;
                fabric
                    .post_recv(rq_b, WrId(wr), pool_b.get().expect("recv buffer"))
                    .expect("post_recv");
                let mut buf = pool_a.get().expect("send buffer");
                buf.set_len(p.payload).expect("payload fits");
                fabric
                    .post_send(&mut sim, qp, WrId(wr), buf, 0)
                    .expect("post_send");
            }
            sim.run();
            // Dropping the CQEs returns their buffers to the pools.
            drop(fabric.poll_cq(cq_b, WINDOW as usize));
            drop(fabric.poll_cq(cq_a, WINDOW as usize));
        }
    });
    let msgs = (batches * OPS) as f64;
    let children = Children {
        events: (sim.profile().executed_events - events_before) as f64 / msgs,
        pool_gets: (pool_a.stats().gets + pool_b.stats().gets - gets_before) as f64 / msgs,
        ..Children::default()
    };
    (total, children)
}
