//! `runtime`: one intra-node hop through the unified I/O library — a
//! descriptor handed to a co-located function over SK_MSG.

use std::cell::RefCell;
use std::rc::Rc;

use ::dne::types::DneConfig;
use ::dne::Dne;
use ::dpu_sim::mmap::{doca_mmap_create_from_export, doca_mmap_export_full};
use ::dpu_sim::soc::{Processor, ProcessorKind};
use ::membuf::tenant::TenantId;
use ::rdma_sim::{Fabric, RdmaCosts};
use ::runtime::{IoLib, Placement};
use ::simcore::Sim;

use super::{tenant_pool, Bench, Children, Params};

const OPS: u64 = 8192;

/// Returns total ns per local send and the per-send child counts.
pub fn iolib_send_ns(p: &Params, b: &mut Bench) -> (f64, Children) {
    let fabric = Fabric::new(RdmaCosts::default());
    let mut sim = Sim::new();
    let node = fabric.add_node();
    let dne = Dne::new(fabric, node, DneConfig::nadino_dne()).expect("engine");
    let cpu = Rc::new(RefCell::new(Processor::new(ProcessorKind::HostCpu, 32)));
    let placement = Rc::new(RefCell::new(Placement::new()));
    let iolib = IoLib::new(node, dne.clone(), cpu, placement.clone());
    let tenant = TenantId(1);
    let pool = tenant_pool(1);
    let export = doca_mmap_export_full(&pool).expect("grants");
    let mapped = doca_mmap_create_from_export(&export).expect("import");
    dne.register_tenant(tenant, 1, &mapped).expect("tenant");
    iolib.register_tenant_pool(tenant, pool.clone());
    placement.borrow_mut().place(2, node);
    let sink = pool.clone();
    iolib.register_function(
        2,
        tenant,
        Rc::new(move |_sim, desc| drop(sink.redeem(desc).expect("valid descriptor"))),
    );
    sim.run();

    let events_before = sim.profile().executed_events;
    let before = pool.stats();
    let mut batches = 0u64;
    let total = b.run("runtime.iolib_send", OPS, || {
        batches += 1;
        for _ in 0..OPS / 8 {
            for _ in 0..8 {
                let mut buf = pool.get().expect("buffer");
                buf.set_len(p.payload).expect("payload fits");
                iolib.send(&mut sim, tenant, buf.into_desc(2));
            }
            sim.run();
        }
    });
    let sends = (batches * OPS) as f64;
    let after = pool.stats();
    let children = Children {
        events: (sim.profile().executed_events - events_before) as f64 / sends,
        pool_gets: (after.gets - before.gets) as f64 / sends,
        pool_redeems: (after.redeems - before.redeems) as f64 / sends,
        ..Children::default()
    };
    (total, children)
}
