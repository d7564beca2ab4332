//! `dpu-sim`: one descriptor round trip over real Comch rings — host
//! `send`, server `poll`, server `send_to`, host `recv` — with one
//! endpoint per tenant registered at the server.
//!
//! The full-fidelity cluster prices Comch crossings as virtual latency
//! inside the DNE and does not move descriptors through these rings, so
//! this number is reported but not part of `core.est_ns_per_req`.

use std::hint::black_box;

use ::dpu_sim::comch::{ComchServer, DescriptorChannel};
use ::membuf::descriptor::BufferDesc;

use super::{Bench, Params};

const OPS: u64 = 262_144;

pub fn comch_roundtrip_ns(p: &Params, b: &mut Bench) -> f64 {
    let mut server = ComchServer::new();
    let hosts: Vec<_> = (0..p.tenants)
        .map(|_| {
            let (host, dne) = DescriptorChannel::open(256);
            server.register(dne);
            host
        })
        .collect();
    let desc = BufferDesc {
        tenant: 1,
        pool_id: 0,
        buf_index: 3,
        len: p.payload as u32,
        generation: 1,
        dst_fn: 2,
    };
    b.run("dpu-sim.comch_roundtrip", OPS, || {
        for i in 0..OPS as usize {
            let host = &hosts[i % hosts.len()];
            host.send(black_box(desc)).expect("ring has room");
            let (idx, got) = server.poll().expect("descriptor pending");
            server.send_to(idx, got).expect("ring has room");
            black_box(host.recv().expect("descriptor returned"));
        }
    })
}
