//! `membuf`: pool get/put, detach/redeem, and the payload copy, cycling
//! over one pool per tenant so the pools' footprint matches the workload.

use std::hint::black_box;

use ::membuf::pool::BufferPool;

use super::{tenant_pool, Bench, Params};

const OPS: u64 = 32_768;

fn pools(p: &Params) -> Vec<BufferPool> {
    (1..=p.tenants as u16).map(tenant_pool).collect()
}

pub fn get_put_ns(p: &Params, b: &mut Bench) -> f64 {
    let pools = pools(p);
    b.run("membuf.get_put", OPS, || {
        for i in 0..OPS as usize {
            let buf = pools[i % pools.len()].get().expect("pool has buffers");
            drop(black_box(buf));
        }
    })
}

pub fn detach_redeem_ns(p: &Params, b: &mut Bench) -> f64 {
    let pools = pools(p);
    b.run("membuf.detach_redeem", OPS, || {
        for i in 0..OPS as usize {
            let pool = &pools[i % pools.len()];
            let desc = pool.get().expect("pool has buffers").into_desc(7);
            let buf = pool.redeem(black_box(desc)).expect("fresh descriptor");
            drop(buf);
        }
    })
}

/// get → `write_payload` → put; the caller subtracts `get_put_ns`.
pub fn write_payload_ns(p: &Params, b: &mut Bench) -> f64 {
    let pools = pools(p);
    let payload = vec![0xA5u8; p.payload];
    b.run("membuf.write_payload", OPS, || {
        for i in 0..OPS as usize {
            let mut buf = pools[i % pools.len()].get().expect("pool has buffers");
            buf.write_payload(black_box(&payload))
                .expect("payload fits");
            drop(black_box(buf));
        }
    })
}
