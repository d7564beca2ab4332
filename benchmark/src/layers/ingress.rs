//! `ingress`: `Gateway::submit_tenant` against an upstream that replies at
//! once (so nothing but gateway work runs), and the admission decision on
//! its own.

use std::hint::black_box;
use std::rc::Rc;

use ::ingress::gateway::{Gateway, GatewayConfig, Reply, Upstream};
use ::ingress::rss::FlowId;
use ::ingress::{AdmissionConfig, AdmissionController, ReqCtx};
use ::simcore::{Sim, SimDuration, SimTime};

use super::{Bench, Children, Params};

const OPS: u64 = 8192;

fn admission() -> AdmissionConfig {
    AdmissionConfig {
        target: SimDuration::from_micros(200),
        interval: SimDuration::from_millis(2),
        retry_after_secs: 1,
    }
}

/// Returns total ns per submitted request and the per-request events.
pub fn submit_ns(p: &Params, b: &mut Bench) -> (f64, Children) {
    let gw = Gateway::new(GatewayConfig {
        initial_workers: 8,
        admission: Some(admission()),
        ..GatewayConfig::default()
    });
    for t in 1..=p.tenants as u16 {
        gw.register_tenant(t, u32::from((t - 1) % 8 + 1));
    }
    let upstream: Upstream = Rc::new(|sim: &mut Sim, ctx: ReqCtx, reply: Reply| {
        reply(sim, Ok(ctx.req_bytes));
    });
    let mut sim = Sim::new();
    let events_before = sim.profile().executed_events;
    let mut batches = 0u64;
    let mut n = 0u32;
    let total = b.run("ingress.submit", OPS, || {
        batches += 1;
        for _ in 0..OPS / 8 {
            for _ in 0..8 {
                n = n.wrapping_add(1);
                let tenant = (n % p.tenants as u32) as u16 + 1;
                gw.submit_tenant(
                    &mut sim,
                    tenant,
                    FlowId::from_client(n, 0),
                    p.payload,
                    upstream.clone(),
                    Box::new(|_, r| {
                        black_box(r.is_ok());
                    }),
                );
            }
            sim.run();
        }
    });
    let reqs = (batches * OPS) as f64;
    let children = Children {
        events: (sim.profile().executed_events - events_before) as f64 / reqs,
        ..Children::default()
    };
    (total, children)
}

pub fn admission_ns(p: &Params, b: &mut Bench) -> f64 {
    const N: u64 = 262_144;
    let mut ac = AdmissionController::new(admission());
    for t in 1..=p.tenants as u16 {
        ac.register(t, u32::from((t - 1) % 8 + 1));
    }
    let mut now_ns = 0u64;
    b.run("ingress.admission", N, || {
        for i in 0..N {
            now_ns += 9_000;
            let tenant = (i % p.tenants as u64) as u16 + 1;
            black_box(ac.on_arrival(
                tenant,
                SimDuration::from_micros(20),
                SimTime::from_nanos(now_ns),
            ));
        }
    })
}
