//! `obs`: the cost of one span site with tracing on and off, and of one
//! `Cluster::sample_obs` pass at the workload's tenant count.

use std::hint::black_box;

use ::membuf::tenant::TenantId;
use ::nadino::cluster::{Cluster, ClusterConfig};
use ::obs::{MetricsRegistry, Stage, Tracer};
use ::simcore::{Sim, SimDuration, SimTime};

use super::{Bench, Params};

const OPS: u64 = 262_144;
/// Spans per trace before it is taken, about what an echo request records.
const SPANS_PER_TRACE: u64 = 16;

fn span_ns(tracer: &Tracer, name: &'static str, b: &mut Bench) -> f64 {
    let mut req = 0u64;
    b.run(name, OPS, || {
        for i in 0..OPS {
            let at = SimTime::from_nanos(i * 100);
            black_box(tracer.span(req, 1, (i % 2) as u32, Stage::DneTx, at, at));
            if i % SPANS_PER_TRACE == SPANS_PER_TRACE - 1 {
                // Consumed per request, as the trace pipeline does, so the
                // rings stay as small as they are in a traced run.
                tracer.recycle(tracer.take_trace(req));
                req += 1;
            }
        }
    })
}

pub fn span_enabled_ns(b: &mut Bench) -> f64 {
    span_ns(&Tracer::enabled(), "obs.span_enabled", b)
}

pub fn span_disabled_ns(b: &mut Bench) -> f64 {
    span_ns(&Tracer::disabled(), "obs.span_disabled", b)
}

pub fn sample_obs_ns(p: &Params, b: &mut Bench) -> f64 {
    let mut sim = Sim::new();
    let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
    for t in 1..=p.tenants as u16 {
        cluster
            .add_tenant(&mut sim, TenantId(t), u32::from((t - 1) % 8 + 1))
            .expect("tenant");
    }
    let reg = MetricsRegistry::new();
    let window = SimDuration::from_millis(1);
    let mut now = sim.now();
    b.run("obs.sample_obs", 64, || {
        for _ in 0..64 {
            now += window;
            cluster.sample_obs(now, &reg, window);
        }
    })
}
