//! Isolation drivers: each calls one layer's public API alone, at the
//! traced workload's parameters, and reports host nanoseconds per
//! operation. They are estimates — a layer run alone has warmer caches and
//! no neighbours — and `core.unattributed_ns_per_req` says how far their
//! sum falls short of the measured whole.
//!
//! A driver that needs lower layers (a DNE hop runs simulator events,
//! fabric sends and pool operations) reports *self* time: its total minus
//! each child's operation count times that child's own ns/op.

mod dne;
mod dpu;
mod ingress;
mod membuf;
mod obs;
mod rdma;
mod runtime;
mod simcore;

use std::time::{Duration, Instant};

use ::obs::JsonValue;

use crate::spans::Spans;
use crate::stats::median;

/// The traced workload's parameters the drivers run at.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Payload bytes per message.
    pub payload: usize,
    /// Tenants (pools, DWRR queues, connection-pool keys).
    pub tenants: usize,
    /// Resident events in the simulator's wheel (the workload's observed
    /// `peak_pending`).
    pub pending: usize,
    /// Wall budget per driver.
    pub slice: Duration,
}

/// Per-operation child counts a composite driver observed, for the self-
/// time subtraction.
#[derive(Debug, Clone, Copy, Default)]
pub struct Children {
    pub events: f64,
    pub fabric_msgs: f64,
    pub pool_gets: f64,
    pub pool_redeems: f64,
}

/// Times batches of `ops` operations until the slice is spent (at least
/// five batches) and returns the median ns/op. Every batch is one span.
pub struct Bench<'a> {
    spans: &'a mut Spans,
    parent: usize,
    slice: Duration,
}

impl Bench<'_> {
    pub fn run(&mut self, name: &'static str, ops: u64, mut batch: impl FnMut()) -> f64 {
        let driver = self.spans.begin(name, Some(self.parent));
        batch(); // warm caches and lazily grown buffers; not recorded
        let started = Instant::now();
        let mut per_op = Vec::new();
        while per_op.len() < 5 || started.elapsed() < self.slice {
            let span = self
                .spans
                .begin_batch("batch", Some(driver), per_op.len() as u64);
            let t0 = Instant::now();
            batch();
            let ns = t0.elapsed().as_nanos() as f64;
            self.spans.end(span);
            per_op.push(ns / ops as f64);
            if per_op.len() >= 10_000 {
                break;
            }
        }
        self.spans.end(driver);
        median(&per_op)
    }
}

/// Runs every driver and returns `name → ns/op` (self times where the
/// driver has children).
pub fn run_all(p: &Params, spans: &mut Spans) -> JsonValue {
    let parent = spans.begin("layers", None);
    let mut b = Bench {
        spans,
        parent,
        slice: p.slice,
    };
    let mut out: Vec<(String, JsonValue)> = Vec::new();
    let mut put = |k: &str, v: f64| out.push((k.to_string(), JsonValue::Float(v)));

    let dispatch = simcore::dispatch_ns(p, &mut b);
    let cancel = simcore::cancel_ns(p, &mut b);
    put("simcore.dispatch_ns", dispatch);
    put("simcore.cancel_ns", cancel);

    let get_put = membuf::get_put_ns(p, &mut b);
    let detach_redeem = membuf::detach_redeem_ns(p, &mut b);
    let write_payload = (membuf::write_payload_ns(p, &mut b) - get_put).max(0.0);
    put("membuf.get_put_ns", get_put);
    put("membuf.detach_redeem_ns", detach_redeem);
    put("membuf.write_payload_ns", write_payload);

    put(
        "dpu-sim.comch_roundtrip_ns",
        dpu::comch_roundtrip_ns(p, &mut b),
    );

    // Self time of a composite: total minus children at their own prices.
    // A get that is later redeemed is priced as one detach/redeem cycle;
    // the remaining gets as get/put.
    let own = |total: f64, c: Children, fabric: f64| {
        let plain_gets = (c.pool_gets - c.pool_redeems).max(0.0);
        (total
            - c.events * dispatch
            - c.fabric_msgs * fabric
            - c.pool_redeems * detach_redeem
            - plain_gets * get_put)
            .max(0.0)
    };

    let (post_poll_total, post_poll_children) = rdma::post_poll_ns(p, &mut b);
    let post_poll = own(post_poll_total, post_poll_children, 0.0);
    put("rdma-sim.post_poll_ns", post_poll);

    let (hop_total, hop_children) = dne::hop_ns(p, &mut b);
    put("dne.hop_ns", own(hop_total, hop_children, post_poll));
    put("dne.dwrr_enq_deq_ns", dne::dwrr_enq_deq_ns(p, &mut b));
    put("dne.route_lookup_ns", dne::route_lookup_ns(p, &mut b));
    put("dne.connpool_pick_ns", dne::connpool_pick_ns(p, &mut b));

    let (submit_total, submit_children) = ingress::submit_ns(p, &mut b);
    put("ingress.submit_ns", own(submit_total, submit_children, 0.0));
    put("ingress.admission_ns", ingress::admission_ns(p, &mut b));

    let (send_total, send_children) = runtime::iolib_send_ns(p, &mut b);
    put("runtime.iolib_send_ns", own(send_total, send_children, 0.0));

    put("obs.span_enabled_ns", obs::span_enabled_ns(&mut b));
    put("obs.span_disabled_ns", obs::span_disabled_ns(&mut b));
    put("obs.sample_obs_ns", obs::sample_obs_ns(p, &mut b));

    b.spans.end(parent);
    JsonValue::Obj(out)
}

/// Tenant pool geometry shared by the drivers: the cluster's default
/// buffer size, fewer buffers (the drivers keep few in flight).
pub(crate) fn tenant_pool(tenant: u16) -> ::membuf::pool::BufferPool {
    use ::membuf::pool::{BufferPool, PoolConfig};
    let mut cfg = PoolConfig::new(::membuf::tenant::TenantId(tenant), 0, 8 * 1024, 1024);
    cfg.segment_size = ::membuf::hugepage::HUGEPAGE_SIZE;
    BufferPool::new(cfg).expect("valid pool geometry")
}
