//! The master/worker gateway model in the discrete-event simulation: the
//! public handle and its machine.
//!
//! A [`Gateway`] owns a set of worker processes (one pinned core each,
//! modelled as [`simcore::Server`]s), an RSS stage mapping client flows
//! onto active workers, and optionally the master's hysteresis autoscaler.
//! The state machine in `crate::core` decides all of it; the gateway's
//! [`Machine`] impl is the crate's only code that schedules an event or
//! calls an upstream or a completion. A request's life:
//!
//! ```text
//! submit ─RSS→ worker core: rx half of the stack cost ─→ upstream closure
//!        (RDMA to the cluster for NADINO, TCP proxying for the baselines)
//!        ─reply→ same worker: tx half ─→ completion callback
//! ```
//!
//! Overload behaves like the paper's K-Ingress experiment: when a worker's
//! backlog exceeds the configured bound the request is dropped (the client
//! sees a disconnect). Scale events interrupt service briefly — the worker
//! restart the paper observes in Fig. 14 (2).

use std::cell::RefCell;
use std::rc::{Rc, Weak};

use obs::Tracer;
use simcore::{Driver, Machine, Sim, SimDuration, SimTime, Sink};

use crate::admission::AdmissionConfig;
use crate::core::{Core, Input, Output};
use crate::rss::FlowId;
use crate::stack::GatewayKind;

/// Synthetic node id the gateway's spans are attributed to (the gateway
/// runs outside the worker-node address space).
pub const GATEWAY_NODE: u32 = u32::MAX;

/// Reply callback handed to the upstream: deliver `Ok(resp_bytes)`, or
/// `Err(DeliveryFailed)` when the cluster reported the request lost (the
/// gateway then answers `503` instead of letting the client hang).
pub type Reply = Box<dyn FnOnce(&mut Sim, Result<usize, DeliveryFailed>)>;

/// Marker for an upstream request whose delivery the cluster gave up on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryFailed;

/// Everything the cluster side needs to know about one admitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReqCtx {
    /// Gateway-assigned request id (also the payload head / trace id).
    pub req_id: u64,
    /// The submitting tenant.
    pub tenant: u16,
    /// Request size in bytes.
    pub req_bytes: usize,
    /// Absolute deadline in virtual nanoseconds (0 = none) — stamp it into
    /// the payload with `obs::write_deadline_ns` so every downstream stage
    /// can cancel the request once it expires.
    pub deadline_ns: u64,
    /// The ingress sampling decision, made once at admission: `true` when
    /// this request's spans are recorded. Stamp it into the payload via
    /// `obs::write_ctx` so every downstream component (DNE, fabric,
    /// runtime, DPU) checks this one on-wire bit instead of consulting the
    /// tracer.
    pub sampled: bool,
}

/// The cluster side of the gateway: invoked once the request is converted.
pub type Upstream = Rc<dyn Fn(&mut Sim, ReqCtx, Reply)>;

/// Completion callback: `Ok(resp_bytes)` or `Err(Dropped)`.
pub type Completion = Box<dyn FnOnce(&mut Sim, Result<usize, Dropped>)>;

/// Why the gateway answered without a function response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dropped {
    /// The worker's backlog exceeded the bound; the request never ran.
    Overload,
    /// The cluster exhausted delivery recovery for this request.
    Delivery,
    /// Admission control shed the request before it queued; the client is
    /// told when to come back.
    Shed {
        /// Advertised `Retry-After`, in seconds.
        retry_after_secs: u32,
    },
    /// The request's deadline expired inside the gateway queue.
    DeadlineExceeded,
}

impl Dropped {
    /// The HTTP status the client sees: `503 Service Unavailable` for
    /// overload, delivery loss and sheds (a shed also advertises its
    /// `retry_after_secs`), `504 Gateway Timeout` for deadline expiry.
    pub fn status(&self) -> u16 {
        match self {
            Dropped::Overload | Dropped::Delivery | Dropped::Shed { .. } => 503,
            Dropped::DeadlineExceeded => 504,
        }
    }
}

/// Gateway configuration.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Which ingress design this gateway runs.
    pub kind: GatewayKind,
    /// Workers at start-up.
    pub initial_workers: usize,
    /// `Some(max)` lets the master's hysteresis autoscaler grow the pool up
    /// to `max` workers; `None` pins the worker count.
    pub autoscale_max_workers: Option<usize>,
    /// Backlog bound per worker; beyond it requests are dropped.
    pub max_backlog: SimDuration,
    /// Relative deadline stamped on every accepted request; `None` leaves
    /// requests deadline-free (the pre-existing behaviour).
    pub deadline: Option<SimDuration>,
    /// Adaptive per-tenant admission control; `None` disables shedding and
    /// leaves only the static backlog bound.
    pub admission: Option<AdmissionConfig>,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            kind: GatewayKind::Nadino,
            initial_workers: 1,
            autoscale_max_workers: None,
            max_backlog: SimDuration::from_millis(500),
            deadline: None,
            admission: None,
        }
    }
}

/// Counters exposed by the gateway, in aggregate and per tenant (so
/// per-tenant SLO attainment is measurable: the aggregate can't tell a
/// rogue tenant's sheds from a compliant tenant's). Every request is
/// accepted or refused (`shed`, `dropped`), and every accepted one ends
/// `completed`, `failed` or `expired`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatewayStats {
    pub accepted: u64,
    pub completed: u64,
    /// Overload drops (static backlog bound).
    pub dropped: u64,
    /// Accepted requests whose upstream delivery failed (answered `503`).
    pub failed: u64,
    /// Requests shed by admission control (answered `503` + `Retry-After`).
    pub shed: u64,
    /// Requests whose deadline expired inside the gateway (answered `504`).
    pub expired: u64,
}

/// The caller's closures for one request, held in its slot.
struct Handles {
    upstream: Upstream,
    done: Completion,
}

/// What a [`Gateway`] handle points at: the state machine, whose slots hold
/// each in-flight request's closures.
struct Gate {
    core: RefCell<Core<Handles>>,
}

type Out = Output<Handles>;

/// An `At` is scheduled as the core emits it; an `Upstream` or a `Done` —
/// a call emits at most one — waits until the core's borrow is dropped:
/// both re-enter the gateway (an upstream may reply at once, and a closed
/// loop's completion submits the next request). Inlined: out of line, the
/// two calls cost a request about a third more gateway time.
impl Machine for Gate {
    type In = Input;
    type Out = Out;
    type Answer = ();

    #[inline(always)]
    fn step(&self, now: SimTime, input: Input, sink: &mut Sink<'_, Self>) {
        self.core
            .borrow_mut()
            .step(now, input, &mut |o| sink.put(o));
    }

    #[inline(always)]
    fn apply(gw: &Rc<Driver<Self>>, sim: &mut Sim, output: Out) -> Result<(), Out> {
        match output {
            Output::At(at, input) => gw.schedule(sim, at, input),
            reentrant => return Err(reentrant),
        }
        Ok(())
    }

    #[inline(always)]
    fn settle(gw: &Rc<Driver<Self>>, sim: &mut Sim, output: Out) {
        match output {
            Output::Upstream(slot, ctx) => {
                let upstream = gw.core.borrow().handle(slot).map(|h| h.upstream.clone());
                if let Some(upstream) = upstream {
                    let gw = gw.clone();
                    let reply: Reply =
                        Box::new(move |sim, outcome| gw.drive(sim, Input::Replied(slot, outcome)));
                    upstream(sim, ctx, reply);
                }
            }
            Output::Done(handles, answer) => (handles.done)(sim, answer),
            Output::At(..) => {}
        }
    }
}

/// The cluster-wide ingress gateway.
#[derive(Clone)]
pub struct Gateway {
    inner: Rc<Driver<Gate>>,
}

/// A [`Gateway`] held weakly. A caller's completion sits in the gateway's
/// own slot table, so one that resubmits holds the gateway this way; a
/// strong handle there would keep both alive for good.
pub struct WeakGateway {
    inner: Weak<Driver<Gate>>,
}

impl WeakGateway {
    /// The gateway, unless every strong handle to it is gone.
    pub fn upgrade(&self) -> Option<Gateway> {
        self.inner.upgrade().map(|inner| Gateway { inner })
    }
}

impl Gateway {
    /// A weak handle to this gateway.
    pub fn downgrade(&self) -> WeakGateway {
        WeakGateway {
            inner: Rc::downgrade(&self.inner),
        }
    }

    /// Creates a gateway of the configured kind.
    pub fn new(cfg: GatewayConfig) -> Gateway {
        let core = RefCell::new(Core::new(cfg));
        Gateway {
            inner: Driver::new(Gate { core }),
        }
    }

    /// Returns the number of active worker processes.
    pub fn active_workers(&self) -> usize {
        self.inner.core.borrow().active
    }

    /// Returns a snapshot of the counters.
    pub fn stats(&self) -> GatewayStats {
        self.inner.core.borrow().stats
    }

    /// Returns one tenant's counters (zeroes for unseen tenants).
    pub fn tenant_stats(&self, tenant: u16) -> GatewayStats {
        let core = self.inner.core.borrow();
        core.tenant_stats.get(&tenant).copied().unwrap_or_default()
    }

    /// Registers a tenant's DWRR weight with the admission controller so
    /// shedding pressure tracks the transport-level weight share. No-op
    /// when admission control is disabled.
    pub fn register_tenant(&self, tenant: u16, weight: u32) {
        if let Some(ac) = self.inner.core.borrow_mut().admission.as_mut() {
            ac.register(tenant, weight);
        }
    }

    /// Feeds the cluster capacity factor (healthy fraction, `(0, 1]`) from
    /// the control plane into admission control: a browned-out cluster
    /// sheds proportionally sooner. No-op when admission is disabled.
    pub fn set_capacity_factor(&self, factor: f64) {
        if let Some(ac) = self.inner.core.borrow_mut().admission.as_mut() {
            ac.set_capacity_factor(factor);
        }
    }

    /// The capacity factor admission control works with (`None` when
    /// admission is disabled).
    pub fn capacity_factor(&self) -> Option<f64> {
        let core = self.inner.core.borrow();
        core.admission.as_ref().map(|ac| ac.capacity_factor())
    }

    /// Registers a fleet histogram recording admission latency (arrival
    /// → ingress-rx done) with exemplars on sampled requests; `None`
    /// detaches it.
    pub fn set_admission_histogram(&self, hist: Option<obs::HistogramHandle>) {
        self.inner.core.borrow_mut().admission_hist = hist;
    }

    /// Returns per-request worker-node TCP cost this gateway design imposes
    /// (deferred conversion pays a second termination on the worker).
    pub fn worker_side_cost(&self) -> SimDuration {
        self.inner.core.borrow().costs.worker_stack_per_req
    }

    /// Installs a span tracer; gateway stages are recorded under node
    /// [`GATEWAY_NODE`].
    pub fn set_tracer(&self, tracer: Tracer) {
        self.inner.core.borrow_mut().tracer = tracer;
    }

    /// Returns aggregate worker-core busy utilization over `[a, b]`
    /// (0..=workers; the paper plots this as gateway CPU usage).
    pub fn utilization_cores(&self, a: SimTime, b: SimTime) -> f64 {
        let core = self.inner.core.borrow();
        core.workers.iter().map(|w| w.utilization(a, b)).sum()
    }

    /// Submits one client request for `tenant`.
    ///
    /// `upstream` is invoked after ingress-side request processing; its
    /// reply callback triggers response-side processing, after which
    /// `done` fires with the response size. Admission control may shed the
    /// request (`Err(Dropped::Shed)`), a worker backlog beyond the bound
    /// drops it (`Err(Dropped::Overload)`) — either answer fires before
    /// this returns — and a configured deadline that expires while the
    /// request is still queued in the gateway answers
    /// `Err(Dropped::DeadlineExceeded)` without ever invoking `upstream`.
    pub fn submit_tenant(
        &self,
        sim: &mut Sim,
        tenant: u16,
        flow: FlowId,
        req_bytes: usize,
        upstream: Upstream,
        done: Completion,
    ) {
        let handle = Handles { upstream, done };
        self.inner.run(sim, |gate, now, sink| {
            let out = &mut |o| sink.put(o);
            let mut core = gate.core.borrow_mut();
            core.arrive(now, tenant, flow, req_bytes, handle, out);
        });
    }

    /// Starts the master's autoscaler loop (no-op without a policy).
    pub fn start_autoscaler(&self, sim: &mut Sim) {
        self.inner.run(sim, |gate, now, sink| {
            let out = &mut |o| sink.put(o);
            gate.core.borrow_mut().start_autoscaler(now, out);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::GatewayKind;
    use obs::Stage;
    use std::cell::Cell;

    /// An upstream that replies after a fixed delay.
    fn echo_upstream(delay: SimDuration, resp_bytes: usize) -> Upstream {
        Rc::new(move |sim: &mut Sim, _ctx: ReqCtx, reply: Reply| {
            sim.schedule_after(delay, move |sim| reply(sim, Ok(resp_bytes)));
        })
    }

    /// An upstream whose delivery always fails after a fixed delay.
    fn failing_upstream(delay: SimDuration) -> Upstream {
        Rc::new(move |sim: &mut Sim, _ctx: ReqCtx, reply: Reply| {
            sim.schedule_after(delay, move |sim| reply(sim, Err(DeliveryFailed)));
        })
    }

    #[test]
    fn delivery_failure_surfaces_as_503_not_a_hang() {
        let gw = Gateway::new(GatewayConfig::default());
        let mut sim = Sim::new();
        let got = Rc::new(Cell::new(None));
        let g = got.clone();
        gw.submit_tenant(
            &mut sim,
            0,
            FlowId::from_client(1, 0),
            64,
            failing_upstream(SimDuration::from_micros(30)),
            Box::new(move |sim, r| g.set(Some((sim.now(), r)))),
        );
        sim.run();
        let (_, r) = got.get().expect("completion fired — client did not hang");
        assert_eq!(r, Err(Dropped::Delivery));
        let s = gw.stats();
        assert_eq!(s.failed, 1);
        assert_eq!(s.completed, 0);
        assert_eq!(s.accepted, 1);
        assert_eq!(Dropped::Delivery.status(), 503);
        assert_eq!(Dropped::Overload.status(), 503);
    }

    #[test]
    fn request_completes_through_both_halves() {
        let gw = Gateway::new(GatewayConfig::default());
        let mut sim = Sim::new();
        let got = Rc::new(Cell::new(None));
        let g = got.clone();
        gw.submit_tenant(
            &mut sim,
            0,
            FlowId::from_client(1, 0),
            64,
            echo_upstream(SimDuration::from_micros(50), 128),
            Box::new(move |sim, r| g.set(Some((sim.now(), r)))),
        );
        sim.run();
        let (at, r) = got.get().expect("completed");
        assert_eq!(r, Ok(128));
        // NADINO ingress service ~9-16us + 50us upstream.
        let us = at.as_micros_f64();
        assert!(us > 55.0 && us < 90.0, "end-to-end = {us}us");
        assert_eq!(gw.stats().completed, 1);
        // With an upstream that replies at once, a request is two events,
        // both stored inline in the slab.
        let before = sim.profile().executed_events;
        let upstream: Upstream = Rc::new(|sim, _ctx, reply: Reply| reply(sim, Ok(64)));
        let flow = FlowId::from_client(1, 0);
        gw.submit_tenant(&mut sim, 0, flow, 64, upstream, Box::new(|_, _| {}));
        sim.run();
        assert_eq!(gw.stats().completed, 2);
        let events = sim.profile().executed_events - before;
        assert_eq!(events, 2, "rx and tx halves");
        assert_eq!(sim.profile().boxed_events, 0);
    }

    #[test]
    fn admission_histogram_records_with_exemplar_for_sampled_requests() {
        let gw = Gateway::new(GatewayConfig::default());
        gw.set_tracer(obs::Tracer::enabled());
        let reg = obs::MetricsRegistry::new();
        let hist = reg.histogram("gw_admission_latency", &[]);
        gw.set_admission_histogram(Some(hist.clone()));
        let mut sim = Sim::new();
        gw.submit_tenant(
            &mut sim,
            0,
            FlowId::from_client(1, 0),
            64,
            echo_upstream(SimDuration::from_micros(10), 64),
            Box::new(|_sim, _r| {}),
        );
        sim.run();
        assert_eq!(hist.histogram().count(), 1, "admission latency recorded");
        let exemplars = hist.exemplar_set();
        assert_eq!(exemplars.len(), 1, "sampled request left an exemplar");
        let ex = exemplars.exemplars().next().unwrap();
        assert_eq!(ex.trace_id, 0, "first gateway req id");
        assert!(ex.span_id != 0, "exemplar points at the Gateway span");
    }

    #[test]
    fn overload_drops_requests() {
        let cfg = GatewayConfig {
            kind: GatewayKind::KIngress,
            max_backlog: SimDuration::from_micros(500),
            ..GatewayConfig::default()
        };
        let gw = Gateway::new(cfg);
        let mut sim = Sim::new();
        let drops = Rc::new(Cell::new(0u32));
        // K-Ingress per-request cost is >100us: 100 simultaneous requests
        // blow straight through a 500us backlog bound.
        for i in 0..100 {
            let d = drops.clone();
            gw.submit_tenant(
                &mut sim,
                0,
                FlowId::from_client(i, 0),
                64,
                echo_upstream(SimDuration::from_micros(10), 64),
                Box::new(move |_sim, r| {
                    if r.is_err() {
                        d.set(d.get() + 1);
                    }
                }),
            );
        }
        sim.run();
        assert!(drops.get() > 0, "overload must drop");
        let s = gw.stats();
        assert_eq!(s.dropped as u32, drops.get());
        assert_eq!(s.accepted + s.dropped, 100);
    }

    #[test]
    fn autoscaler_adds_workers_under_load_and_removes_when_idle() {
        let cfg = GatewayConfig {
            autoscale_max_workers: Some(4),
            ..GatewayConfig::default()
        };
        let gw = Gateway::new(cfg);
        let mut sim = Sim::new();
        gw.start_autoscaler(&mut sim);
        assert_eq!(gw.active_workers(), 1);
        // Closed loop of 8 clients for 1 simulated second.
        fn pump(gw: Gateway, sim: &mut Sim, client: u32, until: SimTime) {
            if sim.now() >= until {
                return;
            }
            let gw2 = gw.clone();
            gw.submit_tenant(
                sim,
                0,
                FlowId::from_client(client, 0),
                64,
                echo_upstream(SimDuration::from_micros(5), 64),
                Box::new(move |sim, _| pump(gw2, sim, client, until)),
            );
        }
        let until = SimTime::ZERO + SimDuration::from_secs(1);
        for c in 0..8 {
            pump(gw.clone(), &mut sim, c, until);
        }
        sim.run_until(until);
        let peak = gw.active_workers();
        assert!(peak > 1, "load should trigger scale-up, got {peak}");
        // Now idle: the next evaluation (every 500 ms) sees it.
        sim.run_for(SimDuration::from_millis(500));
        assert!(
            gw.active_workers() < peak,
            "idle should trigger scale-down from {peak}"
        );
    }

    #[test]
    fn tracer_records_ingress_stages_per_request() {
        let gw = Gateway::new(GatewayConfig::default());
        let tracer = Tracer::enabled();
        gw.set_tracer(tracer.clone());
        let mut sim = Sim::new();
        gw.submit_tenant(
            &mut sim,
            0,
            FlowId::from_client(1, 0),
            64,
            echo_upstream(SimDuration::from_micros(50), 128),
            Box::new(|_, _| {}),
        );
        sim.run();
        let stages = tracer.stages_of(0);
        assert!(stages.contains(&Stage::RssDispatch));
        assert!(stages.contains(&Stage::HttpParse));
        assert!(stages.contains(&Stage::Gateway));
        // Request and response halves each contribute a Gateway span.
        let gw_spans = tracer
            .records()
            .iter()
            .filter(|r| r.stage == Stage::Gateway)
            .count();
        assert_eq!(gw_spans, 2);
        for r in tracer.records() {
            assert_eq!(r.node, GATEWAY_NODE);
            assert!(r.end_ns >= r.start_ns);
        }
    }

    #[test]
    fn disabled_tracer_records_nothing_at_the_gateway() {
        let gw = Gateway::new(GatewayConfig::default());
        let tracer = Tracer::disabled();
        gw.set_tracer(tracer.clone());
        let mut sim = Sim::new();
        gw.submit_tenant(
            &mut sim,
            0,
            FlowId::from_client(1, 0),
            64,
            echo_upstream(SimDuration::from_micros(5), 64),
            Box::new(|_, _| {}),
        );
        sim.run();
        assert!(tracer.is_empty());
        assert_eq!(gw.stats().completed, 1);
    }

    #[test]
    fn queued_past_deadline_answers_504_without_invoking_upstream() {
        let cfg = GatewayConfig {
            kind: GatewayKind::KIngress, // >100us per request: queue builds
            deadline: Some(SimDuration::from_micros(200)),
            max_backlog: SimDuration::from_secs(10), // no overload drops
            ..GatewayConfig::default()
        };
        let gw = Gateway::new(cfg);
        let mut sim = Sim::new();
        let invoked = Rc::new(Cell::new(0u32));
        let expired = Rc::new(Cell::new(0u32));
        let finished = Rc::new(Cell::new(0u32));
        for i in 0..50 {
            let inv = invoked.clone();
            let exp = expired.clone();
            let fin = finished.clone();
            gw.submit_tenant(
                &mut sim,
                0,
                FlowId::from_client(i, 0),
                64,
                Rc::new(move |sim: &mut Sim, ctx: ReqCtx, reply: Reply| {
                    assert_ne!(ctx.deadline_ns, 0, "deadline must be stamped");
                    inv.set(inv.get() + 1);
                    sim.schedule_after(SimDuration::from_micros(10), move |sim| reply(sim, Ok(64)));
                }),
                Box::new(move |_sim, r| {
                    fin.set(fin.get() + 1);
                    if r == Err(Dropped::DeadlineExceeded) {
                        exp.set(exp.get() + 1);
                    }
                }),
            );
        }
        sim.run();
        assert_eq!(finished.get(), 50, "no request may hang");
        assert!(expired.get() > 0, "deep queue must expire some deadlines");
        let s = gw.stats();
        assert_eq!(s.expired as u32, expired.get());
        assert_eq!(invoked.get() as u64 + s.expired, s.accepted);
        assert_eq!(Dropped::DeadlineExceeded.status(), 504);
    }

    #[test]
    fn admission_control_sheds_rogue_tenant_with_retry_after() {
        let cfg = GatewayConfig {
            kind: GatewayKind::KIngress,
            max_backlog: SimDuration::from_secs(10),
            admission: Some(AdmissionConfig {
                target: SimDuration::from_micros(300),
                interval: SimDuration::from_millis(1),
                retry_after_secs: 2,
            }),
            ..GatewayConfig::default()
        };
        let gw = Gateway::new(cfg);
        gw.register_tenant(1, 3);
        gw.register_tenant(2, 1);
        let mut sim = Sim::new();
        let rogue_sheds = Rc::new(Cell::new(0u32));
        let good_sheds = Rc::new(Cell::new(0u32));
        // Tenant 2 floods 8x harder than tenant 1 despite a third of the
        // weight; arrivals spread over 20ms so the CoDel interval elapses.
        for burst in 0..40u32 {
            let at = SimTime::ZERO + SimDuration::from_micros(500 * burst as u64);
            let gw2 = gw.clone();
            let rs = rogue_sheds.clone();
            let gs = good_sheds.clone();
            sim.schedule_at(at, move |sim| {
                for k in 0..8u32 {
                    let rs2 = rs.clone();
                    gw2.submit_tenant(
                        sim,
                        2,
                        FlowId::from_client(100 + burst * 8 + k, 0),
                        64,
                        echo_upstream(SimDuration::from_micros(5), 64),
                        Box::new(move |_sim, r| {
                            if let Err(shed @ Dropped::Shed { .. }) = r {
                                // The configured back-off reaches the client.
                                let configured = Dropped::Shed {
                                    retry_after_secs: 2,
                                };
                                assert_eq!(shed, configured);
                                assert_eq!(shed.status(), 503);
                                rs2.set(rs2.get() + 1);
                            }
                        }),
                    );
                }
                let gs2 = gs.clone();
                gw2.submit_tenant(
                    sim,
                    1,
                    FlowId::from_client(burst, 0),
                    64,
                    echo_upstream(SimDuration::from_micros(5), 64),
                    Box::new(move |_sim, r| {
                        if matches!(r, Err(Dropped::Shed { .. })) {
                            gs2.set(gs2.get() + 1);
                        }
                    }),
                );
            });
        }
        sim.run();
        assert!(rogue_sheds.get() > 0, "rogue tenant must be shed");
        assert!(
            rogue_sheds.get() > good_sheds.get(),
            "rogue ({}) must shed more than compliant ({})",
            rogue_sheds.get(),
            good_sheds.get()
        );
        assert_eq!(gw.stats().shed as u32, rogue_sheds.get() + good_sheds.get());
        assert_eq!(gw.tenant_stats(2).shed as u32, rogue_sheds.get());
    }

    #[test]
    fn per_tenant_stats_split_the_aggregate() {
        let gw = Gateway::new(GatewayConfig::default());
        let mut sim = Sim::new();
        for (tenant, n) in [(1u16, 3u32), (2, 5)] {
            for k in 0..n {
                gw.submit_tenant(
                    &mut sim,
                    tenant,
                    FlowId::from_client(u32::from(tenant) * 100 + k, 0),
                    64,
                    echo_upstream(SimDuration::from_micros(5), 64),
                    Box::new(|_, _| {}),
                );
            }
        }
        sim.run();
        assert_eq!(gw.tenant_stats(1).completed, 3);
        assert_eq!(gw.tenant_stats(2).completed, 5);
        assert_eq!(gw.stats().completed, 8);
        assert_eq!(gw.tenant_stats(7), GatewayStats::default());
    }

    #[test]
    fn utilization_visible_over_window() {
        let gw = Gateway::new(GatewayConfig::default());
        let mut sim = Sim::new();
        for i in 0..20 {
            gw.submit_tenant(
                &mut sim,
                0,
                FlowId::from_client(i, 0),
                64,
                echo_upstream(SimDuration::ZERO, 64),
                Box::new(|_, _| {}),
            );
        }
        sim.run();
        let u = gw.utilization_cores(SimTime::ZERO, sim.now());
        assert!(u > 0.5, "worker should have been busy, u = {u}");
    }
}
