//! The gateway as a state machine that never sees a simulator.
//!
//! [`Core`] holds the worker cores and their restart floors, the
//! autoscaler's bound, the admission controller, the counters, the tracer
//! and one slot table of in-flight requests: each one's `ReqCtx`, its
//! worker and the caller's opaque handle `H`.
//! [`Core::arrive`] takes a client request with its handle, [`Core::step`]
//! one [`Input`] a request or the autoscaler fed back; each emits at most
//! one [`Output`] into a sink. The driver in `crate::gateway` applies an
//! `At` as it is emitted, and an `Upstream` or a `Done` — both can re-enter
//! the gateway — once the call returned.

use std::collections::BTreeMap;

use obs::{HistogramHandle, Stage, Tracer};
use simcore::{Server, SimDuration, SimTime};

use crate::admission::{Admission, AdmissionController};
use crate::autoscale;
use crate::gateway::{DeliveryFailed, Dropped, GatewayConfig, GatewayStats, ReqCtx, GATEWAY_NODE};
use crate::rss::{rss_select, FlowId};
use crate::stack::StackCosts;

/// Service interruption injected into every worker on a scale event: worker
/// processes restart on reconfiguration (the dips of Fig. 14 (2)).
const RESTART_INTERRUPTION: SimDuration = SimDuration::from_millis(120);

/// How often a running autoscaler evaluates utilization.
const AUTOSCALE_INTERVAL: SimDuration = SimDuration::from_millis(500);

/// A request's index in the slot table.
pub(crate) type Slot = u32;

/// Something that happened to an accepted request, or the autoscaler's
/// tick. It holds no handle, so a scheduled input is plain data: an input
/// carrying the caller's closures makes every gateway event about twice as
/// dear.
#[derive(Debug)]
pub(crate) enum Input {
    /// The request's rx half finished on its worker.
    RxDone(Slot),
    /// The upstream answered the request.
    Replied(Slot, Result<usize, DeliveryFailed>),
    /// The request's tx half finished: the client gets the answer.
    TxDone(Slot, Result<usize, Dropped>),
    /// The master evaluates the workers' utilization.
    Evaluate,
}

/// Something the gateway wants done; each call emits at most one.
pub(crate) enum Output<H> {
    /// Feed the input back at the instant.
    At(SimTime, Input),
    /// Hand the request to the upstream; its reply is a `Replied`.
    Upstream(Slot, ReqCtx),
    /// Answer the request whose handle this is.
    Done(H, Result<usize, Dropped>),
}

/// One accepted request: what the upstream is told, the worker serving
/// both halves, and the caller's handle.
struct Request<H> {
    ctx: ReqCtx,
    worker: usize,
    handle: H,
}

pub(crate) struct Core<H> {
    pub(crate) costs: StackCosts,
    /// Sized to the most workers the gateway may run; the first `active`
    /// serve.
    pub(crate) workers: Vec<Server>,
    /// Per-worker restart floor: requests may not start before this.
    available_at: Vec<SimTime>,
    pub(crate) active: usize,
    /// The autoscaler's bound; `None` pins the worker count.
    max_workers: Option<usize>,
    /// The previous evaluation; `None` until the autoscaler starts.
    last_eval: Option<SimTime>,
    max_backlog: SimDuration,
    deadline: Option<SimDuration>,
    pub(crate) admission: Option<AdmissionController>,
    in_flight: usize,
    pub(crate) stats: GatewayStats,
    /// Per-tenant counters (`BTreeMap` for deterministic iteration).
    pub(crate) tenant_stats: BTreeMap<u16, GatewayStats>,
    pub(crate) tracer: Tracer,
    /// Optional fleet histogram for admission latency (arrival →
    /// ingress-rx done), with exemplars on sampled requests.
    pub(crate) admission_hist: Option<HistogramHandle>,
    /// In-flight requests by slot; `free` lists the empty slots.
    requests: Vec<Option<Request<H>>>,
    free: Vec<Slot>,
}

/// The counter an answer is booked under.
fn counter(stats: &mut GatewayStats, answer: Result<usize, Dropped>) -> &mut u64 {
    match answer {
        Ok(_) => &mut stats.completed,
        Err(Dropped::Overload) => &mut stats.dropped,
        Err(Dropped::Delivery) => &mut stats.failed,
        Err(Dropped::Shed { .. }) => &mut stats.shed,
        Err(Dropped::DeadlineExceeded) => &mut stats.expired,
    }
}

impl<H> Core<H> {
    pub(crate) fn new(cfg: GatewayConfig) -> Core<H> {
        let max = cfg.autoscale_max_workers.unwrap_or(cfg.initial_workers);
        let active = cfg.initial_workers.min(max);
        assert!(active >= 1, "need at least one worker");
        Core {
            costs: StackCosts::for_kind(cfg.kind),
            workers: vec![Server::new(); max],
            available_at: vec![SimTime::ZERO; max],
            active,
            max_workers: cfg.autoscale_max_workers,
            last_eval: None,
            max_backlog: cfg.max_backlog,
            deadline: cfg.deadline,
            admission: cfg.admission.map(AdmissionController::new),
            in_flight: 0,
            stats: GatewayStats::default(),
            tenant_stats: BTreeMap::new(),
            tracer: Tracer::disabled(),
            admission_hist: None,
            requests: Vec::new(),
            free: Vec::new(),
        }
    }

    /// The caller's handle of the in-flight request in `slot`.
    pub(crate) fn handle(&self, slot: Slot) -> Option<&H> {
        let request = self.requests.get(slot as usize)?.as_ref()?;
        Some(&request.handle)
    }

    /// Starts the autoscaler's evaluations (no-op without a policy or once
    /// running).
    pub(crate) fn start_autoscaler(&mut self, now: SimTime, out: &mut impl FnMut(Output<H>)) {
        if self.max_workers.is_some() && self.last_eval.is_none() {
            self.last_eval = Some(now);
            out(Output::At(now + AUTOSCALE_INTERVAL, Input::Evaluate));
        }
    }

    /// Advances the gateway by one input, emitting what it wants done into
    /// `out`.
    pub(crate) fn step(&mut self, now: SimTime, input: Input, out: &mut impl FnMut(Output<H>)) {
        match input {
            Input::RxDone(slot) => self.rx_done(now, slot, out),
            Input::Replied(slot, outcome) => {
                let answer = outcome.map_err(|DeliveryFailed| Dropped::Delivery);
                self.finish(now, slot, answer, out);
            }
            Input::TxDone(slot, answer) => {
                let request = self.requests.get_mut(slot as usize).and_then(Option::take);
                if let Some(request) = request {
                    self.free.push(slot);
                    out(Output::Done(request.handle, answer));
                }
            }
            Input::Evaluate => self.evaluate(now, out),
        }
    }

    /// Books one answer in the aggregate and in its tenant's counters.
    fn book(&mut self, tenant: u16, answer: Result<usize, Dropped>) {
        *counter(&mut self.stats, answer) += 1;
        *counter(self.tenant_stats.entry(tenant).or_default(), answer) += 1;
    }

    /// Records a gateway span of `ctx`'s request; returns its id.
    fn span(&self, ctx: &ReqCtx, stage: Stage, start: SimTime, end: SimTime) -> u32 {
        let (req_id, tenant) = (ctx.req_id, ctx.tenant);
        self.tracer
            .span(req_id, tenant, GATEWAY_NODE, stage, start, end)
    }

    /// Admission control first, then the static backlog bound.
    fn refusal(&mut self, tenant: u16, backlog: SimDuration, now: SimTime) -> Option<Dropped> {
        if let Some(ac) = self.admission.as_mut() {
            if ac.on_arrival(tenant, backlog, now) == Admission::Shed {
                let retry_after_secs = ac.cfg.retry_after_secs;
                return Some(Dropped::Shed { retry_after_secs });
            }
        }
        (backlog > self.max_backlog).then_some(Dropped::Overload)
    }

    /// A client request of `req_bytes` for `tenant` on `flow`, whose
    /// `handle` comes back in its `Done`. RSS picks the worker; a refused
    /// request is answered at once, an accepted one is numbered, charged the
    /// rx half and given a slot.
    pub(crate) fn arrive(
        &mut self,
        now: SimTime,
        tenant: u16,
        flow: FlowId,
        req_bytes: usize,
        handle: H,
        out: &mut impl FnMut(Output<H>),
    ) {
        let worker = rss_select(flow, self.active);
        let backlog = self.workers[worker].backlog(now);
        if let Some(refusal) = self.refusal(tenant, backlog, now) {
            self.book(tenant, Err(refusal));
            out(Output::Done(handle, Err(refusal)));
            return;
        }
        // Requests are numbered densely in acceptance order.
        let req_id = self.stats.accepted;
        self.stats.accepted += 1;
        self.tenant_stats.entry(tenant).or_default().accepted += 1;
        self.in_flight += 1;
        let deadline_ns = self.deadline.map_or(0, |d| (now + d).as_nanos());
        let service = self.costs.ingress_rx(self.in_flight, req_bytes);
        let floor = self.available_at[worker];
        let rx_done = self.workers[worker].admit_not_before(now, floor, service);
        let ctx = ReqCtx {
            req_id,
            tenant,
            req_bytes,
            deadline_ns,
            // The ingress sampling decision: made exactly once, here, and
            // carried with the request (ReqCtx + on-wire ctx bit) so no
            // downstream stage consults the tracer again.
            sampled: self.tracer.decide_sample(req_id),
        };
        let mut exemplar = None;
        if ctx.sampled {
            // RSS steering is effectively instantaneous; HTTP parsing is
            // the app-work share of the rx half; the Gateway span covers
            // the whole ingress-side service (queueing included).
            self.span(&ctx, Stage::RssDispatch, now, now);
            let parse_end = (now + self.costs.app_work).min(rx_done);
            self.span(&ctx, Stage::HttpParse, now, parse_end);
            exemplar = Some((req_id, self.span(&ctx, Stage::Gateway, now, rx_done)));
        }
        if let Some(h) = &self.admission_hist {
            h.record_traced(rx_done.saturating_since(now), exemplar);
        }
        let slot = self.free.pop().unwrap_or_else(|| {
            self.requests.push(None);
            (self.requests.len() - 1) as Slot
        });
        self.requests[slot as usize] = Some(Request {
            ctx,
            worker,
            handle,
        });
        out(Output::At(rx_done, Input::RxDone(slot)));
    }

    /// The rx half is done: a request still within its deadline goes
    /// upstream; one whose deadline passed in the queue is answered 504
    /// without ever reaching the upstream.
    fn rx_done(&mut self, now: SimTime, slot: Slot, out: &mut impl FnMut(Output<H>)) {
        let Some(Some(Request { ctx, .. })) = self.requests.get(slot as usize) else {
            return;
        };
        if ctx.deadline_ns != 0 && now >= SimTime::from_nanos(ctx.deadline_ns) {
            self.finish(now, slot, Err(Dropped::DeadlineExceeded), out);
        } else {
            out(Output::Upstream(slot, *ctx));
        }
    }

    /// Charges the tx half on the request's worker and books the answer,
    /// which the client gets when the tx half is done. A failed delivery
    /// or an expiry still sends a response — the 503 or 504 page — so the
    /// tx half is charged either way.
    fn finish(
        &mut self,
        now: SimTime,
        slot: Slot,
        answer: Result<usize, Dropped>,
        out: &mut impl FnMut(Output<H>),
    ) {
        let Some(Some(Request { ctx, worker, .. })) = self.requests.get(slot as usize) else {
            return;
        };
        let (ctx, worker) = (*ctx, *worker);
        let service = self.costs.ingress_tx(self.in_flight, answer.unwrap_or(0));
        let floor = self.available_at[worker];
        let tx_done = self.workers[worker].admit_not_before(now, floor, service);
        self.in_flight = self.in_flight.saturating_sub(1);
        self.book(ctx.tenant, answer);
        if ctx.sampled {
            if answer == Err(Dropped::DeadlineExceeded) {
                self.span(&ctx, Stage::DeadlineDrop, now, now);
            }
            self.span(&ctx, Stage::Gateway, now, tx_done);
        }
        out(Output::At(tx_done, Input::TxDone(slot, answer)));
    }

    /// One autoscaler evaluation over the active workers' utilization since
    /// the last; a scale event restarts every active worker. Re-emits
    /// itself one interval on.
    fn evaluate(&mut self, now: SimTime, out: &mut impl FnMut(Output<H>)) {
        let (Some(max), Some(since)) = (self.max_workers, self.last_eval.replace(now)) else {
            return;
        };
        let active = self.active;
        let busy: f64 = self.workers[..active]
            .iter()
            .map(|w| w.utilization(since, now))
            .sum();
        self.active = autoscale::next_workers(active, max, busy / active as f64);
        if self.active != active {
            // The gap is idle time, not data-plane work, so it does not
            // feed back into utilization.
            for floor in &mut self.available_at[..self.active] {
                *floor = now + RESTART_INTERRUPTION;
            }
        }
        out(Output::At(now + AUTOSCALE_INTERVAL, Input::Evaluate));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionConfig;

    /// The deadline case's relative deadline: past every instant a step
    /// schedules, so only the world's `Expire` passes it.
    const DEADLINE: SimDuration = SimDuration::from_secs(1);

    /// Two arrivals at instant zero, and what else can happen around them.
    #[derive(Clone, Copy, Debug)]
    enum Case {
        /// Tenants 1 and 2; their deadline may pass at any point.
        Deadline,
        /// Tenants 1 and 2; the autoscaler (max 2 workers) evaluates once,
        /// at any point.
        Evaluate,
        /// Tenants 1 and 2 on one worker with a zero backlog bound: an
        /// arrival behind a queued one is refused.
        Backlog,
        /// Tenant 1 twice, with admission at a zero target and interval:
        /// the tenant's second arrival is shed.
        Shed,
    }

    impl Case {
        fn tenants(self) -> [u16; 2] {
            match self {
                Case::Shed => [1, 1],
                _ => [1, 2],
            }
        }

        fn cfg(self) -> GatewayConfig {
            let cfg = GatewayConfig::default();
            match self {
                Case::Deadline => GatewayConfig {
                    deadline: Some(DEADLINE),
                    ..cfg
                },
                Case::Evaluate => GatewayConfig {
                    autoscale_max_workers: Some(2),
                    ..cfg
                },
                Case::Backlog => GatewayConfig {
                    max_backlog: SimDuration::ZERO,
                    ..cfg
                },
                Case::Shed => GatewayConfig {
                    admission: Some(AdmissionConfig {
                        target: SimDuration::ZERO,
                        interval: SimDuration::ZERO,
                        retry_after_secs: 1,
                    }),
                    ..cfg
                },
            }
        }
    }

    /// What the world can do next.
    enum Pending {
        /// Arrival `.0` (its handle) of tenant `.1`.
        Arrive(usize, u16),
        /// An `At` of the core, due at the instant.
        At(SimTime, Input),
        /// The upstream answers the request in the slot, `Ok` or not, at
        /// any later point; taking one drops its twin.
        Reply(Slot, bool),
        /// The clock passes the deadline.
        Expire,
        /// The autoscaler evaluates.
        Evaluate,
    }

    /// The core with no simulator, and the two arrivals in flight.
    struct World {
        core: Core<usize>,
        now: SimTime,
        pending: Vec<Pending>,
        /// Each arrival's answer, by handle.
        answers: [Option<Result<usize, Dropped>>; 2],
        /// Whether each arrival reached the upstream, by handle.
        upstream: [bool; 2],
        /// Request ids in acceptance order.
        ids: Vec<u64>,
        order: Vec<String>,
    }

    impl World {
        fn new(case: Case) -> World {
            let mut world = World {
                core: Core::new(case.cfg()),
                now: SimTime::ZERO,
                pending: Vec::new(),
                answers: [None; 2],
                upstream: [false; 2],
                ids: Vec::new(),
                order: Vec::new(),
            };
            for (handle, tenant) in case.tenants().into_iter().enumerate() {
                world.pending.push(Pending::Arrive(handle, tenant));
            }
            match case {
                Case::Deadline => world.pending.push(Pending::Expire),
                Case::Evaluate => {
                    // Its own next evaluation is past the world's horizon.
                    world.core.start_autoscaler(SimTime::ZERO, &mut |_| {});
                    world.pending.push(Pending::Evaluate);
                }
                Case::Backlog | Case::Shed => {}
            }
            world
        }

        /// Takes pending action `i`; an input fires at `max(now, its
        /// instant)`, so `now` never decreases.
        fn act(&mut self, i: usize) {
            match self.pending.remove(i) {
                Pending::Arrive(handle, tenant) => {
                    self.order.push(format!("arrive {handle}"));
                    let flow = FlowId::from_client(handle as u32, 0);
                    let mut outputs = Vec::new();
                    let emit = &mut |o| outputs.push(o);
                    self.core.arrive(self.now, tenant, flow, 64, handle, emit);
                    self.take(outputs);
                }
                Pending::At(at, input) => {
                    self.now = self.now.max(at);
                    self.step(input);
                }
                Pending::Reply(slot, ok) => {
                    self.pending
                        .retain(|p| !matches!(p, Pending::Reply(s, _) if *s == slot));
                    let outcome = if ok { Ok(128) } else { Err(DeliveryFailed) };
                    self.step(Input::Replied(slot, outcome));
                }
                Pending::Expire => {
                    self.now = self.now.max(SimTime::ZERO + DEADLINE);
                    self.order.push("deadline passes".into());
                }
                Pending::Evaluate => self.step(Input::Evaluate),
            }
        }

        /// Steps the core.
        fn step(&mut self, input: Input) {
            self.order.push(format!("{input:?}"));
            let mut outputs = Vec::new();
            self.core.step(self.now, input, &mut |o| outputs.push(o));
            self.take(outputs);
        }

        /// Turns a call's output into pending actions and answers.
        fn take(&mut self, mut outputs: Vec<Output<usize>>) {
            let order = &self.order;
            assert_eq!(outputs.len(), 1, "one output per step after {order:?}");
            match outputs.remove(0) {
                Output::At(_, Input::Evaluate) => {}
                Output::At(at, input) => {
                    if let Input::RxDone(slot) = input {
                        // Only an accepted arrival emits an `RxDone`.
                        let request = self.core.requests[slot as usize].as_ref().unwrap();
                        self.ids.push(request.ctx.req_id);
                    }
                    self.pending.push(Pending::At(at, input));
                }
                Output::Upstream(slot, ctx) => {
                    let request = self.core.requests[slot as usize].as_ref().unwrap();
                    assert_eq!(ctx, request.ctx);
                    let handle = request.handle;
                    assert!(!self.upstream[handle], "upstream twice after {order:?}");
                    self.upstream[handle] = true;
                    self.pending.push(Pending::Reply(slot, true));
                    self.pending.push(Pending::Reply(slot, false));
                }
                Output::Done(handle, answer) => {
                    let first = self.answers[handle].replace(answer);
                    assert_eq!(first, None, "answered twice after {order:?}");
                }
            }
        }

        /// Checked once nothing is pending; tallies the answers reached.
        fn check_end(self, seen: &mut Vec<&'static str>) {
            let order = &self.order;
            let core = &self.core;
            let s = core.stats;
            assert_eq!(s.accepted + s.shed + s.dropped, 2, "{s:?} after {order:?}");
            let ended = s.completed + s.failed + s.expired;
            assert_eq!(ended, s.accepted, "{s:?} after {order:?}");
            assert_eq!(core.in_flight, 0, "in flight after {order:?}");
            assert!(core.requests.iter().all(Option::is_none), "{order:?}");
            let sum = core
                .tenant_stats
                .values()
                .fold(GatewayStats::default(), |a, t| GatewayStats {
                    accepted: a.accepted + t.accepted,
                    completed: a.completed + t.completed,
                    dropped: a.dropped + t.dropped,
                    failed: a.failed + t.failed,
                    shed: a.shed + t.shed,
                    expired: a.expired + t.expired,
                });
            assert_eq!(sum, s, "per-tenant counters after {order:?}");
            if core.active > 1 && !seen.contains(&"scaled up") {
                seen.push("scaled up");
            }
            let ids: Vec<u64> = (0..s.accepted).collect();
            assert_eq!(self.ids, ids, "request ids after {order:?}");
            for (handle, answer) in self.answers.into_iter().enumerate() {
                let Some(answer) = answer else {
                    panic!("arrival {handle} unanswered after {order:?}");
                };
                let upstream = matches!(answer, Ok(_) | Err(Dropped::Delivery));
                assert_eq!(
                    self.upstream[handle], upstream,
                    "{answer:?} after {order:?}"
                );
                let name = match answer {
                    Ok(_) => "ok",
                    Err(Dropped::Overload) => "overload",
                    Err(Dropped::Delivery) => "delivery",
                    Err(Dropped::Shed { .. }) => "shed",
                    Err(Dropped::DeadlineExceeded) => "deadline",
                };
                if !seen.contains(&name) {
                    seen.push(name);
                }
            }
        }
    }

    /// Visits every order of the world's pending actions depth first,
    /// replaying each order from a fresh world. Returns how many orders it
    /// visited.
    fn explore(case: Case, seen: &mut Vec<&'static str>) -> usize {
        // (choice, number of choices) at each depth of the current order.
        let mut path: Vec<(usize, usize)> = Vec::new();
        let mut orders = 0;
        loop {
            let mut world = World::new(case);
            let mut depth = 0;
            while !world.pending.is_empty() {
                if depth == path.len() {
                    path.push((0, world.pending.len()));
                }
                assert_eq!(path[depth].1, world.pending.len(), "replay diverged");
                world.act(path[depth].0);
                depth += 1;
            }
            world.check_end(seen);
            orders += 1;
            while let Some((choice, of)) = path.pop() {
                if choice + 1 < of {
                    path.push((choice + 1, of));
                    break;
                }
            }
            if path.is_empty() {
                return orders;
            }
        }
    }

    /// Two arrivals through the gateway core in every order of its pending
    /// inputs, with the upstream modelled as "an `Upstream` becomes a
    /// `Replied(Ok | Err(DeliveryFailed))` at any later point": a deadline
    /// passing before, between or after the `RxDone`s, an `Evaluate`
    /// anywhere, a refusing backlog bound and admission shedding. After
    /// every order: exactly one `Done` per arrival, every arrival accepted
    /// or refused and every accepted one ended, nothing in flight, the
    /// per-tenant counters summing to the aggregate, `Upstream` for exactly
    /// the accepted, unexpired requests, and request ids `0..accepted` in
    /// acceptance order. Every answer is reached, and so is a scale-up.
    /// A failure prints the order that broke the promise.
    #[test]
    fn every_order_of_two_arrivals_answers_each_once() {
        let mut seen = Vec::new();
        let cases = [Case::Deadline, Case::Evaluate, Case::Backlog, Case::Shed];
        let orders = cases.map(|case| explore(case, &mut seen));
        assert_eq!(orders, [1988, 2520, 96, 16]);
        seen.sort_unstable();
        let outcomes = [
            "deadline",
            "delivery",
            "ok",
            "overload",
            "scaled up",
            "shed",
        ];
        assert_eq!(seen, outcomes);
    }
}
