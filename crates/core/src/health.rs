//! Node health tracking and cross-node failover.
//!
//! The DNE's typed [`DeliveryFailure`](dne::types::DeliveryFailure)s carry
//! the destination node they were aimed at; this module folds that stream
//! into a per-node state machine with hysteresis:
//!
//! ```text
//! Healthy ──failures ≥ SUSPECT_AFTER──▶ Suspect
//! Suspect ──failures ≥ DOWN_AFTER────▶ Down      (fail over to backups)
//! Suspect ──clean for SUSPECT_DECAY──▶ Healthy   (failure burst blew over)
//! Down ────probe says node is up─────▶ Draining
//! Draining ──after DRAIN hold-down───▶ Healthy   (routes restored)
//! ```
//!
//! Entering `Down` triggers the down handler (the cluster re-points every
//! routing table at the configured backups); leaving `Draining` triggers
//! the recovered handler (routes restored to the displaced primaries). The
//! hold-down between the probe first seeing the node up and the routes
//! moving back absorbs flapping: a node that crashes again mid-drain goes
//! straight back to `Down` without ever having taken traffic.
//!
//! Probing is driven by the fabric's [`FaultPlane`](rdma_sim::FaultPlane)
//! crash windows — the simulation's ground truth for "is the machine up" —
//! sampled on a fixed cadence so runs stay deterministic. Every transition
//! is recorded as an instant [`Stage::HealthEvent`](obs::Stage) span under
//! the synthetic trace id [`HEALTH_TRACE_ID`] and kept in an event log for
//! assertions and dashboards.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use rdma_sim::{Fabric, NodeId};
use simcore::{Sim, SimDuration, SimTime};

/// Synthetic trace id health-event spans are recorded under (health is a
/// cluster-level signal, not a per-request one).
pub const HEALTH_TRACE_ID: u64 = u64::MAX;

/// Consecutive delivery failures that turn `Healthy` into `Suspect`.
const SUSPECT_AFTER: u32 = 1;
/// Consecutive delivery failures that turn `Suspect` into `Down`.
const DOWN_AFTER: u32 = 3;
/// A `Suspect` node with no new failure for this long returns to `Healthy`
/// (the burst blew over without reaching the down bar).
const SUSPECT_DECAY: SimDuration = SimDuration::from_millis(10);
/// Probe cadence: how often `Down`/`Draining` nodes are re-examined.
const PROBE_INTERVAL: SimDuration = SimDuration::from_millis(1);
/// Hold-down between the probe first seeing a `Down` node up again and the
/// routes being restored (`Draining` → `Healthy`).
const DRAIN: SimDuration = SimDuration::from_millis(5);

/// A node's health state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Serving traffic normally.
    Healthy,
    /// Failures observed; still routed to, but one step from failover.
    Suspect,
    /// Considered dead: routes moved to backups.
    Down,
    /// Probe says the machine is back; waiting out the drain hold-down
    /// before routes return.
    Draining,
}

/// One recorded state transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthEvent {
    pub at: SimTime,
    pub node: NodeId,
    pub from: NodeState,
    pub to: NodeState,
}

/// Invoked when a node enters `Down` (fail over) or completes `Draining`
/// (restore).
pub type NodeEventHandler = Rc<dyn Fn(&mut Sim, NodeId)>;

/// Invoked whenever the healthy-capacity fraction changes.
pub type CapacityHandler = Rc<dyn Fn(&mut Sim, f64)>;

#[derive(Debug, Clone, Copy)]
struct NodeTrack {
    state: NodeState,
    /// Consecutive failures since the last decay/recovery.
    failures: u32,
    last_failure: SimTime,
    /// When a `Draining` node may return to `Healthy`.
    drain_until: SimTime,
    /// Administrative hold (fleet controller drain): the probe loop never
    /// auto-completes this drain — only [`HealthMonitor::end_drain`] does.
    /// Survives a mid-drain crash/recovery cycle, so the probe's own
    /// `Draining → Healthy` path stays suppressed until the controller
    /// releases the node.
    admin_hold: bool,
}

struct MonitorInner {
    /// Keyed by raw node id so iteration order is deterministic.
    nodes: BTreeMap<u16, NodeTrack>,
    events: Vec<HealthEvent>,
    tracer: obs::Tracer,
    on_down: Option<NodeEventHandler>,
    on_recovered: Option<NodeEventHandler>,
    on_capacity: Option<CapacityHandler>,
    probing: bool,
    /// Multiplier in `(0, 1]` fed by the SLO burn monitor: alerting
    /// tenants discount effective capacity so admission sheds sooner
    /// even while every node is nominally up.
    slo_pressure: f64,
}

impl MonitorInner {
    fn capacity(&self) -> f64 {
        let total = self.nodes.len().max(1) as f64;
        // Draining nodes take no new traffic (routes live on backups until
        // the drain completes), so they count against capacity just like
        // Down — the gateway's admission target shrinks during both crash
        // recovery and administrative drains (upgrade waves).
        let up = self
            .nodes
            .values()
            .filter(|t| matches!(t.state, NodeState::Healthy | NodeState::Suspect))
            .count() as f64;
        (up / total) * self.slo_pressure
    }

    /// Records a transition (event log + instant span); the caller fires
    /// any handlers after the borrow is released.
    fn transition(&mut self, now: SimTime, node: NodeId, to: NodeState) -> NodeState {
        let track = self.nodes.get_mut(&node.0).expect("tracked node");
        let from = track.state;
        track.state = to;
        self.events.push(HealthEvent {
            at: now,
            node,
            from,
            to,
        });
        if self.tracer.is_enabled() {
            self.tracer.span(
                HEALTH_TRACE_ID,
                0,
                node.0 as u32,
                obs::Stage::HealthEvent,
                now,
                now,
            );
        }
        from
    }
}

/// The cluster health monitor. Cheap to clone (shared state).
#[derive(Clone)]
pub struct HealthMonitor {
    inner: Rc<RefCell<MonitorInner>>,
}

impl HealthMonitor {
    /// Creates a monitor tracking `nodes`, all initially `Healthy`.
    pub fn new(nodes: impl IntoIterator<Item = NodeId>) -> HealthMonitor {
        let tracks = nodes
            .into_iter()
            .map(|n| {
                (
                    n.0,
                    NodeTrack {
                        state: NodeState::Healthy,
                        failures: 0,
                        last_failure: SimTime::ZERO,
                        drain_until: SimTime::ZERO,
                        admin_hold: false,
                    },
                )
            })
            .collect();
        HealthMonitor {
            inner: Rc::new(RefCell::new(MonitorInner {
                nodes: tracks,
                events: Vec::new(),
                tracer: obs::Tracer::disabled(),
                on_down: None,
                on_recovered: None,
                on_capacity: None,
                probing: false,
                slo_pressure: 1.0,
            })),
        }
    }

    /// Installs the span tracer health events are recorded into.
    pub fn set_tracer(&self, tracer: obs::Tracer) {
        self.inner.borrow_mut().tracer = tracer;
    }

    /// Installs the handler invoked when a node enters `Down`.
    pub fn set_down_handler(&self, h: NodeEventHandler) {
        self.inner.borrow_mut().on_down = Some(h);
    }

    /// Installs the handler invoked when a node finishes `Draining`.
    pub fn set_recovered_handler(&self, h: NodeEventHandler) {
        self.inner.borrow_mut().on_recovered = Some(h);
    }

    /// Installs the handler invoked when the capacity fraction changes
    /// (e.g. the gateway's admission controller).
    pub fn set_capacity_handler(&self, h: CapacityHandler) {
        self.inner.borrow_mut().on_capacity = Some(h);
    }

    /// Current state of `node` (`None` if untracked).
    pub fn state_of(&self, node: NodeId) -> Option<NodeState> {
        self.inner.borrow().nodes.get(&node.0).map(|t| t.state)
    }

    /// The effective capacity fraction in `(0, 1]`: the fraction of
    /// tracked nodes not currently `Down`, discounted by SLO pressure.
    pub fn healthy_fraction(&self) -> f64 {
        self.inner.borrow().capacity()
    }

    /// Sets the SLO-pressure multiplier (clamped to `(0, 1]`) and fires
    /// the capacity handler if the effective capacity changed. Fed by
    /// the trace pipeline's burn monitor: each alerting tenant should
    /// discount capacity a notch so ingress sheds before the budget is
    /// gone.
    pub fn set_slo_pressure(&self, sim: &mut Sim, pressure: f64) {
        let clamped = pressure.clamp(f64::MIN_POSITIVE, 1.0);
        let (changed, capacity, handler) = {
            let mut inner = self.inner.borrow_mut();
            let changed = inner.slo_pressure != clamped;
            inner.slo_pressure = clamped;
            (changed, inner.capacity(), inner.on_capacity.clone())
        };
        if changed {
            if let Some(h) = handler {
                h(sim, capacity);
            }
        }
    }

    /// Every recorded transition, in order.
    pub fn events(&self) -> Vec<HealthEvent> {
        self.inner.borrow().events.clone()
    }

    /// `(node, state)` for every tracked node, sorted by node id.
    pub fn states(&self) -> Vec<(NodeId, NodeState)> {
        self.inner
            .borrow()
            .nodes
            .iter()
            .map(|(&id, t)| (NodeId(id), t.state))
            .collect()
    }

    /// Feeds one delivery failure attributed to `node` into the state
    /// machine. Call from the cluster failure dispatcher.
    pub fn on_failure(&self, sim: &mut Sim, node: NodeId) {
        let now = sim.now();
        let (went_down, capacity) = {
            let mut inner = self.inner.borrow_mut();
            let Some(track) = inner.nodes.get_mut(&node.0) else {
                return;
            };
            // A stale failure streak decays before counting the new one.
            if now.saturating_since(track.last_failure) > SUSPECT_DECAY {
                track.failures = 0;
            }
            track.failures += 1;
            track.last_failure = now;
            let (state, failures) = (track.state, track.failures);
            let went_down = match state {
                NodeState::Healthy if failures >= SUSPECT_AFTER => {
                    inner.transition(now, node, NodeState::Suspect);
                    // Straight past Suspect when one burst clears both bars.
                    let t = inner.nodes.get_mut(&node.0).expect("tracked");
                    if t.failures >= DOWN_AFTER {
                        inner.transition(now, node, NodeState::Down);
                        true
                    } else {
                        false
                    }
                }
                NodeState::Suspect if failures >= DOWN_AFTER => {
                    inner.transition(now, node, NodeState::Down);
                    true
                }
                // A failure mid-drain sends the node straight back down:
                // its routes were never restored, so no failover to redo.
                NodeState::Draining => {
                    inner.transition(now, node, NodeState::Down);
                    false
                }
                _ => false,
            };
            (went_down, inner.capacity())
        };
        if went_down {
            let (down, cap) = {
                let inner = self.inner.borrow();
                (inner.on_down.clone(), inner.on_capacity.clone())
            };
            if let Some(h) = down {
                h(sim, node);
            }
            if let Some(h) = cap {
                h(sim, capacity);
            }
        }
    }

    /// Begins an **administrative** drain of `node` (fleet controller
    /// path: decommission or upgrade). A `Healthy`/`Suspect` node enters
    /// `Draining` under an administrative hold the probe loop never
    /// auto-completes — only [`HealthMonitor::end_drain`] returns the node
    /// to service. A node that is already `Down` (crashed) takes the hold
    /// without a transition: it is already out of service, and the hold
    /// keeps the probe's crash-recovery path from restoring routes
    /// underneath the controller. Fires the capacity handler (a draining
    /// node takes no traffic). Returns `false` for untracked nodes or when
    /// a hold is already in place.
    pub fn begin_drain(&self, sim: &mut Sim, node: NodeId) -> bool {
        let now = sim.now();
        let (ok, capacity, handler) = {
            let mut inner = self.inner.borrow_mut();
            let Some(track) = inner.nodes.get_mut(&node.0) else {
                return false;
            };
            if track.admin_hold {
                return false;
            }
            track.admin_hold = true;
            track.drain_until = SimTime::MAX;
            let state = track.state;
            if matches!(state, NodeState::Healthy | NodeState::Suspect) {
                inner.transition(now, node, NodeState::Draining);
            }
            (true, inner.capacity(), inner.on_capacity.clone())
        };
        if let Some(h) = handler {
            h(sim, capacity);
        }
        ok
    }

    /// Ends an administrative drain: releases the hold and, when the node
    /// is still `Draining`, returns it to `Healthy` (failure streak
    /// cleared) and fires the capacity handler. A node that crashed
    /// mid-drain stays `Down`/recovering under the normal probe path —
    /// releasing the hold lets that path complete as usual. Route
    /// restoration is the caller's job (the controller restores routes
    /// *before* releasing, so traffic and state flip together). Returns
    /// `true` when the node re-entered `Healthy` here.
    pub fn end_drain(&self, sim: &mut Sim, node: NodeId) -> bool {
        let now = sim.now();
        let (recovered, capacity, handler) = {
            let mut inner = self.inner.borrow_mut();
            let Some(track) = inner.nodes.get_mut(&node.0) else {
                return false;
            };
            track.admin_hold = false;
            if track.state != NodeState::Draining {
                return false;
            }
            inner.transition(now, node, NodeState::Healthy);
            let t = inner.nodes.get_mut(&node.0).expect("tracked");
            t.failures = 0;
            t.drain_until = SimTime::ZERO;
            (true, inner.capacity(), inner.on_capacity.clone())
        };
        if let Some(h) = handler {
            h(sim, capacity);
        }
        recovered
    }

    /// Starts the recurring probe loop against `fabric`'s fault plane,
    /// running until `until`. Idempotent.
    pub fn start_probes(&self, sim: &mut Sim, fabric: Fabric, until: SimTime) {
        {
            let mut inner = self.inner.borrow_mut();
            if inner.probing {
                return;
            }
            inner.probing = true;
        }
        self.schedule_probe(sim, fabric, until);
    }

    fn schedule_probe(&self, sim: &mut Sim, fabric: Fabric, until: SimTime) {
        let monitor = self.clone();
        sim.schedule_after(PROBE_INTERVAL, move |sim| {
            monitor.probe_once(sim, &fabric);
            if sim.now() < until {
                monitor.schedule_probe(sim, fabric, until);
            } else {
                monitor.inner.borrow_mut().probing = false;
            }
        });
    }

    /// One probe pass: decay stale suspects, notice crashed nodes coming
    /// back up, and finish drains whose hold-down elapsed.
    pub fn probe_once(&self, sim: &mut Sim, fabric: &Fabric) {
        let now = sim.now();
        let mut recovered = Vec::new();
        let capacity = {
            let mut inner = self.inner.borrow_mut();
            let ids: Vec<u16> = inner.nodes.keys().copied().collect();
            for id in ids {
                let node = NodeId(id);
                let track = *inner.nodes.get(&id).expect("tracked");
                match track.state {
                    NodeState::Suspect
                        if now.saturating_since(track.last_failure) >= SUSPECT_DECAY =>
                    {
                        inner.transition(now, node, NodeState::Healthy);
                        inner.nodes.get_mut(&id).expect("tracked").failures = 0;
                    }
                    NodeState::Down => {
                        let up = !fabric.with_fault_plane(|fp| fp.in_outage(node, now));
                        if up {
                            inner.transition(now, node, NodeState::Draining);
                            inner.nodes.get_mut(&id).expect("tracked").drain_until = now + DRAIN;
                        }
                    }
                    // An administratively held drain never auto-completes:
                    // the fleet controller decides when the node returns.
                    NodeState::Draining if now >= track.drain_until && !track.admin_hold => {
                        inner.transition(now, node, NodeState::Healthy);
                        let t = inner.nodes.get_mut(&id).expect("tracked");
                        t.failures = 0;
                        recovered.push(node);
                    }
                    _ => {}
                }
            }
            inner.capacity()
        };
        if !recovered.is_empty() {
            let (rec, cap) = {
                let inner = self.inner.borrow();
                (inner.on_recovered.clone(), inner.on_capacity.clone())
            };
            for node in recovered {
                if let Some(h) = rec.as_ref() {
                    h(sim, node);
                }
            }
            if let Some(h) = cap {
                h(sim, capacity);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    fn monitor() -> HealthMonitor {
        HealthMonitor::new([NodeId(0), NodeId(1)])
    }

    #[test]
    fn failures_walk_healthy_suspect_down_with_handler() {
        let m = monitor();
        let mut sim = Sim::new();
        let downs: Rc<RefCell<Vec<NodeId>>> = Rc::new(RefCell::new(Vec::new()));
        let d = downs.clone();
        m.set_down_handler(Rc::new(move |_sim, n| d.borrow_mut().push(n)));
        assert_eq!(m.state_of(NodeId(1)), Some(NodeState::Healthy));
        m.on_failure(&mut sim, NodeId(1));
        assert_eq!(m.state_of(NodeId(1)), Some(NodeState::Suspect));
        m.on_failure(&mut sim, NodeId(1));
        assert_eq!(m.state_of(NodeId(1)), Some(NodeState::Suspect));
        m.on_failure(&mut sim, NodeId(1));
        assert_eq!(m.state_of(NodeId(1)), Some(NodeState::Down));
        assert_eq!(downs.borrow().as_slice(), &[NodeId(1)]);
        // The other node is untouched; capacity halves.
        assert_eq!(m.state_of(NodeId(0)), Some(NodeState::Healthy));
        assert_eq!(m.healthy_fraction(), 0.5);
    }

    #[test]
    fn suspect_decays_back_to_healthy_without_failover() {
        let m = monitor();
        let mut sim = Sim::new();
        m.on_failure(&mut sim, NodeId(0));
        assert_eq!(m.state_of(NodeId(0)), Some(NodeState::Suspect));
        // A clean decay window passes; the probe clears the suspicion.
        let fabric = Fabric::new(rdma_sim::RdmaCosts::default());
        sim.run_until(t(9_000));
        m.probe_once(&mut sim, &fabric);
        assert_eq!(m.state_of(NodeId(0)), Some(NodeState::Suspect));
        sim.run_until(t(10_000));
        m.probe_once(&mut sim, &fabric);
        assert_eq!(m.state_of(NodeId(0)), Some(NodeState::Healthy));
        // And the streak restarts from zero afterwards.
        m.on_failure(&mut sim, NodeId(0));
        m.on_failure(&mut sim, NodeId(0));
        assert_eq!(m.state_of(NodeId(0)), Some(NodeState::Suspect));
    }

    #[test]
    fn down_drains_then_recovers_via_probes() {
        let m = monitor();
        let mut sim = Sim::new();
        let fabric = Fabric::new(rdma_sim::RdmaCosts::default());
        let node = fabric.add_node();
        let node2 = fabric.add_node();
        assert_eq!((node, node2), (NodeId(0), NodeId(1)));
        // Crash window [0, 2.5ms): failures pile up, node goes down.
        fabric.schedule_node_outage(node, t(0), t(2_500));
        for _ in 0..3 {
            m.on_failure(&mut sim, node);
        }
        let recovered: Rc<RefCell<Vec<NodeId>>> = Rc::new(RefCell::new(Vec::new()));
        let r = recovered.clone();
        m.set_recovered_handler(Rc::new(move |_sim, n| r.borrow_mut().push(n)));
        m.start_probes(&mut sim, fabric.clone(), t(10_000));
        // While the outage lasts, the node stays down.
        sim.run_until(t(2_000));
        assert_eq!(m.state_of(node), Some(NodeState::Down));
        // The 3 ms probe sees it up, drains 5 ms, the 8 ms probe recovers it.
        sim.run_until(t(7_500));
        assert_eq!(m.state_of(node), Some(NodeState::Draining));
        assert!(recovered.borrow().is_empty(), "still draining");
        sim.run_until(t(8_000));
        assert_eq!(m.state_of(node), Some(NodeState::Healthy));
        assert_eq!(recovered.borrow().as_slice(), &[node]);
        assert_eq!(m.healthy_fraction(), 1.0);
    }

    #[test]
    fn failure_mid_drain_goes_straight_back_down() {
        let m = monitor();
        let mut sim = Sim::new();
        let fabric = Fabric::new(rdma_sim::RdmaCosts::default());
        let node = fabric.add_node();
        fabric.schedule_node_outage(node, t(0), t(100));
        for _ in 0..3 {
            m.on_failure(&mut sim, node);
        }
        sim.run_until(t(200));
        m.probe_once(&mut sim, &fabric);
        assert_eq!(m.state_of(node), Some(NodeState::Draining));
        m.on_failure(&mut sim, node);
        assert_eq!(m.state_of(node), Some(NodeState::Down));
    }

    #[test]
    fn capacity_handler_fires_on_loss_and_recovery() {
        let m = monitor();
        let mut sim = Sim::new();
        let caps: Rc<RefCell<Vec<f64>>> = Rc::new(RefCell::new(Vec::new()));
        let c = caps.clone();
        m.set_capacity_handler(Rc::new(move |_sim, f| c.borrow_mut().push(f)));
        let fabric = Fabric::new(rdma_sim::RdmaCosts::default());
        let node = fabric.add_node();
        fabric.schedule_node_outage(node, t(0), t(100));
        for _ in 0..3 {
            m.on_failure(&mut sim, node);
        }
        assert_eq!(caps.borrow().as_slice(), &[0.5]);
        sim.run_until(t(200));
        m.probe_once(&mut sim, &fabric); // Down → Draining
        sim.run_until(t(5_200));
        m.probe_once(&mut sim, &fabric); // Draining → Healthy
        assert_eq!(caps.borrow().as_slice(), &[0.5, 1.0]);
    }

    #[test]
    fn slo_pressure_discounts_capacity_and_fires_handler() {
        let m = monitor();
        let mut sim = Sim::new();
        let caps: Rc<RefCell<Vec<f64>>> = Rc::new(RefCell::new(Vec::new()));
        let c = caps.clone();
        m.set_capacity_handler(Rc::new(move |_sim, f| c.borrow_mut().push(f)));
        assert_eq!(m.healthy_fraction(), 1.0);
        m.set_slo_pressure(&mut sim, 0.5);
        assert_eq!(m.healthy_fraction(), 0.5, "pressure discounts capacity");
        m.set_slo_pressure(&mut sim, 0.5); // unchanged: no re-fire
        m.set_slo_pressure(&mut sim, 1.0); // alert cleared
        assert_eq!(caps.borrow().as_slice(), &[0.5, 1.0]);
        // Pressure composes with node loss.
        m.set_slo_pressure(&mut sim, 0.5);
        for _ in 0..3 {
            m.on_failure(&mut sim, NodeId(1));
        }
        assert_eq!(m.healthy_fraction(), 0.25, "half the nodes, half budget");
    }

    #[test]
    fn transitions_emit_health_event_spans_and_log() {
        let m = monitor();
        let mut sim = Sim::new();
        let tracer = obs::Tracer::enabled();
        m.set_tracer(tracer.clone());
        for _ in 0..3 {
            m.on_failure(&mut sim, NodeId(0));
        }
        let events = m.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].from, NodeState::Healthy);
        assert_eq!(events[0].to, NodeState::Suspect);
        assert_eq!(events[1].to, NodeState::Down);
        let spans = tracer
            .records()
            .iter()
            .filter(|r| r.stage == obs::Stage::HealthEvent)
            .count();
        assert_eq!(spans, 2);
    }
}
