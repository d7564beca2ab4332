//! Fleet lifecycle controller: provisioning, drains, rolling upgrades.
//!
//! `core::health` can fail a crashed node over, but nothing *manages* the
//! fleet — operators must rotate DPUs out for maintenance, roll DNE
//! upgrades across nodes, and keep tenant traffic flowing while the
//! infrastructure changes underneath it. This module is that control
//! plane:
//!
//! ```text
//!            ┌────────────── provision ──────────────┐
//!            ▼                                       │
//!      InService ── drain ──▶ Draining ──▶ Upgrading │
//!            ▲                   │            │      │
//!            │                   │            ▼      │
//!            └── routes restored ┴──── Decommissioned┘
//! ```
//!
//! A **drain** goes through the existing `Draining` health state under an
//! administrative hold: routes fail over to backups first (new work stops
//! landing), the capacity factor drops (ingress admission shrinks), and
//! the controller polls the node's engine until in-flight work quiesces
//! or the **drain deadline** expires — in-flight requests always either
//! complete or fail typed, never hang. An **upgrade wave** then walks the
//! fleet one node at a time: drain → switch the engine's CTX wire version
//! → announce the new version to every peer (see `obs::ctx` for the
//! versioned wire region) → restore routes → release the hold. Peers
//! stamp toward each node at `min(own, announced)` throughout, so
//! old/new version skew rides the wire safely for the whole rollout.
//!
//! Every routing rebalance the cluster performs feeds back in through the
//! fleet route observer — including the **stranded** keys (functions with
//! no healthy alternative) that used to be silently discarded. The
//! controller's state is read where it lives: `FleetController::{lifecycle_of,
//! wave_active, counters, events}`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use rdma_sim::NodeId;
use simcore::{Sim, SimDuration, SimTime};

use crate::cluster::{Cluster, FleetRouteEvent};
use crate::health::{HealthMonitor, NodeState};

/// Longest the controller waits for a draining node's in-flight work to
/// quiesce before proceeding anyway (the leftover work completes or fails
/// typed under the normal retry/deadline machinery).
const DRAIN_DEADLINE: SimDuration = SimDuration::from_millis(5);
/// Cadence of the drain quiesce poll.
const DRAIN_POLL: SimDuration = SimDuration::from_micros(50);
/// Simulated time a node spends restarting into the new engine version
/// (out of service, routes on backups).
const UPGRADE_DURATION: SimDuration = SimDuration::from_micros(500);
/// Pause after a node returns to service before the wave moves on — lets
/// connections and admission settle so the fleet never has two nodes out
/// at once.
const SETTLE: SimDuration = SimDuration::from_micros(200);

/// Administrative lifecycle of a node, layered over its health state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeLifecycle {
    /// Taking traffic.
    InService,
    /// Routes failed over; waiting for in-flight work to quiesce.
    Draining,
    /// Restarting into a new engine version.
    Upgrading,
    /// Rotated out of the fleet; routes stay on backups until provisioned.
    Decommissioned,
}

/// A typed fleet event, recorded in order (deterministic per seed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetEvent {
    DrainStarted {
        node: NodeId,
    },
    /// The node's engine quiesced within the deadline.
    DrainCompleted {
        node: NodeId,
    },
    /// The deadline expired with work still in flight; the controller
    /// proceeds — the leftovers complete or fail typed, never hang.
    DrainDeadlineExceeded {
        node: NodeId,
        in_flight_left: usize,
    },
    UpgradeStarted {
        node: NodeId,
        from: u8,
        to: u8,
    },
    UpgradeCompleted {
        node: NodeId,
        version: u8,
    },
    Decommissioned {
        node: NodeId,
    },
    Provisioned {
        node: NodeId,
        restored: Vec<u16>,
    },
    /// Routes moved off a node (drain or crash failover).
    Rebalanced {
        node: NodeId,
        moved: Vec<u16>,
    },
    /// Functions left with no healthy target — the keys the old
    /// `fail_over_node` call path silently dropped.
    RoutesStranded {
        node: NodeId,
        keys: Vec<u16>,
    },
    /// Displaced primaries restored onto a recovered node.
    RoutesRestored {
        node: NodeId,
        restored: Vec<u16>,
    },
    WaveStarted {
        target: u8,
    },
    WaveCompleted {
        target: u8,
        upgraded: usize,
    },
}

/// Monotonic controller counters, read through [`FleetController::counters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetCounters {
    pub drains_started: u64,
    pub drains_completed: u64,
    pub drain_deadline_exceeded: u64,
    pub upgrades_completed: u64,
    pub waves_completed: u64,
    /// Failover/restore rebalances observed via the route observer.
    pub rebalances: u64,
    /// Total stranded route keys observed across all failovers.
    pub stranded_routes: u64,
    pub decommissions: u64,
    pub provisions: u64,
}

struct WaveState {
    target: u8,
    /// Node indices still to upgrade, in order.
    queue: Vec<usize>,
    upgraded: usize,
}

struct CtlInner {
    cluster: Rc<Cluster>,
    health: HealthMonitor,
    /// Keyed by node index for deterministic iteration.
    lifecycle: BTreeMap<usize, NodeLifecycle>,
    counters: FleetCounters,
    events: Vec<FleetEvent>,
    wave: Option<WaveState>,
}

/// The fleet lifecycle controller. Cheap to clone (shared state).
#[derive(Clone)]
pub struct FleetController {
    inner: Rc<RefCell<CtlInner>>,
}

impl FleetController {
    /// Builds the controller and wires it into the cluster: registers the
    /// fleet route observer (stranded keys become typed events).
    pub fn install(cluster: &Rc<Cluster>, health: &HealthMonitor) -> FleetController {
        let lifecycle = (0..cluster.nodes.len())
            .map(|i| (i, NodeLifecycle::InService))
            .collect();
        let ctl = FleetController {
            inner: Rc::new(RefCell::new(CtlInner {
                cluster: Rc::clone(cluster),
                health: health.clone(),
                lifecycle,
                counters: FleetCounters::default(),
                events: Vec::new(),
                wave: None,
            })),
        };
        let observer = ctl.clone();
        cluster.set_fleet_route_observer(Rc::new(move |ev| observer.on_route_event(ev)));
        ctl
    }

    fn on_route_event(&self, ev: &FleetRouteEvent) {
        let mut inner = self.inner.borrow_mut();
        inner.counters.rebalances += 1;
        match ev {
            FleetRouteEvent::FailedOver(outcome) => {
                inner.events.push(FleetEvent::Rebalanced {
                    node: outcome.node,
                    moved: outcome.switched.clone(),
                });
                if !outcome.stranded.is_empty() {
                    inner.counters.stranded_routes += outcome.stranded.len() as u64;
                    inner.events.push(FleetEvent::RoutesStranded {
                        node: outcome.node,
                        keys: outcome.stranded.clone(),
                    });
                }
            }
            FleetRouteEvent::Restored { node, restored } => {
                inner.events.push(FleetEvent::RoutesRestored {
                    node: *node,
                    restored: restored.clone(),
                });
            }
        }
    }

    /// Drains node `idx` (administrative): fails routes over, drops the
    /// capacity factor, and polls the engine until in-flight work
    /// quiesces (two consecutive clean polls) or the drain deadline
    /// expires — then calls `then`. The node stays `Draining` (and held)
    /// until an upgrade, decommission or provision completes the
    /// lifecycle step.
    pub fn drain(&self, sim: &mut Sim, idx: usize, then: impl FnOnce(&mut Sim) + 'static) {
        let (node, cluster, health) = {
            let mut inner = self.inner.borrow_mut();
            let cluster = Rc::clone(&inner.cluster);
            let node = cluster.nodes[idx].id;
            inner.lifecycle.insert(idx, NodeLifecycle::Draining);
            inner.counters.drains_started += 1;
            inner.events.push(FleetEvent::DrainStarted { node });
            (node, cluster, inner.health.clone())
        };
        // Hold the health state (capacity shrinks; probes keep hands off)
        // and move routes before waiting: a drain stops new placements
        // first, then lets the in-flight tail run out.
        health.begin_drain(sim, node);
        cluster.fail_over_node(idx);
        let started = sim.now();
        self.poll_drain(sim, idx, started, 0, Box::new(then));
    }

    fn poll_drain(
        &self,
        sim: &mut Sim,
        idx: usize,
        started: SimTime,
        clean_polls: u32,
        then: Box<dyn FnOnce(&mut Sim)>,
    ) {
        let (in_flight, node) = {
            let inner = self.inner.borrow();
            (inner.cluster.in_flight_on(idx), inner.cluster.nodes[idx].id)
        };
        let clean_polls = if in_flight == 0 { clean_polls + 1 } else { 0 };
        if clean_polls >= 2 {
            let mut inner = self.inner.borrow_mut();
            inner.counters.drains_completed += 1;
            inner.events.push(FleetEvent::DrainCompleted { node });
            drop(inner);
            then(sim);
            return;
        }
        if sim.now().saturating_since(started) >= DRAIN_DEADLINE {
            let mut inner = self.inner.borrow_mut();
            inner.counters.drain_deadline_exceeded += 1;
            inner.events.push(FleetEvent::DrainDeadlineExceeded {
                node,
                in_flight_left: in_flight,
            });
            drop(inner);
            then(sim);
            return;
        }
        let ctl = self.clone();
        sim.schedule_after(DRAIN_POLL, move |sim| {
            ctl.poll_drain(sim, idx, started, clean_polls, then);
        });
    }

    /// Upgrades node `idx` to CTX wire `target`: drain, restart for
    /// `UPGRADE_DURATION` at the new version, announce the version to all
    /// peers, restore routes, release the health hold, settle, then call
    /// `then`. A node that crashed mid-drain keeps its routes on backups —
    /// the normal probe recovery restores them once the machine is truly
    /// back (at its new version either way).
    pub fn upgrade_node(
        &self,
        sim: &mut Sim,
        idx: usize,
        target: u8,
        then: impl FnOnce(&mut Sim) + 'static,
    ) {
        let ctl = self.clone();
        self.drain(sim, idx, move |sim| {
            let node = {
                let mut inner = ctl.inner.borrow_mut();
                let node = inner.cluster.nodes[idx].id;
                let from = inner.cluster.nodes[idx].dne.wire_version();
                inner.lifecycle.insert(idx, NodeLifecycle::Upgrading);
                inner.events.push(FleetEvent::UpgradeStarted {
                    node,
                    from,
                    to: target,
                });
                node
            };
            let ctl2 = ctl.clone();
            sim.schedule_after(UPGRADE_DURATION, move |sim| {
                ctl2.finish_upgrade(sim, idx, node, target, Box::new(then));
            });
        });
    }

    fn finish_upgrade(
        &self,
        sim: &mut Sim,
        idx: usize,
        node: NodeId,
        target: u8,
        then: Box<dyn FnOnce(&mut Sim)>,
    ) {
        let (cluster, health) = {
            let inner = self.inner.borrow();
            (Rc::clone(&inner.cluster), inner.health.clone())
        };
        // The restarted engine speaks the new version; every peer learns
        // it (the control-plane announcement of version negotiation).
        cluster.set_node_wire_version(idx, target);
        // Return to service only if the machine is actually drained-idle:
        // a node that crashed during the drain stays on the probe path
        // (its routes come back via the normal recovery handler).
        if health.state_of(node) == Some(NodeState::Draining) {
            cluster.restore_node(idx);
            health.end_drain(sim, node);
        } else {
            // Clear the administrative hold; the probe loop owns recovery.
            health.end_drain(sim, node);
        }
        {
            let mut inner = self.inner.borrow_mut();
            inner.lifecycle.insert(idx, NodeLifecycle::InService);
            inner.counters.upgrades_completed += 1;
            inner.events.push(FleetEvent::UpgradeCompleted {
                node,
                version: target,
            });
        }
        sim.schedule_after(SETTLE, move |sim| then(sim));
    }

    /// Rotates node `idx` out of the fleet: drain, then leave its routes
    /// on backups and mark it `Decommissioned`. The health hold stays —
    /// a decommissioned node counts against capacity until provisioned.
    pub fn decommission(&self, sim: &mut Sim, idx: usize) {
        let ctl = self.clone();
        self.drain(sim, idx, move |_sim| {
            let mut inner = ctl.inner.borrow_mut();
            let node = inner.cluster.nodes[idx].id;
            inner.lifecycle.insert(idx, NodeLifecycle::Decommissioned);
            inner.counters.decommissions += 1;
            inner.events.push(FleetEvent::Decommissioned { node });
        });
    }

    /// Brings a decommissioned node back into service: restores its
    /// routes, releases the health hold and marks it `InService`.
    pub fn provision(&self, sim: &mut Sim, idx: usize) {
        let (node, cluster, health, was) = {
            let inner = self.inner.borrow();
            let cluster = Rc::clone(&inner.cluster);
            (
                cluster.nodes[idx].id,
                cluster,
                inner.health.clone(),
                inner.lifecycle.get(&idx).copied(),
            )
        };
        if was != Some(NodeLifecycle::Decommissioned) {
            return;
        }
        let restored = cluster.restore_node(idx);
        health.end_drain(sim, node);
        let mut inner = self.inner.borrow_mut();
        inner.lifecycle.insert(idx, NodeLifecycle::InService);
        inner.counters.provisions += 1;
        inner
            .events
            .push(FleetEvent::Provisioned { node, restored });
    }

    /// Starts a rolling upgrade wave to CTX wire `target`: every
    /// `InService` node, one at a time in index order, goes through
    /// drain → restart-at-new-version → re-announce → restore. At most
    /// one node is out of service at any moment. No-op if a wave is
    /// already running.
    pub fn start_upgrade_wave(&self, sim: &mut Sim, target: u8) {
        {
            let mut inner = self.inner.borrow_mut();
            if inner.wave.is_some() {
                return;
            }
            let queue: Vec<usize> = inner
                .lifecycle
                .iter()
                .filter(|(_, l)| **l == NodeLifecycle::InService)
                .map(|(&i, _)| i)
                .collect();
            inner.wave = Some(WaveState {
                target,
                queue,
                upgraded: 0,
            });
            inner.events.push(FleetEvent::WaveStarted { target });
        }
        self.step_wave(sim);
    }

    fn step_wave(&self, sim: &mut Sim) {
        let next = {
            let mut inner = self.inner.borrow_mut();
            let Some(wave) = inner.wave.as_mut() else {
                return;
            };
            if wave.queue.is_empty() {
                let (target, upgraded) = (wave.target, wave.upgraded);
                inner.wave = None;
                inner.counters.waves_completed += 1;
                inner
                    .events
                    .push(FleetEvent::WaveCompleted { target, upgraded });
                None
            } else {
                let idx = wave.queue.remove(0);
                wave.upgraded += 1;
                Some((idx, wave.target))
            }
        };
        if let Some((idx, target)) = next {
            // The continuation re-enters `step_wave` after the settle
            // pause, so the wave strictly serializes.
            let ctl = self.clone();
            self.upgrade_node(sim, idx, target, move |sim| ctl.step_wave(sim));
        }
    }

    /// Whether an upgrade wave is in progress.
    pub fn wave_active(&self) -> bool {
        self.inner.borrow().wave.is_some()
    }

    /// Current administrative lifecycle of node `idx`.
    pub fn lifecycle_of(&self, idx: usize) -> Option<NodeLifecycle> {
        self.inner.borrow().lifecycle.get(&idx).copied()
    }

    /// Controller counters (monotonic).
    pub fn counters(&self) -> FleetCounters {
        self.inner.borrow().counters
    }

    /// Every recorded fleet event, in order (deterministic per seed).
    pub fn events(&self) -> Vec<FleetEvent> {
        self.inner.borrow().events.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig};
    use membuf::tenant::TenantId;
    use runtime::ChainSpec;
    use simcore::SimDuration;

    fn harness() -> (
        Sim,
        Rc<Cluster>,
        crate::health::HealthMonitor,
        FleetController,
    ) {
        let mut sim = Sim::new();
        let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
        let tenant = TenantId(1);
        cluster.add_tenant(&mut sim, tenant, 1).unwrap();
        let chain = ChainSpec::new("echo", tenant, vec![1, 2, 1]);
        cluster.place_with_backup(1, 0, 1);
        cluster.place_with_backup(2, 1, 0);
        cluster.register_chain(&chain, |_| SimDuration::from_micros(5), Rc::new(|_, _| {}));
        let cluster = Rc::new(cluster);
        let until = sim.now() + SimDuration::from_millis(200);
        let monitor = cluster.enable_health_monitor(&mut sim, until);
        let ctl = FleetController::install(&cluster, &monitor);
        (sim, cluster, monitor, ctl)
    }

    #[test]
    fn wave_visits_only_in_service_nodes() {
        let (mut sim, cluster, _monitor, ctl) = harness();
        for idx in 0..cluster.nodes.len() {
            cluster.set_node_wire_version(idx, obs::CTX_V1);
        }
        ctl.decommission(&mut sim, 1);
        sim.run_for(SimDuration::from_millis(10));
        assert_eq!(ctl.lifecycle_of(1), Some(NodeLifecycle::Decommissioned));
        ctl.start_upgrade_wave(&mut sim, obs::CTX_V2);
        sim.run();
        let c = ctl.counters();
        assert_eq!(c.waves_completed, 1);
        assert_eq!(c.upgrades_completed, 1, "wave touched the parked node");
        assert_eq!(cluster.nodes[0].dne.wire_version(), obs::CTX_V2);
        assert_ne!(cluster.nodes[1].dne.wire_version(), obs::CTX_V2);
        assert!(ctl
            .events()
            .iter()
            .any(|e| matches!(e, FleetEvent::WaveCompleted { upgraded: 1, .. })));
    }

    #[test]
    fn second_wave_start_is_a_noop_while_active() {
        let (mut sim, cluster, _monitor, ctl) = harness();
        ctl.start_upgrade_wave(&mut sim, obs::CTX_V2);
        assert!(ctl.wave_active());
        ctl.start_upgrade_wave(&mut sim, obs::CTX_V1);
        sim.run();
        assert!(!ctl.wave_active());
        assert_eq!(ctl.counters().waves_completed, 1);
        for node in cluster.nodes.iter() {
            assert_eq!(node.dne.wire_version(), obs::CTX_V2);
        }
        let starts = ctl
            .events()
            .iter()
            .filter(|e| matches!(e, FleetEvent::WaveStarted { .. }))
            .count();
        assert_eq!(starts, 1);
    }

    #[test]
    fn provision_requires_decommissioned() {
        let (mut sim, _cluster, _monitor, ctl) = harness();
        assert_eq!(ctl.lifecycle_of(0), Some(NodeLifecycle::InService));
        ctl.provision(&mut sim, 0);
        assert_eq!(ctl.counters().provisions, 0);
        assert!(ctl.events().is_empty());
    }

    #[test]
    fn lifecycle_tracks_decommission_and_provision() {
        let (mut sim, _cluster, _monitor, ctl) = harness();
        let lifecycles = |ctl: &FleetController| [0, 1].map(|i| ctl.lifecycle_of(i));
        let in_service = Some(NodeLifecycle::InService);
        assert_eq!(lifecycles(&ctl), [in_service; 2]);
        ctl.decommission(&mut sim, 1);
        sim.run_for(SimDuration::from_millis(10));
        let decommissioned = Some(NodeLifecycle::Decommissioned);
        assert_eq!(lifecycles(&ctl), [in_service, decommissioned]);
        ctl.provision(&mut sim, 1);
        assert_eq!(lifecycles(&ctl), [in_service; 2]);
    }
}
