//! The control plane: node health, failover and the fleet lifecycle.
//!
//! Delivery failures the cluster's outcome path reports walk the health
//! state of the node they were aimed at, when the core finds them credible,
//! and probes of the fabric's fault plane notice a crashed machine back.
//! Drains, upgrades, decommissions and rolling upgrade waves move nodes
//! through their administrative lifecycle while tenant traffic keeps
//! flowing: routes fail over to backups before a node leaves service and
//! come home when it returns, and every change of the effective capacity
//! (the share of nodes taking traffic) feeds the gateway's admission
//! control. During a wave, peers stamp toward each node at
//! `min(own, announced)` CTX wire version (see `obs::ctx`), so version skew
//! rides the wire safely.
//!
//! The state machine is the `core` submodule, which never sees the
//! simulator; this module is [`ControlPlane`], one handle over it, and its
//! [`Machine`] impl (DESIGN.md §12).

mod core;

use std::cell::RefCell;
use std::rc::{Rc, Weak};

use dne::types::DeliveryFailure;
use ingress::Gateway;
use rdma_sim::NodeId;
use simcore::{Driver, Machine, Sim, SimTime, Sink};

use self::core::{Core, Host, Input, Moved, Output};
pub use self::core::{FleetCounters, FleetEvent, HealthEvent, NodeLifecycle, NodeState};
use crate::cluster::Cluster;

/// What a [`ControlPlane`] points at: the state machine, the cluster it
/// steers and the gateway its capacity feeds. The cluster is held weakly:
/// the cluster holds the control plane, so a strong reference back would
/// keep both alive for good.
struct Plane {
    core: RefCell<Core>,
    cluster: Weak<Cluster>,
    gateway: Option<Gateway>,
}

impl Host for Cluster {
    fn up(&self, node: NodeId, now: SimTime) -> bool {
        !self.fabric.in_outage(node, now)
    }

    fn in_flight(&self, idx: usize) -> usize {
        self.nodes[idx].dne.inflight_total()
    }

    fn wire_version(&self, idx: usize) -> u8 {
        self.nodes[idx].dne.wire_version()
    }
}

/// Every output is applied as the core emits it, and a `FailOver` or
/// `Restore` answers with what it moved: none of them calls back into the
/// control plane, so nothing waits for the step to return.
impl Machine for Plane {
    type In = Input;
    type Out = Output;
    type Answer = Moved;

    /// Once the cluster is gone there is nothing left to steer: the input
    /// is dropped.
    fn step(&self, now: SimTime, input: Input, sink: &mut Sink<'_, Self>) {
        if let Some(cluster) = self.cluster.upgrade() {
            let out = &mut |output| sink.put(output);
            self.core.borrow_mut().step(now, input, &*cluster, out);
        }
    }

    fn apply(d: &Rc<Driver<Self>>, sim: &mut Sim, output: Output) -> Result<Moved, Output> {
        // The step that emitted the output holds the cluster.
        let Some(cluster) = d.cluster.upgrade() else {
            return Ok(Moved::default());
        };
        match output {
            Output::At(at, input) => d.schedule(sim, at, input),
            Output::FailOver(idx) => {
                let outcome = cluster.fail_over_node(idx);
                let (keys, stranded) = (outcome.switched, outcome.stranded);
                return Ok(Moved { keys, stranded });
            }
            Output::Restore(idx) => {
                let keys = cluster.restore_node(idx);
                let stranded = Vec::new();
                return Ok(Moved { keys, stranded });
            }
            Output::WireVersion(idx, version) => cluster.set_node_wire_version(idx, version),
            Output::Capacity(factor) => {
                if let Some(gw) = &d.gateway {
                    gw.set_capacity_factor(factor);
                }
            }
        }
        Ok(Moved::default())
    }

    /// Never called: `apply` hands nothing back.
    fn settle(_: &Rc<Driver<Self>>, _: &mut Sim, _: Output) {}
}

/// The cluster's control plane: health, failover and the fleet lifecycle
/// behind one handle. Cheap to clone (one shared driver).
#[derive(Clone)]
pub struct ControlPlane {
    inner: Rc<Driver<Plane>>,
}

impl ControlPlane {
    /// Starts the control plane of `cluster`. Credible transport failures
    /// its outcome path reports walk their target node's health state
    /// (`Healthy → Suspect → Down → Draining → Healthy`): entering `Down`
    /// fails every backed-up function over ([`Cluster::fail_over_node`]),
    /// and recovery — seen by fault-plane probes every millisecond until
    /// `until` — restores them after the hold-down. Every change of the
    /// effective capacity feeds `gateway`'s admission control.
    ///
    /// Call after every [`Cluster::place_with_backup`].
    pub fn start(
        sim: &mut Sim,
        cluster: &Rc<Cluster>,
        until: SimTime,
        gateway: Option<&Gateway>,
    ) -> ControlPlane {
        let nodes = cluster.nodes.iter().map(|n| n.id);
        let inner = Driver::new(Plane {
            core: RefCell::new(Core::new(nodes, cluster.tracer(), until)),
            cluster: Rc::downgrade(cluster),
            gateway: gateway.cloned(),
        });
        let control = ControlPlane { inner };
        cluster.set_control_plane(control.clone());
        control.inner.run(sim, |plane, now, sink| {
            plane
                .core
                .borrow()
                .start(now, &mut |output| sink.put(output));
        });
        control
    }

    /// A failure engine `reporter` gave up on; the core judges its credibility.
    pub(crate) fn failed(&self, sim: &mut Sim, reporter: NodeId, failure: DeliveryFailure) {
        let input = Input::Failed(reporter, failure.dst_node, failure.reason);
        self.inner.drive(sim, input);
    }

    /// Upgrades node `idx` to CTX wire `target`: drain, restart for 500 µs
    /// at the new version, announce it to every peer, restore routes and
    /// return to service. Refused unless the node is in service. A node
    /// that crashed mid-drain keeps its routes on backups: the probe
    /// restores them once the machine is truly back (at its new version
    /// either way).
    pub fn upgrade_node(&self, sim: &mut Sim, idx: usize, target: u8) {
        self.inner.drive(sim, Input::Upgrade(idx, target));
    }

    /// Rotates node `idx` out of the fleet: drain, then leave its routes on
    /// backups. It counts against capacity until provisioned. Refused
    /// unless the node is in service.
    pub fn decommission(&self, sim: &mut Sim, idx: usize) {
        self.inner.drive(sim, Input::Decommission(idx));
    }

    /// Brings a decommissioned node back into service: its routes come home
    /// and it is healthy again. Refused unless the node is decommissioned.
    pub fn provision(&self, sim: &mut Sim, idx: usize) {
        self.inner.drive(sim, Input::Provision(idx));
    }

    /// Starts a rolling upgrade wave to CTX wire `target`: every in-service
    /// node, one at a time in index order, goes through drain →
    /// restart at the new version → re-announce → restore; a node that
    /// leaves service before its turn is skipped. The wave never has two
    /// nodes out of service. No-op while a wave runs.
    pub fn start_upgrade_wave(&self, sim: &mut Sim, target: u8) {
        self.inner.drive(sim, Input::StartWave(target));
    }

    /// Starts the wave of [`ControlPlane::start_upgrade_wave`] at `at`.
    pub fn start_upgrade_wave_at(&self, sim: &mut Sim, at: SimTime, target: u8) {
        self.inner.schedule(sim, at, Input::StartWave(target));
    }

    /// Health state of `node` (`None` if the cluster has no such node).
    pub fn state_of(&self, node: NodeId) -> Option<NodeState> {
        self.inner.core.borrow().state_of(node)
    }

    /// `(node, state)` for every node, in index order.
    pub fn states(&self) -> Vec<(NodeId, NodeState)> {
        self.inner.core.borrow().states()
    }

    /// The effective capacity fraction in `(0, 1]`: the fraction of nodes
    /// taking traffic (`Healthy` or `Suspect`), discounted by SLO pressure.
    pub fn healthy_fraction(&self) -> f64 {
        self.inner.core.borrow().capacity()
    }

    /// Every health transition, in order.
    pub fn health_events(&self) -> Vec<HealthEvent> {
        self.inner.core.borrow().health.clone()
    }

    /// Administrative lifecycle of node `idx`.
    pub fn lifecycle_of(&self, idx: usize) -> Option<NodeLifecycle> {
        self.inner.core.borrow().lifecycle_of(idx)
    }

    /// Whether an upgrade wave is in progress.
    pub fn wave_active(&self) -> bool {
        self.inner.core.borrow().wave_active()
    }

    /// The fleet counters, counted from the fleet event log.
    pub fn counters(&self) -> FleetCounters {
        FleetCounters::of(&self.inner.core.borrow().fleet)
    }

    /// Every fleet event, in order (deterministic per seed).
    pub fn fleet_events(&self) -> Vec<FleetEvent> {
        self.inner.core.borrow().fleet.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use membuf::tenant::TenantId;
    use runtime::ChainSpec;
    use simcore::SimDuration;

    /// Two nodes, each the other's backup, under a control plane.
    fn harness() -> (Sim, Rc<Cluster>, ControlPlane) {
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
        let control = ControlPlane::start(&mut sim, &cluster, until, None);
        (sim, cluster, control)
    }

    /// A wave upgrades only the nodes still in service when their turn
    /// comes: node 1, decommissioned before the wave starts or at the same
    /// instant (while the wave drains node 0), is skipped and stays
    /// decommissioned.
    #[test]
    fn wave_visits_only_in_service_nodes() {
        for decommission_first in [true, false] {
            let (mut sim, cluster, control) = harness();
            for idx in 0..cluster.nodes.len() {
                cluster.set_node_wire_version(idx, obs::CTX_V1);
            }
            if decommission_first {
                control.decommission(&mut sim, 1);
                sim.run_for(SimDuration::from_millis(10));
                assert_eq!(control.lifecycle_of(1), Some(NodeLifecycle::Decommissioned));
            }
            control.start_upgrade_wave(&mut sim, obs::CTX_V2);
            if !decommission_first {
                control.decommission(&mut sim, 1);
            }
            sim.run();
            let c = control.counters();
            assert_eq!(c.waves_completed, 1);
            assert_eq!(c.upgrades_completed, 1, "wave touched the parked node");
            assert_eq!((c.drains_started, c.provisions), (2, 0));
            assert_eq!(control.lifecycle_of(1), Some(NodeLifecycle::Decommissioned));
            let node1 = control.state_of(cluster.nodes[1].id);
            assert_eq!(node1, Some(NodeState::Draining));
            assert_eq!(cluster.nodes[0].dne.wire_version(), obs::CTX_V2);
            assert_ne!(cluster.nodes[1].dne.wire_version(), obs::CTX_V2);
            let target = obs::CTX_V2;
            let done = FleetEvent::WaveCompleted {
                target,
                upgraded: 1,
            };
            assert!(control.fleet_events().contains(&done));
        }
    }

    #[test]
    fn second_wave_start_is_a_noop_while_active() {
        let (mut sim, cluster, control) = harness();
        control.start_upgrade_wave(&mut sim, obs::CTX_V2);
        assert!(control.wave_active());
        control.start_upgrade_wave(&mut sim, obs::CTX_V1);
        sim.run();
        assert!(!control.wave_active());
        assert_eq!(control.counters().waves_completed, 1);
        for node in cluster.nodes.iter() {
            assert_eq!(node.dne.wire_version(), obs::CTX_V2);
        }
        let starts = control
            .fleet_events()
            .iter()
            .filter(|e| matches!(e, FleetEvent::WaveStarted { .. }))
            .count();
        assert_eq!(starts, 1);
    }

    #[test]
    fn provision_requires_decommissioned() {
        let (mut sim, _cluster, control) = harness();
        assert_eq!(control.lifecycle_of(0), Some(NodeLifecycle::InService));
        control.provision(&mut sim, 0);
        assert_eq!(control.counters().provisions, 0);
        assert!(control.fleet_events().is_empty());
    }

    #[test]
    fn lifecycle_tracks_decommission_and_provision() {
        let (mut sim, _cluster, control) = harness();
        let lifecycles = |control: &ControlPlane| [0, 1].map(|i| control.lifecycle_of(i));
        let in_service = Some(NodeLifecycle::InService);
        assert_eq!(lifecycles(&control), [in_service; 2]);
        control.decommission(&mut sim, 1);
        sim.run_for(SimDuration::from_millis(10));
        let decommissioned = Some(NodeLifecycle::Decommissioned);
        assert_eq!(lifecycles(&control), [in_service, decommissioned]);
        control.provision(&mut sim, 1);
        assert_eq!(lifecycles(&control), [in_service; 2]);
    }

    /// Upgrading or decommissioning a node out of service is refused: no
    /// log, no counter and no wire version moves.
    #[test]
    fn a_node_out_of_service_refuses_a_drain() {
        let (mut sim, cluster, control) = harness();
        cluster.set_node_wire_version(1, obs::CTX_V1);
        control.decommission(&mut sim, 1);
        sim.run_for(SimDuration::from_millis(10));
        let fleet = control.fleet_events();
        let health = control.health_events();
        let counters = control.counters();
        control.upgrade_node(&mut sim, 1, obs::CTX_V2);
        control.decommission(&mut sim, 1);
        sim.run_for(SimDuration::from_millis(10));
        assert_eq!(control.fleet_events(), fleet);
        assert_eq!(control.health_events(), health);
        assert_eq!(control.counters(), counters);
        assert_eq!(control.lifecycle_of(1), Some(NodeLifecycle::Decommissioned));
        assert_eq!(cluster.nodes[1].dne.wire_version(), obs::CTX_V1);
    }
}
