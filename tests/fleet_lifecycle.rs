//! Fleet lifecycle tests: versioned wire interop, administrative drains
//! and the rolling upgrade wave.
//!
//! Three properties anchor the fleet controller:
//!
//! 1. **Version skew is safe on the wire.** A v2 engine stamps v1 toward a
//!    v1 peer (and parses v1 payloads), in both directions, including the
//!    retry-repost path under wire loss — verified end to end on a live
//!    cluster.
//! 2. **Drains never hang a request.** Work posted just before an
//!    administrative drain completes or fails typed; routes come back only
//!    after the drain hold completes, never mid-drain.
//! 3. **A rolling upgrade wave is survivable and deterministic.** The
//!    full boutique topology under a concurrent upgrade wave, crash window
//!    and rogue tenant: zero hung requests, >= 80% compliant goodput vs
//!    the fault-free same-seed run, and byte-identical same-seed outcomes —
//!    at every seed of the matrix ([`SEEDS`]).

use std::cell::RefCell;
use std::rc::Rc;

use ingress::{AdmissionConfig, Gateway, GatewayConfig};
use membuf::tenant::TenantId;
use nadino::cluster::{Cluster, ClusterConfig};
use nadino::experiment::upgrade::{scenario, UpgradeOutcome};
use nadino::{ControlPlane, FleetEvent, NodeLifecycle};
use rdma_sim::FaultPlane;
use runtime::ChainSpec;
use simcore::rng::SEEDS;
use simcore::{Sim, SimDuration};

// ---------------------------------------------------------------------------
// Mixed-version wire interop.
// ---------------------------------------------------------------------------

/// Runs a 1→2→1 chain between a node at `v_entry` and a node at `v_mid`
/// under 5% wire loss (exercising the retry-repost restamp path), with a
/// generous deadline stamped at injection. Returns
/// `(completed, failed, retries, effective_0_to_1, effective_1_to_0)`.
fn skew_run(v_entry: u8, v_mid: u8) -> (Vec<u64>, Vec<u64>, u64, u8, u8) {
    let mut sim = Sim::new();
    let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
    let tracer = obs::Tracer::enabled();
    cluster.set_tracer(&tracer);
    let tenant = TenantId(1);
    cluster.add_tenant(&mut sim, tenant, 1).unwrap();
    let chain = ChainSpec::new("echo", tenant, vec![1, 2, 1]);
    cluster.place(1, 0);
    cluster.place(2, 1);
    // Announce the skew before any traffic: the control-plane half of
    // version negotiation.
    cluster.set_node_wire_version(0, v_entry);
    cluster.set_node_wire_version(1, v_mid);

    let completed: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    let failed: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    let c2 = completed.clone();
    cluster.register_chain(
        &chain,
        |_| SimDuration::from_micros(5),
        Rc::new(move |_sim, req| c2.borrow_mut().push(req)),
    );
    let f2 = failed.clone();
    cluster.set_delivery_failure_handler(Rc::new(move |_sim, failure| {
        f2.borrow_mut().push(failure.req_id);
    }));

    let mut fp = FaultPlane::new(0xBEEF);
    fp.set_default_loss(0.05);
    cluster.fabric.install_fault_plane(fp);

    let deadline = sim.now() + SimDuration::from_secs(1);
    for i in 0..100 {
        assert!(
            cluster.inject_with_deadline(&mut sim, &chain, 1_000 + i, 256, deadline),
            "entry pool exhausted at request {i}"
        );
        sim.run_for(SimDuration::from_micros(50));
    }
    sim.run();

    let retries: u64 = cluster.nodes.iter().map(|n| n.dne.stats().retries).sum();
    let eff01 = cluster.nodes[0]
        .dne
        .effective_wire_version(cluster.nodes[1].id);
    let eff10 = cluster.nodes[1]
        .dne
        .effective_wire_version(cluster.nodes[0].id);
    let completed = completed.borrow().clone();
    let failed = failed.borrow().clone();
    (completed, failed, retries, eff01, eff10)
}

/// An upgraded (v2) entry node drives a chain through a v1 peer: every
/// request terminates, retries restamp at the downgraded version, and both
/// engines agree on the negotiated wire version (min of the pair).
#[test]
fn v2_node_interoperates_with_v1_peer() {
    let (completed, failed, retries, eff01, eff10) = skew_run(obs::CTX_V2, obs::CTX_V1);
    assert_eq!(eff01, obs::CTX_V1, "v2 stamps down toward a v1 peer");
    assert_eq!(eff10, obs::CTX_V1, "v1 stamps v1 regardless of the peer");
    assert!(retries > 0, "wire loss never exercised the retry restamp");
    assert_eq!(
        completed.len() + failed.len(),
        100,
        "requests hung under v2->v1 skew"
    );
    assert!(completed.len() >= 95, "skew broke delivery itself");
}

/// The reverse skew: a v1 entry node through an upgraded v2 peer. The v2
/// engine parses the v1 prefix and never interprets the (absent) deadline
/// region of v1 payloads.
#[test]
fn v1_node_interoperates_with_v2_peer() {
    let (completed, failed, retries, eff01, eff10) = skew_run(obs::CTX_V1, obs::CTX_V2);
    assert_eq!(eff01, obs::CTX_V1);
    assert_eq!(eff10, obs::CTX_V1, "v2 stamps down toward the v1 peer");
    assert!(retries > 0);
    assert_eq!(
        completed.len() + failed.len(),
        100,
        "requests hung under v1->v2 skew"
    );
    assert!(completed.len() >= 95);
}

/// Homogeneous v2 control: the same run with no skew completes and
/// negotiates v2 on both directions.
#[test]
fn homogeneous_v2_negotiates_v2() {
    let (completed, failed, _, eff01, eff10) = skew_run(obs::CTX_V2, obs::CTX_V2);
    assert_eq!((eff01, eff10), (obs::CTX_V2, obs::CTX_V2));
    assert_eq!(completed.len() + failed.len(), 100);
}

// ---------------------------------------------------------------------------
// Administrative drain semantics.
// ---------------------------------------------------------------------------

/// A request posted just before an administrative drain either completes
/// or fails typed — never hangs — and the drained node's routes are
/// restored only after the drain completed, by the upgrade step.
#[test]
fn drain_with_in_flight_request_completes_or_fails_typed() {
    let mut sim = Sim::new();
    let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
    let tenant = TenantId(1);
    cluster.add_tenant(&mut sim, tenant, 1).unwrap();
    let chain = ChainSpec::new("echo", tenant, vec![1, 2, 1]);
    cluster.place_with_backup(1, 0, 1);
    cluster.place_with_backup(2, 1, 0);
    let cluster = Rc::new(cluster);

    let completed: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    let failed: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    let c2 = completed.clone();
    cluster.register_chain(
        &chain,
        |_| SimDuration::from_micros(20),
        Rc::new(move |_sim, req| c2.borrow_mut().push(req)),
    );
    let f2 = failed.clone();
    cluster.set_delivery_failure_handler(Rc::new(move |_sim, failure| {
        f2.borrow_mut().push(failure.req_id);
    }));

    let until = sim.now() + SimDuration::from_millis(100);
    let control = ControlPlane::start(&mut sim, &cluster, until, None);

    // Post a request, then start the drain in the same instant: the
    // request is in flight toward node 1 when its routes move.
    assert!(cluster.inject(&mut sim, &chain, 42, 256));
    control.upgrade_node(&mut sim, 1, obs::CTX_V2);

    // Routes moved off node 1 immediately (stop new placements first).
    assert_eq!(cluster.node_index_of(2), Some(0), "fn 2 failed over");
    assert_eq!(control.lifecycle_of(1), Some(NodeLifecycle::Draining));

    sim.run();

    // The in-flight request terminated exactly once.
    let done = completed.borrow().contains(&42);
    let lost = failed.borrow().contains(&42);
    assert!(done || lost, "request 42 hung across the drain");
    assert!(!(done && lost), "request 42 terminated twice");

    // The node came back: routes restored, upgraded, back in service.
    assert_eq!(cluster.node_index_of(2), Some(1), "routes restored");
    assert_eq!(control.lifecycle_of(1), Some(NodeLifecycle::InService));
    assert_eq!(cluster.nodes[1].dne.wire_version(), obs::CTX_V2);
    let c = control.counters();
    assert_eq!(c.drains_started, 1);
    assert_eq!(c.upgrades_completed, 1);
    assert_eq!(
        c.drains_completed + c.drain_deadline_exceeded,
        1,
        "drain neither quiesced nor timed out"
    );

    // Ordering: routes restored strictly after the drain finished.
    let events = control.fleet_events();
    let pos = |pred: &dyn Fn(&FleetEvent) -> bool| events.iter().position(pred);
    let drain_end = pos(&|e| {
        matches!(
            e,
            FleetEvent::DrainCompleted { .. } | FleetEvent::DrainDeadlineExceeded { .. }
        )
    })
    .expect("drain ended");
    let restored =
        pos(&|e| matches!(e, FleetEvent::RoutesRestored { .. })).expect("routes were restored");
    let rebalanced =
        pos(&|e| matches!(e, FleetEvent::Rebalanced { .. })).expect("drain rebalanced routes");
    assert!(rebalanced < drain_end, "routes move before the drain wait");
    assert!(
        restored > drain_end,
        "routes restored mid-drain: {events:?}"
    );
}

/// The probe loop keeps its hands off an administrative drain: the node
/// stays `Draining` past every probe interval and hold-down until the
/// controller releases it. Capacity shrinks while held and recovers on
/// release (decommission → provision round trip), at the gateway too.
#[test]
fn admin_drain_holds_until_released() {
    let mut sim = Sim::new();
    let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
    let tenant = TenantId(1);
    cluster.add_tenant(&mut sim, tenant, 1).unwrap();
    let chain = ChainSpec::new("echo", tenant, vec![1, 2, 1]);
    cluster.place_with_backup(1, 0, 1);
    cluster.place_with_backup(2, 1, 0);
    cluster.register_chain(&chain, |_| SimDuration::from_micros(5), Rc::new(|_, _| {}));
    let cluster = Rc::new(cluster);
    let gateway = Gateway::new(GatewayConfig {
        admission: Some(AdmissionConfig::default()),
        ..GatewayConfig::default()
    });

    let until = sim.now() + SimDuration::from_millis(100);
    let control = ControlPlane::start(&mut sim, &cluster, until, Some(&gateway));

    control.decommission(&mut sim, 1);
    assert_eq!(
        gateway.capacity_factor(),
        Some(0.5),
        "the drain fed 1/2 to the gateway"
    );
    // Far past the default 5ms hold-down and every probe tick: the
    // administrative hold keeps the node out of service.
    sim.run_for(SimDuration::from_millis(40));
    assert_eq!(
        control.state_of(cluster.nodes[1].id),
        Some(nadino::NodeState::Draining),
        "probe auto-completed an administrative drain"
    );
    assert_eq!(control.lifecycle_of(1), Some(NodeLifecycle::Decommissioned));
    assert_eq!(cluster.node_index_of(2), Some(0), "routes stay on backups");
    assert_eq!(
        control.healthy_fraction(),
        0.5,
        "drain shrank capacity to 1/2"
    );

    control.provision(&mut sim, 1);
    assert_eq!(
        control.state_of(cluster.nodes[1].id),
        Some(nadino::NodeState::Healthy)
    );
    assert_eq!(control.lifecycle_of(1), Some(NodeLifecycle::InService));
    assert_eq!(cluster.node_index_of(2), Some(1), "routes restored");
    assert_eq!(control.healthy_fraction(), 1.0);
    assert_eq!(
        gateway.capacity_factor(),
        Some(1.0),
        "the provision fed 1 to the gateway"
    );
    let c = control.counters();
    assert_eq!((c.decommissions, c.provisions), (1, 1));
}

// ---------------------------------------------------------------------------
// The rolling upgrade wave over the boutique topology, with chaos riders.
// ---------------------------------------------------------------------------

const FLEET_TICKS: u32 = 400;

/// One fleet run: the `upgrade` experiment's scenario — the boutique
/// topology, a compliant and a rogue tenant behind the gateway, an optional
/// rolling upgrade `wave` and an optional node-1 `crash` inside it — at the
/// full tick budget. The experiment digests the outcome; these tests assert
/// on it.
fn fleet_run(seed: u64, wave: bool, crash: bool) -> UpgradeOutcome {
    scenario(seed, FLEET_TICKS, wave, crash)
}

/// The headline acceptance run: a full rolling upgrade wave over the
/// boutique topology while a crash window and a rogue tenant run
/// concurrently. Zero hung requests, the wave lands every node on v2, and
/// the compliant tenant keeps >= 80% of its fault-free same-seed goodput.
#[test]
fn upgrade_wave_with_crash_and_rogue_tenant_degrades_gracefully() {
    for seed in SEEDS {
        let faultfree = fleet_run(seed, false, false);
        let chaotic = fleet_run(seed, true, true);

        for out in [&faultfree, &chaotic] {
            assert_eq!(
                out.resolved, out.issued,
                "requests hung: {} of {} resolved (seed {seed:#x})",
                out.resolved, out.issued
            );
            assert_eq!(out.pending_replies, 0, "replies leaked in the pending map");
        }
        assert!(chaotic.outage_drops > 0, "crash window never fired");
        assert_eq!(faultfree.outage_drops, 0);

        // The wave finished: every node upgraded exactly once, in one wave,
        // and ended at v2. The no-wave run stayed at v1.
        assert_eq!(chaotic.counters.waves_completed, 1);
        assert_eq!(chaotic.counters.upgrades_completed, 3);
        assert_eq!(chaotic.versions, vec![obs::CTX_V2; 3], "seed {seed:#x}");
        assert_eq!(faultfree.versions, vec![obs::CTX_V1; 3]);
        assert!(chaotic
            .fleet_events
            .iter()
            .any(|e| matches!(e, FleetEvent::WaveCompleted { upgraded: 3, .. })));
        assert!(
            chaotic.counters.rebalances > 0,
            "wave drains never rebalanced routes"
        );

        // Administrative drains went through the Draining health state.
        assert!(
            chaotic
                .health
                .iter()
                .any(|e| e.contains("Healthy->Draining")),
            "no admin drain transition: {:?}",
            chaotic.health
        );
        assert!(faultfree.health.is_empty(), "{:?}", faultfree.health);

        // Graceful degradation: wave + crash + rogue costs the compliant
        // tenant at most 20% of its fault-free goodput on the same seed.
        assert!(
            chaotic.compliant.completed as f64 >= 0.8 * faultfree.compliant.completed as f64,
            "compliant goodput collapsed: {} chaotic vs {} fault-free (seed {seed:#x})",
            chaotic.compliant.completed,
            faultfree.compliant.completed
        );

        // Weight-aware shedding still favors the compliant tenant.
        for out in [&faultfree, &chaotic] {
            assert!(
                out.rogue.shed > out.compliant.shed,
                "rogue shed {} vs compliant {}",
                out.rogue.shed,
                out.compliant.shed
            );
        }
    }
}

/// The wave run — control plane, gateway, fault plane and
/// all — is part of the deterministic surface: same seed, byte-identical
/// outcome including the flight-recorder dump and the fleet event log.
#[test]
fn fleet_run_is_deterministic_per_seed() {
    for seed in SEEDS {
        let a = fleet_run(seed, true, true);
        let b = fleet_run(seed, true, true);
        assert_eq!(a, b, "same-seed fleet runs diverged (seed {seed:#x})");
    }
}

/// The health and fleet levels are read where they live — the control
/// plane, the engines — not sampled: `sample_obs` writes none of them,
/// and no total either.
#[test]
fn fleet_levels_are_read_from_their_homes() {
    let mut sim = Sim::new();
    let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
    let tenant = TenantId(1);
    cluster.add_tenant(&mut sim, tenant, 1).unwrap();
    let chain = ChainSpec::new("echo", tenant, vec![1, 2, 1]);
    cluster.place_with_backup(1, 0, 1);
    cluster.place_with_backup(2, 1, 0);
    cluster.register_chain(&chain, |_| SimDuration::from_micros(5), Rc::new(|_, _| {}));
    let cluster = Rc::new(cluster);
    let until = sim.now() + SimDuration::from_millis(50);
    let control = ControlPlane::start(&mut sim, &cluster, until, None);

    control.upgrade_node(&mut sim, 1, obs::CTX_V2);
    sim.run();

    assert!(!control.wave_active());
    for idx in 0..2 {
        assert_eq!(control.lifecycle_of(idx), Some(NodeLifecycle::InService));
    }
    assert_eq!(control.healthy_fraction(), 1.0);
    for (node, state) in control.states() {
        assert_eq!(state, nadino::NodeState::Healthy, "{node}");
    }
    assert_eq!(cluster.nodes[1].dne.wire_version(), obs::CTX_V2);
    assert_eq!(cluster.nodes[0].dne.wire_version(), obs::CTX_CURRENT);

    let reg = obs::MetricsRegistry::new();
    cluster.sample_obs(sim.now(), &reg, SimDuration::from_millis(1));
    let snap = reg.snapshot();
    let stray = snap.gauges_iter().filter(|(name, ..)| {
        let level = ["fleet_", "node_health", "cluster_capacity"];
        level.iter().any(|p| name.starts_with(p)) || name.ends_with("_total")
    });
    assert_eq!(
        stray.count(),
        0,
        "a health or fleet level, or a total, was sampled"
    );
    let counters = control.counters();
    assert_eq!(counters.upgrades_completed, 1);
    assert!(counters.rebalances >= 2, "{counters:?}");
}
