//! BENCH upgrade — rolling DNE upgrade wave under live traffic.
//!
//! Runs the fig16 boutique topology (hotspot placement on nodes 0/1,
//! standbys on node 2) three times on the same seed:
//!
//! - `baseline`: fault-free, every node stays at wire v1;
//! - `wave`: a rolling v1→v2 upgrade wave drains, upgrades and restores
//!   each node in turn while a compliant tenant and a 3x-rate rogue
//!   tenant keep driving traffic through the real version skew;
//! - `wave+crash`: the same wave with a node-1 outage window landing
//!   inside it, so the controller, health monitor and fault plane
//!   contend for the same node.
//!
//! The contrast quantifies the lifecycle controller's claim: a full
//! rolling upgrade costs zero hung requests and bounded compliant-tenant
//! goodput loss (the unit test below holds the `wave+crash` row to >= 80%
//! of the baseline row at every seed of the matrix). Each row folds its
//! integer outcome into an FNV-1a digest. Same seed ⇒ same bytes is checked
//! on the rendered JSON: by that test for two runs per seed, and by
//! `scripts/gates.sh results` for the committed file.

use std::cell::Cell;
use std::rc::Rc;

use ingress::rss::FlowId;
use ingress::{AdmissionConfig, Gateway, GatewayConfig, TenantGatewayStats};
use membuf::tenant::TenantId;
use rdma_sim::FaultPlane;
use runtime::ChainSpec;
use simcore::{Sim, SimDuration};

use crate::boutique;
use crate::cluster::{Cluster, ClusterConfig};
use crate::fleetctl::{FleetController, FleetCounters, FleetEvent};
use crate::report::{fmt_f64, render_table};

/// One scenario's outcome.
#[derive(Debug, Clone)]
pub struct UpgradeRow {
    /// `baseline`, `wave` or `wave+crash`.
    pub scenario: String,
    /// Requests submitted at the gateway (both tenants).
    pub issued: u64,
    /// Requests whose gateway callback fired (completed, shed, expired
    /// or failed — anything but hung).
    pub resolved: u64,
    /// `issued - resolved`: must be zero in every scenario.
    pub hung: u64,
    /// Compliant-tenant completions within deadline.
    pub compliant_ok: u64,
    /// Compliant-tenant requests shed at admission.
    pub compliant_shed: u64,
    /// Rogue-tenant completions.
    pub rogue_ok: u64,
    /// Rogue-tenant requests shed at admission.
    pub rogue_shed: u64,
    /// Packets dropped by the scheduled outage window.
    pub outage_drops: u64,
    /// Upgrade waves driven to completion.
    pub waves_completed: u64,
    /// Nodes drained, upgraded and returned to service.
    pub upgrades_completed: u64,
    /// Drains that quiesced before the deadline.
    pub drains_completed: u64,
    /// Drains that hit the drain deadline and proceeded anyway.
    pub drain_deadline_exceeded: u64,
    /// Route-table rebalances (drain failovers + restores).
    pub rebalances: u64,
    /// Route keys left with no standby during a failover.
    pub stranded_routes: u64,
    /// Final per-node wire versions, e.g. `"2,2,2"`.
    pub final_versions: String,
    /// FNV-1a digest over the full integer outcome, the health and fleet
    /// event logs and the flight-recorder dump. Hex.
    pub digest: String,
}

obs::impl_to_json!(UpgradeRow {
    scenario,
    issued,
    resolved,
    hung,
    compliant_ok,
    compliant_shed,
    rogue_ok,
    rogue_shed,
    outage_drops,
    waves_completed,
    upgrades_completed,
    drains_completed,
    drain_deadline_exceeded,
    rebalances,
    stranded_routes,
    final_versions,
    digest
});

/// The full experiment.
#[derive(Debug, Clone)]
pub struct BenchUpgrade {
    pub rows: Vec<UpgradeRow>,
    /// `wave+crash` compliant goodput as a percentage of baseline.
    pub goodput_retention_pct: f64,
}

obs::impl_to_json!(BenchUpgrade {
    rows,
    goodput_retention_pct
});

/// Everything one scenario run leaves behind: the deterministic surface
/// the experiment digests and `tests/fleet_lifecycle.rs` asserts on.
#[derive(Debug, PartialEq)]
pub struct UpgradeOutcome {
    /// Requests submitted at the gateway (both tenants).
    pub issued: u64,
    /// Requests whose gateway callback fired (completed, shed, expired or
    /// failed — anything but hung).
    pub resolved: u64,
    /// Replies the cluster still held when the run drained.
    pub pending_replies: usize,
    /// The compliant tenant's gateway counters.
    pub compliant: TenantGatewayStats,
    /// The rogue tenant's gateway counters.
    pub rogue: TenantGatewayStats,
    /// Packets dropped by the scheduled outage window.
    pub outage_drops: u64,
    /// Health transitions as `"node:from->to@ns"` strings, in order.
    pub health: Vec<String>,
    /// The fleet controller's event log.
    pub fleet_events: Vec<FleetEvent>,
    /// The fleet controller's counters.
    pub counters: FleetCounters,
    /// Final per-node wire versions.
    pub versions: Vec<u8>,
    /// Flight-recorder dumps taken.
    pub dump_count: u64,
    /// The last flight-recorder dump, compact JSON (empty when none).
    pub dump: String,
    /// Virtual time at which the run drained.
    pub end_ns: u64,
}

const ROGUE_PER_TICK: u32 = 3;

/// Drives one scenario to completion: the fig16 boutique topology (hotspot
/// placement on nodes 0/1, standbys on node 2) under 2% wire loss for
/// `ticks` 50 µs ticks — a compliant tenant driving Home Query, a rogue
/// tenant flooding its own chain at 3x the rate on 1/3 the weight. With
/// `wave`, a rolling v1→v2 upgrade walks all three nodes from +4 ms; with
/// `crash`, node 1 goes dark for 1.5 ms at +6 ms — inside the wave, so the
/// controller, the health monitor and the fault plane contend for it.
pub fn scenario(seed: u64, ticks: u32, wave: bool, crash: bool) -> UpgradeOutcome {
    let mut sim = Sim::new();
    let mut cluster = Cluster::new(
        &mut sim,
        ClusterConfig {
            workers: 3,
            ..ClusterConfig::default()
        },
    );
    let tracer = obs::Tracer::enabled();
    cluster.set_tracer(&tracer);
    cluster.enable_trace_pipeline(obs::PipelineConfig {
        tail_k: 8,
        flight_cap: 32,
        burn: None,
    });
    let compliant_t = TenantId(1);
    let rogue_t = TenantId(2);
    cluster.add_tenant(&mut sim, compliant_t, 3).unwrap();
    cluster.add_tenant(&mut sim, rogue_t, 1).unwrap();
    for f in boutique::all_functions() {
        cluster.place_with_backup(f, boutique::hotspot_placement(f), 2);
    }
    cluster.place_with_backup(21, 0, 2);
    cluster.place_with_backup(22, 1, 2);
    let cluster = Rc::new(cluster);
    for idx in 0..3 {
        cluster.set_node_wire_version(idx, obs::CTX_V1);
    }

    let compliant_chain = boutique::home_query(compliant_t);
    let rogue_chain = ChainSpec::new("rogue", rogue_t, vec![21, 22, 21]);
    let cost = |f: u16| boutique::exec_cost(f) / 10;
    let compliant_up = cluster.serve_chain(&compliant_chain, cost, boutique::PAYLOAD_BYTES);
    let rogue_up = cluster.serve_chain(&rogue_chain, cost, boutique::PAYLOAD_BYTES);

    let mut fp = FaultPlane::new(seed);
    fp.set_default_loss(0.02);
    cluster.fabric.install_fault_plane(fp);
    let drive_start = sim.now();
    if crash {
        let from = drive_start + SimDuration::from_millis(6);
        cluster.fabric.schedule_node_outage(
            cluster.nodes[1].id,
            from,
            from + SimDuration::from_micros(1500),
        );
    }
    let until = drive_start + SimDuration::from_millis(80);
    let monitor = cluster.enable_health_monitor(&mut sim, until);

    let gateway = Gateway::new(GatewayConfig {
        deadline: Some(SimDuration::from_millis(5)),
        admission: Some(AdmissionConfig {
            target: SimDuration::from_micros(300),
            interval: SimDuration::from_millis(1),
            retry_after_secs: 1,
        }),
        max_backlog: SimDuration::from_secs(10),
        ..GatewayConfig::default()
    });
    gateway.set_tracer(tracer.clone());
    gateway.register_tenant(compliant_t.0, 3);
    gateway.register_tenant(rogue_t.0, 1);
    {
        let gw = gateway.clone();
        monitor.set_capacity_handler(Rc::new(move |_sim, f| gw.set_capacity_factor(f)));
    }

    let ctl = FleetController::install(&cluster, &monitor);
    if wave {
        let ctl2 = ctl.clone();
        sim.schedule_after(SimDuration::from_millis(4), move |sim| {
            ctl2.start_upgrade_wave(sim, obs::CTX_V2);
        });
    }

    let issued = Rc::new(Cell::new(0u64));
    let resolved = Rc::new(Cell::new(0u64));
    let submit = |sim: &mut Sim, tenant: u16, flow: u32, up: &ingress::Upstream| {
        issued.set(issued.get() + 1);
        let resolved = resolved.clone();
        gateway.submit_tenant(
            sim,
            tenant,
            FlowId::from_client(flow, 0),
            64,
            up.clone(),
            Box::new(move |_sim, _r| resolved.set(resolved.get() + 1)),
        );
    };
    for tick in 0..ticks {
        submit(&mut sim, compliant_t.0, tick, &compliant_up);
        for k in 0..ROGUE_PER_TICK {
            submit(
                &mut sim,
                rogue_t.0,
                100_000 + tick * ROGUE_PER_TICK + k,
                &rogue_up,
            );
        }
        sim.run_for(SimDuration::from_micros(50));
    }
    sim.run();

    let health = monitor
        .events()
        .iter()
        .map(|e| format!("{}:{:?}->{:?}@{}", e.node.0, e.from, e.to, e.at.as_nanos()))
        .collect();
    let (dump_count, dump) = cluster
        .with_trace_pipeline(|p| (p.dump_count(), p.last_dump().map(|d| d.to_string_compact())))
        .expect("pipeline enabled above");
    UpgradeOutcome {
        issued: issued.get(),
        resolved: resolved.get(),
        pending_replies: cluster.pending_replies(),
        compliant: gateway.tenant_stats(compliant_t.0),
        rogue: gateway.tenant_stats(rogue_t.0),
        outage_drops: cluster.fabric.fault_stats().outage_drops,
        health,
        fleet_events: ctl.events(),
        counters: ctl.counters(),
        versions: cluster.nodes.iter().map(|n| n.dne.wire_version()).collect(),
        dump_count,
        dump: dump.unwrap_or_default(),
        end_ns: sim.now().as_nanos(),
    }
}

/// Folds one scenario's outcome into its report row.
fn row(name: &str, out: &UpgradeOutcome) -> UpgradeRow {
    let (cs, rs, counters) = (&out.compliant, &out.rogue, &out.counters);
    let ints: [u64; 16] = [
        out.issued,
        out.resolved,
        cs.completed,
        cs.shed,
        cs.expired,
        cs.failed,
        rs.completed,
        rs.shed,
        rs.expired,
        rs.failed,
        out.outage_drops,
        counters.upgrades_completed,
        counters.rebalances,
        counters.stranded_routes,
        out.versions.iter().map(|&v| v as u64).sum(),
        out.end_ns,
    ];
    let health = out.health.iter().flat_map(|e| e.bytes().chain([b';']));
    let fleet_log = format!("{:?}", out.fleet_events);
    let digest = simcore::rng::fnv1a(
        ints.iter()
            .flat_map(|v| v.to_le_bytes())
            .chain(health)
            .chain(fleet_log.bytes())
            .chain(out.dump.bytes()),
    );
    UpgradeRow {
        scenario: name.to_string(),
        issued: out.issued,
        resolved: out.resolved,
        hung: out.issued - out.resolved,
        compliant_ok: cs.completed,
        compliant_shed: cs.shed,
        rogue_ok: rs.completed,
        rogue_shed: rs.shed,
        outage_drops: out.outage_drops,
        waves_completed: counters.waves_completed,
        upgrades_completed: counters.upgrades_completed,
        drains_completed: counters.drains_completed,
        drain_deadline_exceeded: counters.drain_deadline_exceeded,
        rebalances: counters.rebalances,
        stranded_routes: counters.stranded_routes,
        final_versions: out
            .versions
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(","),
        digest: format!("{digest:016x}"),
    }
}

/// Runs all three scenarios at the experiment's seed.
pub fn run(quick: bool) -> BenchUpgrade {
    run_at(0xC4A0, if quick { 150 } else { 400 })
}

fn run_at(seed: u64, ticks: u32) -> BenchUpgrade {
    let rows = vec![
        row("baseline", &scenario(seed, ticks, false, false)),
        row("wave", &scenario(seed, ticks, true, false)),
        row("wave+crash", &scenario(seed, ticks, true, true)),
    ];
    let chaotic = &rows[2];
    let goodput_retention_pct = if rows[0].compliant_ok > 0 {
        chaotic.compliant_ok as f64 / rows[0].compliant_ok as f64 * 100.0
    } else {
        0.0
    };
    BenchUpgrade {
        rows,
        goodput_retention_pct,
    }
}

impl BenchUpgrade {
    /// Renders the experiment as a text table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.scenario.clone(),
                    r.issued.to_string(),
                    r.hung.to_string(),
                    r.compliant_ok.to_string(),
                    r.compliant_shed.to_string(),
                    r.rogue_ok.to_string(),
                    r.rogue_shed.to_string(),
                    r.upgrades_completed.to_string(),
                    r.drain_deadline_exceeded.to_string(),
                    r.rebalances.to_string(),
                    r.final_versions.clone(),
                ]
            })
            .collect();
        let mut text = render_table(
            "BENCH upgrade - rolling wave under live traffic",
            &[
                "scenario",
                "issued",
                "hung",
                "ok",
                "shed",
                "rogue_ok",
                "rogue_shed",
                "upgrades",
                "ddl_exceeded",
                "rebalances",
                "versions",
            ],
            &rows,
        );
        text.push_str(&format!(
            "compliant goodput retention (wave+crash vs baseline): {}%\n",
            fmt_f64(self.goodput_retention_pct)
        ));
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bars a rolling upgrade is held to, at every seed of the matrix
    /// and at the `--quick` budget: nothing hangs, the wave lands every node
    /// on wire v2, the compliant tenant keeps >= 80% of its fault-free
    /// goodput, and a second run renders the same bytes.
    #[test]
    fn quick_run_holds_the_acceptance_bars() {
        use obs::ToJson;
        for seed in simcore::rng::SEEDS {
            let bench = run_at(seed, 150);
            assert_eq!(bench.rows.len(), 3);
            for row in &bench.rows {
                assert_eq!(
                    row.hung, 0,
                    "{}: hung requests (seed {seed:#x})",
                    row.scenario
                );
            }
            let baseline = &bench.rows[0];
            let chaotic = &bench.rows[2];
            assert_eq!(baseline.final_versions, "1,1,1");
            assert_eq!(baseline.upgrades_completed, 0);
            assert_eq!(chaotic.final_versions, "2,2,2", "seed {seed:#x}");
            assert_eq!(chaotic.waves_completed, 1);
            assert_eq!(chaotic.upgrades_completed, 3);
            assert!(chaotic.outage_drops > 0, "crash window never fired");
            assert!(
                bench.goodput_retention_pct >= 80.0,
                "retention {}% (seed {seed:#x})",
                bench.goodput_retention_pct
            );
            let bytes = |b: &BenchUpgrade| b.to_json().to_string_pretty();
            assert_eq!(
                bytes(&bench),
                bytes(&run_at(seed, 150)),
                "same-seed upgrade runs diverged byte-for-byte (seed {seed:#x})"
            );
            assert!(bench.render().contains("wave+crash"));
        }
    }
}
