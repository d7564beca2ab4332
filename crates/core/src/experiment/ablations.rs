//! Ablations of NADINO's design choices (beyond the paper's figures).
//!
//! Each sweep varies one knob of the real system and measures the end-to-
//! end effect, quantifying the design decisions DESIGN.md calls out:
//!
//! - **wimpy factor**: how slow may the DPU core get before the DNE stops
//!   beating the CNE on the Boutique workload;
//! - **connections per peer**: the value of the least-congested pick over
//!   a pool of RC connections;
//! - **DWRR quantum**: fairness error as the scheduling granularity grows;
//! - **pre-post depth**: receive-buffer headroom vs RNR stalls.

use std::rc::Rc;

use dne::types::{DneConfig, SchedPolicy};
use membuf::tenant::TenantId;
use runtime::ChainSpec;
use simcore::{Sim, SimDuration};

use crate::boutique;
use crate::cluster::{Cluster, ClusterConfig};
use crate::experiment::fig15;
use crate::report::{fmt_f64, render_table};
use crate::workload::ClosedLoop;

/// One sweep point.
#[derive(Debug, Clone)]
pub struct AblationRow {
    pub sweep: String,
    pub setting: String,
    pub metric: String,
    pub value: f64,
}

obs::impl_to_json!(AblationRow {
    sweep,
    setting,
    metric,
    value
});

/// The full ablation report.
#[derive(Debug, Clone)]
pub struct Ablations {
    pub rows: Vec<AblationRow>,
}

obs::impl_to_json!(Ablations { rows });

/// Boutique Home Query RPS for a given engine config (`millis` budget).
fn boutique_rps(cfg: DneConfig, clients: usize, millis: u64) -> f64 {
    let mut sim = Sim::new();
    let mut cluster = Cluster::new(
        &mut sim,
        ClusterConfig {
            dne: cfg,
            pool_bufs: 4096,
            ..ClusterConfig::default()
        },
    );
    let tenant = TenantId(1);
    cluster.add_tenant(&mut sim, tenant, 1).unwrap();
    for f in boutique::all_functions() {
        cluster.place(f, boutique::hotspot_placement(f));
    }
    let chain = boutique::home_query(tenant);
    let driver = ClosedLoop::new(sim.now() + SimDuration::from_millis(millis));
    cluster.register_chain(&chain, boutique::exec_cost, driver.completion());
    let cluster = Rc::new(cluster);
    driver.start(&mut sim, &cluster, &chain, clients, boutique::PAYLOAD_BYTES);
    sim.run();
    driver.rps()
}

/// Sweep 1: wimpy factor of the DPU cores vs Boutique RPS.
pub fn wimpy_factor_sweep(millis: u64) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    let cne_rps = boutique_rps(DneConfig::nadino_cne(), 80, millis);
    rows.push(AblationRow {
        sweep: "wimpy_factor".into(),
        setting: "CNE (host core)".into(),
        metric: "home_rps".into(),
        value: cne_rps,
    });
    for factor in [1.0f64, 1.5, 2.0, 3.0, 4.0] {
        let cfg = DneConfig {
            wimpy_factor: Some(factor),
            ..DneConfig::nadino_dne()
        };
        rows.push(AblationRow {
            sweep: "wimpy_factor".into(),
            setting: format!("DNE x{factor}"),
            metric: "home_rps".into(),
            value: boutique_rps(cfg, 80, millis),
        });
    }
    rows
}

/// Sweep 2: RC connections per peer vs echo throughput at high concurrency.
pub fn conns_per_peer_sweep(millis: u64) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for conns in [1usize, 2, 4, 8] {
        let cfg = DneConfig {
            conns_per_peer: conns,
            ..DneConfig::nadino_dne()
        };
        let mut sim = Sim::new();
        let mut cluster = Cluster::new(
            &mut sim,
            ClusterConfig {
                dne: cfg,
                ..ClusterConfig::default()
            },
        );
        let tenant = TenantId(1);
        cluster.add_tenant(&mut sim, tenant, 1).unwrap();
        let chain = ChainSpec::new("echo", tenant, vec![1, 2, 1]);
        cluster.place(1, 0);
        cluster.place(2, 1);
        let driver = ClosedLoop::new(sim.now() + SimDuration::from_millis(millis));
        cluster.register_chain(&chain, |_| SimDuration::ZERO, driver.completion());
        let cluster = Rc::new(cluster);
        driver.start(&mut sim, &cluster, &chain, 64, 1024);
        sim.run();
        rows.push(AblationRow {
            sweep: "conns_per_peer".into(),
            setting: conns.to_string(),
            metric: "echo_rps".into(),
            value: driver.rps(),
        });
    }
    rows
}

/// Sweep 3: DWRR quantum vs fairness error (deviation from 6:1:2).
pub fn dwrr_quantum_sweep(scale: f64) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    let specs = fig15::tenant_specs(scale);
    for quantum in [0.5f64, 1.0, 4.0, 16.0] {
        let run = fig15::run_variant(
            SchedPolicy::Dwrr { quantum },
            "DWRR",
            &specs,
            SimDuration::from_secs_f64(240.0 * scale),
            SimDuration::from_secs_f64(2.0 * scale.max(0.05)),
            64,
        );
        // Fairness error while all three tenants compete.
        let (a, b) = (100.0 * scale, 140.0 * scale);
        let t1 = run.mean_rps(1, a, b);
        let t2 = run.mean_rps(2, a, b);
        let t3 = run.mean_rps(3, a, b);
        let total = t1 + t2 + t3;
        let err = ((t1 / total - 6.0 / 9.0).abs()
            + (t2 / total - 1.0 / 9.0).abs()
            + (t3 / total - 2.0 / 9.0).abs())
            / 3.0;
        rows.push(AblationRow {
            sweep: "dwrr_quantum".into(),
            setting: quantum.to_string(),
            metric: "fairness_error".into(),
            value: err,
        });
    }
    rows
}

/// Sweep 4: pre-post depth vs RNR events and throughput.
pub fn prepost_sweep(millis: u64) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for depth in [2usize, 8, 64, 256] {
        let cfg = DneConfig {
            prepost_depth: depth,
            ..DneConfig::nadino_dne()
        };
        let mut sim = Sim::new();
        let mut cluster = Cluster::new(
            &mut sim,
            ClusterConfig {
                dne: cfg,
                ..ClusterConfig::default()
            },
        );
        let tenant = TenantId(1);
        cluster.add_tenant(&mut sim, tenant, 1).unwrap();
        let chain = ChainSpec::new("echo", tenant, vec![1, 2, 1]);
        cluster.place(1, 0);
        cluster.place(2, 1);
        let driver = ClosedLoop::new(sim.now() + SimDuration::from_millis(millis));
        cluster.register_chain(&chain, |_| SimDuration::ZERO, driver.completion());
        let cluster = Rc::new(cluster);
        driver.start(&mut sim, &cluster, &chain, 48, 512);
        sim.run();
        let (_, _, rnr0) = cluster.fabric.node_counters(cluster.nodes[0].id);
        let (_, _, rnr1) = cluster.fabric.node_counters(cluster.nodes[1].id);
        rows.push(AblationRow {
            sweep: "prepost_depth".into(),
            setting: depth.to_string(),
            metric: "rnr_events".into(),
            value: (rnr0 + rnr1) as f64,
        });
        rows.push(AblationRow {
            sweep: "prepost_depth".into(),
            setting: depth.to_string(),
            metric: "echo_rps".into(),
            value: driver.rps(),
        });
    }
    rows
}

/// Runs every sweep.
pub fn run(millis: u64, scale: f64) -> Ablations {
    let mut rows = Vec::new();
    rows.extend(wimpy_factor_sweep(millis));
    rows.extend(conns_per_peer_sweep(millis));
    rows.extend(dwrr_quantum_sweep(scale));
    rows.extend(prepost_sweep(millis));
    Ablations { rows }
}

impl Ablations {
    /// Renders all sweeps as one table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.sweep.clone(),
                    r.setting.clone(),
                    r.metric.clone(),
                    fmt_f64(r.value),
                ]
            })
            .collect();
        render_table(
            "Ablations - design-choice sweeps",
            &["sweep", "setting", "metric", "value"],
            &rows,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wimpy_factor_degrades_dne_monotonically() {
        let rows = wimpy_factor_sweep(60);
        let rps_of = |s: &str| {
            rows.iter()
                .find(|r| r.setting == s)
                .map(|r| r.value)
                .unwrap()
        };
        let fast = rps_of("DNE x1");
        let slow = rps_of("DNE x4");
        assert!(fast > slow, "slower cores, lower RPS: {fast} vs {slow}");
        // At the real BlueField-2 factor (~2) the DNE still beats the CNE.
        assert!(rps_of("DNE x2") > rps_of("CNE (host core)"));
    }

    #[test]
    fn deep_prepost_eliminates_rnr_stalls() {
        let rows = prepost_sweep(40);
        let rnr_of = |depth: &str| {
            rows.iter()
                .find(|r| r.setting == depth && r.metric == "rnr_events")
                .map(|r| r.value)
                .unwrap()
        };
        let shallow = rnr_of("2");
        let deep = rnr_of("256");
        assert!(
            shallow > deep,
            "shallow pre-post must trigger RNR retries: {shallow} vs {deep}"
        );
        assert_eq!(deep, 0.0, "deep pre-post absorbs the window entirely");
    }

    #[test]
    fn quantum_growth_hurts_fairness_granularity() {
        let rows = dwrr_quantum_sweep(0.02);
        for r in &rows {
            assert!(
                r.value < 0.25,
                "fairness error at quantum {} = {}",
                r.setting,
                r.value
            );
        }
    }

    #[test]
    fn renders() {
        let rows = conns_per_peer_sweep(20);
        assert_eq!(rows.len(), 4);
        let a = Ablations { rows };
        assert!(a.render().contains("conns_per_peer"));
    }
}
