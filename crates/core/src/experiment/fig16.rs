//! Fig. 16 & Table 2 — end-to-end Online Boutique evaluation.
//!
//! The full system comparison of §4.3: three chains (Home Query, View
//! Cart, Product Query) served by seven data planes behind their
//! respective cluster ingresses, under 20/60/80 closed-loop clients.
//! NADINO (DNE) and NADINO (CNE) run the real engine on a real cluster;
//! the baselines run their calibrated system models. For every
//! configuration we record RPS, mean latency (Table 2) and the
//! network-engine core usage (Fig. 16 (4)-(6)). The obs-bearing twin of
//! the DNE cell — burn-rate series, per-stage SoC table — is the fleet
//! report's (`results/report.json`, [`crate::fleet`]).

use baselines::systems::Plane;
use baselines::{SystemKind, SystemModel};
use dpu_sim::soc::ProcessorKind;
use ingress::gateway::{Gateway, GatewayConfig, Upstream};
use runtime::ChainSpec;
use simcore::{Sim, SimDuration, SimTime};

use crate::baseline_cluster::BaselineCluster;
use crate::boutique;
use crate::report::{fmt_f64, render_table};
use crate::workload::{hop, ClosedLoop, Far};

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct Fig16Row {
    pub system: String,
    pub chain: String,
    pub clients: usize,
    pub rps: f64,
    pub mean_ms: f64,
    /// Network-engine cores busy (DPU cores for NADINO (DNE), CPU
    /// otherwise), including cores dedicated to polling/scheduling.
    pub engine_cores: f64,
    /// True when the engine runs on the DPU.
    pub engine_is_dpu: bool,
    /// Host cores busy executing functions (and, for deferred-conversion
    /// baselines, worker-side TCP termination).
    pub host_cores: f64,
}

obs::impl_to_json!(Fig16Row {
    system,
    chain,
    clients,
    rps,
    mean_ms,
    engine_cores,
    engine_is_dpu,
    host_cores
});

/// "SoC cores freed vs host-only baseline" row: NADINO (DNE) against
/// NADINO (CNE) — the same engine on host cores — for one
/// (chain, clients) cell.
/// Both variants run closed-loop, so the DNE completes more requests in
/// the same horizon and its hosts are busier doing *useful* function
/// work; raw busy-core counts would hide the offload. Normalizing per
/// 1000 RPS makes the comparison work-for-work.
#[derive(Debug, Clone)]
pub struct CoresFreedRow {
    pub chain: String,
    pub clients: usize,
    /// Host cores per 1000 RPS under the CNE baseline (functions + engine).
    pub baseline_host_cores_per_krps: f64,
    /// Host cores per 1000 RPS with the engine offloaded to the SoC.
    pub dne_host_cores_per_krps: f64,
    /// SoC cores per 1000 RPS the offloaded engine consumes instead.
    pub dne_soc_cores_per_krps: f64,
    /// Host cores freed per 1000 RPS of served load.
    pub host_cores_freed_per_krps: f64,
}

obs::impl_to_json!(CoresFreedRow {
    chain,
    clients,
    baseline_host_cores_per_krps,
    dne_host_cores_per_krps,
    dne_soc_cores_per_krps,
    host_cores_freed_per_krps
});

/// The full figure + table.
#[derive(Debug, Clone)]
pub struct Fig16 {
    pub rows: Vec<Fig16Row>,
    /// The "SoC cores freed" table (one row per DNE/CNE cell pair).
    pub cores_freed: Vec<CoresFreedRow>,
}

obs::impl_to_json!(Fig16 { rows, cores_freed });

/// Client counts of Table 2.
pub const CLIENTS: [usize; 3] = [20, 60, 80];

/// Runs one system for one chain/clients cell: `clients` closed-loop flows
/// through the system's ingress into its plane for `duration`.
fn run_cell(
    model: &SystemModel,
    chain: &ChainSpec,
    clients: usize,
    duration: SimDuration,
) -> Fig16Row {
    let mut sim = Sim::new();
    let gateway = Gateway::new(GatewayConfig {
        kind: model.ingress,
        // NightCore relies on its built-in single-worker kernel ingress.
        initial_workers: match &model.plane {
            Plane::Modelled(m) if m.single_node_only => 1,
            _ => 2,
        },
        max_backlog: SimDuration::from_millis(500),
        ..GatewayConfig::default()
    });
    // Ingress → cluster: the ingress's transport, then the plane's door;
    // `cores` reads (engine, host) cores over an interval once the run ends.
    let transport = model.ingress.worker_transport();
    type Cores = Box<dyn Fn(SimTime, SimTime) -> (f64, f64)>;
    let (upstream, cores, engine_is_dpu): (Upstream, Cores, bool) = match &model.plane {
        Plane::Dne(dne) => {
            let cluster = boutique::cluster(&mut sim, dne.clone());
            let door = cluster.serve_chain(chain, boutique::exec_cost, boutique::PAYLOAD_BYTES);
            let upstream = hop(transport, Far::Door(door));
            let cores = move |a, b| {
                (
                    cluster.engine_utilization(a, b),
                    cluster.host_utilization(a, b),
                )
            };
            (
                upstream,
                Box::new(cores),
                dne.processor == ProcessorKind::DpuArm,
            )
        }
        Plane::Modelled(m) => {
            let bc = BaselineCluster::new(m.clone());
            for f in boutique::all_functions() {
                bc.place(f, boutique::hotspot_placement(f));
            }
            // Deferred conversion: the worker node terminates TCP first.
            let worker_cost = gateway.worker_side_cost();
            let upstream = bc.serve_chain(chain, boutique::exec_cost, transport, worker_cost);
            let cores = move |a, b| (bc.engine_cores(a, b), bc.host_utilization(a, b));
            (upstream, Box::new(cores), false)
        }
    };
    let t0 = sim.now();
    let driver = ClosedLoop::new(t0 + duration);
    driver.start_gateway(
        &mut sim,
        &gateway,
        0,
        &upstream,
        clients,
        boutique::PAYLOAD_BYTES,
    );
    sim.run();
    let (engine_cores, host_cores) = cores(t0, sim.now());
    Fig16Row {
        system: model.name.to_string(),
        chain: chain.name.clone(),
        clients,
        rps: driver.rps(),
        mean_ms: driver.latency().mean().as_millis_f64(),
        engine_cores,
        engine_is_dpu,
        host_cores,
    }
}

/// Runs the full matrix (`millis` of virtual time per cell).
pub fn run(millis: u64) -> Fig16 {
    run_filtered(millis, &SystemKind::all(), &CLIENTS)
}

/// Runs a subset of the matrix (used by tests and quick benches).
pub fn run_filtered(millis: u64, systems: &[SystemKind], clients: &[usize]) -> Fig16 {
    let duration = SimDuration::from_millis(millis);
    let chains = boutique::evaluation_chains(boutique::TENANT);
    let mut rows = Vec::new();
    for &kind in systems {
        let model = SystemModel::for_kind(kind);
        for chain in &chains {
            for &c in clients {
                rows.push(run_cell(&model, chain, c, duration));
            }
        }
    }
    let cores_freed: Vec<CoresFreedRow> = rows
        .iter()
        .filter(|r| r.system == "NADINO (DNE)")
        .filter_map(|d| {
            let c = rows.iter().find(|r| {
                r.system == "NADINO (CNE)" && r.chain == d.chain && r.clients == d.clients
            })?;
            let per_krps = |cores: f64, rps: f64| {
                if rps > 0.0 {
                    cores / rps * 1000.0
                } else {
                    0.0
                }
            };
            let freed = obs::CoresFreed {
                baseline_host_cores: per_krps(c.host_cores + c.engine_cores, c.rps),
                dne_host_cores: per_krps(d.host_cores, d.rps),
                dne_soc_cores: per_krps(d.engine_cores, d.rps),
            };
            Some(CoresFreedRow {
                chain: d.chain.clone(),
                clients: d.clients,
                baseline_host_cores_per_krps: freed.baseline_host_cores,
                dne_host_cores_per_krps: freed.dne_host_cores,
                dne_soc_cores_per_krps: freed.dne_soc_cores,
                host_cores_freed_per_krps: freed.freed(),
            })
        })
        .collect();
    Fig16 { rows, cores_freed }
}

impl Fig16 {
    /// Looks up one cell.
    pub fn get(&self, system: &str, chain: &str, clients: usize) -> Option<&Fig16Row> {
        self.rows
            .iter()
            .find(|r| r.system == system && r.chain == chain && r.clients == clients)
    }

    /// Renders Fig. 16 (RPS + engine cores).
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.system.clone(),
                    r.chain.clone(),
                    r.clients.to_string(),
                    fmt_f64(r.rps),
                    format!(
                        "{}% {}",
                        fmt_f64(r.engine_cores * 100.0),
                        if r.engine_is_dpu { "DPU" } else { "CPU" }
                    ),
                    format!("{}%", fmt_f64(r.host_cores * 100.0)),
                ]
            })
            .collect();
        let mut text = render_table(
            "Fig. 16 - Online Boutique: RPS and engine usage",
            &["system", "chain", "clients", "rps", "engine", "host_cpu"],
            &rows,
        );
        if !self.cores_freed.is_empty() {
            let freed_rows: Vec<Vec<String>> = self
                .cores_freed
                .iter()
                .map(|r| {
                    vec![
                        r.chain.clone(),
                        r.clients.to_string(),
                        fmt_f64(r.baseline_host_cores_per_krps),
                        fmt_f64(r.dne_host_cores_per_krps),
                        fmt_f64(r.dne_soc_cores_per_krps),
                        fmt_f64(r.host_cores_freed_per_krps),
                    ]
                })
                .collect();
            text.push('\n');
            text.push_str(&render_table(
                "SoC cores freed vs host-only baseline (DNE vs CNE, per 1000 RPS)",
                &[
                    "chain",
                    "clients",
                    "baseline_host",
                    "dne_host",
                    "dne_soc",
                    "freed",
                ],
                &freed_rows,
            ));
        }
        text
    }

    /// Renders Table 2 (mean latency in milliseconds).
    pub fn render_table2(&self) -> String {
        let mut systems: Vec<&str> = Vec::new();
        for r in &self.rows {
            if !systems.contains(&r.system.as_str()) {
                systems.push(&r.system);
            }
        }
        let chains = ["Home Query", "View Cart", "Product Query"];
        let mut headers: Vec<String> = vec!["system".to_string()];
        for chain in &chains {
            for c in CLIENTS {
                headers.push(format!("{chain}@{c}"));
            }
        }
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut rows = Vec::new();
        for system in systems {
            let mut row = vec![system.to_string()];
            for chain in &chains {
                for c in CLIENTS {
                    row.push(
                        self.get(system, chain, c)
                            .map(|r| fmt_f64(r.mean_ms))
                            .unwrap_or_else(|| "-".to_string()),
                    );
                }
            }
            rows.push(row);
        }
        render_table("Table 2 - mean latency (ms)", &header_refs, &rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One shared matrix at 20 and 80 clients, 200 ms per cell.
    fn fig() -> &'static Fig16 {
        static FIG: OnceLock<Fig16> = OnceLock::new();
        FIG.get_or_init(|| run_filtered(200, &SystemKind::all(), &[20, 80]))
    }

    fn rps(system: &str, clients: usize) -> f64 {
        fig().get(system, "Home Query", clients).unwrap().rps
    }

    #[test]
    fn dne_beats_cne_under_load() {
        let ratio = rps("NADINO (DNE)", 80) / rps("NADINO (CNE)", 80);
        assert!(
            (1.3..=1.9).contains(&ratio),
            "DNE/CNE at 80 clients = {ratio} (paper: 1.3-1.8x)"
        );
    }

    #[test]
    fn dne_beats_fuyao_and_spright() {
        let dne = rps("NADINO (DNE)", 80);
        let fuyao = rps("FUYAO-F", 80);
        let spright = rps("SPRIGHT", 80);
        assert!(
            (1.9..=4.5).contains(&(dne / fuyao)),
            "DNE/FUYAO-F = {} (paper: 2.1-4.1x)",
            dne / fuyao
        );
        assert!(
            (2.2..=4.5).contains(&(dne / spright)),
            "DNE/SPRIGHT = {} (paper: 2.4-4.1x)",
            dne / spright
        );
    }

    #[test]
    fn nightcore_trails_by_a_wide_margin() {
        let ratio = rps("NADINO (DNE)", 80) / rps("NightCore", 80);
        assert!(ratio > 4.5, "DNE/NightCore = {ratio} (paper: 5.1-20.9x)");
    }

    #[test]
    fn junction_trails_dne_by_about_half() {
        let dne = rps("NADINO (DNE)", 80);
        let junction = rps("Junction", 80);
        assert!(
            junction < 0.6 * dne,
            "Junction {junction} must be >47% below DNE {dne}"
        );
    }

    #[test]
    fn fuyao_f_beats_fuyao_k() {
        assert!(rps("FUYAO-F", 80) > rps("FUYAO-K", 80));
    }

    #[test]
    fn table2_latency_shape() {
        let f = fig();
        // DNE Home Query at 20 clients is about a millisecond.
        let dne20 = f.get("NADINO (DNE)", "Home Query", 20).unwrap().mean_ms;
        assert!(
            (0.8..=1.4).contains(&dne20),
            "DNE@20 = {dne20}ms (paper 1.12)"
        );
        // Latency grows with clients for every system.
        for row in &f.rows {
            if row.clients == 20 {
                let at80 = f.get(&row.system, &row.chain, 80).unwrap().mean_ms;
                assert!(
                    at80 > row.mean_ms,
                    "{}: {} -> {at80}",
                    row.system,
                    row.mean_ms
                );
            }
        }
        // NightCore has the worst latency everywhere.
        for chain in ["Home Query", "View Cart", "Product Query"] {
            for c in [20usize, 80] {
                let nc = f.get("NightCore", chain, c).unwrap().mean_ms;
                let dne = f.get("NADINO (DNE)", chain, c).unwrap().mean_ms;
                assert!(nc > 1.5 * dne, "NightCore {nc} vs DNE {dne} ({chain}@{c})");
            }
        }
    }

    #[test]
    fn cne_has_lower_latency_at_light_load() {
        let f = fig();
        let dne = f.get("NADINO (DNE)", "Home Query", 20).unwrap().mean_ms;
        let cne = f.get("NADINO (CNE)", "Home Query", 20).unwrap().mean_ms;
        assert!(
            cne < dne * 1.1,
            "CNE@20 {cne} vs DNE {dne} (paper: slightly lower)"
        );
    }

    #[test]
    fn dpu_offload_frees_host_cpu_cores() {
        let f = fig();
        // NADINO (DNE)'s engine runs on DPU cores; every other system burns
        // host CPU cores for its engine.
        let dne = f.get("NADINO (DNE)", "Home Query", 80).unwrap();
        assert!(dne.engine_is_dpu);
        assert!(dne.engine_cores <= 2.05, "two wimpy DPU cores suffice");
        let fuyao = f.get("FUYAO-F", "Home Query", 80).unwrap();
        assert!(!fuyao.engine_is_dpu);
        assert!(
            fuyao.engine_cores > 1.9,
            "FUYAO's polling receivers saturate their cores"
        );
    }

    #[test]
    fn cores_freed_table_pairs_dne_with_cne() {
        let f = fig();
        assert!(
            !f.cores_freed.is_empty(),
            "DNE+CNE both ran, so the pairing exists"
        );
        for row in &f.cores_freed {
            let d = f.get("NADINO (DNE)", &row.chain, row.clients).unwrap();
            assert!(d.engine_is_dpu);
            assert!(row.dne_soc_cores_per_krps > 0.0, "engine moved to the SoC");
            assert!(row.host_cores_freed_per_krps >= 0.0);
        }
        // Under load, serving the same unit of work must cost fewer host
        // cores once the engine is off the host.
        let loaded = f
            .cores_freed
            .iter()
            .find(|r| r.chain == "Home Query" && r.clients == 80)
            .unwrap();
        assert!(
            loaded.host_cores_freed_per_krps > 0.0,
            "offload frees host cores per krps: {loaded:?}"
        );
        assert!(f.render().contains("SoC cores freed"));
    }

    #[test]
    fn renders_figure_and_table() {
        let f = fig();
        assert!(f.render().contains("NADINO (DNE)"));
        let t2 = f.render_table2();
        assert!(t2.contains("Home Query@20"));
        assert!(t2.contains("NightCore"));
    }
}
