//! Fig. 6 — isolation cost of NADINO's DNE.
//!
//! An echo client/server function pair on two worker nodes, two-sided RDMA
//! throughout. Three settings:
//!
//! - **native RDMA (CPU)**: functions drive the verbs directly from host
//!   cores (no DNE, no isolation);
//! - **native RDMA (DPU)**: the same code on wimpy DPU cores, quantifying
//!   the inherent wimpy-core penalty for verb handling;
//! - **NADINO (DNE)**: the full proxied path — functions hand descriptors
//!   to the off-path DNE over Comch-E.
//!
//! Paper claim: "the cost introduced by DNE as an additional isolation
//! layer is limited", and the wimpy-core penalty on raw verbs is minimal.
//! The Comch crossing does add latency to the DNE path; the throughput
//! cost stays small because the engine pipelines descriptors.

use std::rc::Rc;

use baselines::{run_echo, EchoConfig, Primitive};
use dpu_sim::soc::ProcessorKind;
use membuf::tenant::TenantId;
use runtime::ChainSpec;
use simcore::{Sim, SimDuration};

use crate::cluster::{Cluster, ClusterConfig};
use crate::experiment::parallel::pmap;
use crate::report::{fmt_f64, render_table};
use crate::workload::ClosedLoop;

/// One measured setting.
#[derive(Debug, Clone)]
pub struct Fig06Row {
    pub setting: String,
    pub payload: usize,
    pub mean_us: f64,
    pub rps: f64,
}

obs::impl_to_json!(Fig06Row {
    setting,
    payload,
    mean_us,
    rps
});

/// The full figure.
#[derive(Debug, Clone)]
pub struct Fig06 {
    pub rows: Vec<Fig06Row>,
}

obs::impl_to_json!(Fig06 { rows });

/// Payload sizes swept (bytes).
pub const PAYLOADS: [usize; 3] = [64, 1024, 4096];

/// Runs the DNE-proxied echo on a real cluster and returns `(mean_us, rps)`.
fn dne_echo(payload: usize, clients: usize, millis: u64) -> (f64, f64) {
    let mut sim = Sim::new();
    let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
    let tenant = TenantId(1);
    cluster.add_tenant(&mut sim, tenant, 1).unwrap();
    let chain = ChainSpec::new("echo", tenant, vec![1, 2, 1]);
    cluster.place(1, 0);
    cluster.place(2, 1);
    let stop = sim.now() + SimDuration::from_millis(millis);
    let driver = ClosedLoop::new(stop);
    // Echo functions do no application work; we measure the data plane.
    cluster.register_chain(&chain, |_| SimDuration::ZERO, driver.completion());
    let cluster = Rc::new(cluster);
    driver.start(&mut sim, &cluster, &chain, clients, payload);
    sim.run();
    (driver.latency().mean().as_micros_f64(), driver.rps())
}

/// One native cell: raw verbs on `proc` cores, latency + throughput runs.
fn native_cell(requests: u64, payload: usize, proc: ProcessorKind, name: &str) -> Fig06Row {
    // Native functions run full verb management per message. Most
    // of that work is I/O-bound (doorbell MMIO, CQ poll waits), so
    // only a small CPU-bound fraction is penalized by wimpy cores
    // — exactly why the paper finds the DPU penalty minimal.
    let per_msg_unscaled = SimDuration::from_micros(3);
    let lat = run_echo(EchoConfig {
        primitive: Primitive::TwoSided,
        payload,
        window: 1,
        requests,
        proc,
        per_msg_unscaled,
    })
    .expect("a native echo cell runs clean");
    let thr = run_echo(EchoConfig {
        primitive: Primitive::TwoSided,
        payload,
        window: 16,
        requests,
        proc,
        per_msg_unscaled,
    })
    .expect("a native echo cell runs clean");
    Fig06Row {
        setting: name.to_string(),
        payload,
        mean_us: lat.latency.mean().as_micros_f64(),
        rps: thr.rps,
    }
}

/// One DNE cell: latency (1 client) and throughput (16 clients) runs.
fn dne_cell(payload: usize, millis: u64) -> Fig06Row {
    let (lat_us, _) = dne_echo(payload, 1, millis);
    let (_, rps) = dne_echo(payload, 16, millis);
    Fig06Row {
        setting: "NADINO (DNE)".to_string(),
        payload,
        mean_us: lat_us,
        rps,
    }
}

/// Runs the experiment (`requests` echoes per native cell, `millis` of
/// virtual time per DNE cell) with the nine independent cells (each a
/// fresh `Sim`) fanned out across `jobs` threads; row order — and thus
/// rendering and JSON — is byte-identical whatever `jobs` is.
pub fn run(requests: u64, millis: u64, jobs: usize) -> Fig06 {
    let mut cells: Vec<Box<dyn FnOnce() -> Fig06Row + Send>> = Vec::new();
    for payload in PAYLOADS {
        for (proc, name) in [
            (ProcessorKind::HostCpu, "native RDMA (CPU)"),
            (ProcessorKind::DpuArm, "native RDMA (DPU)"),
        ] {
            cells.push(Box::new(move || native_cell(requests, payload, proc, name)));
        }
        cells.push(Box::new(move || dne_cell(payload, millis)));
    }
    Fig06 {
        rows: pmap(cells, jobs),
    }
}

impl Fig06 {
    /// Looks up a row.
    pub fn get(&self, setting: &str, payload: usize) -> Option<&Fig06Row> {
        self.rows
            .iter()
            .find(|r| r.setting == setting && r.payload == payload)
    }

    /// Renders the figure as a text table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.setting.clone(),
                    r.payload.to_string(),
                    fmt_f64(r.mean_us),
                    fmt_f64(r.rps),
                ]
            })
            .collect();
        render_table(
            "Fig. 6 - DNE isolation cost (two-sided echo across 2 nodes)",
            &["setting", "payload_B", "mean_us", "rps"],
            &rows,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn fig() -> &'static Fig06 {
        static FIG: OnceLock<Fig06> = OnceLock::new();
        FIG.get_or_init(|| run(300, 30, 1))
    }

    #[test]
    fn wimpy_core_penalty_on_raw_verbs_is_minimal() {
        let fig = fig();
        let cpu = fig.get("native RDMA (CPU)", 1024).unwrap();
        let dpu = fig.get("native RDMA (DPU)", 1024).unwrap();
        let ratio = dpu.mean_us / cpu.mean_us;
        assert!(
            (1.0..=1.3).contains(&ratio),
            "DPU/CPU latency ratio = {ratio} (paper: minimal)"
        );
    }

    #[test]
    fn dne_throughput_cost_is_bounded() {
        let fig = fig();
        for payload in PAYLOADS {
            let native = fig.get("native RDMA (DPU)", payload).unwrap().rps;
            let dne = fig.get("NADINO (DNE)", payload).unwrap().rps;
            assert!(
                dne > native * 0.5,
                "DNE rps {dne} vs native {native} at {payload}B (paper: limited cost)"
            );
        }
    }

    #[test]
    fn all_nine_cells_present() {
        let fig = fig();
        assert_eq!(fig.rows.len(), 9);
        assert!(fig.render().contains("NADINO (DNE)"));
    }

    #[test]
    fn parallel_run_renders_identically() {
        assert_eq!(fig().render(), run(300, 30, 4).render());
    }
}
