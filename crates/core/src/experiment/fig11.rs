//! Fig. 11 — off-path DNE (cross-processor shared memory) vs. on-path DNE.
//!
//! An echo function pair across two worker nodes, once with the off-path
//! engine (RNIC DMA straight to host memory) and once with the on-path
//! engine (payloads staged in DPU memory through the slow SoC DMA, plus
//! the engine work to program each transfer). Two sweeps:
//!
//! 1. RPS across payload sizes on a single connection;
//! 2. RPS across concurrency levels at 1 KiB payloads.
//!
//! Paper targets: off-path wins up to ~30% RPS with > 20% lower latency,
//! and the gap widens with concurrency as the SoC DMA engine saturates.

use std::rc::Rc;

use dne::types::DneConfig;
use membuf::tenant::TenantId;
use runtime::ChainSpec;
use simcore::{Sim, SimDuration};

use crate::cluster::{Cluster, ClusterConfig};
use crate::experiment::parallel::pmap;
use crate::report::{fmt_f64, render_table};
use crate::workload::ClosedLoop;

/// One measured cell.
#[derive(Debug, Clone)]
pub struct Fig11Row {
    pub mode: String,
    pub payload: usize,
    pub concurrency: usize,
    pub mean_us: f64,
    pub rps: f64,
}

obs::impl_to_json!(Fig11Row {
    mode,
    payload,
    concurrency,
    mean_us,
    rps
});

/// The full figure.
#[derive(Debug, Clone)]
pub struct Fig11 {
    pub payload_sweep: Vec<Fig11Row>,
    pub concurrency_sweep: Vec<Fig11Row>,
}

obs::impl_to_json!(Fig11 {
    payload_sweep,
    concurrency_sweep
});

/// Payload sizes of sweep (1).
pub const PAYLOADS: [usize; 4] = [64, 512, 1024, 4096];

/// Concurrency levels of sweep (2).
pub const CONCURRENCY: [usize; 4] = [1, 4, 16, 64];

fn run_one(cfg: DneConfig, payload: usize, clients: usize, millis: u64) -> (f64, f64) {
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
    let stop = sim.now() + SimDuration::from_millis(millis);
    let driver = ClosedLoop::new(stop);
    // The echo pair performs light application work per hop, as real
    // functions would; the data-plane difference rides on top of it.
    cluster.register_chain(
        &chain,
        |_| SimDuration::from_micros(25),
        driver.completion(),
    );
    let cluster = Rc::new(cluster);
    driver.start(&mut sim, &cluster, &chain, clients, payload);
    sim.run();
    (driver.latency().mean().as_micros_f64(), driver.rps())
}

/// Runs both sweeps with `millis` of virtual time per cell, all sixteen
/// independent sweep points (each a fresh `Sim`) fanned out across `jobs`
/// threads; row order in both panels is the same whatever `jobs` is.
pub fn run(millis: u64, jobs: usize) -> Fig11 {
    let modes = [
        (DneConfig::nadino_dne(), "off-path"),
        (DneConfig::on_path_dne(), "on-path"),
    ];
    let mut cells: Vec<Box<dyn FnOnce() -> Fig11Row + Send>> = Vec::new();
    for (cfg, name) in &modes {
        for payload in PAYLOADS {
            let cfg = cfg.clone();
            cells.push(Box::new(move || {
                let (mean_us, rps) = run_one(cfg, payload, 1, millis);
                Fig11Row {
                    mode: name.to_string(),
                    payload,
                    concurrency: 1,
                    mean_us,
                    rps,
                }
            }));
        }
    }
    for (cfg, name) in &modes {
        for clients in CONCURRENCY {
            let cfg = cfg.clone();
            cells.push(Box::new(move || {
                let (mean_us, rps) = run_one(cfg, 1024, clients, millis);
                Fig11Row {
                    mode: name.to_string(),
                    payload: 1024,
                    concurrency: clients,
                    mean_us,
                    rps,
                }
            }));
        }
    }
    let mut rows = pmap(cells, jobs);
    let concurrency_sweep = rows.split_off(PAYLOADS.len() * modes.len());
    Fig11 {
        payload_sweep: rows,
        concurrency_sweep,
    }
}

impl Fig11 {
    fn find<'a>(rows: &'a [Fig11Row], mode: &str, key: usize, by_payload: bool) -> &'a Fig11Row {
        rows.iter()
            .find(|r| {
                r.mode == mode
                    && if by_payload {
                        r.payload == key
                    } else {
                        r.concurrency == key
                    }
            })
            .expect("cell present")
    }

    /// Off-path / on-path RPS ratio in the concurrency sweep.
    pub fn rps_gain_at(&self, concurrency: usize) -> f64 {
        let off = Self::find(&self.concurrency_sweep, "off-path", concurrency, false);
        let on = Self::find(&self.concurrency_sweep, "on-path", concurrency, false);
        off.rps / on.rps
    }

    /// Latency reduction (1 - off/on) in the payload sweep.
    pub fn latency_reduction_at(&self, payload: usize) -> f64 {
        let off = Self::find(&self.payload_sweep, "off-path", payload, true);
        let on = Self::find(&self.payload_sweep, "on-path", payload, true);
        1.0 - off.mean_us / on.mean_us
    }

    /// Renders both panels as text tables.
    pub fn render(&self) -> String {
        let render_rows = |rows: &[Fig11Row]| -> Vec<Vec<String>> {
            rows.iter()
                .map(|r| {
                    vec![
                        r.mode.clone(),
                        r.payload.to_string(),
                        r.concurrency.to_string(),
                        fmt_f64(r.mean_us),
                        fmt_f64(r.rps),
                    ]
                })
                .collect()
        };
        let mut out = render_table(
            "Fig. 11 (1) - off-path vs on-path, payload sweep (1 connection)",
            &["mode", "payload_B", "conc", "mean_us", "rps"],
            &render_rows(&self.payload_sweep),
        );
        out.push('\n');
        out.push_str(&render_table(
            "Fig. 11 (2) - off-path vs on-path, concurrency sweep (1 KiB)",
            &["mode", "payload_B", "conc", "mean_us", "rps"],
            &render_rows(&self.concurrency_sweep),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn fig() -> &'static Fig11 {
        static FIG: OnceLock<Fig11> = OnceLock::new();
        FIG.get_or_init(|| run(40, 1))
    }

    #[test]
    fn off_path_wins_and_gap_grows_with_concurrency() {
        let fig = fig();
        let low = fig.rps_gain_at(1);
        let high = fig.rps_gain_at(64);
        assert!(
            low > 1.0,
            "off-path must win even at low concurrency: {low}"
        );
        assert!(
            high > low,
            "the gap must widen as the SoC DMA saturates: {low} -> {high}"
        );
        assert!(
            (1.1..=1.5).contains(&high),
            "off-path gain at 64 conns = {high} (paper: up to ~1.3x)"
        );
    }

    #[test]
    fn off_path_cuts_latency() {
        let fig = fig();
        for payload in PAYLOADS {
            let cut = fig.latency_reduction_at(payload);
            assert!(
                (0.03..=0.45).contains(&cut),
                "latency reduction at {payload}B = {cut} (paper: >20% under load)"
            );
        }
    }

    #[test]
    fn renders_both_panels() {
        let fig = fig();
        let text = fig.render();
        assert!(text.contains("payload sweep"));
        assert!(text.contains("concurrency sweep"));
        assert_eq!(fig.payload_sweep.len(), 8);
        assert_eq!(fig.concurrency_sweep.len(), 8);
    }
}
