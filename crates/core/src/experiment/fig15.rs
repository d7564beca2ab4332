//! Fig. 15 — multi-tenant RDMA bandwidth sharing.
//!
//! Three tenants with weights 6:1:2 push one-way transfers between a
//! client function on node 0 and a server function on node 1 through a
//! DNE configured to sustain ≈ 110 K RPS on its single DPU core. Tenant 1
//! is active for the whole run; tenant 2 joins early and leaves late;
//! tenant 3 runs a burst in the middle. We compare NADINO's DWRR scheduler
//! against the FCFS engine without multi-tenancy handling.
//!
//! Paper targets (scaled to our compressed timeline): with DWRR, shares
//! track the 6:1:2 weights exactly — 90 K/15 K when tenants 1+2 compete,
//! 65 K/11 K/22 K with all three — while FCFS splits capacity by arrival
//! order and starves tenant 1.

use std::rc::Rc;

use dne::types::{DneConfig, SchedPolicy};
use membuf::tenant::TenantId;
use runtime::ChainSpec;
use simcore::{Sim, SimDuration};

use crate::cluster::{Cluster, ClusterConfig};
use crate::report::{fmt_f64, render_table};
use crate::workload::ClosedLoop;

/// One tenant's activity window and weight.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    pub tenant: u16,
    pub weight: u32,
    pub start_s: f64,
    pub end_s: f64,
}

obs::impl_to_json!(TenantSpec {
    tenant,
    weight,
    start_s,
    end_s
});

/// One tenant's measured throughput series.
#[derive(Debug, Clone)]
pub struct TenantTrace {
    pub tenant: u16,
    pub weight: u32,
    pub points: Vec<(f64, f64)>,
    pub completed: u64,
}

obs::impl_to_json!(TenantTrace {
    tenant,
    weight,
    points,
    completed
});

/// One scheduler's full run.
#[derive(Debug, Clone)]
pub struct Fig15Run {
    pub scheduler: String,
    pub traces: Vec<TenantTrace>,
}

obs::impl_to_json!(Fig15Run { scheduler, traces });

/// The full figure.
#[derive(Debug, Clone)]
pub struct Fig15 {
    pub duration_s: f64,
    pub runs: Vec<Fig15Run>,
}

obs::impl_to_json!(Fig15 { duration_s, runs });

/// The paper's three tenants (windows scaled by `scale` from the paper's
/// 240 s timeline: T1 always on, T2 20 s–200 s, T3 90 s–150 s).
pub fn tenant_specs(scale: f64) -> Vec<TenantSpec> {
    vec![
        TenantSpec {
            tenant: 1,
            weight: 6,
            start_s: 0.0,
            end_s: 240.0 * scale,
        },
        TenantSpec {
            tenant: 2,
            weight: 1,
            start_s: 20.0 * scale,
            end_s: 200.0 * scale,
        },
        TenantSpec {
            tenant: 3,
            weight: 2,
            start_s: 90.0 * scale,
            end_s: 150.0 * scale,
        },
    ]
}

/// The engine throttle that pins a single DPU core at ≈ 110 K RPS (§4.2).
pub fn throttled(policy: SchedPolicy) -> DneConfig {
    DneConfig {
        sched: policy,
        extra_per_msg: SimDuration::from_nanos(2_500),
        ..DneConfig::nadino_dne()
    }
}

/// Runs one scheduler variant with the given tenant specs.
pub fn run_variant(
    policy: SchedPolicy,
    name: &str,
    specs: &[TenantSpec],
    duration: SimDuration,
    window: SimDuration,
    outstanding: usize,
) -> Fig15Run {
    let mut sim = Sim::new();
    let mut cluster = Cluster::new(
        &mut sim,
        ClusterConfig {
            dne: throttled(policy),
            pool_bufs: 4096,
            ..ClusterConfig::default()
        },
    );
    // Provision every tenant first; RC connection setup advances the
    // clock, so the experiment timeline starts at `epoch`.
    let mut chains = Vec::new();
    for spec in specs {
        let tenant = TenantId(spec.tenant);
        cluster.add_tenant(&mut sim, tenant, spec.weight).unwrap();
        // One-way transfer: client fn on node 0, server fn on node 1.
        let client_fn = spec.tenant * 10 + 1;
        let server_fn = spec.tenant * 10 + 2;
        cluster.place(client_fn, 0);
        cluster.place(server_fn, 1);
        chains.push((
            spec.clone(),
            ChainSpec::new("transfer", tenant, vec![client_fn, server_fn]),
        ));
    }
    let cluster = Rc::new(cluster);
    let epoch = sim.now();
    let mut drivers = Vec::new();
    for (spec, chain) in chains {
        let end_at = epoch + SimDuration::from_secs_f64(spec.end_s);
        let driver = ClosedLoop::new(end_at).with_series(window);
        cluster.register_chain(&chain, |_| SimDuration::ZERO, driver.completion());
        driver.direct(&mut sim, &cluster, &chain, 1024);
        // The window opens later: issue the outstanding burst then.
        let start_at = epoch + SimDuration::from_secs_f64(spec.start_s);
        driver.issue_at(&mut sim, start_at, outstanding);
        drivers.push((spec, driver));
    }
    let end = epoch + duration;
    sim.run_until(end + SimDuration::from_secs(1));
    Fig15Run {
        scheduler: name.to_string(),
        traces: drivers
            .into_iter()
            .map(|(spec, d)| TenantTrace {
                tenant: spec.tenant,
                weight: spec.weight,
                completed: d.completed(),
                points: d.series(end),
            })
            .collect(),
    }
}

/// Runs both schedulers at `scale` of the paper's timeline.
pub fn run(scale: f64) -> Fig15 {
    let specs = tenant_specs(scale);
    let duration = SimDuration::from_secs_f64(240.0 * scale);
    let window = SimDuration::from_secs_f64(2.0 * scale.max(0.05));
    let outstanding = 64;
    Fig15 {
        duration_s: 240.0 * scale,
        runs: vec![
            run_variant(
                SchedPolicy::Fcfs,
                "FCFS",
                &specs,
                duration,
                window,
                outstanding,
            ),
            run_variant(
                SchedPolicy::Dwrr { quantum: 1.0 },
                "DWRR",
                &specs,
                duration,
                window,
                outstanding,
            ),
        ],
    }
}

impl Fig15 {
    /// Returns one run by scheduler name.
    pub fn run_named(&self, name: &str) -> Option<&Fig15Run> {
        self.runs.iter().find(|r| r.scheduler == name)
    }

    /// Renders the traces as text tables.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for run in &self.runs {
            let mut rows = Vec::new();
            for trace in &run.traces {
                for &(t, rps) in &trace.points {
                    rows.push(vec![
                        format!("tenant-{} (w={})", trace.tenant, trace.weight),
                        fmt_f64(t),
                        fmt_f64(rps),
                    ]);
                }
            }
            out.push_str(&render_table(
                &format!(
                    "Fig. 15 - RDMA bandwidth shares, {} scheduler",
                    run.scheduler
                ),
                &["tenant", "t_s", "rps"],
                &rows,
            ));
            out.push('\n');
        }
        out
    }
}

impl Fig15Run {
    /// Mean RPS of `tenant` over `[a_s, b_s]`.
    pub fn mean_rps(&self, tenant: u16, a_s: f64, b_s: f64) -> f64 {
        let trace = self
            .traces
            .iter()
            .find(|t| t.tenant == tenant)
            .expect("tenant present");
        let pts: Vec<f64> = trace
            .points
            .iter()
            .filter(|(t, _)| *t > a_s && *t <= b_s)
            .map(|&(_, r)| r)
            .collect();
        if pts.is_empty() {
            0.0
        } else {
            pts.iter().sum::<f64>() / pts.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn fig() -> &'static Fig15 {
        static FIG: OnceLock<Fig15> = OnceLock::new();
        FIG.get_or_init(|| run(0.05)) // 12 s compressed timeline
    }

    /// Scaled window landmarks for scale = 0.05.
    const TWO_TENANTS: (f64, f64) = (2.0, 4.0); // T1+T2 active
    const THREE_TENANTS: (f64, f64) = (5.0, 7.0); // all three active

    #[test]
    fn dwrr_tracks_61_ratio_with_two_tenants() {
        let dwrr = fig().run_named("DWRR").unwrap();
        let t1 = dwrr.mean_rps(1, TWO_TENANTS.0, TWO_TENANTS.1);
        let t2 = dwrr.mean_rps(2, TWO_TENANTS.0, TWO_TENANTS.1);
        let ratio = t1 / t2;
        assert!(
            (4.8..=7.2).contains(&ratio),
            "T1/T2 = {ratio} (paper: 6.0, 90K vs 15K)"
        );
    }

    #[test]
    fn dwrr_tracks_612_ratio_with_three_tenants() {
        let dwrr = fig().run_named("DWRR").unwrap();
        let t1 = dwrr.mean_rps(1, THREE_TENANTS.0, THREE_TENANTS.1);
        let t2 = dwrr.mean_rps(2, THREE_TENANTS.0, THREE_TENANTS.1);
        let t3 = dwrr.mean_rps(3, THREE_TENANTS.0, THREE_TENANTS.1);
        assert!(
            (4.8..=7.2).contains(&(t1 / t2)),
            "T1/T2 = {} (paper: 6)",
            t1 / t2
        );
        assert!(
            (1.5..=2.5).contains(&(t3 / t2)),
            "T3/T2 = {} (paper: 2)",
            t3 / t2
        );
    }

    #[test]
    fn aggregate_sits_near_the_110k_ceiling() {
        let dwrr = fig().run_named("DWRR").unwrap();
        let total: f64 = [1u16, 2, 3]
            .iter()
            .map(|&t| dwrr.mean_rps(t, THREE_TENANTS.0, THREE_TENANTS.1))
            .sum();
        assert!(
            (90_000.0..=130_000.0).contains(&total),
            "aggregate = {total} (paper: ~110K)"
        );
    }

    #[test]
    fn fcfs_starves_the_heavy_tenant() {
        let fcfs = fig().run_named("FCFS").unwrap();
        let dwrr = fig().run_named("DWRR").unwrap();
        // Under FCFS tenant 1 gets roughly an equal (arrival-order) share,
        // far below its 6/9 weighted entitlement.
        let t1_fcfs = fcfs.mean_rps(1, THREE_TENANTS.0, THREE_TENANTS.1);
        let t1_dwrr = dwrr.mean_rps(1, THREE_TENANTS.0, THREE_TENANTS.1);
        assert!(
            t1_fcfs < 0.7 * t1_dwrr,
            "FCFS must starve T1: fcfs {t1_fcfs} vs dwrr {t1_dwrr}"
        );
    }

    #[test]
    fn tenant1_regains_full_bandwidth_after_others_leave() {
        let dwrr = fig().run_named("DWRR").unwrap();
        let end = fig().duration_s;
        let t1_late = dwrr.mean_rps(1, end - 1.5, end - 0.5);
        let t1_contended = dwrr.mean_rps(1, THREE_TENANTS.0, THREE_TENANTS.1);
        assert!(
            t1_late > 1.3 * t1_contended,
            "T1 should recover after contention: {t1_contended} -> {t1_late}"
        );
    }
}
