//! Sharded-vs-sequential differential suite at the cluster level.
//!
//! Runs the node-sharded cluster model (`nadino::shard_cluster`) in the
//! three shapes the figure reproductions sweep — the fig06 echo shape,
//! the fig16 scatter/gather DAG shape, and a chaos run with a crash
//! window — and asserts that the determinism digest of a multi-worker
//! run is byte-identical to the one-worker sequential oracle. CI sweeps
//! `SHARD_SEED` over the same 4-seed matrix as the chaos suite
//! (1, 42, 9001, 0xC4A0) with `--shards 4`.

use nadino::shard_cluster::{build, run, CrashWindow, ShardClusterConfig, WorkloadKind};
use rdma_sim::cost::RdmaCosts;
use simcore::{SimDuration, SimTime};

/// Seed for the differential runs, overridable via `SHARD_SEED` (decimal
/// or `0x`-prefixed hex) so CI can sweep a seed matrix over these tests.
fn shard_seed(default: u64) -> u64 {
    simcore::rng::seed_from_env("SHARD_SEED", default)
}

/// Worker counts the differential sweep compares against the oracle.
/// `--shards 4` in CI maps to the 4 here; 2 catches asymmetric splits.
const WORKER_MATRIX: [usize; 2] = [2, 4];

fn base_cfg(workload: WorkloadKind, seed: u64) -> ShardClusterConfig {
    ShardClusterConfig {
        nodes: 5,
        clients: 12,
        horizon: SimDuration::from_millis(2),
        payload: 1024,
        seed,
        workload,
        ..ShardClusterConfig::default()
    }
}

fn assert_identical_across_workers(cfg: ShardClusterConfig, label: &str) {
    let oracle = run(cfg.clone(), 1);
    assert!(
        oracle.completed() > 0,
        "{label}: the workload must make progress"
    );
    let expected = oracle.determinism_digest();
    for workers in WORKER_MATRIX {
        let sharded = run(cfg.clone(), workers);
        assert_eq!(
            expected,
            sharded.determinism_digest(),
            "{label}: workers={workers} diverged from sequential (seed={:#x})",
            cfg.seed
        );
    }
}

#[test]
fn fig06_shape_echo_is_byte_identical_sharded() {
    let seed = shard_seed(1);
    assert_identical_across_workers(base_cfg(WorkloadKind::Echo, seed), "fig06/echo");
}

#[test]
fn fig16_shape_dag_is_byte_identical_sharded() {
    let seed = shard_seed(42);
    assert_identical_across_workers(base_cfg(WorkloadKind::Dag, seed), "fig16/dag");
}

#[test]
fn chaos_crash_window_is_byte_identical_sharded() {
    let seed = shard_seed(0xC4A0);
    let mut cfg = base_cfg(WorkloadKind::Echo, seed);
    cfg.crash = Some(CrashWindow {
        node: 1,
        from: SimTime::from_nanos(300_000),
        until: SimTime::from_nanos(900_000),
    });
    let oracle = run(cfg.clone(), 1);
    assert!(
        oracle.stats[1].dropped > 0,
        "crash window must actually drop traffic"
    );
    assert!(
        oracle.stats[0].retries > 0,
        "client must retry through the outage"
    );
    assert_identical_across_workers(cfg, "chaos/crash-window");
}

#[test]
fn digests_differ_across_seeds() {
    // The identity assertions above are only meaningful if seeds steer
    // the trajectory: two different seeds must produce different digests.
    let a = run(base_cfg(WorkloadKind::Echo, 1), 1);
    let b = run(base_cfg(WorkloadKind::Echo, 2), 1);
    assert_ne!(a.determinism_digest(), b.determinism_digest());
}

#[test]
fn zero_latency_fabric_is_rejected_at_build_time() {
    let mut cfg = base_cfg(WorkloadKind::Echo, 1);
    cfg.costs = RdmaCosts {
        rnic_tx_fixed: SimDuration::ZERO,
        rnic_rx_fixed: SimDuration::ZERO,
        propagation: SimDuration::ZERO,
        ..RdmaCosts::default()
    };
    assert!(build(cfg).is_err(), "zero lookahead must not build");
}

#[test]
fn shard_health_gauges_reach_the_metrics_snapshot() {
    let report = run(base_cfg(WorkloadKind::Dag, shard_seed(9001)), 2);
    let reg = obs::MetricsRegistry::new();
    report.export_metrics(&reg);
    let snap = reg.snapshot();
    for shard in ["0", "1", "4"] {
        for gauge in [
            "shard_barrier_stalls",
            "shard_mailbox_depth",
            "shard_window_ns",
        ] {
            assert!(
                snap.gauge(gauge, &[("shard", shard)]).is_some(),
                "{gauge}{{shard={shard}}} missing from the snapshot"
            );
        }
    }
    assert_eq!(
        snap.gauge("shard_lookahead_ns", &[]),
        Some(report.lookahead_ns as f64)
    );
}
