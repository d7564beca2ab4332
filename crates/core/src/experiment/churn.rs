//! BENCH churn — elastic control-plane scaling under tenant churn.
//!
//! Sweeps the churn cell of [`crate::churn`] across tenant populations
//! (10^2–10^5) with pre-warming off and on, holding everything else at
//! the default cell. The contrast per population isolates what the
//! elastic control plane buys: with `prewarm = 0` every tenant's first
//! contact pays the full RC establishment delay on the request path;
//! with the demand-driven restock controller it pays a claim measured
//! in microseconds, and goodput/tail follow.
//!
//! The sweep stops at 10^5 tenants, the largest population that has been
//! run; the model's memory per tenant has not been counted (ROADMAP item
//! 3), so nothing is claimed about 10^6. Over 10^2→10^3 the steady-state
//! hit rate holds above 0.9; from 10^4 the bounded active set starts to
//! evict (`results/BENCH_churn.json`).
//!
//! Every cell folds its counters into a determinism digest. Same seed ⇒
//! same bytes is checked on the rendered JSON: by the unit test below for
//! two `--quick` sweeps per seed of the matrix, and by `scripts/gates.sh
//! results` for the committed file.

use crate::churn::{run as run_cell, ChurnConfig, ChurnReport, ChurnWindow, RATE_PER_TENANT};
use crate::experiment::parallel::pmap;
use crate::report::{fmt_f64, render_table};
use simcore::SimDuration;

/// One sweep cell's headline numbers (the full [`ChurnReport`] rides
/// along for the JSON twin).
#[derive(Debug, Clone)]
pub struct ChurnRow {
    /// Tenant population target.
    pub tenants: usize,
    /// Pre-warm stock floor per link (0 = cold control plane).
    pub prewarm_target: usize,
    /// Requests modeled.
    pub requests: u64,
    /// Good requests (within SLO) per virtual second.
    pub goodput_rps: f64,
    /// Steady-state pre-warm hit rate (post-warmup first contacts
    /// served from stock).
    pub steady_hit_rate: f64,
    /// First contacts that paid the full RC establishment delay.
    pub cold_connects: u64,
    /// Steady-state median latency, µs.
    pub steady_p50_us: f64,
    /// Steady-state tail latency, µs.
    pub steady_p99_us: f64,
    /// LRU evictions from the active QP set.
    pub evictions: u64,
    /// Idle QPs lazily torn down.
    pub teardowns: u64,
    /// Peak concurrently-active QPs at the gateway RNIC.
    pub peak_active_qps: usize,
    /// Per-window thrash series — the PR 8 `qp_*` gauges as eviction /
    /// teardown / cold rates over the run, so the thrash knee is a
    /// series, not one total.
    pub windows: Vec<ChurnWindow>,
    /// Determinism digest, hex.
    pub digest: String,
}

obs::impl_to_json!(ChurnRow {
    tenants,
    prewarm_target,
    requests,
    goodput_rps,
    steady_hit_rate,
    cold_connects,
    steady_p50_us,
    steady_p99_us,
    evictions,
    teardowns,
    peak_active_qps,
    windows,
    digest
});

/// The full sweep.
#[derive(Debug, Clone)]
pub struct BenchChurn {
    pub rows: Vec<ChurnRow>,
}

obs::impl_to_json!(BenchChurn { rows });

/// Populations swept by the full budget.
pub const FULL_POPULATIONS: [usize; 4] = [100, 1_000, 10_000, 100_000];
/// Populations swept by `--quick` (CI smoke).
pub const QUICK_POPULATIONS: [usize; 3] = [100, 1_000, 10_000];
/// The cold-vs-warm contrast: pre-warm stock floors compared.
pub const PREWARM_LEVELS: [usize; 2] = [0, 8];

fn cell_cfg(seed: u64, tenants: usize, prewarm: usize, quick: bool) -> ChurnConfig {
    let mut cfg = ChurnConfig {
        tenants,
        prewarm_target: prewarm,
        seed,
        ..ChurnConfig::default()
    };
    if quick {
        cfg.horizon = SimDuration::from_millis(500);
        cfg.warmup = SimDuration::from_millis(125);
        cfg.max_requests = 30_000;
    }
    // At large populations the request cap, not the horizon, ends the
    // cell (offered load is `RATE_PER_TENANT * tenants`); pull the
    // warmup cutoff to a third of the expected time-to-cap so the
    // steady-state window still sees most of the samples.
    let offered = RATE_PER_TENANT * tenants as f64;
    if cfg.max_requests > 0 && offered > 0.0 {
        let time_to_cap = SimDuration::from_secs_f64(cfg.max_requests as f64 / offered / 3.0);
        if time_to_cap < cfg.warmup {
            cfg.warmup = time_to_cap;
        }
    }
    cfg
}

fn row(rep: &ChurnReport, prewarm: usize) -> ChurnRow {
    ChurnRow {
        tenants: rep.tenants,
        prewarm_target: prewarm,
        requests: rep.requests,
        goodput_rps: rep.goodput_rps,
        steady_hit_rate: rep.steady_hit_rate,
        cold_connects: rep.cold_connects,
        steady_p50_us: rep.steady_p50_us,
        steady_p99_us: rep.steady_p99_us,
        evictions: rep.evictions,
        teardowns: rep.teardowns,
        peak_active_qps: rep.peak_active_qps,
        windows: rep.windows.clone(),
        digest: format!("{:016x}", rep.digest),
    }
}

/// Runs the sweep at the default cell's seed with cells fanned out across
/// `jobs` threads; row order is the same whatever `jobs` is.
pub fn run(quick: bool, jobs: usize) -> BenchChurn {
    run_at(ChurnConfig::default().seed, quick, jobs)
}

fn run_at(seed: u64, quick: bool, jobs: usize) -> BenchChurn {
    let populations: &[usize] = if quick {
        &QUICK_POPULATIONS
    } else {
        &FULL_POPULATIONS
    };
    let mut cells: Vec<Box<dyn FnOnce() -> ChurnRow + Send>> = Vec::new();
    for &tenants in populations {
        for prewarm in PREWARM_LEVELS {
            cells.push(Box::new(move || {
                row(&run_cell(cell_cfg(seed, tenants, prewarm, quick)), prewarm)
            }));
        }
    }
    BenchChurn {
        rows: pmap(cells, jobs),
    }
}

impl BenchChurn {
    /// Looks up a sweep row.
    pub fn get(&self, tenants: usize, prewarm: usize) -> Option<&ChurnRow> {
        self.rows
            .iter()
            .find(|r| r.tenants == tenants && r.prewarm_target == prewarm)
    }

    /// Renders the sweep as a text table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.tenants.to_string(),
                    r.prewarm_target.to_string(),
                    r.requests.to_string(),
                    fmt_f64(r.goodput_rps),
                    fmt_f64(r.steady_hit_rate),
                    r.cold_connects.to_string(),
                    fmt_f64(r.steady_p50_us),
                    fmt_f64(r.steady_p99_us),
                    r.evictions.to_string(),
                    r.teardowns.to_string(),
                    r.peak_active_qps.to_string(),
                ]
            })
            .collect();
        let mut text = render_table(
            "BENCH churn - elastic control plane vs tenant population",
            &[
                "tenants",
                "prewarm",
                "requests",
                "goodput_rps",
                "steady_hit",
                "cold",
                "p50_us",
                "p99_us",
                "evict",
                "teardown",
                "peak_qps",
            ],
            &rows,
        );
        if let Some(thrash) = self.thrash_cell() {
            let win_rows: Vec<Vec<String>> = thrash
                .windows
                .iter()
                .map(|w| {
                    vec![
                        w.index.to_string(),
                        format!("{:.1}", w.start_ns as f64 / 1e6),
                        format!("{:.1}", w.end_ns as f64 / 1e6),
                        w.cold_connects.to_string(),
                        w.prewarm_claims.to_string(),
                        fmt_f64(w.eviction_rate_per_s),
                        fmt_f64(w.teardown_rate_per_s),
                        fmt_f64(w.cold_rate_per_s),
                    ]
                })
                .collect();
            text.push('\n');
            text.push_str(&render_table(
                &format!(
                    "QP thrash per window - {} tenants, prewarm {}",
                    thrash.tenants, thrash.prewarm_target
                ),
                &[
                    "window",
                    "start_ms",
                    "end_ms",
                    "cold",
                    "claims",
                    "evict/s",
                    "teardown/s",
                    "cold/s",
                ],
                &win_rows,
            ));
        }
        text
    }

    /// The cell whose thrash series the text report shows: the largest
    /// warm population — the place the eviction knee appears first.
    pub fn thrash_cell(&self) -> Option<&ChurnRow> {
        self.rows
            .iter()
            .filter(|r| r.prewarm_target > 0 && !r.windows.is_empty())
            .max_by_key(|r| r.tenants)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn quick() -> &'static BenchChurn {
        static BENCH: OnceLock<BenchChurn> = OnceLock::new();
        BENCH.get_or_init(|| run(true, 2))
    }

    #[test]
    fn quick_sweep_warm_beats_cold_at_every_population() {
        let bench = quick();
        assert_eq!(bench.rows.len(), QUICK_POPULATIONS.len() * 2);
        for &tenants in &QUICK_POPULATIONS {
            let cold = bench.get(tenants, 0).unwrap();
            let warm = bench.get(tenants, 8).unwrap();
            assert_eq!(cold.steady_hit_rate, 0.0, "no stock, no hits");
            assert!(
                warm.steady_hit_rate > 0.5,
                "warm hit rate at {tenants} tenants: {}",
                warm.steady_hit_rate
            );
            assert!(
                warm.steady_p99_us <= cold.steady_p99_us,
                "warm tail at {tenants} tenants: {} > {}",
                warm.steady_p99_us,
                cold.steady_p99_us
            );
            assert!(warm.goodput_rps >= cold.goodput_rps);
        }
    }

    /// Two `--quick` sweeps of one seed render the same bytes, at every seed
    /// of the matrix, whether the cells ran inline or on two threads.
    #[test]
    fn sweep_is_deterministic_across_repeats() {
        use obs::ToJson;
        let bytes = |b: &BenchChurn| b.to_json().to_string_pretty();
        for seed in simcore::rng::SEEDS {
            assert_eq!(
                bytes(&run_at(seed, true, 1)),
                bytes(&run_at(seed, true, 2)),
                "same-seed churn sweeps diverged byte-for-byte (seed {seed:#x})"
            );
        }
    }

    #[test]
    fn thrash_table_rides_the_largest_warm_cell() {
        let bench = quick();
        let cell = bench.thrash_cell().expect("warm cells carry windows");
        assert_eq!(cell.tenants, *QUICK_POPULATIONS.last().unwrap());
        assert!(cell.prewarm_target > 0);
        assert!(!cell.windows.is_empty());
        let rendered = bench.render();
        assert!(
            rendered.contains("QP thrash per window"),
            "thrash table missing from render:\n{rendered}"
        );
    }
}
