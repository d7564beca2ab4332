//! Synthetic invocation traces and trace replay.
//!
//! Production serverless platforms see highly skewed, time-varying
//! invocation patterns (the Azure Functions trace analyses the paper's
//! related work cites). This module generates deterministic synthetic
//! traces with the two structural properties that matter for data-plane
//! evaluation — Zipf-skewed chain popularity and diurnal rate modulation —
//! and replays them against a cluster with per-chain latency accounting.

use std::rc::Rc;

use runtime::ChainSpec;
use simcore::rng::{diurnal, Zipf};
use simcore::{Sim, SimDuration, SimRng};

use crate::cluster::Cluster;
use crate::workload::ClosedLoop;

/// One trace record: invoke `chain_idx` at `at` after replay start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEntry {
    pub at_s: f64,
    pub chain_idx: usize,
}

obs::impl_to_json!(TraceEntry { at_s, chain_idx });

/// Parameters of the synthetic trace.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Mean aggregate arrival rate (requests per second).
    pub mean_rps: f64,
    /// Trace duration.
    pub duration: SimDuration,
    /// Number of chains to spread invocations over.
    pub chains: usize,
    /// Zipf skew across chains (0 = uniform; ~1 = production-like skew).
    pub zipf_s: f64,
    /// Apply a diurnal modulation (rate swings 0.4×–1.6× of the mean).
    pub diurnal: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            mean_rps: 5_000.0,
            duration: SimDuration::from_secs(1),
            chains: 3,
            zipf_s: 1.0,
            diurnal: true,
            seed: 1,
        }
    }
}

/// Generates a deterministic synthetic trace.
///
/// Arrivals form a non-homogeneous Poisson process (thinning against the
/// peak rate); each arrival picks a chain from a Zipf distribution.
pub fn generate(cfg: &TraceConfig) -> Vec<TraceEntry> {
    assert!(cfg.mean_rps > 0.0 && cfg.chains > 0);
    let mut rng = SimRng::new(cfg.seed);
    let popularity = Zipf::new(cfg.chains, cfg.zipf_s);
    let duration_s = cfg.duration.as_secs_f64();
    let peak = if cfg.diurnal {
        cfg.mean_rps * 1.6
    } else {
        cfg.mean_rps
    };
    let mut entries = Vec::new();
    let mut t = 0.0f64;
    loop {
        t += rng.exponential(1.0 / peak);
        if t >= duration_s {
            break;
        }
        if cfg.diurnal {
            // One full "day" over the trace: rate(t) in [0.4, 1.6] x mean.
            let rate = cfg.mean_rps * diurnal(0.6, t, duration_s);
            if !rng.chance(rate / peak) {
                continue; // thinned out
            }
        }
        entries.push(TraceEntry {
            at_s: t,
            chain_idx: popularity.sample(&mut rng, cfg.chains),
        });
    }
    entries
}

/// Per-chain replay outcome.
#[derive(Debug, Clone)]
pub struct ChainOutcome {
    pub chain: String,
    pub invocations: u64,
    pub completed: u64,
    pub mean_us: f64,
    pub p99_us: f64,
}

obs::impl_to_json!(ChainOutcome {
    chain,
    invocations,
    completed,
    mean_us,
    p99_us
});

/// Replays `trace` against `chains`, placed on `cluster`: registers each
/// chain with an open loop of its own and returns per-chain outcomes once
/// the simulation drains.
pub fn replay(
    sim: &mut Sim,
    cluster: &Rc<Cluster>,
    chains: &[ChainSpec],
    exec_cost: impl Fn(u16) -> SimDuration + Copy,
    trace: &[TraceEntry],
    payload: usize,
) -> Vec<ChainOutcome> {
    let epoch = sim.now();
    let mut drivers = Vec::new();
    for (idx, chain) in chains.iter().enumerate() {
        // Chains may share functions; as on a real platform each chain gets
        // its own function *instances*. Remap function ids per chain,
        // placing each instance on the same node as the original function.
        let base = 1_000 * (idx as u16 + 1);
        let remapped = ChainSpec::new(
            &chain.name,
            chain.tenant,
            chain.hops.iter().map(|&f| base + f).collect(),
        );
        for &f in &chain.functions() {
            let node = cluster
                .node_index_of(f)
                .unwrap_or_else(|| panic!("function {f} is not placed"));
            cluster.place(base + f, node);
        }
        // An open loop: arrivals come only from the trace schedule, and
        // completions only record.
        let driver = ClosedLoop::new(None);
        let instance_exec = move |f: u16| exec_cost(f - base);
        cluster.register_chain(&remapped, instance_exec, driver.completion());
        driver.direct(sim, cluster, &remapped, payload);
        drivers.push(driver);
    }
    let mut invocations = vec![0u64; chains.len()];
    for e in trace {
        let Some(driver) = drivers.get(e.chain_idx) else {
            continue;
        };
        invocations[e.chain_idx] += 1;
        driver.issue_at(sim, epoch + SimDuration::from_secs_f64(e.at_s), 1);
    }
    sim.run();
    drivers
        .iter()
        .zip(chains)
        .zip(invocations)
        .map(|((d, chain), inv)| {
            let lat = d.latency();
            ChainOutcome {
                chain: chain.name.clone(),
                invocations: inv,
                completed: d.completed(),
                mean_us: lat.mean().as_micros_f64(),
                p99_us: lat.percentile(99.0).as_micros_f64(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boutique;
    use crate::cluster::ClusterConfig;
    use membuf::tenant::TenantId;

    #[test]
    fn trace_is_deterministic_and_zipf_skewed() {
        let cfg = TraceConfig::default();
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a, b, "same seed, same trace");
        // Roughly the configured volume (diurnal modulation preserves mean).
        let n = a.len() as f64;
        assert!((3_500.0..=6_500.0).contains(&n), "arrivals = {n}");
        // Chain 0 dominates under Zipf skew.
        let counts = a.iter().fold(vec![0u32; 3], |mut c, e| {
            c[e.chain_idx] += 1;
            c
        });
        assert!(counts[0] > counts[1] && counts[1] > counts[2], "{counts:?}");
        // Arrival times are sorted and within the duration.
        assert!(a.windows(2).all(|w| w[0].at_s <= w[1].at_s));
        assert!(a.last().unwrap().at_s < 1.0);
    }

    /// Pinned at the commit before the generator moved to `simcore::rng`:
    /// the shared Zipf table and diurnal curve draw the same arrivals.
    #[test]
    fn generated_entries_keep_their_pinned_digest() {
        for (seed, entries, digest) in [
            (1, 5134, 9841842155608708035u64),
            (42, 4974, 15054040235202663388),
        ] {
            let trace = generate(&TraceConfig {
                seed,
                ..TraceConfig::default()
            });
            let got = simcore::rng::fnv1a(trace.iter().flat_map(|e| {
                let mut b = [0u8; 16];
                b[..8].copy_from_slice(&e.at_s.to_bits().to_le_bytes());
                b[8..].copy_from_slice(&(e.chain_idx as u64).to_le_bytes());
                b
            }));
            assert_eq!((trace.len(), got), (entries, digest), "seed {seed}");
        }
    }

    #[test]
    fn diurnal_rate_actually_varies() {
        let cfg = TraceConfig {
            mean_rps: 20_000.0,
            diurnal: true,
            ..TraceConfig::default()
        };
        let trace = generate(&cfg);
        // First half of the "day" (rising sine) sees more arrivals than
        // the second (falling below the mean).
        let first_half = trace.iter().filter(|e| e.at_s < 0.5).count();
        let second_half = trace.len() - first_half;
        assert!(
            first_half as f64 > 1.2 * second_half as f64,
            "{first_half} vs {second_half}"
        );
    }

    #[test]
    fn replay_completes_every_invocation() {
        let mut sim = Sim::new();
        let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
        let tenant = TenantId(1);
        cluster.add_tenant(&mut sim, tenant, 1).unwrap();
        for f in boutique::all_functions() {
            cluster.place(f, boutique::hotspot_placement(f));
        }
        let chains = vec![boutique::add_to_cart(tenant), boutique::serve_ads(tenant)];
        let cfg = TraceConfig {
            mean_rps: 2_000.0,
            duration: SimDuration::from_millis(200),
            chains: 2,
            zipf_s: 0.8,
            diurnal: false,
            seed: 9,
        };
        let trace = generate(&cfg);
        let outcomes = replay(
            &mut sim,
            &Rc::new(cluster),
            &chains,
            boutique::exec_cost,
            &trace,
            256,
        );
        let total: u64 = outcomes.iter().map(|o| o.completed).sum();
        assert_eq!(total as usize, trace.len(), "no invocation lost");
        for o in &outcomes {
            assert_eq!(o.completed, o.invocations);
            if o.completed > 0 {
                assert!(o.mean_us > 0.0 && o.p99_us >= o.mean_us * 0.5);
            }
        }
    }
}
