//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! bounds, and the per-layer ledger with the end-to-end metric each entry
//! is expected to move. `BENCHMARK.json` and the README repeat these
//! tables; tests keep the three in step.

/// Which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload and the one-line reason it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Virtual span of one repetition (per cell), milliseconds.
    pub span_ms: u64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "echo_small",
        why: "64 B echo across two nodes, closed loop, no gateway: only per-message machinery works (simcore, dne, rdma-sim)",
        span_ms: 2_000,
    },
    Workload {
        name: "boutique_gw",
        why: "three Online Boutique chains behind the gateway, closed loop: many hops, function and gateway work dilute per-message cost",
        span_ms: 1_000,
    },
    Workload {
        name: "tenants_open",
        why: "32 weighted tenants, 1 KB, open-loop Poisson/Zipf at 85% of the DNE ceiling with a rogue: per-tenant state does the work",
        span_ms: 3_000,
    },
    Workload {
        name: "echo_lossy_4k",
        why: "4 KB echo under seeded loss, corruption and node outages: the retry, failover and payload-copy paths do the work",
        span_ms: 2_000,
    },
];

/// Virtual span used by `--smoke`.
pub const SMOKE_SPAN_MS: u64 = 20;

/// An end-to-end metric: what a user of the system (the modelled data
/// plane, or the simulator itself) sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

/// Units name the clock: `sim_*` units are virtual time of the modelled
/// data plane, plain `ns`/`s` are host time of the simulator.
pub const END_TO_END: [EndToEnd; 10] = [
    EndToEnd {
        name: "host_ns_per_req",
        unit: "ns",
        better: Better::Lower,
        bound: 0.20,
        what: "wall ns of the timed window per request completed in it",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
        what: "resident-set high-water mark of one repetition's process",
    },
    EndToEnd {
        name: "allocs_per_req",
        unit: "count",
        better: Better::Lower,
        bound: 0.01,
        what: "heap allocations in the timed window per completed request",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "wall s from process start to the timed window (build, provisioning, warm-up)",
    },
    EndToEnd {
        name: "sim_rps",
        unit: "1/sim_s",
        better: Better::Higher,
        bound: 0.02,
        what: "requests completed per virtual second",
    },
    EndToEnd {
        name: "sim_p50_us",
        unit: "sim_us",
        better: Better::Lower,
        bound: 0.02,
        what: "exact median virtual latency, timed from the due instant",
    },
    EndToEnd {
        name: "sim_p99_us",
        unit: "sim_us",
        better: Better::Lower,
        bound: 0.12,
        what: "exact 99th-percentile virtual latency",
    },
    EndToEnd {
        name: "sim_soc_cores_per_krps",
        unit: "cores/krps",
        better: Better::Lower,
        bound: 0.01,
        what: "busy network-engine (DPU SoC) cores per thousand requests per virtual second",
    },
    EndToEnd {
        name: "ok_ratio",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.0005,
        what: "1 - fail_ratio: share of attempted requests that completed (not failed, shed, dropped, expired or hung)",
    },
    EndToEnd {
        name: "slo_ok_ratio",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.003,
        what: "1 - slo_miss_ratio: share of attempted requests that completed within the workload's latency limit",
    },
];

/// A per-layer metric. `name` is `<layer>.<metric>`; `moves` is the
/// prediction written down before measuring: which end-to-end metric it
/// should move, on which workload.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

const ALL_HOST: &str = "host_ns_per_req on all four; sim_* unmoved";
const ECHO_HOST: &str = "host_ns_per_req on echo_small and echo_lossy_4k; diluted on boutique_gw";
const TENANT_HOST: &str =
    "host_ns_per_req, peak_rss_mb, setup_s on tenants_open; none on echo_small (one tenant)";
const GW_HOST: &str = "host_ns_per_req on boutique_gw and tenants_open; zero ops on echo_*";
const LOSSY_ONLY: &str =
    "host_ns_per_req, sim_p99_us, ok_ratio on echo_lossy_4k only; must stay 0 elsewhere";
const OPEN_TAIL: &str = "sim_p99_us, slo_ok_ratio, ok_ratio on tenants_open";
const SIM_LAT: &str = "sim_p50_us and sim_p99_us on the workloads that cross the layer";

pub const PER_LAYER: [PerLayer; 73] = [
    // simcore
    pl("simcore.events_per_req", "count", Lower, ALL_HOST),
    pl("simcore.cancelled_per_req", "count", Lower, LOSSY_ONLY),
    pl("simcore.peak_pending", "count", Lower, "peak_rss_mb; sets the wheel occupancy dispatch_ns is measured at"),
    pl("simcore.host_ns_per_event", "ns", Lower, ALL_HOST),
    pl("simcore.dispatch_ns", "ns", Lower, ALL_HOST),
    pl("simcore.cancel_ns", "ns", Lower, LOSSY_ONLY),
    // membuf
    pl("membuf.gets_per_req", "count", Lower, ALL_HOST),
    pl("membuf.redeems_per_req", "count", Lower, ALL_HOST),
    pl("membuf.failed_gets", "count", Lower, "ok_ratio anywhere (an exhausted pool sheds)"),
    pl("membuf.bytes_copied_per_req", "B", Lower, "host_ns_per_req on echo_lossy_4k (4 KB copies); negligible at 64 B"),
    pl("membuf.pool_resident_mb", "MB", Lower, TENANT_HOST),
    pl("membuf.get_put_ns", "ns", Lower, ALL_HOST),
    pl("membuf.detach_redeem_ns", "ns", Lower, ALL_HOST),
    pl("membuf.write_payload_ns", "ns", Lower, "host_ns_per_req on echo_lossy_4k; negligible at 64 B"),
    // dpu-sim
    pl("dpu-sim.comch_msgs_per_req", "count", Lower, ECHO_HOST),
    pl("dpu-sim.comch_roundtrip_ns", "ns", Lower, "none today (the cluster prices Comch as virtual latency); would move echo_* if the rings joined the data path"),
    pl("dpu-sim.soc_busy_cores", "cores", Lower, "sim_soc_cores_per_krps on all four"),
    pl("dpu-sim.soc_stage_busy_us_per_req", "sim_us", Lower, "sim_soc_cores_per_krps and sim_rps (the engines are the ceiling)"),
    pl("dpu-sim.sim_us_per_req", "sim_us", Lower, SIM_LAT),
    // rdma-sim
    pl("rdma-sim.sends_per_req", "count", Lower, ECHO_HOST),
    pl("rdma-sim.rnr_per_kreq", "count", Lower, OPEN_TAIL),
    pl("rdma-sim.faults_per_kreq", "count", Lower, LOSSY_ONLY),
    pl("rdma-sim.active_qps_peak", "count", Lower, "sim_p50_us on tenants_open (QP-cache pressure)"),
    pl("rdma-sim.post_poll_ns", "ns", Lower, ECHO_HOST),
    pl("rdma-sim.sim_us_per_req", "sim_us", Lower, SIM_LAT),
    // dne
    pl("dne.tx_posted_per_req", "count", Lower, ECHO_HOST),
    pl("dne.rx_delivered_per_req", "count", Lower, ECHO_HOST),
    pl("dne.retries_per_kreq", "count", Lower, LOSSY_ONLY),
    pl("dne.failovers_per_kreq", "count", Lower, LOSSY_ONLY),
    pl("dne.reconnects", "count", Lower, LOSSY_ONLY),
    pl("dne.give_ups_per_kreq", "count", Lower, "ok_ratio on echo_lossy_4k; must stay 0 everywhere"),
    pl("dne.drops", "count", Lower, LOSSY_ONLY),
    pl("dne.tx_queue_wait_p99_us", "sim_us", Lower, OPEN_TAIL),
    pl("dne.sched_delay_p99_us", "sim_us", Lower, SIM_LAT),
    pl("dne.post_to_completion_p50_us", "sim_us", Lower, SIM_LAT),
    pl("dne.retry_latency_p99_us", "sim_us", Lower, LOSSY_ONLY),
    pl("dne.connpool_hit_ratio", "ratio", Higher, "sim_p50_us on tenants_open (shadow-QP activations)"),
    pl("dne.dwrr_share_error", "ratio", Lower, OPEN_TAIL),
    pl("dne.hop_ns", "ns", Lower, ECHO_HOST),
    pl("dne.dwrr_enq_deq_ns", "ns", Lower, TENANT_HOST),
    pl("dne.route_lookup_ns", "ns", Lower, ECHO_HOST),
    pl("dne.connpool_pick_ns", "ns", Lower, TENANT_HOST),
    pl("dne.sim_us_per_req", "sim_us", Lower, SIM_LAT),
    // ingress
    pl("ingress.accepted", "count", Higher, GW_HOST),
    pl("ingress.shed_ratio", "ratio", Lower, OPEN_TAIL),
    pl("ingress.dropped_ratio", "ratio", Lower, OPEN_TAIL),
    pl("ingress.expired_ratio", "ratio", Lower, OPEN_TAIL),
    pl("ingress.worker_util_cores", "cores", Lower, "sim_p50_us on boutique_gw and tenants_open"),
    pl("ingress.submit_ns", "ns", Lower, GW_HOST),
    pl("ingress.admission_ns", "ns", Lower, GW_HOST),
    pl("ingress.rate_at_slo_rps", "1/sim_s", Higher, "tenants_open only (0 elsewhere): sim_p99_us and slo_ok_ratio at the frozen rate"),
    pl("ingress.sim_us_per_req", "sim_us", Lower, SIM_LAT),
    // runtime
    pl("runtime.local_sends_per_req", "count", Lower, "host_ns_per_req on boutique_gw; 0 on echo_* (function-to-function SK_MSG hops, injection not counted)"),
    pl("runtime.remote_sends_per_req", "count", Lower, ECHO_HOST),
    pl("runtime.dropped", "count", Lower, "ok_ratio anywhere; must stay 0"),
    pl("runtime.host_busy_cores", "cores", Lower, "sim_p50_us on boutique_gw (function execution)"),
    pl("runtime.iolib_send_ns", "ns", Lower, GW_HOST),
    pl("runtime.sim_us_per_req", "sim_us", Lower, SIM_LAT),
    // obs
    pl("obs.trace_overhead_pct", "%", Lower, "no end-to-end metric (those run untraced); prices ROADMAP item 5(e)"),
    pl("obs.spans_per_req", "count", Lower, "obs.trace_overhead_pct"),
    pl("obs.spans_dropped", "count", Lower, "validity of the *.sim_us_per_req rows (must be 0)"),
    pl("obs.span_enabled_ns", "ns", Lower, "obs.trace_overhead_pct"),
    pl("obs.span_disabled_ns", "ns", Lower, ALL_HOST),
    pl("obs.sample_obs_ns", "ns", Lower, "none (no sampler runs in the timed window); tenant-count scaling of the sampler"),
    // core
    pl("core.est_ns_per_req", "ns", Lower, "host_ns_per_req: the sum of layer ops per request times isolated ns/op"),
    pl("core.unattributed_ns_per_req", "ns", Lower, "host_ns_per_req: what the isolated estimates do not explain (glue, closures, cache misses)"),
    pl("core.setup_ns_per_tenant", "ns", Lower, "setup_s on tenants_open"),
    pl("core.alloc_bytes_per_req", "B", Lower, "allocs_per_req and host_ns_per_req on all four"),
    pl("core.rss_retained_mb_per_rep", "MB", Lower, "peak_rss_mb if repetitions ever share a process (why they do not)"),
    pl("core.sim_us_untracked_per_req", "sim_us", Lower, "coverage of the *.sim_us_per_req rows"),
    pl("core.fail_ratio", "ratio", Lower, "ok_ratio (its complement); 0 on the fault-free workloads"),
    pl("core.slo_miss_ratio", "ratio", Lower, "slo_ok_ratio (its complement)"),
    pl("core.gen_lateness_us", "sim_us", Lower, "none: 0 by construction, arrivals fire at their due instant in virtual time"),
];

/// The layer a per-layer metric belongs to (the part before the dot).
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_are_unique_and_within_the_allowed_alphabet() {
        let mut seen = BTreeSet::new();
        for n in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(name_ok(n), "bad name {n:?}");
            assert!(seen.insert(n), "duplicate name {n:?}");
        }
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit_ok(u), "bad unit {u:?}");
        }
    }

    #[test]
    fn counts_and_bounds_fit_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(END_TO_END.len() <= 16);
        assert!(PER_LAYER.len() <= 128);
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
    }

    #[test]
    fn every_layer_metric_names_a_known_layer() {
        const LAYERS: [&str; 9] = [
            "simcore", "membuf", "dpu-sim", "rdma-sim", "dne", "ingress", "runtime", "obs", "core",
        ];
        for m in &PER_LAYER {
            assert!(LAYERS.contains(&layer_of(m.name)), "{}", m.name);
            assert!(!m.moves.is_empty(), "{} has no prediction", m.name);
        }
        for layer in LAYERS {
            assert!(
                PER_LAYER.iter().any(|m| layer_of(m.name) == layer),
                "{layer}"
            );
        }
    }
}
