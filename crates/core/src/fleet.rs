//! The fleet-level observability report (`results/report.json`).
//!
//! This module assembles everything the obs stack produces into one
//! deterministic document — the "fleet report" the evaluation is built on:
//!
//! - a **boutique cell**: the fig16-shaped Online Boutique chain behind
//!   a NADINO ingress, driven by [`ClosedLoop`] in gateway mode through
//!   the cluster's front door ([`Cluster::serve_chain`]), run on the
//!   full-fidelity DNE cluster with the tracer, the trace pipeline
//!   (multi-window SLO burn monitor included),
//!   exemplar-carrying latency histograms and the cluster's obs sampler
//!   ([`Cluster::start_obs_sampler`]) all enabled — producing per-window
//!   fleet rollups of every sampled level, merged histograms whose every
//!   exemplar resolves to a retained flight-recorder/tail-sampler trace,
//!   the per-tenant burn-rate series, a flight-recorder dump, and the
//!   fleet totals: every running count, read from the struct that keeps it
//!   once the run has drained and summed across nodes;
//! - a **host-only baseline**: the same cell on the CNE (engine on a
//!   host core) to price the "SoC cores freed" table
//!   ([`obs::CoresFreed`]) next to the per-stage SoC profiler
//!   ([`obs::SocStageTable`]);
//! - a **churn phase**: the elastic cell's per-window QP-thrash series.
//!
//! Determinism contract: for a fixed [`ReportConfig`] seed the rendered
//! JSON is byte-identical across processes — every number in it derives
//! from virtual time and seeded streams ([`Cluster::sample_obs`] writes no
//! wall-clock reading into the registry). The unit tests below hold the
//! contract, and the bars a report is read for, at every seed of the matrix
//! (`simcore::rng::SEEDS`); `experiments report` runs the default seed.

use std::collections::BTreeSet;
use std::rc::Rc;

use ingress::gateway::{Gateway, GatewayConfig};
use ingress::stack::GatewayKind;
use obs::JsonValue;
use simcore::{Sim, SimDuration};

use crate::boutique;
use crate::churn::{self, ChurnConfig};
use crate::cluster::Cluster;
use crate::workload::{hop, ClosedLoop, Far};

/// Aggregation window (= obs sampling cadence) of the boutique cell.
const OBS_WINDOW: SimDuration = SimDuration::from_millis(5);

/// Configuration of one fleet report.
#[derive(Debug, Clone)]
pub struct ReportConfig {
    /// Root seed for every phase.
    pub seed: u64,
    /// Closed-loop clients driving the boutique cell.
    pub clients: usize,
    /// Virtual time of the boutique cell.
    pub horizon: SimDuration,
}

impl Default for ReportConfig {
    fn default() -> Self {
        ReportConfig {
            seed: 42,
            clients: 20,
            horizon: SimDuration::from_millis(40),
        }
    }
}

/// What one boutique cell leaves behind.
struct CellOut {
    completed: u64,
    agg: obs::Aggregator,
    burn: JsonValue,
    flight: JsonValue,
    totals: JsonValue,
    retained: BTreeSet<u64>,
    soc: obs::SocStageTable,
    engine_cores: f64,
    host_cores: f64,
    exemplars_kept: usize,
    exemplars_dropped: usize,
}

/// The fleet's running totals: every engine's counters summed across
/// nodes — sums, not per-node means — plus the tracer's dropped-span count,
/// each read once from the struct that keeps it.
fn totals(cluster: &Cluster, tracer: &obs::Tracer) -> JsonValue {
    let per_node = cluster.nodes.iter().map(|node| {
        let (s, e) = (node.dne.stats(), &node.dne);
        [
            ("tx_posted", s.tx_posted),
            ("rx_delivered", s.rx_delivered),
            ("drops", s.drops),
            ("retries", s.retries),
            ("failovers", s.failovers),
            ("reconnects", s.reconnects),
            ("give_ups", s.give_ups),
            ("replenishes", s.replenishes),
            ("replenish_failures", s.replenish_failures),
            ("cold_connects", s.cold_connects),
            ("conn_deactivations", e.conn_deactivations()),
            ("conn_evictions", e.conn_evictions()),
            ("conn_teardowns", e.conn_teardowns()),
        ]
    });
    let sums = per_node.reduce(|mut sums, counts| {
        for (sum, (_, count)) in sums.iter_mut().zip(counts) {
            sum.1 += count;
        }
        sums
    });
    let dropped = ("spans_dropped", tracer.dropped());
    let fields = sums.into_iter().flatten().chain([dropped]);
    JsonValue::obj(fields.map(|(k, v)| (k, JsonValue::UInt(v))).collect())
}

/// Runs the boutique cell once. `dne_cfg` selects the engine placement
/// (DPU-resident DNE vs host-resident CNE for the baseline). The drained
/// cluster comes back next to what was read from it.
fn run_cell(cfg: &ReportConfig, dne_cfg: dne::DneConfig) -> (CellOut, Rc<Cluster>) {
    let mut sim = Sim::new();
    let cluster = boutique::cluster(&mut sim, dne_cfg);

    // Tracing: ingress-decided sampling every 2nd request, pipeline with
    // the multi-window burn monitor sized to the cell's latency scale. A
    // retained trace is ~100 spans, so the flight ring is kept short to
    // hold the size of the report's dump.
    let tracer = obs::Tracer::enabled();
    tracer.set_head_sample(2);
    cluster.set_tracer(&tracer);
    cluster.enable_trace_pipeline(obs::PipelineConfig {
        flight_cap: 8,
        burn: Some(obs::BurnConfig {
            target_ns: 2_000_000, // 2 ms — near the cell's mean latency
            budget: 0.05,
            fast_window: SimDuration::from_millis(2),
            slow_window: SimDuration::from_millis(24),
            burn_threshold: 2.0,
            min_events: 4,
        }),
        ..obs::PipelineConfig::default()
    });

    // Exemplar-carrying observation sites: per-node engine histograms
    // plus the gateway admission-wait histogram.
    let reg = Rc::new(obs::MetricsRegistry::new());
    cluster.export_latency_histograms(&reg);

    let gateway = Gateway::new(GatewayConfig {
        kind: GatewayKind::Nadino,
        initial_workers: 2,
        max_backlog: SimDuration::from_millis(500),
        ..GatewayConfig::default()
    });
    gateway.set_tracer(tracer.clone());
    gateway.register_tenant(boutique::TENANT.0, 1);
    gateway.set_admission_histogram(Some(reg.histogram("gw_admission_wait_ns", &[])));

    // Ingress → cluster: RDMA transport, then the cluster's front door.
    let transport = GatewayKind::Nadino.worker_transport();
    let chain = boutique::home_query(boutique::TENANT);
    let door = cluster.serve_chain(&chain, boutique::exec_cost, boutique::PAYLOAD_BYTES);
    let upstream = hop(transport, Far::Door(door));

    // Anchor the measured interval at "now": tenant setup above advanced
    // virtual time (RC establishment costs tens of ms).
    let t0 = sim.now();
    let until = t0 + cfg.horizon;
    let agg = cluster.start_obs_sampler(&mut sim, reg.clone(), OBS_WINDOW, until);

    let driver = ClosedLoop::new(until);
    driver.start_gateway(
        &mut sim,
        &gateway,
        boutique::TENANT.0,
        &upstream,
        cfg.clients,
        boutique::PAYLOAD_BYTES,
    );
    sim.run();
    let t1 = sim.now();

    // Every exemplar that survives into the report must resolve to a
    // trace the pipeline retained (flight ring ∪ slowest-k).
    let retained = cluster
        .with_trace_pipeline(|p| p.retained_trace_ids())
        .unwrap_or_default();
    let (exemplars_kept, exemplars_dropped) = agg.borrow_mut().retain_exemplars(&retained);
    let burn = cluster
        .with_trace_pipeline(|p| p.burn().map(|b| b.to_json()))
        .flatten()
        .unwrap_or(JsonValue::Null);
    let flight = cluster
        .dump_flight_recorder(&sim)
        .unwrap_or(JsonValue::Null);
    let soc = cluster.soc_stage_table(cfg.horizon.as_nanos());
    let agg = agg.take();
    let out = CellOut {
        completed: driver.completed(),
        agg,
        burn,
        flight,
        totals: totals(&cluster, &tracer),
        retained,
        soc,
        engine_cores: cluster.engine_utilization(t0, t1),
        host_cores: cluster.host_utilization(t0, t1),
        exemplars_kept,
        exemplars_dropped,
    };
    (out, cluster)
}

/// Builds the full fleet report for `cfg`.
pub fn build_report(cfg: &ReportConfig) -> JsonValue {
    // Boutique cell on the DPU-resident engine — the obs-bearing run.
    let (dne, _) = run_cell(cfg, dne::DneConfig::nadino_dne());
    // Host-only baseline: same cell, engine on a host core.
    let (cne, _) = run_cell(cfg, dne::DneConfig::nadino_cne());
    let cores_freed = obs::CoresFreed {
        baseline_host_cores: cne.host_cores + cne.engine_cores,
        dne_host_cores: dne.host_cores,
        dne_soc_cores: dne.engine_cores,
    };

    // Churn phase: the elastic cell's per-window thrash series.
    let churn_rep = churn::run(ChurnConfig {
        tenants: 200,
        horizon: SimDuration::from_millis(300),
        mean_lifetime: SimDuration::from_millis(150),
        max_requests: 20_000,
        warmup: SimDuration::from_millis(75),
        seed: cfg.seed,
        ..ChurnConfig::default()
    });

    use obs::ToJson;
    JsonValue::obj(vec![
        (
            "meta",
            JsonValue::obj(vec![
                ("seed", JsonValue::UInt(cfg.seed)),
                ("clients", JsonValue::UInt(cfg.clients as u64)),
                ("horizon_ns", JsonValue::UInt(cfg.horizon.as_nanos())),
                ("obs_window_ns", JsonValue::UInt(OBS_WINDOW.as_nanos())),
            ]),
        ),
        (
            "fleet",
            JsonValue::obj(vec![
                ("completed", JsonValue::UInt(dne.completed)),
                ("aggregation", dne.agg.to_json()),
                ("totals", dne.totals),
                ("exemplars_kept", JsonValue::UInt(dne.exemplars_kept as u64)),
                (
                    "exemplars_dropped",
                    JsonValue::UInt(dne.exemplars_dropped as u64),
                ),
                (
                    "retained_traces",
                    JsonValue::UInt(dne.retained.len() as u64),
                ),
                ("burn", dne.burn),
                ("soc_stages", dne.soc.to_json()),
                ("cores_freed", cores_freed.to_json()),
                ("flight_dump", dne.flight),
            ]),
        ),
        (
            "churn",
            JsonValue::obj(vec![
                (
                    "digest",
                    JsonValue::Str(format!("{:016x}", churn_rep.digest)),
                ),
                (
                    "steady_hit_rate",
                    JsonValue::Float(churn_rep.steady_hit_rate),
                ),
                (
                    "thrash_windows",
                    JsonValue::Arr(churn_rep.windows.iter().map(|w| w.to_json()).collect()),
                ),
            ]),
        ),
    ])
}

/// The value under a chain of object keys.
fn path<'a>(doc: &'a JsonValue, keys: &[&str]) -> Option<&'a JsonValue> {
    keys.iter().try_fold(doc, |v, k| v.get(k))
}

/// Renders the headline numbers of a built report as a text table (the
/// `experiments report` console output; the JSON twin is the document
/// itself).
pub fn render_summary(doc: &JsonValue) -> String {
    let u = |keys: &[&str]| path(doc, keys).and_then(|v| v.as_u64()).unwrap_or(0);
    let f = |keys: &[&str]| path(doc, keys).and_then(|v| v.as_f64()).unwrap_or(0.0);
    let s = |keys: &[&str]| {
        path(doc, keys)
            .and_then(|v| v.as_str())
            .unwrap_or("-")
            .to_string()
    };
    let windows = path(doc, &["fleet", "aggregation", "windows"])
        .and_then(|v| v.as_arr())
        .map_or(0, |a| a.len());
    let rows = vec![
        vec![
            "boutique".to_string(),
            format!("completed {}", u(&["fleet", "completed"])),
            format!("agg windows {windows}"),
            format!(
                "exemplars {} kept / {} dropped",
                u(&["fleet", "exemplars_kept"]),
                u(&["fleet", "exemplars_dropped"])
            ),
            format!("retained traces {}", u(&["fleet", "retained_traces"])),
        ],
        vec![
            "cores".to_string(),
            format!(
                "baseline host {:.2}",
                f(&["fleet", "cores_freed", "baseline_host_cores"])
            ),
            format!(
                "dne host {:.2}",
                f(&["fleet", "cores_freed", "dne_host_cores"])
            ),
            format!(
                "dne soc {:.2}",
                f(&["fleet", "cores_freed", "dne_soc_cores"])
            ),
            format!(
                "freed {:.2}",
                f(&["fleet", "cores_freed", "host_cores_freed"])
            ),
        ],
        vec![
            "churn".to_string(),
            format!("digest {}", s(&["churn", "digest"])),
            format!("steady hit {:.3}", f(&["churn", "steady_hit_rate"])),
            format!(
                "thrash windows {}",
                path(doc, &["churn", "thrash_windows"])
                    .and_then(|v| v.as_arr())
                    .map_or(0, |a| a.len())
            ),
            String::new(),
        ],
    ];
    crate::report::render_table(
        "fleet report - windowed rollups, exemplars, burn rates, SoC profile",
        &["phase", "", "", "", ""],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ReportConfig {
        ReportConfig {
            horizon: SimDuration::from_millis(20),
            clients: 8,
            ..ReportConfig::default()
        }
    }

    /// The DPU-resident `--quick` cell, drained, at every seed of the matrix.
    fn quick_cells() -> impl Iterator<Item = (CellOut, Rc<Cluster>)> {
        simcore::rng::SEEDS.into_iter().map(|seed| {
            let cfg = ReportConfig { seed, ..quick() };
            run_cell(&cfg, dne::DneConfig::nadino_dne())
        })
    }

    #[test]
    fn report_has_every_section_and_parses() {
        let doc = build_report(&quick());
        let text = doc.to_string_pretty();
        let parsed = obs::parse(&text).expect("report is valid JSON");
        for section in ["meta", "fleet", "churn"] {
            assert!(parsed.get(section).is_some(), "missing {section}");
        }
        let fleet = parsed.get("fleet").unwrap();
        assert!(fleet.get("aggregation").unwrap().get("windows").is_some());
        assert!(fleet.get("cores_freed").is_some());
        assert!(fleet.get("soc_stages").is_some());
        assert!(fleet.get("burn").is_some());
    }

    /// The report `experiments report` writes, at every seed of the matrix:
    /// two builds render the same bytes, sampled requests left exemplars on
    /// the engine's histogram, every section is there, windows carry levels
    /// (a tenant-labelled one among them) and no running total, and the
    /// fleet totals counted real traffic.
    #[test]
    fn same_seed_reports_are_byte_identical() {
        fn at<'a>(doc: &'a JsonValue, keys: &[&str]) -> &'a JsonValue {
            let found = path(doc, keys).filter(|v| **v != JsonValue::Null);
            found.unwrap_or_else(|| panic!("report has no {keys:?}"))
        }
        fn name(v: &JsonValue) -> &str {
            at(v, &["name"]).as_str().unwrap()
        }
        for seed in simcore::rng::SEEDS {
            let cfg = ReportConfig {
                seed,
                ..ReportConfig::default()
            };
            let doc = build_report(&cfg);
            assert_eq!(
                doc.to_string_pretty(),
                build_report(&cfg).to_string_pretty(),
                "same-seed fleet reports diverged byte-for-byte (seed {seed:#x})"
            );
            let fleet = at(&doc, &["fleet"]);
            assert!(at(fleet, &["exemplars_kept"]).as_u64() > Some(0));
            let histograms = at(fleet, &["aggregation", "histograms"]).as_arr().unwrap();
            let queue_wait = histograms
                .iter()
                .find(|h| name(h) == "dne_tx_queue_wait_ns");
            let queue_wait = queue_wait.expect("engine histogram in the report");
            assert!(
                !at(queue_wait, &["exemplars", "exemplars"])
                    .as_arr()
                    .unwrap()
                    .is_empty(),
                "dne_tx_queue_wait_ns carries no exemplar: sampled requests are \
                 not traced inside the cluster (seed {seed:#x})"
            );
            for section in ["burn", "soc_stages", "cores_freed"] {
                at(fleet, &[section]);
            }
            let windows = at(fleet, &["aggregation", "windows"]).as_arr().unwrap();
            assert_eq!(windows.len(), 8, "40 ms of 5 ms windows");
            for w in windows {
                let gauges = at(w, &["gauges"]).as_arr().unwrap();
                for g in gauges {
                    assert!(!name(g).ends_with("_total"), "{} is a total", name(g));
                }
                let of_tenant = |g: &JsonValue| at(g, &["labels"]).get("tenant").is_some();
                assert!(gauges.iter().any(of_tenant), "no tenant-labelled gauge");
            }
            assert!(at(fleet, &["totals", "tx_posted"]).as_u64() > Some(0));
        }
    }

    #[test]
    fn every_fleet_exemplar_resolves_to_a_retained_trace() {
        // The DNE cell itself, to inspect retained ids.
        for (cell, _) in quick_cells() {
            for (_, _, _, exemplars) in cell.agg.merged_histograms() {
                for ex in exemplars.exemplars() {
                    assert!(
                        cell.retained.contains(&ex.trace_id),
                        "exemplar trace {} not retained",
                        ex.trace_id
                    );
                }
            }
            assert!(cell.completed > 0, "cell drove real traffic");
            assert!(
                cell.exemplars_kept > 0,
                "report keeps at least one exemplar"
            );
        }
    }

    /// The cell enters through the front door, so a sampled request is
    /// traced end to end — not just at the gateway — and the engine's span
    /// sites leave exemplars behind.
    #[test]
    fn traces_reach_the_functions_and_the_engine_histograms_carry_exemplars() {
        for (cell, _) in quick_cells() {
            let traces = cell.flight.get("traces").and_then(|t| t.as_arr()).unwrap();
            assert!(!traces.is_empty(), "flight dump carries no traces");
            for t in traces {
                let spans = t.get("spans").and_then(|s| s.as_arr()).unwrap();
                let stage =
                    |s: &JsonValue| s.get("stage").and_then(|v| v.as_str()) == Some("fn_exec");
                assert!(spans.iter().any(stage), "trace without a fn_exec span");
            }
            let (_, _, _, exemplars) = cell
                .agg
                .merged_histograms()
                .find(|(name, ..)| *name == "dne_tx_queue_wait_ns")
                .expect("engine histogram exported");
            assert!(
                !exemplars.is_empty(),
                "dne_tx_queue_wait_ns has no exemplar"
            );
        }
    }

    /// One door per kind of number (DESIGN.md §2.4): levels leave through the
    /// sampler into report windows — the per-tenant ones included — and no
    /// running total rides along; totals are fleet sums of the engines' own
    /// counters.
    #[test]
    fn windows_carry_levels_and_totals_are_fleet_sums() {
        for (cell, cluster) in quick_cells() {
            let windows = cell.agg.windows();
            assert_eq!(windows.len(), 4, "20 ms of 5 ms windows");
            for w in windows {
                let depth = w.gauges.iter().find(|g| g.name == "dne_tx_queue_depth");
                let depth = depth.expect("per-tenant gauge in every window");
                assert_eq!(
                    depth.labels,
                    [("tenant".to_string(), boutique::TENANT.0.to_string())]
                );
                assert_eq!(depth.series, 2, "one series per node, node label dropped");
                for g in &w.gauges {
                    assert!(!g.name.ends_with("_total"), "{} is a total", g.name);
                }
            }
            let posted = |n: &crate::cluster::NodeHandle| n.dne.stats().tx_posted;
            let sum: u64 = cluster.nodes.iter().map(posted).sum();
            assert!(cluster
                .nodes
                .iter()
                .all(|n| posted(n) > 0 && posted(n) < sum));
            assert_eq!(cell.totals.get("tx_posted"), Some(&JsonValue::UInt(sum)));
        }
    }
}
