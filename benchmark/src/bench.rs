//! The parent side: runs repetitions in fresh child processes, folds them
//! into metrics, and applies the correctness gate.
//!
//! Every repetition is a re-exec of this binary (`child rep ...`). A
//! dropped `Sim` + `Cluster` is not freed today (reference cycles between
//! the cluster and its completion closures), so repeating in one process
//! would measure the leak; `core.rss_retained_mb_per_rep` reports it.

use std::collections::BTreeMap;
use std::process::Command;
use std::time::{Duration, Instant};

use obs::JsonValue;

use crate::rep::{slo_limit_us, Counts};
use crate::spec::{self, END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles};

/// What to run.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    /// Wall budget of the measurement.
    pub seconds: f64,
    pub traced: bool,
    /// 20 ms virtual spans and the minimum of repetitions: a CI-sized dry
    /// run.
    pub smoke: bool,
}

impl Opts {
    /// Wall budget for repetitions beyond the minimum (none in a smoke run).
    fn budget(&self) -> Duration {
        if self.smoke {
            Duration::ZERO
        } else {
            Duration::from_secs_f64(self.seconds)
        }
    }
}

/// One metric's per-repetition values.
#[derive(Debug, Clone)]
pub struct Series {
    pub name: &'static str,
    pub unit: &'static str,
    pub values: Vec<f64>,
}

impl Series {
    pub fn median(&self) -> f64 {
        median(&self.values)
    }

    pub fn quartiles(&self) -> (f64, f64) {
        if self.values.len() < 2 {
            let m = self.median();
            (m, m)
        } else {
            quartiles(&self.values)
        }
    }
}

/// The result of one workload in one mode.
pub struct Outcome {
    pub workload: String,
    pub seed: u64,
    pub span_ms: u64,
    /// Timed repetitions (one more was run first and discarded).
    pub reps: usize,
    pub end_to_end: Vec<Series>,
    /// `(name, unit, value)`; filled in traced mode only.
    pub per_layer: Vec<(&'static str, &'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// The simulated results every repetition must reproduce exactly.
    pub digest: String,
    /// Correctness-gate findings; empty means correct.
    pub failures: Vec<String>,
    /// First repetition's simulated block and counters, for the record.
    pub sim: JsonValue,
    pub counts: JsonValue,
    /// Benchmark spans (traced mode): parent, repetitions, drivers.
    pub spans: JsonValue,
}

fn f(v: &JsonValue, path: &[&str]) -> f64 {
    let mut cur = v;
    for key in path {
        cur = cur
            .get(key)
            .unwrap_or_else(|| panic!("child output lacks {path:?}"));
    }
    cur.as_f64()
        .unwrap_or_else(|| panic!("child output {path:?} is not a number"))
}

fn u(v: &JsonValue, path: &[&str]) -> u64 {
    f(v, path) as u64
}

/// Runs this binary as a child and parses the JSON on its last output line.
fn child(args: &[String]) -> Result<JsonValue, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .arg("child")
        .args(args)
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "child {args:?} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("child printed nothing")?;
    obs::parse(line).map_err(|e| format!("child output is not JSON: {e}"))
}

fn rep_args(o: &Opts, span_ms: u64, traced: bool) -> Vec<String> {
    vec![
        "rep".into(),
        "--workload".into(),
        o.workload.clone(),
        "--seed".into(),
        o.seed.to_string(),
        "--span-ms".into(),
        span_ms.to_string(),
        "--traced".into(),
        u8::from(traced).to_string(),
    ]
}

/// The simulated results a seed determines, as one comparable string.
fn digest(rep: &JsonValue) -> String {
    let sim = rep.get("sim").expect("sim block");
    let counts = rep.get("counts").expect("counts block");
    format!(
        "{}|{}",
        sim.to_string_compact(),
        counts.get("events").map_or(0, |e| e.as_u64().unwrap_or(0))
    )
}

/// The ten end-to-end values of one repetition, in `END_TO_END` order.
fn end_to_end_of(rep: &JsonValue) -> [f64; 10] {
    let completed = f(rep, &["sim", "completed"]).max(1.0);
    let attempted = f(rep, &["sim", "attempted"]).max(1.0);
    let span_s = f(rep, &["sim", "span_ns"]) / 1e9;
    let rps = completed / span_s;
    [
        f(rep, &["host", "timed_ns"]) / completed,
        f(rep, &["host", "peak_rss_kb"]) / 1024.0,
        f(rep, &["host", "allocs"]) / completed,
        f(rep, &["host", "setup_ns"]) / 1e9,
        rps,
        f(rep, &["sim", "p50_ns"]) / 1e3,
        f(rep, &["sim", "p99_ns"]) / 1e3,
        f(rep, &["gauges", "engine_cores"]) / (rps / 1e3),
        completed / attempted,
        (completed - f(rep, &["sim", "over_limit"])) / attempted,
    ]
}

/// The correctness gate over a workload's repetitions.
fn gate(workload: &str, reps: &[JsonValue]) -> Vec<String> {
    let mut bad = Vec::new();
    let first = digest(&reps[0]);
    for (i, rep) in reps.iter().enumerate() {
        if digest(rep) != first {
            bad.push(format!(
                "repetition {i} simulated a different result than repetition 0"
            ));
        }
        let hung = u(rep, &["checks", "hung_total"]);
        if hung != 0 {
            bad.push(format!(
                "repetition {i}: {hung} requests still pending after the drain"
            ));
        }
        let (all, resolved) = (
            u(rep, &["checks", "all_attempted"]),
            u(rep, &["checks", "all_resolved"]),
        );
        if all != resolved {
            bad.push(format!(
                "repetition {i}: attempted {all} != resolved {resolved}"
            ));
        }
        let s = |k: &str| u(rep, &["sim", k]);
        if s("attempted")
            != s("completed") + s("failed") + s("shed") + s("dropped") + s("expired") + s("hung")
        {
            bad.push(format!(
                "repetition {i}: outcome counts do not add up to attempted"
            ));
        }
        let leaking = u(rep, &["checks", "pools_leaking"]);
        if leaking != 0 {
            bad.push(format!(
                "repetition {i}: {leaking} pools did not return to their post-setup levels"
            ));
        }
        if s("completed") == 0 {
            bad.push(format!("repetition {i}: nothing completed"));
        }
    }
    if matches!(workload, "echo_small" | "boutique_gw") {
        let rep = &reps[0];
        if u(rep, &["sim", "attempted"]) != u(rep, &["sim", "completed"]) {
            bad.push("fail_ratio is not 0 on a fault-free workload".to_string());
        }
        for k in [
            "dne_retries",
            "dne_failovers",
            "dne_reconnects",
            "dne_give_ups",
            "faults",
        ] {
            let n = u(rep, &["counts", k]);
            if n != 0 {
                bad.push(format!("{k} = {n} on a fault-free workload"));
            }
        }
    }
    bad.dedup();
    bad
}

/// Runs a workload's repetitions and returns its outcome.
pub fn run(o: &Opts) -> Result<Outcome, String> {
    let wl = spec::workload(&o.workload).ok_or_else(|| {
        format!(
            "unknown workload {:?}; known: {:?}",
            o.workload,
            spec::WORKLOADS.map(|w| w.name)
        )
    })?;
    let span_ms = if o.smoke {
        spec::SMOKE_SPAN_MS
    } else {
        wl.span_ms
    };
    if o.traced {
        run_traced(o, span_ms)
    } else {
        run_timed(o, span_ms)
    }
}

/// Minimum timed repetitions, whatever the budget.
const MIN_REPS: usize = 3;

fn run_timed(o: &Opts, span_ms: u64) -> Result<Outcome, String> {
    let started = Instant::now();
    let budget = o.budget();
    let args = rep_args(o, span_ms, false);
    // One discarded repetition: pages the binary in and warms the host's
    // caches and frequency governor.
    let t0 = Instant::now();
    child(&args)?;
    let mut rep_wall = t0.elapsed();
    let min_reps = if o.smoke { 2 } else { MIN_REPS };
    let mut reps = Vec::new();
    while reps.len() < min_reps || started.elapsed() + rep_wall <= budget {
        let t0 = Instant::now();
        reps.push(child(&args)?);
        rep_wall = t0.elapsed();
    }
    let mut series: Vec<Series> = END_TO_END
        .iter()
        .map(|m| Series {
            name: m.name,
            unit: m.unit,
            values: Vec::with_capacity(reps.len()),
        })
        .collect();
    for rep in &reps {
        for (s, v) in series.iter_mut().zip(end_to_end_of(rep)) {
            s.values.push(v);
        }
    }
    Ok(outcome(
        o,
        span_ms,
        &reps,
        series,
        Vec::new(),
        JsonValue::Null,
    ))
}

fn outcome(
    o: &Opts,
    span_ms: u64,
    reps: &[JsonValue],
    end_to_end: Vec<Series>,
    per_layer: Vec<(&'static str, &'static str, f64)>,
    spans: JsonValue,
) -> Outcome {
    let first = &reps[0];
    let attempted = u(first, &["sim", "attempted"]);
    Outcome {
        workload: o.workload.clone(),
        seed: o.seed,
        span_ms,
        reps: reps.len(),
        end_to_end,
        per_layer,
        attempted,
        failed: attempted - u(first, &["sim", "completed"]),
        digest: digest(first),
        failures: gate(&o.workload, reps),
        sim: first.get("sim").cloned().unwrap_or(JsonValue::Null),
        counts: first.get("counts").cloned().unwrap_or(JsonValue::Null),
        spans,
    }
}

/// The traced run: isolation drivers, the rate ladder and the retention
/// probe first, then untraced/traced repetitions alternating for the rest
/// of the budget.
fn run_traced(o: &Opts, span_ms: u64) -> Result<Outcome, String> {
    let started = Instant::now();
    let budget = o.budget();
    let untraced_args = rep_args(o, span_ms, false);
    let traced_args = rep_args(o, span_ms, true);

    // A first untraced repetition gives the drivers their parameters (and
    // is the discarded warm-up of the host-clock comparison).
    let probe = child(&untraced_args)?;
    let slice_ms = if o.smoke {
        5
    } else {
        (o.seconds * 1000.0 * 0.25 / 20.0) as u64
    };
    let drivers = child(&[
        "layers".into(),
        "--payload".into(),
        u(&probe, &["gauges", "payload"]).to_string(),
        "--tenants".into(),
        u(&probe, &["gauges", "tenants"]).to_string(),
        "--pending".into(),
        u(&probe, &["gauges", "peak_pending"]).to_string(),
        "--slice-ms".into(),
        slice_ms.max(1).to_string(),
    ])?;
    let ladder = if o.workload == "tenants_open" {
        child(&[
            "ladder".into(),
            "--seed".into(),
            o.seed.to_string(),
            "--span-ms".into(),
            (if o.smoke { spec::SMOKE_SPAN_MS } else { 300 }).to_string(),
        ])?
    } else {
        JsonValue::Null
    };
    let retained = child(&[
        "retained".into(),
        "--workload".into(),
        o.workload.clone(),
        "--seed".into(),
        o.seed.to_string(),
        "--span-ms".into(),
        (if o.smoke { spec::SMOKE_SPAN_MS } else { 100 }).to_string(),
    ])?;

    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut pair_wall = Duration::ZERO;
    let min_pairs = if o.smoke { 1 } else { 2 };
    while traced.len() < min_pairs || started.elapsed() + pair_wall <= budget {
        let t0 = Instant::now();
        // Alternate which side goes first.
        if traced.len() % 2 == 0 {
            untraced.push(child(&untraced_args)?);
            traced.push(child(&traced_args)?);
        } else {
            traced.push(child(&traced_args)?);
            untraced.push(child(&untraced_args)?);
        }
        pair_wall = t0.elapsed();
    }

    let host_ns = |reps: &[JsonValue]| {
        median(
            &reps
                .iter()
                .map(|r| f(r, &["host", "timed_ns"]) / f(r, &["sim", "completed"]).max(1.0))
                .collect::<Vec<_>>(),
        )
    };
    let untraced_ns = host_ns(&untraced);
    let traced_ns = host_ns(&traced);
    let layers = layer_values(
        &untraced[0],
        &traced[0],
        untraced_ns,
        traced_ns,
        &drivers,
        &ladder,
        &retained,
    );
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            let v = *layers
                .get(m.name)
                .unwrap_or_else(|| panic!("per-layer metric {} was not computed", m.name));
            (m.name, m.unit, v)
        })
        .collect();
    let spans = JsonValue::obj(vec![
        (
            "untraced_rep",
            untraced[0].get("spans").cloned().unwrap_or(JsonValue::Null),
        ),
        (
            "traced_rep",
            traced[0].get("spans").cloned().unwrap_or(JsonValue::Null),
        ),
        (
            "drivers",
            drivers.get("spans").cloned().unwrap_or(JsonValue::Null),
        ),
        ("rate_ladder", ladder.clone()),
    ]);
    // The gate covers both sides; traced repetitions must simulate the
    // same result as untraced ones (tracing observes, never steers).
    let mut all = untraced.clone();
    all.extend(traced.iter().cloned());
    let mut out = outcome(o, span_ms, &all, Vec::new(), per_layer, spans);
    out.reps = untraced.len();
    Ok(out)
}

/// Virtual-time stages folded to layers.
const STAGE_LAYERS: [(&str, &[&str]); 5] = [
    ("dpu-sim", &["comch_submit", "comch_deliver", "soc_dma"]),
    ("rdma-sim", &["rnic_post", "fabric"]),
    (
        "dne",
        &[
            "dwrr_queue",
            "dne_tx",
            "conn_pick",
            "rx_completion",
            "rbr_recover",
            "retry_backoff",
        ],
    ),
    ("ingress", &["http_parse", "rss_dispatch", "gateway"]),
    ("runtime", &["sk_msg", "fn_exec"]),
];

#[allow(clippy::too_many_arguments)]
fn layer_values(
    rep: &JsonValue,
    traced_rep: &JsonValue,
    untraced_ns: f64,
    traced_ns: f64,
    drivers: &JsonValue,
    ladder: &JsonValue,
    retained: &JsonValue,
) -> BTreeMap<&'static str, f64> {
    let c = Counts::from_json(rep.get("counts").expect("counts")).expect("complete counts");
    let reqs = f(rep, &["sim", "completed"]).max(1.0);
    let attempted = f(rep, &["sim", "attempted"]).max(1.0);
    let per_req = |n: u64| n as f64 / reqs;
    let per_kreq = |n: u64| n as f64 / reqs * 1e3;
    let g = |k: &str| f(rep, &["gauges", k]);
    let d = |k: &str| f(drivers, &["ns", k]);
    let timed_ns = f(rep, &["host", "timed_ns"]);
    let host_ns_per_req = timed_ns / reqs;
    let span_ns = f(rep, &["sim", "span_ns"]);
    let payload = g("payload");
    let tenants = g("tenants").max(1.0);
    // Every request is injected once (one payload write, one local
    // delivery to the entry function); the rest of the local sends are
    // function-to-function hops.
    let injections = c.io_local.min(f(rep, &["sim", "attempted"]) as u64);

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("simcore.events_per_req", per_req(c.events));
    m.insert("simcore.cancelled_per_req", per_req(c.events_cancelled));
    m.insert("simcore.peak_pending", g("peak_pending"));
    m.insert(
        "simcore.host_ns_per_event",
        timed_ns / (c.events as f64).max(1.0),
    );
    m.insert("simcore.dispatch_ns", d("simcore.dispatch_ns"));
    m.insert("simcore.cancel_ns", d("simcore.cancel_ns"));

    m.insert("membuf.gets_per_req", per_req(c.pool_gets));
    m.insert("membuf.redeems_per_req", per_req(c.pool_redeems));
    m.insert("membuf.failed_gets", c.pool_failed_gets as f64);
    // One copy at injection and one per message the fabric delivers.
    m.insert(
        "membuf.bytes_copied_per_req",
        payload * (attempted + c.fabric_rx as f64) / reqs,
    );
    m.insert(
        "membuf.pool_resident_mb",
        f(rep, &["host", "setup_rss_kb"]) / 1024.0,
    );
    m.insert("membuf.get_put_ns", d("membuf.get_put_ns"));
    m.insert("membuf.detach_redeem_ns", d("membuf.detach_redeem_ns"));
    m.insert("membuf.write_payload_ns", d("membuf.write_payload_ns"));

    // A Comch crossing per descriptor handed to an engine and per
    // descriptor an engine hands to a function.
    m.insert(
        "dpu-sim.comch_msgs_per_req",
        per_req(c.dne_submitted + c.dne_rx_delivered),
    );
    m.insert(
        "dpu-sim.comch_roundtrip_ns",
        d("dpu-sim.comch_roundtrip_ns"),
    );
    m.insert("dpu-sim.soc_busy_cores", g("engine_cores"));
    m.insert(
        "dpu-sim.soc_stage_busy_us_per_req",
        g("engine_cores") * span_ns / 1e3 / reqs,
    );

    m.insert("rdma-sim.sends_per_req", per_req(c.fabric_tx));
    m.insert("rdma-sim.rnr_per_kreq", per_kreq(c.fabric_rnr));
    m.insert("rdma-sim.faults_per_kreq", per_kreq(c.faults));
    m.insert("rdma-sim.active_qps_peak", g("active_qps_peak"));
    m.insert("rdma-sim.post_poll_ns", d("rdma-sim.post_poll_ns"));

    m.insert("dne.tx_posted_per_req", per_req(c.dne_tx_posted));
    m.insert("dne.rx_delivered_per_req", per_req(c.dne_rx_delivered));
    m.insert("dne.retries_per_kreq", per_kreq(c.dne_retries));
    m.insert("dne.failovers_per_kreq", per_kreq(c.dne_failovers));
    m.insert("dne.reconnects", c.dne_reconnects as f64);
    m.insert("dne.give_ups_per_kreq", per_kreq(c.dne_give_ups));
    m.insert("dne.drops", c.dne_drops as f64);
    m.insert("dne.tx_queue_wait_p99_us", g("tx_queue_wait_p99_ns") / 1e3);
    m.insert("dne.sched_delay_p99_us", g("sched_delay_p99_ns") / 1e3);
    m.insert(
        "dne.post_to_completion_p50_us",
        g("post_to_completion_p50_ns") / 1e3,
    );
    m.insert("dne.retry_latency_p99_us", g("retry_latency_p99_ns") / 1e3);
    m.insert(
        "dne.connpool_hit_ratio",
        c.conn_hits as f64 / ((c.conn_hits + c.conn_misses) as f64).max(1.0),
    );
    m.insert("dne.dwrr_share_error", g("dwrr_share_error"));
    m.insert("dne.hop_ns", d("dne.hop_ns"));
    m.insert("dne.dwrr_enq_deq_ns", d("dne.dwrr_enq_deq_ns"));
    m.insert("dne.route_lookup_ns", d("dne.route_lookup_ns"));
    m.insert("dne.connpool_pick_ns", d("dne.connpool_pick_ns"));

    let gw_arrivals = (c.gw_accepted + c.gw_shed + c.gw_dropped) as f64;
    m.insert("ingress.accepted", c.gw_accepted as f64);
    m.insert(
        "ingress.shed_ratio",
        c.gw_shed as f64 / gw_arrivals.max(1.0),
    );
    m.insert(
        "ingress.dropped_ratio",
        c.gw_dropped as f64 / gw_arrivals.max(1.0),
    );
    m.insert(
        "ingress.expired_ratio",
        c.gw_expired as f64 / gw_arrivals.max(1.0),
    );
    m.insert("ingress.worker_util_cores", g("gateway_cores"));
    m.insert("ingress.submit_ns", d("ingress.submit_ns"));
    m.insert("ingress.admission_ns", d("ingress.admission_ns"));
    m.insert(
        "ingress.rate_at_slo_rps",
        ladder
            .get("rate_at_slo_rps")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0),
    );

    m.insert(
        "runtime.local_sends_per_req",
        per_req(c.io_local - injections),
    );
    m.insert("runtime.remote_sends_per_req", per_req(c.io_remote));
    m.insert("runtime.dropped", c.io_dropped as f64);
    m.insert("runtime.host_busy_cores", g("host_cores"));
    m.insert("runtime.iolib_send_ns", d("runtime.iolib_send_ns"));

    // Virtual self time per request, from the traced repetition's
    // critical paths (every ANALYZE_EVERY-th trace).
    let analyzed = f(traced_rep, &["trace", "analyzed"]).max(1.0);
    let stage_us = |stage: &str| {
        traced_rep
            .get("trace")
            .and_then(|t| t.get("stage_ns"))
            .and_then(|s| s.get(stage))
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0)
            / analyzed
            / 1e3
    };
    for (layer, stages) in STAGE_LAYERS {
        let name = PER_LAYER
            .iter()
            .map(|pl| pl.name)
            .find(|n| spec::layer_of(n) == layer && n.ends_with(".sim_us_per_req"))
            .expect("each traced layer has a sim_us_per_req row");
        m.insert(name, stages.iter().map(|s| stage_us(s)).sum());
    }
    m.insert(
        "core.sim_us_untracked_per_req",
        stage_us(obs::critical_path::UNTRACKED),
    );

    let traces = f(traced_rep, &["trace", "traces"]).max(1.0);
    m.insert(
        "obs.trace_overhead_pct",
        (traced_ns / untraced_ns - 1.0) * 100.0,
    );
    m.insert(
        "obs.spans_per_req",
        f(traced_rep, &["trace", "spans"]) / traces,
    );
    m.insert("obs.spans_dropped", f(traced_rep, &["trace", "dropped"]));
    m.insert("obs.span_enabled_ns", d("obs.span_enabled_ns"));
    m.insert("obs.span_disabled_ns", d("obs.span_disabled_ns"));
    m.insert("obs.sample_obs_ns", d("obs.sample_obs_ns"));

    // The ledger's bottom line: layer operations per request at their
    // isolated prices, and what that sum leaves unexplained.
    let redeemed = per_req(c.pool_redeems);
    let plain_gets = (per_req(c.pool_gets) - redeemed).max(0.0);
    let est = per_req(c.events) * d("simcore.dispatch_ns")
        + per_req(c.events_cancelled) * d("simcore.cancel_ns")
        + per_req(c.fabric_tx) * d("rdma-sim.post_poll_ns")
        + per_req(c.dne_tx_posted) * d("dne.hop_ns")
        + redeemed * d("membuf.detach_redeem_ns")
        + plain_gets * d("membuf.get_put_ns")
        + attempted / reqs * d("membuf.write_payload_ns")
        + gw_arrivals / reqs * d("ingress.submit_ns")
        + per_req(c.io_local) * d("runtime.iolib_send_ns");
    m.insert("core.est_ns_per_req", est);
    m.insert("core.unattributed_ns_per_req", host_ns_per_req - est);
    m.insert(
        "core.setup_ns_per_tenant",
        f(rep, &["host", "provision_ns"]) / tenants,
    );
    m.insert(
        "core.alloc_bytes_per_req",
        f(rep, &["host", "alloc_bytes"]) / reqs,
    );
    m.insert(
        "core.rss_retained_mb_per_rep",
        f(retained, &["retained_kb_per_rep"]) / 1024.0,
    );
    let completed = f(rep, &["sim", "completed"]);
    m.insert("core.fail_ratio", 1.0 - completed / attempted);
    m.insert(
        "core.slo_miss_ratio",
        1.0 - (completed - f(rep, &["sim", "over_limit"])) / attempted,
    );
    m.insert("core.gen_lateness_us", 0.0);
    m
}

/// Prints a workload's metrics, one per line, by name and with units.
pub fn print_outcome(out: &Outcome) {
    println!(
        "== {}  seed {}  virtual span {} ms  R = {} timed repetitions (fresh process each, 1 discarded)",
        out.workload, out.seed, out.span_ms, out.reps
    );
    for s in &out.end_to_end {
        let (q1, q3) = s.quartiles();
        let m = spec::end_to_end(s.name).expect("known metric");
        println!(
            "{:<26} {:>16.4} {:<10} q1 {:.4}  q3 {:.4}  ({} is better, bound {:.2}%)",
            s.name,
            s.median(),
            s.unit,
            q1,
            q3,
            m.better.as_str(),
            m.bound * 100.0
        );
    }
    let mut layer = "";
    for &(name, unit, value) in &out.per_layer {
        if spec::layer_of(name) != layer {
            layer = spec::layer_of(name);
            println!("-- {layer}");
        }
        println!("{name:<36} {value:>16.4} {unit}");
    }
    println!(
        "attempted {}  failed {}  latency limit {} sim_us",
        out.attempted,
        out.failed,
        slo_limit_us(&out.workload)
    );
    if out.failures.is_empty() {
        println!("correctness gate: passed");
    } else {
        for failure in &out.failures {
            println!("correctness gate: FAILED: {failure}");
        }
    }
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn contract_line(out: &Outcome) -> String {
    let metric = |value: f64, unit: &str| {
        JsonValue::obj(vec![
            ("value", JsonValue::Float(value)),
            ("unit", JsonValue::Str(unit.to_string())),
        ])
    };
    let metrics: Vec<(String, JsonValue)> = if out.per_layer.is_empty() {
        out.end_to_end
            .iter()
            .map(|s| (s.name.to_string(), metric(s.median(), s.unit)))
            .collect()
    } else {
        out.per_layer
            .iter()
            .map(|&(name, unit, value)| (name.to_string(), metric(value, unit)))
            .collect()
    };
    JsonValue::obj(vec![
        ("correct", JsonValue::Bool(out.failures.is_empty())),
        ("attempted", JsonValue::UInt(out.attempted.max(1))),
        ("failed", JsonValue::UInt(out.failed)),
        ("metrics", JsonValue::Obj(metrics)),
    ])
    .to_string_compact()
}

/// The record of one workload in a results file.
pub fn outcome_json(out: &Outcome) -> JsonValue {
    let e2e: Vec<(String, JsonValue)> = out
        .end_to_end
        .iter()
        .map(|s| {
            let (q1, q3) = s.quartiles();
            let m = spec::end_to_end(s.name).expect("known metric");
            (
                s.name.to_string(),
                JsonValue::obj(vec![
                    ("unit", JsonValue::Str(s.unit.to_string())),
                    ("better", JsonValue::Str(m.better.as_str().to_string())),
                    ("bound", JsonValue::Float(m.bound)),
                    ("median", JsonValue::Float(s.median())),
                    ("q1", JsonValue::Float(q1)),
                    ("q3", JsonValue::Float(q3)),
                    (
                        "values",
                        JsonValue::Arr(s.values.iter().map(|&v| JsonValue::Float(v)).collect()),
                    ),
                ]),
            )
        })
        .collect();
    let layers: Vec<(String, JsonValue)> = out
        .per_layer
        .iter()
        .map(|&(name, unit, value)| {
            (
                name.to_string(),
                JsonValue::obj(vec![
                    ("unit", JsonValue::Str(unit.to_string())),
                    ("value", JsonValue::Float(value)),
                ]),
            )
        })
        .collect();
    JsonValue::obj(vec![
        ("seed", JsonValue::UInt(out.seed)),
        ("virtual_span_ms", JsonValue::UInt(out.span_ms)),
        ("repetitions", JsonValue::UInt(out.reps as u64)),
        (
            "latency_limit_sim_us",
            JsonValue::UInt(slo_limit_us(&out.workload)),
        ),
        ("correct", JsonValue::Bool(out.failures.is_empty())),
        (
            "gate_failures",
            JsonValue::Arr(out.failures.iter().cloned().map(JsonValue::Str).collect()),
        ),
        ("attempted", JsonValue::UInt(out.attempted)),
        ("failed", JsonValue::UInt(out.failed)),
        ("sim_digest", JsonValue::Str(out.digest.clone())),
        ("sim", out.sim.clone()),
        ("counts", out.counts.clone()),
        ("end_to_end", JsonValue::Obj(e2e)),
        ("per_layer", JsonValue::Obj(layers)),
    ])
}
