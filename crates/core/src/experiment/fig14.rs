//! Fig. 14 — horizontal scaling of NADINO's ingress.
//!
//! Load ramps up by adding one saturating client every ramp interval.
//! NADINO's ingress (and, for fairness, F-Ingress) run the hysteresis
//! autoscaler (spawn at 60% average utilization, retire below 30%);
//! K-Ingress runs with a fixed worker pool and overloads. We record the
//! gateway CPU-usage and RPS time series.
//!
//! Paper targets: NADINO's ingress tracks load with far less CPU while
//! achieving > 5× the RPS of K-Ingress, which collapses (client
//! disconnects) once all its cores saturate; scale events appear as brief
//! service dips.

use std::cell::RefCell;
use std::rc::Rc;

use ingress::gateway::{Gateway, GatewayConfig, Upstream};
use ingress::rss::FlowId;
use ingress::stack::GatewayKind;
use simcore::{Sim, SimDuration, SimTime, TimeSeries};

use crate::experiment::fig13;
use crate::report::{fmt_f64, render_table};

/// One time-series sample.
#[derive(Debug, Clone)]
pub struct Fig14Sample {
    pub at_secs: f64,
    pub rps: f64,
    pub cpu_cores: f64,
    pub workers: usize,
}

obs::impl_to_json!(Fig14Sample {
    at_secs,
    rps,
    cpu_cores,
    workers
});

/// One ingress design's full trace.
#[derive(Debug, Clone)]
pub struct Fig14Trace {
    pub ingress: String,
    pub samples: Vec<Fig14Sample>,
    pub total_completed: u64,
    pub total_dropped: u64,
}

obs::impl_to_json!(Fig14Trace {
    ingress,
    samples,
    total_completed,
    total_dropped
});

/// The full figure.
#[derive(Debug, Clone)]
pub struct Fig14 {
    pub traces: Vec<Fig14Trace>,
}

obs::impl_to_json!(Fig14 { traces });

struct RampState {
    gateway: Gateway,
    upstream: Upstream,
    series: TimeSeries,
    stop_at: SimTime,
    completed: u64,
    dropped: u64,
}

/// Connections each saturating client keeps in flight (the paper's
/// clients are "configured to fully use up a CPU core ... with multiple
/// connections").
pub const CONNS_PER_CLIENT: u32 = 16;

fn client_loop(state: &Rc<RefCell<RampState>>, sim: &mut Sim, client: u32, conn: u32) {
    let (gateway, upstream, stopped) = {
        let st = state.borrow();
        (
            st.gateway.clone(),
            st.upstream.clone(),
            sim.now() >= st.stop_at,
        )
    };
    if stopped {
        return;
    }
    let st2 = state.clone();
    gateway.submit(
        sim,
        FlowId::from_client(client, conn),
        128,
        upstream,
        Box::new(move |sim, result| {
            {
                let mut st = st2.borrow_mut();
                match result {
                    Ok(_) => {
                        st.completed += 1;
                        let now = sim.now();
                        st.series.record_at(now, 1.0);
                    }
                    Err(_) => st.dropped += 1,
                }
            }
            // A dropped client was disconnected; it reconnects only after
            // a full timeout (the paper's clients mostly stay disconnected).
            let delay = if result_is_err(&result) {
                SimDuration::from_secs(1)
            } else {
                SimDuration::ZERO
            };
            sim.schedule_after(delay, move |sim| client_loop(&st2, sim, client, conn));
        }),
    );
}

fn result_is_err<T, E>(r: &Result<T, E>) -> bool {
    r.is_err()
}

/// Runs one design's ramp and returns its trace.
///
/// `ramp_every` seconds a new client joins, up to `max_clients`; the run
/// lasts `duration` of virtual time, sampled every second.
fn run_trace(
    kind: GatewayKind,
    name: &str,
    autoscale: bool,
    max_clients: u32,
    ramp_every: SimDuration,
    duration: SimDuration,
) -> Fig14Trace {
    let mut sim = Sim::new();
    let cfg = GatewayConfig {
        kind,
        // The fixed-pool baseline gets all cores up front (the paper's
        // K-Ingress "quickly overloaded after using up all CPU cores").
        initial_workers: if autoscale { 1 } else { 8 },
        autoscale_max_workers: autoscale.then_some(8),
        autoscale_interval: SimDuration::from_millis(500),
        max_backlog: SimDuration::from_millis(1),
        ..GatewayConfig::default()
    };
    let gateway = Gateway::new(cfg);
    gateway.start_autoscaler(&mut sim);
    let worker_cost = gateway.worker_side_cost();
    let stop_at = SimTime::ZERO + duration;
    let state = Rc::new(RefCell::new(RampState {
        gateway: gateway.clone(),
        upstream: fig13::worker_upstream(kind, worker_cost),
        series: TimeSeries::new(SimDuration::from_secs(1)),
        stop_at,
        completed: 0,
        dropped: 0,
    }));
    // Ramp: client c joins at c * ramp_every, opening all its connections.
    for c in 0..max_clients {
        let st = state.clone();
        sim.schedule_at(SimTime::ZERO + ramp_every * c as u64, move |sim| {
            for conn in 0..CONNS_PER_CLIENT {
                client_loop(&st, sim, c, conn);
            }
        });
    }
    // Sample CPU usage every second.
    let cpu_samples: Rc<RefCell<Vec<(f64, f64, usize)>>> = Rc::new(RefCell::new(Vec::new()));
    fn sample(
        gw: Gateway,
        out: Rc<RefCell<Vec<(f64, f64, usize)>>>,
        sim: &mut Sim,
        last: SimTime,
        stop: SimTime,
    ) {
        let now = sim.now();
        let busy = gw.utilization_cores(last, now);
        out.borrow_mut()
            .push((now.as_secs_f64(), busy, gw.active_workers()));
        if now < stop {
            let gw2 = gw.clone();
            let out2 = out.clone();
            sim.schedule_after(SimDuration::from_secs(1), move |sim| {
                sample(gw2, out2, sim, now, stop);
            });
        }
    }
    {
        let gw = gateway.clone();
        let out = cpu_samples.clone();
        sim.schedule_after(SimDuration::from_secs(1), move |sim| {
            sample(gw, out, sim, SimTime::ZERO, stop_at);
        });
    }
    sim.run_until(stop_at + SimDuration::from_secs(1));

    let (rps_points, completed, dropped) = {
        let mut st = state.borrow_mut();
        st.series.roll_to(stop_at);
        (st.series.points().to_vec(), st.completed, st.dropped)
    };
    let cpu = cpu_samples.borrow();
    let samples = rps_points
        .iter()
        .map(|&(t, rps)| {
            let (cpu_cores, workers) = cpu
                .iter()
                .min_by(|a, b| {
                    (a.0 - t)
                        .abs()
                        .partial_cmp(&(b.0 - t).abs())
                        .expect("finite")
                })
                .map(|&(_, c, w)| (c, w))
                .unwrap_or((0.0, 0));
            Fig14Sample {
                at_secs: t,
                rps,
                cpu_cores,
                workers,
            }
        })
        .collect();
    Fig14Trace {
        ingress: name.to_string(),
        samples,
        total_completed: completed,
        total_dropped: dropped,
    }
}

/// Runs the ramp for the three designs (`seconds` of virtual time).
pub fn run(seconds: u64) -> Fig14 {
    let duration = SimDuration::from_secs(seconds);
    let ramp = SimDuration::from_secs((seconds / 8).max(1));
    Fig14 {
        traces: vec![
            run_trace(GatewayKind::Nadino, "NADINO", true, 8, ramp, duration),
            run_trace(GatewayKind::FIngress, "F-Ingress", true, 8, ramp, duration),
            run_trace(GatewayKind::KIngress, "K-Ingress", false, 8, ramp, duration),
        ],
    }
}

impl Fig14 {
    /// Looks up one trace.
    pub fn trace(&self, name: &str) -> Option<&Fig14Trace> {
        self.traces.iter().find(|t| t.ingress == name)
    }

    /// Renders time series as a text table (one row per sample).
    pub fn render(&self) -> String {
        let mut rows = Vec::new();
        for t in &self.traces {
            for s in &t.samples {
                rows.push(vec![
                    t.ingress.clone(),
                    fmt_f64(s.at_secs),
                    fmt_f64(s.rps),
                    fmt_f64(s.cpu_cores),
                    s.workers.to_string(),
                ]);
            }
        }
        let mut out = render_table(
            "Fig. 14 - ingress horizontal scaling (1 client added per ramp step)",
            &["ingress", "t_s", "rps", "cpu_cores", "workers"],
            &rows,
        );
        for t in &self.traces {
            out.push_str(&format!(
                "{}: completed={} dropped={}\n",
                t.ingress, t.total_completed, t.total_dropped
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn fig() -> &'static Fig14 {
        static FIG: OnceLock<Fig14> = OnceLock::new();
        FIG.get_or_init(|| run(24))
    }

    #[test]
    fn nadino_scales_workers_with_load() {
        let fig = fig();
        let t = fig.trace("NADINO").unwrap();
        let first = t.samples.first().unwrap().workers;
        let peak = t.samples.iter().map(|s| s.workers).max().unwrap();
        assert!(
            peak > first,
            "workers must grow under ramp: {first} -> {peak}"
        );
    }

    #[test]
    fn nadino_beats_k_ingress_by_over_5x_in_total_rps() {
        let fig = fig();
        let n = fig.trace("NADINO").unwrap().total_completed;
        let k = fig.trace("K-Ingress").unwrap().total_completed;
        assert!(
            n as f64 / k as f64 > 5.0,
            "NADINO {n} vs K-Ingress {k} (paper: >5x)"
        );
    }

    #[test]
    fn k_ingress_drops_clients_under_overload() {
        let fig = fig();
        let k = fig.trace("K-Ingress").unwrap();
        assert!(k.total_dropped > 0, "K-Ingress must disconnect clients");
        let n = fig.trace("NADINO").unwrap();
        assert!(
            n.total_dropped * 100 < n.total_completed,
            "NADINO drops must be rare: {} vs {}",
            n.total_dropped,
            n.total_completed
        );
    }

    #[test]
    fn nadino_uses_less_cpu_than_k_ingress() {
        let fig = fig();
        let avg = |name: &str| {
            let t = fig.trace(name).unwrap();
            t.samples.iter().map(|s| s.cpu_cores).sum::<f64>() / t.samples.len() as f64
        };
        let n = avg("NADINO");
        let k = avg("K-Ingress");
        assert!(n < k, "NADINO cpu {n} must be below K-Ingress {k}");
    }
}
