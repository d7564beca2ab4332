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

use ingress::gateway::{Gateway, GatewayConfig};
use ingress::stack::GatewayKind;
use simcore::{Sim, SimDuration, SimTime};

use crate::experiment::fig13;
use crate::report::{fmt_f64, render_table};
use crate::workload::ClosedLoop;

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

/// Connections each saturating client keeps in flight (the paper's
/// clients are "configured to fully use up a CPU core ... with multiple
/// connections").
pub const CONNS_PER_CLIENT: u32 = 16;

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
        max_backlog: SimDuration::from_millis(1),
        ..GatewayConfig::default()
    };
    let gateway = Gateway::new(cfg);
    gateway.start_autoscaler(&mut sim);
    let upstream = fig13::worker_upstream(kind, gateway.worker_side_cost());
    let stop_at = SimTime::ZERO + duration;
    // After an answer a connection submits again in an event of its own
    // (the zero wait); a refused one reconnects a `RECONNECT` later.
    let driver = ClosedLoop::new(stop_at)
        .with_series(SimDuration::from_secs(1))
        .with_wait(SimDuration::ZERO);
    driver.gateway(&mut sim, &gateway, 0, &upstream, 128);
    // Ramp: client c joins at c * ramp_every, opening all its connections.
    for c in 0..max_clients {
        let at = SimTime::ZERO + ramp_every * c as u64;
        driver.open_at(&mut sim, at, c, CONNS_PER_CLIENT);
    }
    // Sample CPU usage every second: at the end of each of the series'
    // one-second windows, from 1 s to the stop time.
    let cpu_samples: Rc<RefCell<Vec<(f64, usize)>>> = Rc::default();
    let (gw, out) = (gateway.clone(), cpu_samples.clone());
    let mut last = SimTime::ZERO;
    sim.every_until(SimDuration::from_secs(1), stop_at, move |sim| {
        let now = sim.now();
        let busy = gw.utilization_cores(last, now);
        out.borrow_mut().push((busy, gw.active_workers()));
        last = now;
    });
    sim.run_until(stop_at + SimDuration::from_secs(1));

    let cpu = cpu_samples.borrow();
    let windows = driver.series(stop_at).into_iter().zip(cpu.iter());
    let samples = windows
        .map(|((at_secs, rps), &(cpu_cores, workers))| Fig14Sample {
            at_secs,
            rps,
            cpu_cores,
            workers,
        })
        .collect();
    Fig14Trace {
        ingress: name.to_string(),
        samples,
        total_completed: driver.completed(),
        total_dropped: driver.shed_count(),
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
