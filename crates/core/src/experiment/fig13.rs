//! Fig. 13 — performance of the cluster-ingress designs.
//!
//! An echo HTTP function on a worker node behind a single-core cluster
//! ingress. We sweep the number of closed-loop clients and compare
//! NADINO's early-conversion ingress against the deferred-conversion
//! *K-Ingress* (kernel TCP NGINX) and *F-Ingress* (F-stack NGINX).
//!
//! Paper targets: NADINO up to 11.4× the RPS of K-Ingress and 3.2× that of
//! F-Ingress, with correspondingly lower end-to-end latency (up to 11.7×).

use std::cell::RefCell;
use std::rc::Rc;

use ingress::gateway::{Gateway, GatewayConfig, Reply, Upstream};
use ingress::stack::GatewayKind;
use simcore::{MultiServer, Sim, SimDuration};

use crate::report::{fmt_f64, render_table};
use crate::workload::ClosedLoop;

/// One measured cell.
#[derive(Debug, Clone)]
pub struct Fig13Row {
    pub ingress: String,
    pub clients: usize,
    pub mean_us: f64,
    pub rps: f64,
}

obs::impl_to_json!(Fig13Row {
    ingress,
    clients,
    mean_us,
    rps
});

/// The full figure.
#[derive(Debug, Clone)]
pub struct Fig13 {
    pub rows: Vec<Fig13Row>,
}

obs::impl_to_json!(Fig13 { rows });

/// Client counts swept.
pub const CLIENTS: [usize; 4] = [1, 4, 8, 16];

/// The ingress designs, in the paper's order.
pub const KINDS: [(GatewayKind, &str); 3] = [
    (GatewayKind::Nadino, "NADINO"),
    (GatewayKind::FIngress, "F-Ingress"),
    (GatewayKind::KIngress, "K-Ingress"),
];

/// Builds the worker-node upstream for an ingress design: transport to the
/// worker, worker-side stack cost (zero for NADINO), the echo function.
pub(crate) fn worker_upstream(kind: GatewayKind, worker_cost: SimDuration) -> Upstream {
    let transport = kind.worker_transport();
    // The worker node runs the echo function on several host cores so the
    // ingress — the component under test — is the bottleneck.
    let fn_exec = SimDuration::from_micros(5);
    let worker = Rc::new(RefCell::new(MultiServer::new(4)));
    Rc::new(move |sim: &mut Sim, ctx: ingress::ReqCtx, reply: Reply| {
        let worker = worker.clone();
        let req_bytes = ctx.req_bytes;
        sim.schedule_after(transport, move |sim| {
            let done = worker.borrow_mut().admit(sim.now(), worker_cost + fn_exec);
            sim.schedule_at(done + transport, move |sim| reply(sim, Ok(req_bytes)));
        });
    })
}

/// Runs one `(kind, clients)` cell for `millis` of virtual time.
fn run_one(kind: GatewayKind, clients: usize, millis: u64) -> (f64, f64) {
    let mut sim = Sim::new();
    let gateway = Gateway::new(GatewayConfig {
        kind,
        initial_workers: 1,
        ..GatewayConfig::default()
    });
    let upstream = worker_upstream(kind, gateway.worker_side_cost());
    let driver = ClosedLoop::new(sim.now() + SimDuration::from_millis(millis));
    driver.start_gateway(&mut sim, &gateway, 0, &upstream, clients, 128);
    sim.run();
    (driver.latency().mean().as_micros_f64(), driver.rps())
}

/// Runs the full sweep.
pub fn run(millis: u64) -> Fig13 {
    let mut rows = Vec::new();
    for (kind, name) in KINDS {
        for clients in CLIENTS {
            let (mean_us, rps) = run_one(kind, clients, millis);
            rows.push(Fig13Row {
                ingress: name.to_string(),
                clients,
                mean_us,
                rps,
            });
        }
    }
    Fig13 { rows }
}

impl Fig13 {
    /// Looks up a row.
    pub fn get(&self, ingress: &str, clients: usize) -> Option<&Fig13Row> {
        self.rows
            .iter()
            .find(|r| r.ingress == ingress && r.clients == clients)
    }

    /// Renders the figure.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.ingress.clone(),
                    r.clients.to_string(),
                    fmt_f64(r.mean_us),
                    fmt_f64(r.rps),
                ]
            })
            .collect();
        render_table(
            "Fig. 13 - cluster ingress designs (1 ingress core, echo function)",
            &["ingress", "clients", "mean_us", "rps"],
            &rows,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn fig() -> &'static Fig13 {
        static FIG: OnceLock<Fig13> = OnceLock::new();
        FIG.get_or_init(|| run(60))
    }

    #[test]
    fn nadino_ingress_dominates_at_high_client_counts() {
        let fig = fig();
        let n = fig.get("NADINO", 16).unwrap().rps;
        let f = fig.get("F-Ingress", 16).unwrap().rps;
        let k = fig.get("K-Ingress", 16).unwrap().rps;
        let f_ratio = n / f;
        let k_ratio = n / k;
        assert!(
            (2.5..=4.0).contains(&f_ratio),
            "NADINO/F-Ingress = {f_ratio} (paper: 3.2x)"
        );
        assert!(
            (8.0..=14.0).contains(&k_ratio),
            "NADINO/K-Ingress = {k_ratio} (paper: 11.4x)"
        );
    }

    #[test]
    fn latency_ordering_matches() {
        let fig = fig();
        for clients in CLIENTS {
            let n = fig.get("NADINO", clients).unwrap().mean_us;
            let f = fig.get("F-Ingress", clients).unwrap().mean_us;
            let k = fig.get("K-Ingress", clients).unwrap().mean_us;
            assert!(n < f && f < k, "at {clients} clients: {n} < {f} < {k}");
        }
        // Latency gap grows with load (paper: up to 11.7x).
        let n16 = fig.get("NADINO", 16).unwrap().mean_us;
        let k16 = fig.get("K-Ingress", 16).unwrap().mean_us;
        assert!(k16 / n16 > 5.0, "K/NADINO latency at 16 = {}", k16 / n16);
    }

    #[test]
    fn all_cells_present() {
        let fig = fig();
        assert_eq!(fig.rows.len(), 12);
        assert!(fig.render().contains("K-Ingress"));
    }
}
