//! Fig. 12 — selection of RDMA primitives.
//!
//! Two DNE-grade endpoints on different worker nodes act as an echo
//! client/server pair with one core each; we compare two-sided RDMA
//! against OWDL (one-sided write + distributed locks) and OWRC (one-sided
//! write + receiver-side copy, Best/Worst cache variants) across payload
//! sizes, reporting mean end-to-end latency and throughput.
//!
//! Paper targets: two-sided ≈ 8.4 µs at 64 B and 11.6 µs at 4 KiB; at
//! 4 KiB two-sided beats OWRC-Best 1.3×, OWRC-Worst 1.5× and OWDL 2.3× in
//! latency, and is ≥ 2.1× OWDL in throughput.

use baselines::{run_echo, EchoConfig, Primitive};

use crate::experiment::parallel::pmap;
use crate::report::{fmt_f64, render_table};

/// One measured cell of the figure.
#[derive(Debug, Clone)]
pub struct Fig12Row {
    pub primitive: String,
    pub payload: usize,
    pub mean_us: f64,
    pub p99_us: f64,
    pub rps: f64,
}

obs::impl_to_json!(Fig12Row {
    primitive,
    payload,
    mean_us,
    p99_us,
    rps
});

/// The full figure.
#[derive(Debug, Clone)]
pub struct Fig12 {
    pub rows: Vec<Fig12Row>,
}

obs::impl_to_json!(Fig12 { rows });

/// Payload sizes swept (bytes).
pub const PAYLOADS: [usize; 4] = [64, 256, 1024, 4096];

/// The primitives compared, in the paper's order.
pub const PRIMITIVES: [(Primitive, &str); 4] = [
    (Primitive::TwoSided, "NADINO (two-sided)"),
    (Primitive::OwrcBest, "OWRC-Best"),
    (Primitive::OwrcWorst, "OWRC-Worst"),
    (Primitive::Owdl, "OWDL"),
];

/// One cell: latency (window 1) and throughput (window 8) runs.
fn cell(primitive: Primitive, name: &str, payload: usize, requests: u64) -> Fig12Row {
    let lat = run_echo(EchoConfig {
        primitive,
        payload,
        window: 1,
        requests,
        ..EchoConfig::default()
    })
    .expect("a fig12 echo cell runs clean");
    // Throughput: a window of 8 keeps the pipe full.
    let thr = run_echo(EchoConfig {
        primitive,
        payload,
        window: 8,
        requests,
        ..EchoConfig::default()
    })
    .expect("a fig12 echo cell runs clean");
    Fig12Row {
        primitive: name.to_string(),
        payload,
        mean_us: lat.latency.mean().as_micros_f64(),
        p99_us: lat.latency.percentile(99.0).as_micros_f64(),
        rps: thr.rps,
    }
}

/// Runs the experiment with `requests` echoes per cell, the sixteen
/// independent cells fanned out across `jobs` threads; row order is the
/// same whatever `jobs` is.
pub fn run(requests: u64, jobs: usize) -> Fig12 {
    let mut cells: Vec<Box<dyn FnOnce() -> Fig12Row + Send>> = Vec::new();
    for (primitive, name) in PRIMITIVES {
        for payload in PAYLOADS {
            cells.push(Box::new(move || cell(primitive, name, payload, requests)));
        }
    }
    Fig12 {
        rows: pmap(cells, jobs),
    }
}

impl Fig12 {
    /// Returns the mean latency for `(primitive name, payload)`.
    pub fn mean_us(&self, primitive: &str, payload: usize) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.primitive == primitive && r.payload == payload)
            .map(|r| r.mean_us)
    }

    /// Returns the throughput for `(primitive name, payload)`.
    pub fn rps(&self, primitive: &str, payload: usize) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.primitive == primitive && r.payload == payload)
            .map(|r| r.rps)
    }

    /// Renders the figure as a text table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.primitive.clone(),
                    r.payload.to_string(),
                    fmt_f64(r.mean_us),
                    fmt_f64(r.p99_us),
                    fmt_f64(r.rps),
                ]
            })
            .collect();
        render_table(
            "Fig. 12 - RDMA primitive selection (echo, 2 nodes, 1 core each)",
            &["primitive", "payload_B", "mean_us", "p99_us", "rps"],
            &rows,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn fig() -> &'static Fig12 {
        static FIG: OnceLock<Fig12> = OnceLock::new();
        FIG.get_or_init(|| run(400, 1))
    }

    #[test]
    fn reproduces_the_papers_shape() {
        let fig = fig();
        let two64 = fig.mean_us("NADINO (two-sided)", 64).unwrap();
        let two4k = fig.mean_us("NADINO (two-sided)", 4096).unwrap();
        assert!((7.0..=10.0).contains(&two64), "64B = {two64}us (paper 8.4)");
        assert!(
            (10.0..=13.5).contains(&two4k),
            "4KB = {two4k}us (paper 11.6)"
        );

        let owdl4k = fig.mean_us("OWDL", 4096).unwrap();
        let best4k = fig.mean_us("OWRC-Best", 4096).unwrap();
        let worst4k = fig.mean_us("OWRC-Worst", 4096).unwrap();
        assert!(
            (1.8..=3.0).contains(&(owdl4k / two4k)),
            "OWDL ratio {}",
            owdl4k / two4k
        );
        assert!(best4k > two4k && best4k < worst4k && worst4k < owdl4k);

        // Throughput: two-sided beats OWDL by > 2.1x, and the full
        // ordering of Fig. 12 (2) holds.
        let t = fig.rps("NADINO (two-sided)", 1024).unwrap();
        let b = fig.rps("OWRC-Best", 1024).unwrap();
        let w = fig.rps("OWRC-Worst", 1024).unwrap();
        let o = fig.rps("OWDL", 1024).unwrap();
        assert!(t / o > 2.1, "throughput ratio = {}", t / o);
        assert!(t > b && b >= w && w > o, "ordering: {t} > {b} >= {w} > {o}");
    }

    #[test]
    fn render_contains_all_cells() {
        let fig = fig();
        let text = fig.render();
        assert_eq!(fig.rows.len(), 16);
        assert!(text.contains("OWDL"));
        assert!(text.contains("4096"));
    }
}
