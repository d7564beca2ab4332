//! Fig. 9 — viable communication channels between DPU and host.
//!
//! Multiple host functions issue back-to-back 16-byte descriptor echoes to
//! a single-core DNE on the DPU; we compare Comch-E (event-driven epoll),
//! Comch-P (busy-polling producer-consumer ring, whose progress-engine
//! cost grows with the number of monitored endpoints) and a kernel TCP
//! loopback baseline, sweeping the number of functions.
//!
//! Paper targets: Comch-P cuts latency > 8× vs TCP but overloads beyond
//! ~6 functions; Comch-E is 2.7–3.8× better than TCP and stays stable.

use std::cell::RefCell;
use std::rc::Rc;

use dpu_sim::comch::{ChannelKind, ComchCosts};
use dpu_sim::soc::{Processor, ProcessorKind};
use simcore::{Driver, Histogram, Machine, Sim, SimDuration, SimTime, Sink};

use crate::experiment::parallel::pmap;
use crate::report::{fmt_f64, render_table};

/// One measured cell.
#[derive(Debug, Clone)]
pub struct Fig09Row {
    pub channel: String,
    pub functions: usize,
    pub mean_rtt_us: f64,
    pub total_rps: f64,
}

obs::impl_to_json!(Fig09Row {
    channel,
    functions,
    mean_rtt_us,
    total_rps
});

/// The full figure.
#[derive(Debug, Clone)]
pub struct Fig09 {
    pub rows: Vec<Fig09Row>,
}

obs::impl_to_json!(Fig09 { rows });

/// Function counts swept.
pub const FUNCTION_COUNTS: [usize; 5] = [1, 2, 4, 6, 8];

/// The channels compared.
pub const CHANNELS: [(ChannelKind, &str); 3] = [
    (ChannelKind::ComchP, "Comch-P"),
    (ChannelKind::ComchE, "Comch-E"),
    (ChannelKind::Tcp, "TCP"),
];

/// The functions' closed-loop descriptor echoes through the single-core
/// DNE: a machine whose input is an echo that came back, issued at `.0`
/// (`None` starts a function's loop).
struct Echoes(RefCell<EchoState>);

struct EchoState {
    dne: Processor,
    /// The DNE's per-descriptor service and the channel's one-way latency.
    /// Host-side send cost is on the function's own core and not charged.
    service: SimDuration,
    latency: SimDuration,
    completed: u64,
    target: u64,
    hist: Histogram,
}

impl Machine for Echoes {
    type In = Option<SimTime>;
    /// The next echo: back at `.0`, issued at `.1`.
    type Out = (SimTime, SimTime);
    type Answer = ();

    fn step(&self, now: SimTime, echoed: Option<SimTime>, sink: &mut Sink<'_, Self>) {
        let mut st = self.0.borrow_mut();
        if let Some(began) = echoed {
            st.hist.record(now.saturating_since(began));
            st.completed += 1;
        }
        if st.completed < st.target {
            let (service, latency) = (st.service, st.latency);
            let back = st.dne.run_unscaled(now + latency, service) + latency;
            drop(st);
            sink.put((back, now));
        }
    }

    fn apply(this: &Rc<Driver<Self>>, sim: &mut Sim, out: Self::Out) -> Result<(), Self::Out> {
        this.schedule(sim, out.0, Some(out.1));
        Ok(())
    }

    fn settle(_: &Rc<Driver<Self>>, _: &mut Sim, _: Self::Out) {}
}

/// One sweep cell: `functions` echo loops over one channel kind.
fn cell(kind: ChannelKind, name: &str, functions: usize, per_function: u64) -> Fig09Row {
    let costs = ComchCosts::for_kind(kind);
    let service = costs.dne_service(functions);
    let echoes = Driver::new(Echoes(RefCell::new(EchoState {
        dne: Processor::new(ProcessorKind::DpuArm, 1),
        service: service.mul_f64(ProcessorKind::DpuArm.default_factor()),
        latency: costs.one_way_latency,
        completed: 0,
        target: per_function * functions as u64,
        hist: Histogram::new(),
    })));
    let mut sim = Sim::new();
    for _ in 0..functions {
        echoes.drive(&mut sim, None);
    }
    sim.run();
    // Every event is an echo coming back: the run ends with the last one.
    let (st, secs) = (echoes.0.borrow(), sim.now().as_secs_f64());
    Fig09Row {
        channel: name.to_string(),
        functions,
        mean_rtt_us: st.hist.mean().as_micros_f64(),
        total_rps: if secs > 0.0 {
            st.completed as f64 / secs
        } else {
            0.0
        },
    }
}

/// Runs the experiment with `per_function` echoes per function, the
/// fifteen independent cells fanned out across `jobs` threads; row order
/// is the same whatever `jobs` is.
pub fn run(per_function: u64, jobs: usize) -> Fig09 {
    let mut cells: Vec<Box<dyn FnOnce() -> Fig09Row + Send>> = Vec::new();
    for (kind, name) in CHANNELS {
        for functions in FUNCTION_COUNTS {
            cells.push(Box::new(move || cell(kind, name, functions, per_function)));
        }
    }
    Fig09 {
        rows: pmap(cells, jobs),
    }
}

impl Fig09 {
    /// Looks up a row.
    pub fn get(&self, channel: &str, functions: usize) -> Option<&Fig09Row> {
        self.rows
            .iter()
            .find(|r| r.channel == channel && r.functions == functions)
    }

    /// Renders the figure as a text table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.channel.clone(),
                    r.functions.to_string(),
                    fmt_f64(r.mean_rtt_us),
                    fmt_f64(r.total_rps),
                ]
            })
            .collect();
        render_table(
            "Fig. 9 - DPU-host descriptor channels (single-core DNE)",
            &["channel", "functions", "mean_rtt_us", "total_rps"],
            &rows,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn fig() -> &'static Fig09 {
        static FIG: OnceLock<Fig09> = OnceLock::new();
        FIG.get_or_init(|| run(400, 1))
    }

    #[test]
    fn comch_p_beats_tcp_by_over_8x_at_low_function_counts() {
        let fig = fig();
        let p = fig.get("Comch-P", 1).unwrap().mean_rtt_us;
        let tcp = fig.get("TCP", 1).unwrap().mean_rtt_us;
        assert!(tcp / p > 8.0, "TCP {tcp}us / Comch-P {p}us = {}", tcp / p);
    }

    #[test]
    fn comch_e_beats_tcp_by_about_3x_and_is_stable() {
        let fig = fig();
        for n in FUNCTION_COUNTS {
            let e = fig.get("Comch-E", n).unwrap().mean_rtt_us;
            let tcp = fig.get("TCP", n).unwrap().mean_rtt_us;
            let ratio = tcp / e;
            assert!(
                (2.0..=4.5).contains(&ratio),
                "TCP/Comch-E at {n} functions = {ratio}"
            );
        }
        // Stability: Comch-E RTT grows only mildly with function count.
        let e1 = fig.get("Comch-E", 1).unwrap().mean_rtt_us;
        let e8 = fig.get("Comch-E", 8).unwrap().mean_rtt_us;
        assert!(e8 / e1 < 2.5, "Comch-E must stay stable: {e1} -> {e8}");
    }

    #[test]
    fn comch_p_overloads_beyond_six_functions() {
        let fig = fig();
        // Comch-P wins below ~6 functions but loses to Comch-E at 8.
        let p2 = fig.get("Comch-P", 2).unwrap().mean_rtt_us;
        let e2 = fig.get("Comch-E", 2).unwrap().mean_rtt_us;
        assert!(p2 < e2, "Comch-P fastest at low counts ({p2} vs {e2})");
        let p8 = fig.get("Comch-P", 8).unwrap();
        let e8 = fig.get("Comch-E", 8).unwrap();
        assert!(
            p8.total_rps < e8.total_rps,
            "Comch-P throughput collapses past 6 functions ({} vs {})",
            p8.total_rps,
            e8.total_rps
        );
    }

    #[test]
    fn all_cells_present() {
        let fig = fig();
        assert_eq!(fig.rows.len(), 15);
        assert!(fig.render().contains("Comch-P"));
    }
}
