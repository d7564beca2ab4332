//! A generic per-node network-engine model for the comparison systems.
//!
//! Every baseline in §4.3 "incorporates a node-wide network engine-like
//! component to facilitate data movement in and out of the local memory
//! pool". Rather than re-implementing four engines, the comparison
//! systems share this parameterized model: a host-CPU core (or several)
//! charged a per-message cost plus optional per-byte copy work, with a
//! configurable transport latency between nodes. NADINO's own engine is
//! the real [`dne::Dne`]; this type exists only for the others.

use std::cell::RefCell;
use std::rc::Rc;

use simcore::{Server, Sim, SimDuration, SimTime};

/// Cost parameters of a baseline engine.
#[derive(Debug, Clone)]
pub struct EngineCosts {
    /// CPU time per message through the engine.
    pub per_msg: SimDuration,
    /// Transport latency per inter-node hop (wire + stack wakeups).
    pub hop_latency: SimDuration,
    /// Fixed cost of the receiver-side copy (zero when the design avoids
    /// copies).
    pub copy_fixed: SimDuration,
    /// Copy bandwidth in bytes/second (`None` = no copy).
    pub copy_rate: Option<f64>,
    /// The engine busy-polls: it occupies its core fully regardless of
    /// load (FUYAO's one-sided receiver, Junction's scheduler core).
    pub polling: bool,
}

impl EngineCosts {
    /// Total engine CPU for one message of `bytes`.
    pub fn service(&self, bytes: usize) -> SimDuration {
        let copy = match self.copy_rate {
            Some(rate) => self.copy_fixed + SimDuration::from_secs_f64(bytes as f64 / rate),
            None => SimDuration::ZERO,
        };
        self.per_msg + copy
    }
}

struct Inner {
    cpu: Server,
    costs: EngineCosts,
    processed: u64,
}

/// A node-local baseline network engine.
#[derive(Clone)]
pub struct BaselineEngine {
    inner: Rc<RefCell<Inner>>,
}

impl BaselineEngine {
    /// Creates an engine with the given costs (one core, as in the paper's
    /// per-node engine allocation).
    pub fn new(costs: EngineCosts) -> BaselineEngine {
        BaselineEngine {
            inner: Rc::new(RefCell::new(Inner {
                cpu: Server::new(),
                costs,
                processed: 0,
            })),
        }
    }

    /// Charges one message of `bytes` through the engine; `then` runs at
    /// service completion.
    pub fn process(&self, sim: &mut Sim, bytes: usize, then: Box<dyn FnOnce(&mut Sim)>) {
        let done = {
            let mut inner = self.inner.borrow_mut();
            let service = inner.costs.service(bytes);
            inner.processed += 1;
            inner.cpu.admit(sim.now(), service)
        };
        sim.schedule_at(done, then);
    }

    /// Sends a message from this engine to `dst`: sender-side service,
    /// transport latency, receiver-side service, then delivery.
    pub fn send_to(
        &self,
        sim: &mut Sim,
        dst: &BaselineEngine,
        bytes: usize,
        deliver: Box<dyn FnOnce(&mut Sim)>,
    ) {
        let latency = self.inner.borrow().costs.hop_latency;
        let dst = dst.clone();
        self.process(
            sim,
            bytes,
            Box::new(move |sim| {
                sim.schedule_after(latency, move |sim| {
                    dst.process(sim, bytes, deliver);
                });
            }),
        );
    }

    /// Returns the number of messages processed.
    pub fn processed(&self) -> u64 {
        self.inner.borrow().processed
    }

    /// Engine-core utilization over `[a, b]`.
    ///
    /// Polling engines report 1.0 (the core spins even when idle), which is
    /// how FUYAO's receiver core shows up as a full core in Fig. 16 (4-6).
    pub fn utilization(&self, a: SimTime, b: SimTime) -> f64 {
        let inner = self.inner.borrow();
        if inner.costs.polling {
            1.0
        } else {
            inner.cpu.utilization(a, b)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn costs() -> EngineCosts {
        EngineCosts {
            per_msg: SimDuration::from_micros(2),
            hop_latency: SimDuration::from_micros(10),
            copy_fixed: SimDuration::ZERO,
            copy_rate: None,
            polling: false,
        }
    }

    #[test]
    fn send_charges_both_sides_and_latency() {
        let a = BaselineEngine::new(costs());
        let b = BaselineEngine::new(costs());
        let mut sim = Sim::new();
        let arrived = Rc::new(Cell::new(None));
        let sink = arrived.clone();
        a.send_to(
            &mut sim,
            &b,
            64,
            Box::new(move |sim| sink.set(Some(sim.now()))),
        );
        sim.run();
        // 2us + 10us + 2us.
        assert_eq!(arrived.get().unwrap().as_nanos(), 14_000);
        assert_eq!(a.processed(), 1);
        assert_eq!(b.processed(), 1);
    }

    #[test]
    fn copy_costs_scale_with_bytes() {
        let mut c = costs();
        c.copy_rate = Some(1_000_000_000.0); // 1 GB/s
        c.copy_fixed = SimDuration::from_micros(1);
        assert_eq!(c.service(0).as_nanos(), 3_000);
        assert_eq!(c.service(1000).as_nanos(), 4_000);
    }

    #[test]
    fn messages_queue_on_the_engine_core() {
        let e = BaselineEngine::new(costs());
        let mut sim = Sim::new();
        let last = Rc::new(Cell::new(None));
        for _ in 0..5 {
            let sink = last.clone();
            e.process(&mut sim, 64, Box::new(move |sim| sink.set(Some(sim.now()))));
        }
        sim.run();
        assert_eq!(last.get().unwrap().as_nanos(), 10_000, "5 x 2us serialized");
    }

    #[test]
    fn polling_engines_report_full_utilization() {
        let mut c = costs();
        c.polling = true;
        let e = BaselineEngine::new(c);
        let t1 = SimTime::from_nanos(1_000_000);
        assert_eq!(e.utilization(SimTime::ZERO, t1), 1.0);
    }
}
