//! A generic per-node network-engine model for the comparison systems.
//!
//! Every baseline in §4.3 "incorporates a node-wide network engine-like
//! component to facilitate data movement in and out of the local memory
//! pool". Rather than re-implementing four engines, the comparison
//! systems share this parameterized model: a host-CPU core (or several)
//! charged a per-message cost plus optional per-byte copy work, with a
//! configurable transport latency between nodes. NADINO's own engine is
//! the real [`dne::Dne`]; this type exists only for the others.

use simcore::{Server, SimDuration, SimTime};

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

/// A node-local baseline network engine: one core and its costs. It only
/// says when a message's service ends; its caller schedules what follows.
pub struct BaselineEngine {
    cpu: Server,
    costs: EngineCosts,
}

impl BaselineEngine {
    /// Creates an engine with the given costs (one core, as in the paper's
    /// per-node engine allocation).
    pub fn new(costs: EngineCosts) -> BaselineEngine {
        BaselineEngine {
            cpu: Server::new(),
            costs,
        }
    }

    /// Queues one message of `bytes` on the engine core at `now` and
    /// returns when its service ends.
    pub fn admit(&mut self, now: SimTime, bytes: usize) -> SimTime {
        let service = self.costs.service(bytes);
        self.cpu.admit(now, service)
    }

    /// Engine-core utilization over `[a, b]`.
    ///
    /// Polling engines report 1.0 (the core spins even when idle), which is
    /// how FUYAO's receiver core shows up as a full core in Fig. 16 (4-6).
    pub fn utilization(&self, a: SimTime, b: SimTime) -> f64 {
        if self.costs.polling {
            1.0
        } else {
            self.cpu.utilization(a, b)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn copy_costs_scale_with_bytes() {
        let mut c = costs();
        c.copy_rate = Some(1_000_000_000.0); // 1 GB/s
        c.copy_fixed = SimDuration::from_micros(1);
        assert_eq!(c.service(0).as_nanos(), 3_000);
        assert_eq!(c.service(1000).as_nanos(), 4_000);
    }

    #[test]
    fn messages_queue_on_the_engine_core() {
        let mut e = BaselineEngine::new(costs());
        let last = (0..5).map(|_| e.admit(SimTime::ZERO, 64)).last();
        assert_eq!(last.unwrap().as_nanos(), 10_000, "5 x 2us serialized");
        let idle = SimTime::from_nanos(50_000);
        assert_eq!(
            e.admit(idle, 64).as_nanos(),
            52_000,
            "an idle core starts at once"
        );
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
