//! The hysteresis autoscaling policy for gateway workers (§3.6).
//!
//! "Once the average CPU utilization across existing worker processes
//! reaches 60%, the master process spawns a new worker ... when it
//! drops below 30%, the master terminates a worker". The band between the
//! thresholds prevents oscillation; utilization is measured as *useful*
//! data-plane work, not busy-poll spinning — which is exactly what
//! [`simcore::Server`]'s busy accounting yields.

/// Scale up when average utilization reaches this fraction (§3.6: 60 %).
const HIGH_WATERMARK: f64 = 0.60;
/// Scale down when average utilization falls below this fraction (§3.6: 30 %).
const LOW_WATERMARK: f64 = 0.30;
/// Lower bound on the worker count: the master always keeps one worker.
const MIN_WORKERS: usize = 1;
const _: () = assert!(
    LOW_WATERMARK < HIGH_WATERMARK,
    "hysteresis band must be non-empty"
);

/// The decision produced by one evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    /// Spawn one more worker.
    Up,
    /// Retire one worker.
    Down,
    /// Keep the current count.
    Hold,
}

/// The hysteresis controller.
#[derive(Debug, Clone)]
pub struct Hysteresis {
    max_workers: usize,
    workers: usize,
    scale_ups: u64,
    scale_downs: u64,
}

impl Hysteresis {
    /// Creates a controller that may grow to `max_workers`, starting at
    /// `initial` workers (clamped to the bounds).
    pub fn new(max_workers: usize, initial: usize) -> Self {
        assert!(MIN_WORKERS <= max_workers);
        let workers = initial.clamp(MIN_WORKERS, max_workers);
        Hysteresis {
            max_workers,
            workers,
            scale_ups: 0,
            scale_downs: 0,
        }
    }

    /// Returns the current worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Returns `(scale_ups, scale_downs)` counters.
    pub fn events(&self) -> (u64, u64) {
        (self.scale_ups, self.scale_downs)
    }

    /// Evaluates one utilization sample (average across active workers,
    /// 0.0..=1.0) and applies the resulting decision.
    pub fn evaluate(&mut self, avg_utilization: f64) -> ScaleDecision {
        if avg_utilization >= HIGH_WATERMARK && self.workers < self.max_workers {
            self.workers += 1;
            self.scale_ups += 1;
            ScaleDecision::Up
        } else if avg_utilization < LOW_WATERMARK && self.workers > MIN_WORKERS {
            self.workers -= 1;
            self.scale_downs += 1;
            ScaleDecision::Down
        } else {
            ScaleDecision::Hold
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimRng;

    #[test]
    fn scales_up_at_high_watermark() {
        let mut h = Hysteresis::new(16, 1);
        assert_eq!(h.evaluate(0.59), ScaleDecision::Hold);
        assert_eq!(h.evaluate(0.60), ScaleDecision::Up);
        assert_eq!(h.workers(), 2);
    }

    #[test]
    fn scales_down_below_low_watermark() {
        let mut h = Hysteresis::new(16, 3);
        assert_eq!(h.evaluate(0.30), ScaleDecision::Hold);
        assert_eq!(h.evaluate(0.29), ScaleDecision::Down);
        assert_eq!(h.workers(), 2);
    }

    #[test]
    fn respects_bounds() {
        let mut h = Hysteresis::new(2, 1);
        assert_eq!(h.evaluate(0.9), ScaleDecision::Up);
        assert_eq!(h.evaluate(0.9), ScaleDecision::Hold, "at max");
        assert_eq!(h.evaluate(0.1), ScaleDecision::Down);
        assert_eq!(h.evaluate(0.1), ScaleDecision::Hold, "at min");
        assert_eq!(h.workers(), 1);
    }

    #[test]
    fn band_prevents_oscillation() {
        let mut h = Hysteresis::new(16, 2);
        // Utilization hovering inside the band never changes the count.
        for u in [0.35, 0.45, 0.55, 0.50, 0.40] {
            assert_eq!(h.evaluate(u), ScaleDecision::Hold);
        }
        assert_eq!(h.workers(), 2);
        assert_eq!(h.events(), (0, 0));
    }

    #[test]
    fn worker_count_always_within_bounds() {
        let mut rng = SimRng::new(0xa5);
        for _ in 0..256 {
            let n = rng.gen_range(200) as usize;
            let mut h = Hysteresis::new(16, 1);
            for _ in 0..n {
                h.evaluate(rng.next_f64());
                assert!(h.workers() >= 1 && h.workers() <= 16);
            }
        }
    }
}
