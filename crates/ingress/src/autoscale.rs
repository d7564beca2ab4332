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

/// One evaluation: the worker count after a utilization sample (average
/// across the `workers` active, 0.0..=1.0) — one more at the high
/// watermark, one fewer below the low one, within `MIN_WORKERS..=max_workers`.
pub fn next_workers(workers: usize, max_workers: usize, avg_utilization: f64) -> usize {
    if avg_utilization >= HIGH_WATERMARK && workers < max_workers {
        workers + 1
    } else if avg_utilization < LOW_WATERMARK && workers > MIN_WORKERS {
        workers - 1
    } else {
        workers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimRng;

    #[test]
    fn scales_up_at_high_watermark() {
        assert_eq!(next_workers(1, 16, 0.59), 1);
        assert_eq!(next_workers(1, 16, 0.60), 2);
    }

    #[test]
    fn scales_down_below_low_watermark() {
        assert_eq!(next_workers(3, 16, 0.30), 3);
        assert_eq!(next_workers(3, 16, 0.29), 2);
    }

    #[test]
    fn respects_bounds() {
        assert_eq!(next_workers(1, 2, 0.9), 2);
        assert_eq!(next_workers(2, 2, 0.9), 2, "at max");
        assert_eq!(next_workers(2, 2, 0.1), 1);
        assert_eq!(next_workers(1, 2, 0.1), 1, "at min");
    }

    #[test]
    fn band_prevents_oscillation() {
        // Utilization hovering inside the band never changes the count.
        for u in [0.35, 0.45, 0.55, 0.50, 0.40] {
            assert_eq!(next_workers(2, 16, u), 2);
        }
    }

    #[test]
    fn worker_count_always_within_bounds() {
        let mut rng = SimRng::new(0xa5);
        for _ in 0..256 {
            let n = rng.gen_range(200) as usize;
            let mut workers = 1;
            for _ in 0..n {
                workers = next_workers(workers, 16, rng.next_f64());
                assert!((1..=16).contains(&workers));
            }
        }
    }
}
