//! Measurement utilities: latency histograms, streaming moments, and
//! windowed time series used to regenerate the paper's figures.

use crate::time::{SimDuration, SimTime};

/// A log-bucketed histogram of durations with percentile queries.
///
/// Buckets use a log2 major / 16-way linear minor layout (HdrHistogram-like)
/// giving better than 7% relative error across nanoseconds to minutes, which
/// is ample for reproducing published latency tables.
///
/// # Examples
///
/// ```
/// use simcore::{Histogram, SimDuration};
///
/// let mut h = Histogram::new();
/// for us in [1u64, 2, 3, 4, 100] {
///     h.record(SimDuration::from_micros(us));
/// }
/// assert_eq!(h.count(), 5);
/// assert!(h.percentile(50.0).as_micros_f64() <= 4.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

const MINOR_BITS: u32 = 4;
const MINOR: usize = 1 << MINOR_BITS;

fn bucket_index(ns: u64) -> usize {
    if ns < MINOR as u64 {
        return ns as usize;
    }
    let major = 63 - ns.leading_zeros();
    let minor = ((ns >> (major - MINOR_BITS)) as usize) & (MINOR - 1);
    ((major - MINOR_BITS + 1) as usize) * MINOR + minor
}

fn bucket_lower_bound(index: usize) -> u64 {
    if index < MINOR {
        return index as u64;
    }
    let major = (index / MINOR - 1) as u32 + MINOR_BITS;
    let minor = (index % MINOR) as u64;
    (1u64 << major) | (minor << (major - MINOR_BITS))
}

impl Histogram {
    /// Maps a duration (in nanoseconds) to the index of the bucket that
    /// [`Histogram::record`] would count it in. The layout is shared by
    /// every histogram, so exemplar stores and merged rollups can key
    /// per-bucket state without holding a histogram instance.
    pub fn bucket_index_of(ns: u64) -> usize {
        bucket_index(ns)
    }

    /// The inclusive lower bound (nanoseconds) of bucket `index` — the
    /// inverse of [`Histogram::bucket_index_of`] up to bucket resolution.
    pub fn bucket_lower_bound_of(index: usize) -> u64 {
        bucket_lower_bound(index)
    }

    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: Vec::new(),
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// Records one duration sample.
    pub fn record(&mut self, d: SimDuration) {
        let ns = d.as_nanos();
        let idx = bucket_index(ns);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_ns += ns as u128;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Returns the number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns the mean of recorded samples, or zero when empty.
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos((self.sum_ns / self.count as u128) as u64)
    }

    /// Returns the smallest recorded sample, or zero when empty.
    pub fn min(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(self.min_ns)
        }
    }

    /// Returns the largest recorded sample.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.max_ns)
    }

    /// Returns the value at the given percentile (0..=100), or zero when empty.
    ///
    /// The returned value is the lower bound of the bucket containing the
    /// requested rank, so it never overstates the true percentile.
    pub fn percentile(&self, p: f64) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return SimDuration::from_nanos(bucket_lower_bound(idx).min(self.max_ns));
            }
        }
        self.max()
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, &o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Returns a serializable summary of this histogram.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count,
            mean_us: self.mean().as_micros_f64(),
            min_us: self.min().as_micros_f64(),
            p50_us: self.percentile(50.0).as_micros_f64(),
            p90_us: self.percentile(90.0).as_micros_f64(),
            p99_us: self.percentile(99.0).as_micros_f64(),
            max_us: self.max().as_micros_f64(),
        }
    }
}

/// A serializable latency summary (all values in microseconds).
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySummary {
    pub count: u64,
    pub mean_us: f64,
    pub min_us: f64,
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
    pub max_us: f64,
}

/// A windowed event-rate recorder producing `(window_end_seconds, value)` points.
///
/// Used for the figures that plot RPS or bandwidth share over wall-clock
/// time (Figs. 14, 15, 17).
#[derive(Debug, Clone)]
pub struct TimeSeries {
    window: SimDuration,
    points: Vec<(f64, f64)>,
    current_window_end: SimTime,
    current_count: f64,
}

impl TimeSeries {
    /// Creates a recorder with the given aggregation window.
    ///
    /// # Panics
    ///
    /// Panics if the window is zero.
    pub fn new(window: SimDuration) -> Self {
        assert!(window > SimDuration::ZERO, "window must be positive");
        TimeSeries {
            window,
            points: Vec::new(),
            current_window_end: SimTime::ZERO + window,
            current_count: 0.0,
        }
    }

    /// Records `weight` worth of events at instant `t`.
    ///
    /// Instants must be non-decreasing; windows with no events emit zeros.
    pub fn record_at(&mut self, t: SimTime, weight: f64) {
        self.roll_to(t);
        self.current_count += weight;
    }

    /// Finalizes every window up to `t` (exclusive of the window containing `t`).
    fn roll_to(&mut self, t: SimTime) {
        while t >= self.current_window_end {
            let end_s = self.current_window_end.as_secs_f64();
            let rate = self.current_count / self.window.as_secs_f64();
            self.points.push((end_s, rate));
            self.current_count = 0.0;
            self.current_window_end += self.window;
        }
    }

    /// Flushes the in-progress window and returns all `(t_seconds, rate)` points.
    pub fn finish(mut self, end: SimTime) -> Vec<(f64, f64)> {
        self.roll_to(end);
        self.points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_consistent() {
        for ns in [0u64, 1, 15, 16, 17, 100, 1_000, 123_456, u32::MAX as u64] {
            let idx = bucket_index(ns);
            let lo = bucket_lower_bound(idx);
            assert!(lo <= ns, "lower bound {lo} > value {ns}");
            // The next bucket's lower bound must exceed the value.
            let hi = bucket_lower_bound(idx + 1);
            assert!(hi > ns, "next bound {hi} <= value {ns}");
            // Relative error bounded by 1/16.
            if ns >= 16 {
                assert!((ns - lo) as f64 / ns as f64 <= 1.0 / 16.0 + 1e-9);
            }
        }
    }

    #[test]
    fn histogram_basic_stats() {
        let mut h = Histogram::new();
        for us in 1..=100u64 {
            h.record(SimDuration::from_micros(us));
        }
        assert_eq!(h.count(), 100);
        let mean = h.mean().as_micros_f64();
        assert!((mean - 50.5).abs() < 0.01);
        assert_eq!(h.min(), SimDuration::from_micros(1));
        assert_eq!(h.max(), SimDuration::from_micros(100));
        let p50 = h.percentile(50.0).as_micros_f64();
        assert!((45.0..=50.0).contains(&p50), "p50 = {p50}");
        let p99 = h.percentile(99.0).as_micros_f64();
        assert!((92.0..=99.0).contains(&p99), "p99 = {p99}");
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::new();
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.percentile(99.0), SimDuration::ZERO);
        assert_eq!(h.summary().count, 0);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(SimDuration::from_micros(10));
        b.record(SimDuration::from_micros(1000));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), SimDuration::from_micros(10));
        assert_eq!(a.max(), SimDuration::from_micros(1000));
    }

    #[test]
    fn bucket_boundaries_at_linear_log_transition() {
        // Values below MINOR (16) are their own buckets: exact.
        for ns in 0..16u64 {
            let idx = bucket_index(ns);
            assert_eq!(idx, ns as usize);
            assert_eq!(bucket_lower_bound(idx), ns);
        }
        // 15 and 16 land in different buckets (end of the linear region).
        assert_ne!(bucket_index(15), bucket_index(16));
        assert_eq!(bucket_lower_bound(bucket_index(16)), 16);
    }

    #[test]
    fn bucket_boundaries_at_powers_of_two() {
        for k in 5..40u32 {
            let p = 1u64 << k;
            for ns in [p - 1, p, p + 1] {
                let idx = bucket_index(ns);
                let lo = bucket_lower_bound(idx);
                let hi = bucket_lower_bound(idx + 1);
                assert!(lo <= ns && ns < hi, "ns={ns} not in [{lo}, {hi})");
            }
            // A power of two starts its own bucket exactly.
            assert_eq!(bucket_lower_bound(bucket_index(p)), p);
            // p-1 and p are always separated.
            assert_ne!(bucket_index(p - 1), bucket_index(p));
        }
    }

    #[test]
    fn zero_sample_is_recorded_exactly() {
        let mut h = Histogram::new();
        h.record(SimDuration::ZERO);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), SimDuration::ZERO);
        assert_eq!(h.max(), SimDuration::ZERO);
        assert_eq!(h.percentile(50.0), SimDuration::ZERO);
    }

    #[test]
    fn empty_histogram_percentile_extremes() {
        let h = Histogram::new();
        for p in [0.0, 50.0, 99.9, 100.0] {
            assert_eq!(h.percentile(p), SimDuration::ZERO);
        }
        assert_eq!(h.min(), SimDuration::ZERO);
        assert_eq!(h.max(), SimDuration::ZERO);
        assert_eq!(h.mean(), SimDuration::ZERO);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        // The metrics registry merges per-component histograms into an
        // aggregate snapshot; the merge must be exact, not approximate.
        let mut merged = Histogram::new();
        let mut reference = Histogram::new();
        let mut parts = vec![Histogram::new(), Histogram::new(), Histogram::new()];
        let mut state = 0xfeedu64;
        for i in 0..3_000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let ns = state >> 40;
            parts[(i % 3) as usize].record(SimDuration::from_nanos(ns));
            reference.record(SimDuration::from_nanos(ns));
        }
        for p in &parts {
            merged.merge(p);
        }
        assert_eq!(merged.count(), reference.count());
        assert_eq!(merged.min(), reference.min());
        assert_eq!(merged.max(), reference.max());
        assert_eq!(merged.mean(), reference.mean());
        for p in [1.0, 25.0, 50.0, 90.0, 99.0, 99.9] {
            assert_eq!(merged.percentile(p), reference.percentile(p), "p{p}");
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Histogram::new();
        a.record(SimDuration::from_micros(7));
        let before = a.summary();
        a.merge(&Histogram::new());
        assert_eq!(a.summary(), before);
        let mut empty = Histogram::new();
        empty.merge(&a);
        assert_eq!(empty.summary(), before);
    }

    #[test]
    fn timeseries_windows_and_gaps() {
        let mut ts = TimeSeries::new(SimDuration::from_secs(1));
        ts.record_at(SimTime::from_nanos(100_000_000), 1.0); // t=0.1s
        ts.record_at(SimTime::from_nanos(200_000_000), 1.0);
        // Skip a whole window, land in [2,3).
        ts.record_at(SimTime::from_nanos(2_500_000_000), 4.0);
        let pts = ts.finish(SimTime::from_nanos(3_000_000_000));
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0], (1.0, 2.0));
        assert_eq!(pts[1], (2.0, 0.0));
        assert_eq!(pts[2], (3.0, 4.0));
    }
}
