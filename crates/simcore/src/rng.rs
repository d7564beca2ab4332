//! Seeded pseudo-random number generation for deterministic experiments.
//!
//! [`SimRng`] is a SplitMix64 generator: tiny state, excellent statistical
//! quality for simulation purposes, and — critically — fully reproducible
//! from a seed, so every figure regenerates identically across runs.

/// A deterministic SplitMix64 pseudo-random number generator.
///
/// # Examples
///
/// ```
/// use simcore::SimRng;
///
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SimRng { state: seed }
    }

    /// Derives an independent child generator; used to give each simulated
    /// component its own stream without cross-coupling.
    pub fn fork(&mut self) -> SimRng {
        SimRng::new(self.next_u64() ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// Returns the next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Returns a uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // Use the top 53 bits for a uniform double in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        // Multiply-shift; bias is negligible for simulation bounds.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Returns a uniform float in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Samples an exponential distribution with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        let u = 1.0 - self.next_f64(); // (0, 1]
        -mean * u.ln()
    }

    /// Returns `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Samples an index according to non-negative `weights`.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(
            !weights.is_empty() && total > 0.0,
            "weights must be non-empty and positive"
        );
        let mut x = self.next_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }
}

/// Zipf popularity over ranks `0..ranks`: rank `k` (0-based) has weight
/// `1/(k+1)^s`, sampled by inverting a prefix-sum table, so one table
/// serves any population up to `ranks`.
#[derive(Debug, Clone)]
pub struct Zipf {
    /// `prefix[k]` = total weight of the first `k` ranks; `prefix[0] == 0`.
    prefix: Vec<f64>,
}

impl Zipf {
    /// Builds the table for `ranks` ranks with exponent `s` (0 = uniform).
    ///
    /// # Panics
    ///
    /// Panics if `ranks == 0`.
    pub fn new(ranks: usize, s: f64) -> Zipf {
        assert!(ranks > 0, "Zipf needs at least one rank");
        let mut prefix = Vec::with_capacity(ranks + 1);
        let mut acc = 0.0;
        prefix.push(acc);
        for k in 1..=ranks {
            acc += 1.0 / (k as f64).powf(s);
            prefix.push(acc);
        }
        Zipf { prefix }
    }

    /// Samples a rank among the first `n` (clamped to `1..=ranks`) with one
    /// `next_f64` draw: the first rank whose prefix mass covers the draw.
    pub fn sample(&self, rng: &mut SimRng, n: usize) -> usize {
        let n = n.clamp(1, self.prefix.len() - 1);
        let u = rng.next_f64() * self.prefix[n];
        self.prefix[1..=n].partition_point(|&h| h < u).min(n - 1)
    }
}

/// Sine rate modulation around 1: `1 + amplitude * sin(2*pi * t / period)`,
/// `t` and `period` in seconds. Preserves the mean over whole periods.
pub fn diurnal(amplitude: f64, t_s: f64, period_s: f64) -> f64 {
    1.0 + amplitude * (std::f64::consts::TAU * t_s / period_s).sin()
}

/// The seed matrix: every same-seed-same-bytes test and every typed-outcome
/// bar (no request hangs, goodput through an upgrade wave, ...) runs at each
/// of these, because determinism is a property over seeds, not of one.
pub const SEEDS: [u64; 4] = [1, 42, 9001, 0xC4A0];

/// FNV-1a over a byte stream: the compact determinism digest the
/// experiment reports carry.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a([]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(*b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a("foobar".bytes()), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn deterministic_from_seed() {
        let a: Vec<u64> = {
            let mut r = SimRng::new(7);
            (0..10).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SimRng::new(7);
            (0..10).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut r = SimRng::new(8);
        let c: Vec<u64> = (0..10).map(|_| r.next_u64()).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(1);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_respects_bound() {
        let mut r = SimRng::new(2);
        let mut seen = [false; 8];
        for _ in 0..10_000 {
            let v = r.gen_range(8);
            assert!(v < 8);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets should be hit");
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = SimRng::new(3);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| r.exponential(5.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean = {mean}");
    }

    #[test]
    fn weighted_index_tracks_weights() {
        let mut r = SimRng::new(4);
        let weights = [6.0, 1.0, 2.0];
        let mut counts = [0u32; 3];
        let n = 90_000;
        for _ in 0..n {
            counts[r.weighted_index(&weights)] += 1;
        }
        let share0 = counts[0] as f64 / n as f64;
        assert!((share0 - 6.0 / 9.0).abs() < 0.02, "share0 = {share0}");
    }

    #[test]
    fn zipf_is_skewed_and_stays_inside_the_population() {
        let z = Zipf::new(100, 1.1);
        let mut r = SimRng::new(9);
        let mut counts = [0u32; 100];
        for _ in 0..50_000 {
            counts[z.sample(&mut r, 100)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[9] && counts[9] > counts[99]);
        // A smaller live population only ever sees its own ranks; an
        // oversized or empty one is clamped to the table.
        assert!((0..1_000).all(|_| z.sample(&mut r, 7) < 7));
        assert!((0..1_000).all(|_| z.sample(&mut r, 1_000) < 100));
        assert_eq!(z.sample(&mut r, 0), 0);
        // s = 0 is uniform.
        let flat = Zipf::new(4, 0.0);
        let mut seen = [0u32; 4];
        for _ in 0..40_000 {
            seen[flat.sample(&mut r, 4)] += 1;
        }
        assert!(
            seen.iter().all(|&c| (9_000..11_000).contains(&c)),
            "{seen:?}"
        );
    }

    #[test]
    fn diurnal_swings_around_one() {
        assert_eq!(diurnal(0.6, 0.0, 1.0), 1.0);
        assert!((diurnal(0.6, 0.25, 1.0) - 1.6).abs() < 1e-12);
        assert!((diurnal(0.6, 1.5, 2.0) - 0.4).abs() < 1e-12);
        assert_eq!(diurnal(0.0, 0.3, 1.0), 1.0);
    }

    #[test]
    fn forked_streams_differ() {
        let mut r = SimRng::new(5);
        let mut a = r.fork();
        let mut b = r.fork();
        assert_ne!(a.next_u64(), b.next_u64());
    }
}
