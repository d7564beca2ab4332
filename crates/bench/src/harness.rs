//! A dependency-free wall-clock micro-benchmark harness.
//!
//! Replaces criterion so the workspace builds without crates.io access.
//! Each benchmark runs a short calibration pass to pick an iteration
//! count, then a fixed number of timed samples; the report prints the
//! median, minimum and mean ns/iter (median is robust against scheduler
//! noise, minimum approximates the no-interference cost).
//!
//! Benches are `harness = false` binaries whose `main` builds a
//! [`Bench`], registers closures, and calls nothing else — `cargo bench`
//! passes each binary `--bench`, which the argument filter ignores.

use std::time::{Duration, Instant};

/// Samples collected per benchmark.
const SAMPLES: usize = 12;

/// Target wall-clock time per sample.
const SAMPLE_TARGET: Duration = Duration::from_millis(40);

/// Wall-clock budget for the calibration pass.
const CALIBRATION: Duration = Duration::from_millis(20);

/// One benchmark's aggregated result.
#[derive(Debug, Clone)]
pub struct BenchResult {
    pub name: String,
    pub iters_per_sample: u64,
    pub median_ns: f64,
    pub min_ns: f64,
    pub mean_ns: f64,
}

/// The benchmark runner: groups, name filtering, result collection.
pub struct Bench {
    group: String,
    filter: Option<String>,
    results: Vec<BenchResult>,
}

impl Bench {
    /// Creates a runner, reading an optional substring filter from the
    /// command line (criterion-compatible: `--bench`/`--test` style flags
    /// injected by cargo are ignored).
    pub fn from_args() -> Bench {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with("--"));
        Bench {
            group: String::new(),
            filter,
            results: Vec::new(),
        }
    }

    /// Starts a named group; subsequent results print as `group/name`.
    pub fn group(&mut self, name: &str) -> &mut Self {
        self.group = name.to_string();
        self
    }

    /// Runs one benchmark closure unless filtered out.
    pub fn bench_function(&mut self, name: &str, mut f: impl FnMut()) -> &mut Self {
        let full = if self.group.is_empty() {
            name.to_string()
        } else {
            format!("{}/{}", self.group, name)
        };
        if let Some(filter) = &self.filter {
            if !full.contains(filter.as_str()) {
                return self;
            }
        }
        // Calibration: how many iterations fit in the sample target?
        let start = Instant::now();
        let mut calibration_iters = 0u64;
        while start.elapsed() < CALIBRATION {
            f();
            calibration_iters += 1;
        }
        let per_iter = start.elapsed().as_secs_f64() / calibration_iters as f64;
        let iters = ((SAMPLE_TARGET.as_secs_f64() / per_iter) as u64).max(1);

        let mut samples_ns = Vec::with_capacity(SAMPLES);
        for _ in 0..SAMPLES {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            samples_ns.push(t0.elapsed().as_nanos() as f64 / iters as f64);
        }
        samples_ns.sort_by(|a, b| a.total_cmp(b));
        let median_ns = samples_ns[samples_ns.len() / 2];
        let min_ns = samples_ns[0];
        let mean_ns = samples_ns.iter().sum::<f64>() / samples_ns.len() as f64;
        let result = BenchResult {
            name: name.to_string(),
            iters_per_sample: iters,
            median_ns,
            min_ns,
            mean_ns,
        };
        println!(
            "{full:<44} {:>12.1} ns/iter (min {:.1}, mean {:.1}, {} iters x {} samples)",
            result.median_ns, result.min_ns, result.mean_ns, iters, SAMPLES
        );
        self.results.push(result);
        self
    }

    /// All results collected so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_and_reports() {
        let mut b = Bench {
            group: String::new(),
            filter: None,
            results: Vec::new(),
        };
        let mut x = 0u64;
        b.group("t").bench_function("noop", || {
            x = x.wrapping_add(1);
        });
        assert_eq!(b.results().len(), 1);
        let r = &b.results()[0];
        assert!(r.median_ns >= 0.0 && r.min_ns <= r.median_ns);
    }

    #[test]
    fn filter_skips_nonmatching() {
        let mut b = Bench {
            group: String::new(),
            filter: Some("other".into()),
            results: Vec::new(),
        };
        b.group("g").bench_function("skipped", || {});
        assert!(b.results().is_empty());
    }
}
