//! Randomized tests on the simulation core: event ordering, resource
//! conservation, histogram percentile monotonicity and token-bucket
//! conformance under seeded-random inputs.

use simcore::ratelimit::TokenBucket;
use simcore::{Histogram, Server, Sim, SimDuration, SimRng, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

#[test]
fn events_fire_in_nondecreasing_time_order() {
    let mut rng = SimRng::new(11);
    for _ in 0..64 {
        let n = 1 + rng.gen_range(199) as usize;
        let times: Vec<u64> = (0..n).map(|_| rng.gen_range(1_000_000)).collect();
        let mut sim = Sim::new();
        let fired: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        for &t in &times {
            let fired = fired.clone();
            sim.schedule_at(SimTime::from_nanos(t), move |sim| {
                fired.borrow_mut().push(sim.now().as_nanos());
            });
        }
        sim.run();
        let fired = fired.borrow();
        assert_eq!(fired.len(), times.len());
        assert!(fired.windows(2).all(|w| w[0] <= w[1]));
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(&*fired, &sorted);
    }
}

#[test]
fn server_never_overlaps_jobs() {
    let mut rng = SimRng::new(22);
    for _ in 0..64 {
        let n = 1 + rng.gen_range(99) as usize;
        let jobs: Vec<(u64, u64)> = (0..n)
            .map(|_| (rng.gen_range(10_000), 1 + rng.gen_range(4_999)))
            .collect();
        let mut s = Server::new();
        let mut intervals = Vec::new();
        let mut arrivals: Vec<(u64, u64)> = jobs.clone();
        arrivals.sort_by_key(|&(a, _)| a);
        for (arrive, service) in arrivals {
            let done = s.admit(
                SimTime::from_nanos(arrive),
                SimDuration::from_nanos(service),
            );
            let start = done.as_nanos() - service;
            assert!(start >= arrive, "job started before arrival");
            intervals.push((start, done.as_nanos()));
        }
        // FIFO single server: service intervals are disjoint and ordered.
        assert!(intervals.windows(2).all(|w| w[0].1 <= w[1].0));
        // Busy accounting equals the sum of service demands.
        let total: u64 = jobs.iter().map(|&(_, s)| s).sum();
        assert_eq!(s.busy_ns_until(SimTime::MAX).as_nanos(), total);
    }
}

#[test]
fn histogram_percentiles_are_monotone_and_bounded() {
    let mut rng = SimRng::new(33);
    for _ in 0..64 {
        let n = 1 + rng.gen_range(299) as usize;
        let samples: Vec<u64> = (0..n).map(|_| 1 + rng.gen_range(9_999_999)).collect();
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(SimDuration::from_nanos(s));
        }
        let mut prev = 0u64;
        for p in [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = h.percentile(p).as_nanos();
            assert!(v >= prev, "percentile({p}) regressed: {v} < {prev}");
            assert!(v <= h.max().as_nanos());
            prev = v;
        }
        assert!(h.min().as_nanos() <= h.mean().as_nanos() || samples.len() == 1);
        assert!(h.mean().as_nanos() <= h.max().as_nanos());
    }
}

#[test]
fn token_bucket_never_exceeds_rate_over_long_windows() {
    let mut rng = SimRng::new(44);
    for _ in 0..64 {
        let n = 10 + rng.gen_range(190) as usize;
        let sizes: Vec<u64> = (0..n).map(|_| 1 + rng.gen_range(4_095)).collect();
        let rate = rng.uniform(1_000_000.0, 1_000_000_000.0);
        token_bucket_conforms(&sizes, rate);
    }
    // A shrunk case from an earlier randomized search, near the top of the
    // rate range.
    token_bucket_conforms(
        &[
            707, 651, 136, 168, 264, 728, 1622, 3744, 802, 3543, 1318, 649, 3573,
        ],
        904_951_527.175_16,
    );
}

fn token_bucket_conforms(sizes: &[u64], rate: f64) {
    let burst = 8_192.0;
    let mut tb = TokenBucket::new(rate, burst);
    let mut t = SimTime::ZERO;
    let mut sent = 0u64;
    for &s in sizes {
        t = tb.reserve(t, s);
        sent += s;
    }
    // Conformance: bytes sent by instant t never exceed burst + rate*t,
    // modulo nanosecond rounding (up to 1 ns of credit per reservation).
    let elapsed = t.as_secs_f64();
    let rounding_slack = rate * 1e-9 * sizes.len() as f64 + 1.0;
    assert!(
        (sent as f64) <= burst + rate * elapsed + rounding_slack,
        "sent {sent} bytes in {elapsed}s at rate {rate}"
    );
}
