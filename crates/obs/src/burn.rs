//! Multi-window, multi-burn-rate SLO alerting (Google-SRE style).
//!
//! The single fixed-size request window the old `SloMonitor` used had the
//! classic failure modes: a short window pages on noise, a long window
//! pages an hour late. The standard fix is to alert only when the error
//! budget is burning fast in *two* windows at once — a **fast** window
//! (catches the page-worthy spike quickly) AND a **slow** window (proves
//! the spike is not a blip). Both windows here are *sim-time* windows, so
//! the monitor is deterministic under the virtual clock; the defaults are
//! scaled "5m / 1h equivalents" for millisecond-horizon simulations,
//! keeping the canonical 1:12 fast:slow ratio.
//!
//! Burn rate is the breach fraction divided by the error budget: a burn
//! rate of 1.0 spends the budget exactly over the budget period, 10×
//! spends it ten times too fast. An alert fires on the rising edge of
//! `fast_burn >= threshold && slow_burn >= threshold` (with a minimum
//! event count in the fast window to suppress single-request noise); the
//! pipeline turns that edge into a flight-recorder dump and the health
//! monitor folds the alert set into its capacity factor.
//!
//! Storage is bounded: per tenant, a deque of fixed-width time buckets
//! spanning the slow window, plus a capped sampled series of
//! [`BurnPoint`]s for reports.

use std::collections::VecDeque;

use simcore::{SimDuration, SimTime};

use crate::json::JsonValue;

/// Knobs for [`BurnMonitor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnConfig {
    /// Latency target: a request above this breaches the SLO.
    pub target_ns: u64,
    /// Error budget as a breach fraction (0.01 = 1% of requests may
    /// breach over the budget period).
    pub budget: f64,
    /// Fast window (sim time) — the "5m-equivalent".
    pub fast_window: SimDuration,
    /// Slow window (sim time) — the "1h-equivalent". Should be a
    /// multiple of `fast_window`; the canonical ratio is 12×.
    pub slow_window: SimDuration,
    /// Burn rate at or above which a window is considered burning.
    pub burn_threshold: f64,
    /// Minimum events inside the fast window before an alert may fire.
    pub min_events: u64,
}

impl Default for BurnConfig {
    fn default() -> BurnConfig {
        BurnConfig {
            target_ns: 1_000_000,
            budget: 0.01,
            fast_window: SimDuration::from_millis(1),
            slow_window: SimDuration::from_millis(12),
            burn_threshold: 10.0,
            min_events: 8,
        }
    }
}

/// One sampled point of a tenant's burn-rate series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnPoint {
    /// Virtual time of the sample.
    pub at_ns: u64,
    /// Burn rate over the fast window.
    pub fast_burn: f64,
    /// Burn rate over the slow window.
    pub slow_burn: f64,
    /// Whether the tenant was in the alerting state at the sample.
    pub alerting: bool,
}

impl BurnPoint {
    fn to_json(self) -> JsonValue {
        JsonValue::obj(vec![
            ("at_ns", JsonValue::UInt(self.at_ns)),
            ("fast_burn", JsonValue::Float(self.fast_burn)),
            ("slow_burn", JsonValue::Float(self.slow_burn)),
            ("alerting", JsonValue::Bool(self.alerting)),
        ])
    }
}

/// One fixed-width time bucket of a tenant's event history.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    /// `at_ns / bucket_width` at the time of the first event.
    index: u64,
    total: u64,
    breached: u64,
}

#[derive(Debug, Default)]
struct TenantBurn {
    /// Time buckets spanning the slow window, oldest first.
    buckets: VecDeque<Bucket>,
    /// Lifetime counters (never evicted).
    total: u64,
    breached: u64,
    /// Current alert state (edge-detected).
    alerting: bool,
    /// Rising edges seen so far.
    alerts: u64,
    /// Sampled series for reports, capped at [`SERIES_CAP`].
    series: Vec<BurnPoint>,
    series_dropped: u64,
}

/// Hard cap on the per-tenant sampled series.
const SERIES_CAP: usize = 4096;

/// The fast window is split into this many buckets, trading memory for
/// eviction granularity at the trailing edge.
const BUCKETS_PER_FAST_WINDOW: u64 = 4;

/// Deterministic multi-window burn-rate monitor over sim time.
pub struct BurnMonitor {
    cfg: BurnConfig,
    bucket_width_ns: u64,
    fast_buckets: u64,
    slow_buckets: u64,
    /// Sorted by tenant id for deterministic export.
    tenants: Vec<(u16, TenantBurn)>,
}

impl BurnMonitor {
    /// Creates a monitor with one shared config for all tenants.
    pub fn new(cfg: BurnConfig) -> BurnMonitor {
        let bucket_width_ns = (cfg.fast_window.as_nanos() / BUCKETS_PER_FAST_WINDOW).max(1);
        let fast_buckets = (cfg.fast_window.as_nanos() / bucket_width_ns).max(1);
        let slow_buckets = (cfg.slow_window.as_nanos() / bucket_width_ns).max(fast_buckets);
        BurnMonitor {
            cfg,
            bucket_width_ns,
            fast_buckets,
            slow_buckets,
            tenants: Vec::new(),
        }
    }

    fn tenant_mut(&mut self, tenant: u16) -> &mut TenantBurn {
        let pos = match self.tenants.binary_search_by_key(&tenant, |(t, _)| *t) {
            Ok(pos) => pos,
            Err(pos) => {
                self.tenants.insert(pos, (tenant, TenantBurn::default()));
                pos
            }
        };
        &mut self.tenants[pos].1
    }

    fn evict(buckets: &mut VecDeque<Bucket>, cur_index: u64, slow_buckets: u64) {
        while let Some(front) = buckets.front() {
            if front.index + slow_buckets <= cur_index {
                buckets.pop_front();
            } else {
                break;
            }
        }
    }

    /// `(fast_burn, slow_burn, fast_events)` for one tenant's bucket
    /// deque at bucket `cur_index`.
    fn rates_of(&self, buckets: &VecDeque<Bucket>, cur_index: u64) -> (f64, f64, u64) {
        let mut fast = (0u64, 0u64);
        let mut slow = (0u64, 0u64);
        for b in buckets {
            if b.index + self.slow_buckets <= cur_index {
                continue; // stale bucket not yet evicted
            }
            slow.0 += b.total;
            slow.1 += b.breached;
            if b.index + self.fast_buckets > cur_index {
                fast.0 += b.total;
                fast.1 += b.breached;
            }
        }
        let budget = self.cfg.budget.max(f64::EPSILON);
        let rate = |(total, breached): (u64, u64)| {
            if total == 0 {
                0.0
            } else {
                (breached as f64 / total as f64) / budget
            }
        };
        (rate(fast), rate(slow), fast.0)
    }

    /// Observes one completed request. Returns `true` on the **rising
    /// edge** of the two-window alert condition — the caller's cue to
    /// take a flight-recorder dump.
    pub fn observe(&mut self, tenant: u16, at: SimTime, latency_ns: u64) -> bool {
        let cur_index = at.as_nanos() / self.bucket_width_ns;
        let breach = latency_ns > self.cfg.target_ns;
        let (threshold, min_events) = (self.cfg.burn_threshold, self.cfg.min_events);
        let slow_buckets_n = self.slow_buckets;
        let s = self.tenant_mut(tenant);
        s.total += 1;
        if breach {
            s.breached += 1;
        }
        match s.buckets.back_mut() {
            Some(b) if b.index == cur_index => {
                b.total += 1;
                b.breached += breach as u64;
            }
            _ => s.buckets.push_back(Bucket {
                index: cur_index,
                total: 1,
                breached: breach as u64,
            }),
        }
        Self::evict(&mut s.buckets, cur_index, slow_buckets_n);
        // Re-borrow immutably for the rate computation.
        let pos = self
            .tenants
            .binary_search_by_key(&tenant, |(t, _)| *t)
            .expect("tenant just inserted");
        let (fast, slow, fast_events) = self.rates_of(&self.tenants[pos].1.buckets, cur_index);
        let alerting = fast >= threshold && slow >= threshold && fast_events >= min_events;
        let s = &mut self.tenants[pos].1;
        let rising = alerting && !s.alerting;
        s.alerting = alerting;
        if rising {
            s.alerts += 1;
        }
        rising
    }

    /// Samples every tenant's current burn rates into its series.
    /// Intended to be driven at the obs-sampler cadence.
    pub fn sample(&mut self, now: SimTime) {
        let cur_index = now.as_nanos() / self.bucket_width_ns;
        for i in 0..self.tenants.len() {
            let (fast, slow, _) = self.rates_of(&self.tenants[i].1.buckets, cur_index);
            let alerting = self.tenants[i].1.alerting;
            let s = &mut self.tenants[i].1;
            if s.series.len() >= SERIES_CAP {
                s.series_dropped += 1;
            } else {
                s.series.push(BurnPoint {
                    at_ns: now.as_nanos(),
                    fast_burn: fast,
                    slow_burn: slow,
                    alerting,
                });
            }
        }
    }

    /// Current burn rates for one tenant: `(fast, slow)`.
    pub fn rates(&self, tenant: u16, now: SimTime) -> Option<(f64, f64)> {
        let cur_index = now.as_nanos() / self.bucket_width_ns;
        self.tenants
            .binary_search_by_key(&tenant, |(t, _)| *t)
            .ok()
            .map(|pos| {
                let (f, s, _) = self.rates_of(&self.tenants[pos].1.buckets, cur_index);
                (f, s)
            })
    }

    /// Tenants currently in the alerting state, sorted.
    pub fn alerting_tenants(&self) -> Vec<u16> {
        self.tenants
            .iter()
            .filter(|(_, s)| s.alerting)
            .map(|(t, _)| *t)
            .collect()
    }

    /// Per-tenant counters: `(tenant, total, breached, alerts)`, sorted
    /// by tenant id.
    pub fn counters(&self) -> Vec<(u16, u64, u64, u64)> {
        self.tenants
            .iter()
            .map(|(t, s)| (*t, s.total, s.breached, s.alerts))
            .collect()
    }

    /// One tenant's sampled burn-rate series.
    pub fn series(&self, tenant: u16) -> Option<&[BurnPoint]> {
        self.tenants
            .binary_search_by_key(&tenant, |(t, _)| *t)
            .ok()
            .map(|pos| self.tenants[pos].1.series.as_slice())
    }

    /// JSON form: config, per-tenant counters and the sampled series.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("target_ns", JsonValue::UInt(self.cfg.target_ns)),
            ("budget", JsonValue::Float(self.cfg.budget)),
            (
                "fast_window_ns",
                JsonValue::UInt(self.cfg.fast_window.as_nanos()),
            ),
            (
                "slow_window_ns",
                JsonValue::UInt(self.cfg.slow_window.as_nanos()),
            ),
            ("burn_threshold", JsonValue::Float(self.cfg.burn_threshold)),
            ("min_events", JsonValue::UInt(self.cfg.min_events)),
            (
                "tenants",
                JsonValue::Arr(
                    self.tenants
                        .iter()
                        .map(|(t, s)| {
                            JsonValue::obj(vec![
                                ("tenant", JsonValue::UInt(*t as u64)),
                                ("total", JsonValue::UInt(s.total)),
                                ("breached", JsonValue::UInt(s.breached)),
                                ("alerts", JsonValue::UInt(s.alerts)),
                                ("alerting", JsonValue::Bool(s.alerting)),
                                ("series_dropped", JsonValue::UInt(s.series_dropped)),
                                (
                                    "series",
                                    JsonValue::Arr(s.series.iter().map(|p| p.to_json()).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn cfg() -> BurnConfig {
        BurnConfig {
            target_ns: 100,
            budget: 0.1,
            fast_window: SimDuration::from_nanos(1_000),
            slow_window: SimDuration::from_nanos(12_000),
            burn_threshold: 5.0, // breach fraction >= 0.5
            min_events: 4,
        }
    }

    #[test]
    fn fast_spike_alone_does_not_alert() {
        let mut m = BurnMonitor::new(cfg());
        // A long healthy history fills the slow window with successes.
        for i in 0..100u64 {
            assert!(!m.observe(1, at(i * 100), 10));
        }
        // A short burst of breaches saturates the fast window, but the
        // slow window's breach fraction stays below the threshold.
        for i in 0..6u64 {
            assert!(
                !m.observe(1, at(11_000 + i * 10), 500),
                "slow window must veto the fast spike"
            );
        }
        let (fast, slow) = m.rates(1, at(11_060)).unwrap();
        assert!(fast >= 5.0, "fast window is burning ({fast})");
        assert!(slow < 5.0, "slow window is not ({slow})");
        assert!(m.alerting_tenants().is_empty());
    }

    #[test]
    fn sustained_burn_alerts_once_on_the_rising_edge() {
        let mut m = BurnMonitor::new(cfg());
        let mut edges = 0;
        for i in 0..40u64 {
            if m.observe(1, at(i * 100), 500) {
                edges += 1;
            }
        }
        assert_eq!(edges, 1, "one rising edge, not one alert per request");
        assert_eq!(m.alerting_tenants(), vec![1]);
        let (_, _, alerts) = {
            let c = m.counters();
            (c[0].0, c[0].1, c[0].3)
        };
        assert_eq!(alerts, 1);
    }

    #[test]
    fn recovery_clears_the_alert_and_a_relapse_re_alerts() {
        let mut m = BurnMonitor::new(cfg());
        for i in 0..40u64 {
            m.observe(1, at(i * 100), 500);
        }
        assert_eq!(m.alerting_tenants(), vec![1]);
        // Healthy traffic long enough to flush both windows.
        for i in 0..200u64 {
            m.observe(1, at(4_000 + i * 100), 10);
        }
        assert!(
            m.alerting_tenants().is_empty(),
            "alert clears after recovery"
        );
        // Relapse fires a second rising edge.
        let mut edges = 0;
        for i in 0..40u64 {
            if m.observe(1, at(30_000 + i * 100), 500) {
                edges += 1;
            }
        }
        assert_eq!(edges, 1);
        assert_eq!(m.counters()[0].3, 2, "two lifetime alerts");
    }

    #[test]
    fn min_events_guards_single_request_noise() {
        let mut m = BurnMonitor::new(cfg());
        // Two breaches: 100% breach fraction in both windows, but under
        // the min-event floor.
        assert!(!m.observe(1, at(0), 500));
        assert!(!m.observe(1, at(10), 500));
        assert!(m.alerting_tenants().is_empty());
    }

    #[test]
    fn tenants_are_isolated_and_series_samples() {
        let mut m = BurnMonitor::new(cfg());
        for i in 0..20u64 {
            m.observe(1, at(i * 100), 500);
            m.observe(2, at(i * 100), 10);
        }
        m.sample(at(2_000));
        assert_eq!(m.alerting_tenants(), vec![1]);
        let s1 = m.series(1).unwrap();
        let s2 = m.series(2).unwrap();
        assert_eq!(s1.len(), 1);
        assert!(s1[0].alerting && s1[0].fast_burn >= 5.0);
        assert!(!s2[0].alerting && s2[0].fast_burn == 0.0 || s2[0].fast_burn < 5.0);
        let json = m.to_json();
        assert!(crate::json::parse(&json.to_string_pretty()).is_ok());
    }
}
