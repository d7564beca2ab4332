//! Adaptive per-tenant admission control (CoDel-style).
//!
//! The static per-worker backlog bound in the gateway only trips once
//! queues are already deep; by then every queued request is stale and the
//! overload has propagated into the cluster. This module sheds load
//! *early*, per tenant, from the standing queueing delay — the controlled
//! delay (CoDel) algorithm of Nichols & Jacobson adapted from router
//! queues to request admission, in the spirit of Breakwater-style
//! server-driven admission control:
//!
//! - While a tenant's observed queueing delay stays below `target`, all of
//!   its requests are admitted and the controller stays dormant.
//! - Once the delay has remained above the (weight-adjusted) target for a
//!   full `interval`, the controller enters the *shedding* regime: it
//!   rejects one request, then the next after `interval/√2`, then
//!   `interval/√3`, … — the control law that drives a persistent standing
//!   queue back to the target with gently increasing pressure.
//! - The first dip below target exits the regime and resets the law.
//!
//! Multi-tenancy: each tenant runs an independent controller, but the
//! *effective* target is scaled by the ratio of the tenant's DWRR weight
//! share to its share of recent arrivals, in both directions. A rogue
//! tenant flooding the gateway sees a tightened target (sheds first and
//! hardest); a tenant whose arrival share sits *below* its weight share
//! gets proportional extra headroom — shedding its sparse requests could
//! never drain a queue someone else built, so it rides out another
//! tenant's flood instead of being punished for it. A cluster-health
//! capacity factor tightens every target during brownouts (less capacity
//! → shed sooner).
//!
//! Everything here is deterministic: no randomness, no wall clock — the
//! same arrival sequence always sheds the same requests.

use std::collections::BTreeMap;

use simcore::{SimDuration, SimTime};

/// Admission-control configuration.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Queueing-delay SLO target: delays persistently above this trigger
    /// shedding (CoDel `TARGET`).
    pub target: SimDuration,
    /// Sliding control window: how long the delay must stay above target
    /// before the first shed, and the base of the `interval/√count`
    /// pressure law (CoDel `INTERVAL`).
    pub interval: SimDuration,
    /// `Retry-After` seconds advertised to shed clients.
    pub retry_after_secs: u32,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            target: SimDuration::from_micros(500),
            interval: SimDuration::from_millis(10),
            retry_after_secs: 1,
        }
    }
}

/// The controller's verdict for one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Let the request through.
    Admit,
    /// Shed the request (503 + `Retry-After`).
    Shed,
}

/// Per-tenant CoDel state.
#[derive(Debug, Clone, Copy, Default)]
struct TenantState {
    /// DWRR weight (admission pressure is weight-aware).
    weight: u32,
    /// When the delay first rose above the effective target plus one
    /// interval — the earliest instant shedding may begin.
    first_above: Option<SimTime>,
    /// Whether the controller is in the shedding regime.
    dropping: bool,
    /// Next shed instant while in the regime.
    drop_next: SimTime,
    /// Sheds in the current regime (drives the √count law).
    count: u32,
    /// Arrivals in the current accounting window.
    window_arrivals: u64,
    /// Arrivals in the previous window (the share signal double-buffers so
    /// it never collapses to "no history" at a rotation).
    prev_arrivals: u64,
}

/// Deterministic per-tenant admission controller.
#[derive(Debug)]
pub struct AdmissionController {
    pub(crate) cfg: AdmissionConfig,
    /// `BTreeMap` so every iteration order is deterministic.
    tenants: BTreeMap<u16, TenantState>,
    window_start: SimTime,
    window_total: u64,
    prev_total: u64,
    weight_total: u64,
    /// Cluster capacity factor in `(0, 1]` fed by the health monitor:
    /// `0.5` means half the cluster is down, so targets tighten to half.
    capacity_factor: f64,
}

impl AdmissionController {
    /// Creates a controller with no tenants registered.
    pub fn new(cfg: AdmissionConfig) -> AdmissionController {
        AdmissionController {
            cfg,
            tenants: BTreeMap::new(),
            window_start: SimTime::ZERO,
            window_total: 0,
            prev_total: 0,
            weight_total: 0,
            capacity_factor: 1.0,
        }
    }

    /// Registers a tenant with its DWRR weight (re-registering updates the
    /// weight). Unregistered tenants are implicitly weight-1.
    pub fn register(&mut self, tenant: u16, weight: u32) {
        let weight = weight.max(1);
        let st = self.tenants.entry(tenant).or_default();
        self.weight_total += weight as u64 - st.weight as u64;
        st.weight = weight;
    }

    /// Sets the cluster capacity factor (clamped to `(0, 1]`); the health
    /// monitor calls this as nodes die and recover, so the gateway sheds
    /// proportionally sooner while the cluster is degraded.
    pub fn set_capacity_factor(&mut self, factor: f64) {
        self.capacity_factor = factor.clamp(0.05, 1.0);
    }

    /// The weight-pressure scale for a tenant right now: the ratio of its
    /// DWRR weight share to its recent arrival share, clamped to
    /// `[1/8, 8]`. Both the delay target and the shed pressure law scale
    /// by this factor, so a flooding tenant sheds sooner *and*
    /// proportionally faster, while a tenant running below its weight
    /// share earns matching headroom: the standing queue is not its
    /// doing, and shedding its sparse arrivals would not drain it.
    fn pressure_scale(&self, tenant: u16) -> f64 {
        let total = self.window_total + self.prev_total;
        match self.tenants.get(&tenant) {
            Some(st) if total > 0 && self.weight_total > 0 && st.weight > 0 => {
                let arrivals = st.window_arrivals + st.prev_arrivals;
                let arrival_share = arrivals as f64 / total as f64;
                let weight_share = st.weight as f64 / self.weight_total as f64;
                if arrival_share <= 0.0 {
                    8.0
                } else {
                    (weight_share / arrival_share).clamp(0.125, 8.0)
                }
            }
            _ => 1.0,
        }
    }

    /// The effective delay target for a tenant: the configured SLO,
    /// tightened by cluster capacity loss and the weight-pressure scale.
    fn effective_target(&self, scale: f64) -> SimDuration {
        let base = self.cfg.target.as_nanos() as f64 * self.capacity_factor;
        SimDuration::from_nanos((base * scale) as u64)
    }

    /// The `interval/√count` pressure law.
    fn control_law(interval: SimDuration, now: SimTime, count: u32) -> SimTime {
        let ns = interval.as_nanos() as f64 / (count.max(1) as f64).sqrt();
        now + SimDuration::from_nanos(ns as u64)
    }

    /// Decides admission for one arrival of `tenant` that would currently
    /// wait `queue_delay` before service.
    pub fn on_arrival(&mut self, tenant: u16, queue_delay: SimDuration, now: SimTime) -> Admission {
        // Rotate the arrival-share accounting window each interval, so the
        // weight-pressure signal tracks *recent* behaviour, not history.
        if now.saturating_since(self.window_start) >= self.cfg.interval {
            self.window_start = now;
            self.prev_total = self.window_total;
            self.window_total = 0;
            for st in self.tenants.values_mut() {
                st.prev_arrivals = st.window_arrivals;
                st.window_arrivals = 0;
            }
        }
        if !self.tenants.contains_key(&tenant) {
            self.register(tenant, 1);
        }
        let scale = self.pressure_scale(tenant);
        let target = self.effective_target(scale);
        // An overshooting tenant's pressure clock also runs faster, so its
        // shed *rate* (not just its threshold) tracks the overshoot.
        let interval = self.cfg.interval.mul_f64(scale);
        let st = self.tenants.entry(tenant).or_default();
        st.window_arrivals += 1;
        self.window_total += 1;

        if queue_delay < target {
            // Below target: leave the shedding regime (if any) behind.
            st.first_above = None;
            st.dropping = false;
            return Admission::Admit;
        }
        match st.first_above {
            None => {
                // First observation above target: arm the interval clock.
                st.first_above = Some(now + interval);
                Admission::Admit
            }
            Some(at) if now < at => Admission::Admit,
            Some(_) if !st.dropping => {
                // Delay stood above target for a whole interval: start
                // shedding. Re-entering soon after the last regime resumes
                // with elevated pressure (classic CoDel count carry-over).
                st.dropping = true;
                st.count = if st.count > 2 { st.count - 2 } else { 1 };
                st.drop_next = Self::control_law(interval, now, st.count);
                Admission::Shed
            }
            Some(_) => {
                if now >= st.drop_next {
                    st.count += 1;
                    // Advance from the *previous* shed instant, not from
                    // `now` (classic CoDel): when the law's cadence outpaces
                    // a flooding tenant's arrival spacing, `drop_next` stays
                    // behind `now` and consecutive arrivals — even ones in
                    // the same burst instant — keep shedding until the clock
                    // catches up. Advancing from `now` would cap the shed
                    // rate at one per distinct arrival instant, which lets a
                    // tenant that batches its flood outrun the controller.
                    st.drop_next = Self::control_law(interval, st.drop_next, st.count);
                    Admission::Shed
                } else {
                    Admission::Admit
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AdmissionConfig {
        AdmissionConfig {
            target: SimDuration::from_micros(500),
            interval: SimDuration::from_millis(10),
            retry_after_secs: 1,
        }
    }

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn below_target_always_admits() {
        let mut ac = AdmissionController::new(cfg());
        ac.register(1, 1);
        for i in 0..100 {
            let d = ac.on_arrival(1, SimDuration::from_micros(100), at(i));
            assert_eq!(d, Admission::Admit);
        }
    }

    #[test]
    fn sustained_overload_starts_shedding_after_one_interval() {
        let mut ac = AdmissionController::new(cfg());
        ac.register(1, 1);
        let high = SimDuration::from_millis(5); // way above 500us target
        assert_eq!(ac.on_arrival(1, high, at(0)), Admission::Admit, "arming");
        assert_eq!(ac.on_arrival(1, high, at(5)), Admission::Admit, "within");
        assert_eq!(ac.on_arrival(1, high, at(11)), Admission::Shed, "armed");
        // Pressure increases: the next shed comes within interval/√2.
        let mut sheds = 1;
        for ms in 12..40 {
            if ac.on_arrival(1, high, at(ms)) == Admission::Shed {
                sheds += 1;
            }
        }
        assert!(sheds >= 3, "pressure law keeps shedding, got {sheds}");
    }

    #[test]
    fn dip_below_target_resets_the_regime() {
        let mut ac = AdmissionController::new(cfg());
        ac.register(1, 1);
        let high = SimDuration::from_millis(5);
        assert_eq!(ac.on_arrival(1, high, at(0)), Admission::Admit);
        assert_eq!(ac.on_arrival(1, high, at(11)), Admission::Shed);
        // One good sample exits shedding…
        assert_eq!(
            ac.on_arrival(1, SimDuration::from_micros(10), at(12)),
            Admission::Admit
        );
        // …and the next overload must stand a full interval again.
        assert_eq!(ac.on_arrival(1, high, at(13)), Admission::Admit);
        assert_eq!(ac.on_arrival(1, high, at(14)), Admission::Admit);
    }

    #[test]
    fn rogue_tenant_sheds_before_compliant_tenant() {
        let mut ac = AdmissionController::new(cfg());
        ac.register(1, 3); // compliant, heavier weight
        ac.register(2, 1); // rogue
                           // Rogue floods 9× the arrivals of the compliant tenant at a delay
                           // between the rogue's tightened target and the full target.
        let mid = SimDuration::from_micros(400);
        let mut rogue_sheds = 0;
        let mut good_sheds = 0;
        for tick in 0..2_000u64 {
            let now = SimTime::ZERO + SimDuration::from_micros(tick * 50);
            for _ in 0..9 {
                if ac.on_arrival(2, mid, now) == Admission::Shed {
                    rogue_sheds += 1;
                }
            }
            if ac.on_arrival(1, mid, now) == Admission::Shed {
                good_sheds += 1;
            }
        }
        assert!(rogue_sheds > 0, "rogue must be shed");
        assert_eq!(good_sheds, 0, "compliant tenant under target never sheds");
    }

    #[test]
    fn capacity_loss_tightens_every_target() {
        let mut ac = AdmissionController::new(cfg());
        ac.register(1, 1);
        // 300us sits below the full 500us target…
        let d = SimDuration::from_micros(300);
        assert_eq!(ac.on_arrival(1, d, at(0)), Admission::Admit);
        assert_eq!(ac.on_arrival(1, d, at(11)), Admission::Admit);
        // …but above the brownout-tightened one (500us × 0.5 = 250us).
        ac.set_capacity_factor(0.5);
        assert_eq!(ac.on_arrival(1, d, at(20)), Admission::Admit, "arming");
        assert_eq!(ac.on_arrival(1, d, at(31)), Admission::Shed);
    }

    #[test]
    fn determinism_same_sequence_same_sheds() {
        let run = || {
            let mut ac = AdmissionController::new(cfg());
            ac.register(1, 1);
            ac.register(2, 2);
            let mut verdicts = Vec::new();
            for tick in 0..500u64 {
                let now = SimTime::ZERO + SimDuration::from_micros(tick * 37);
                let d = SimDuration::from_micros((tick % 13) * 100);
                verdicts.push(ac.on_arrival((tick % 2) as u16 + 1, d, now));
            }
            verdicts
        };
        assert_eq!(run(), run());
    }
}
