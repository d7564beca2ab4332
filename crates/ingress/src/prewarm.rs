//! Demand-driven QP pre-warm restocking for gateway→backend links.
//!
//! Cold RC establishment costs tens of milliseconds; a gateway that only
//! tops a pre-warm pool back up to a *static* floor loses the race the
//! moment the first-contact rate exceeds `floor / maturation_delay`
//! (orders placed now take a full `connect_delay` to become claimable
//! stock). Swift's answer — and this controller's — is to size each
//! restock order to a buffer *plus the demand actually observed* since
//! the last tick: the order pipeline then tracks the first-contact rate
//! instead of a constant, and the pool stays warm through arrival bursts
//! and diurnal ramps alike.
//!
//! The controller is deliberately passive arithmetic: callers feed it
//! demand as claims happen ([`PrewarmController::note_demand`]) and ask
//! it how much to order at each tick ([`PrewarmController::order`]);
//! issuing the order (e.g. `Fabric::prewarm_link`) stays with the
//! caller, which keeps this crate free of fabric dependencies and the
//! policy unit-testable in isolation.

/// Upper bound on a single order, capping the in-flight pipeline after a
/// pathological burst (e.g. a cell-wide restart).
const MAX_ORDER: usize = 4_096;

/// Per-link restock controller: accumulates the demand signal between
/// ticks and converts `(stock, demand)` into an order size.
#[derive(Debug, Clone)]
pub struct PrewarmController {
    /// Stock floor held even with zero observed demand; `0` disables
    /// pre-warming entirely ([`Self::order`] returns 0).
    target: usize,
    /// First contacts observed since the last [`Self::order`] call.
    demand: usize,
    orders: u64,
    ordered_total: u64,
}

impl PrewarmController {
    /// Creates a controller holding a stock floor of `target`.
    pub fn new(target: usize) -> Self {
        PrewarmController {
            target,
            demand: 0,
            orders: 0,
            ordered_total: 0,
        }
    }

    /// Records `n` first contacts (pre-warm claims *and* cold connects —
    /// a cold connect is demand the stock failed to meet, the strongest
    /// possible signal to order more).
    pub fn note_demand(&mut self, n: usize) {
        self.demand = self.demand.saturating_add(n);
    }

    /// Demand accumulated since the last [`Self::order`] call.
    pub fn pending_demand(&self) -> usize {
        self.demand
    }

    /// One restock tick: given the currently claimable `stock`, returns
    /// how many QPs to order and resets the demand window. The desired
    /// inventory position is `target + demand`, so steady state carries
    /// one window's worth of consumption on top of the floor.
    pub fn order(&mut self, stock: usize) -> usize {
        let demand = std::mem::take(&mut self.demand);
        if self.target == 0 {
            return 0;
        }
        let want = self.target.saturating_add(demand);
        let order = want.saturating_sub(stock).min(MAX_ORDER);
        if order > 0 {
            self.orders += 1;
            self.ordered_total += order as u64;
        }
        order
    }

    /// `(restock ticks that ordered, total QPs ordered)` counters.
    pub fn events(&self) -> (u64, u64) {
        (self.orders, self.ordered_total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_link_holds_the_floor() {
        let mut c = PrewarmController::new(8);
        assert_eq!(c.order(0), 8, "empty pool orders up to the floor");
        assert_eq!(c.order(8), 0, "full pool orders nothing");
        assert_eq!(c.order(5), 3, "partial pool tops up the deficit");
    }

    #[test]
    fn demand_raises_the_order_beyond_the_floor() {
        let mut c = PrewarmController::new(8);
        c.note_demand(10);
        c.note_demand(2);
        // Stock is still at the floor, but 12 claims landed since the
        // last tick: the order replaces them on top of the floor.
        assert_eq!(c.order(8), 12);
        // The window reset: with no new demand the floor suffices.
        assert_eq!(c.order(8), 0);
    }

    #[test]
    fn max_order_caps_burst_response() {
        let mut c = PrewarmController::new(8);
        c.note_demand(10_000);
        assert_eq!(c.order(0), 4_096);
        let (orders, total) = c.events();
        assert_eq!((orders, total), (1, 4_096));
    }

    #[test]
    fn zero_target_disables_ordering_and_drains_demand() {
        let mut c = PrewarmController::new(0);
        c.note_demand(50);
        assert_eq!(c.order(0), 0);
        assert_eq!(c.pending_demand(), 0, "window still resets");
        assert_eq!(c.events(), (0, 0));
    }
}
