//! Deterministic fault injection for the fabric.
//!
//! A [`FaultPlane`] attaches to a [`Fabric`](crate::Fabric) and perturbs
//! message delivery: per-link loss and corruption probabilities (drawn from
//! a seeded [`SimRng`] so runs stay byte-reproducible), scheduled QP kills,
//! and node crash/restart windows during which every message touching the
//! node is lost. Faults never make work vanish silently — each one turns
//! into a proper error CQE so upper layers can react (retry, fail over,
//! reconnect), mirroring how real RC transport surfaces failures.
//!
//! A fault plane with all probabilities at zero and no scheduled events
//! consumes no randomness and leaves the delivery path byte-identical to a
//! fabric without one (asserted by `tests/chaos.rs`).

use std::collections::HashMap;

use simcore::{SimRng, SimTime};

use crate::types::NodeId;

/// Counters for every fault the plane has injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages dropped on the wire by link loss.
    pub lost: u64,
    /// Messages delivered corrupted (error CQEs on both ends).
    pub corrupted: u64,
    /// Scheduled QP kills that fired.
    pub qp_kills: u64,
    /// Messages dropped because an endpoint was inside a crash window.
    pub outage_drops: u64,
}

/// What the fault plane decided for one message's wire traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultVerdict {
    /// Deliver normally.
    Deliver,
    /// The message vanished on the wire; only the sender learns (timeout).
    Lost,
    /// An endpoint is crashed; treated like loss but counted separately.
    Outage,
}

/// Seeded, deterministic fault model for a fabric.
///
/// Loss is looked up per directed link `(from, to)` first, then falls back
/// to the plane-wide default; corruption is plane-wide. All draws come from
/// the plane's own [`SimRng`] stream; links with probability zero skip the
/// RNG entirely, so a zero-fault plane is invisible to determinism checks.
#[derive(Debug, Clone)]
pub struct FaultPlane {
    rng: SimRng,
    default_loss: f64,
    default_corruption: f64,
    link_loss: HashMap<(NodeId, NodeId), f64>,
    /// Crash windows per node, indexed by node id: messages to or from the
    /// node inside `[start, end)` are dropped. Each node's windows are kept
    /// sorted, disjoint and non-adjacent, so a lookup is one binary search.
    outages: Vec<Vec<(SimTime, SimTime)>>,
    pub(crate) stats: FaultStats,
}

impl FaultPlane {
    /// Creates a fault plane with its own RNG stream and no faults.
    pub fn new(seed: u64) -> Self {
        FaultPlane {
            rng: SimRng::new(seed),
            default_loss: 0.0,
            default_corruption: 0.0,
            link_loss: HashMap::new(),
            outages: Vec::new(),
            stats: FaultStats::default(),
        }
    }

    /// Sets the loss probability applied to links without an override.
    pub fn set_default_loss(&mut self, p: f64) {
        self.default_loss = p.clamp(0.0, 1.0);
    }

    /// Sets the corruption probability applied to links without an override.
    pub fn set_default_corruption(&mut self, p: f64) {
        self.default_corruption = p.clamp(0.0, 1.0);
    }

    /// Sets the loss probability for the directed link `from -> to`.
    pub fn set_link_loss(&mut self, from: NodeId, to: NodeId, p: f64) {
        self.link_loss.insert((from, to), p.clamp(0.0, 1.0));
    }

    /// Registers a crash window `[from, until)` for `node`, merged with
    /// every window it overlaps or touches. An empty window adds nothing.
    pub fn add_outage(&mut self, node: NodeId, from: SimTime, until: SimTime) {
        if from >= until {
            return;
        }
        let idx = node.0 as usize;
        if self.outages.len() <= idx {
            self.outages.resize_with(idx + 1, Vec::new);
        }
        let ws = &mut self.outages[idx];
        // The windows `[lo, hi)` overlap or touch the new one.
        let lo = ws.partition_point(|&(_, e)| e < from);
        let hi = ws.partition_point(|&(s, _)| s <= until);
        let merged = ws[lo..hi]
            .iter()
            .fold((from, until), |(s, e), &(ws, we)| (s.min(ws), e.max(we)));
        ws.splice(lo..hi, [merged]);
    }

    /// Returns whether `node` is inside a crash window at `at`.
    pub fn in_outage(&self, node: NodeId, at: SimTime) -> bool {
        let Some(ws) = self.outages.get(node.0 as usize) else {
            return false;
        };
        // The first window ending after `at` is the only one that can hold it.
        let i = ws.partition_point(|&(_, e)| e <= at);
        ws.get(i).is_some_and(|&(s, _)| s <= at)
    }

    fn loss_p(&self, from: NodeId, to: NodeId) -> f64 {
        *self
            .link_loss
            .get(&(from, to))
            .unwrap_or(&self.default_loss)
    }

    /// Decides whether a message on `from -> to` survives the wire at `at`.
    ///
    /// Only consults the RNG when the relevant probability is non-zero, so
    /// a zero-fault plane draws nothing and perturbs nothing.
    pub(crate) fn roll_wire(&mut self, from: NodeId, to: NodeId, at: SimTime) -> FaultVerdict {
        if self.in_outage(from, at) || self.in_outage(to, at) {
            self.stats.outage_drops += 1;
            return FaultVerdict::Outage;
        }
        let loss = self.loss_p(from, to);
        if loss > 0.0 && self.rng.chance(loss) {
            self.stats.lost += 1;
            return FaultVerdict::Lost;
        }
        FaultVerdict::Deliver
    }

    /// Decides whether a message that reached the responder arrives damaged.
    /// Rolled only after a receive buffer was popped.
    pub(crate) fn roll_corruption(&mut self) -> bool {
        let corr = self.default_corruption;
        if corr > 0.0 && self.rng.chance(corr) {
            self.stats.corrupted += 1;
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn zero_fault_plane_never_draws() {
        let mut fp = FaultPlane::new(7);
        let before = fp.rng.clone().next_u64();
        for _ in 0..100 {
            assert_eq!(
                fp.roll_wire(NodeId(0), NodeId(1), t(1)),
                FaultVerdict::Deliver
            );
            assert!(!fp.roll_corruption());
        }
        // The RNG stream is untouched: the next draw matches a fresh clone.
        assert_eq!(fp.rng.next_u64(), before);
        assert_eq!(fp.stats, FaultStats::default());
    }

    #[test]
    fn link_override_beats_default() {
        let mut fp = FaultPlane::new(7);
        fp.set_default_loss(1.0);
        fp.set_link_loss(NodeId(0), NodeId(1), 0.0);
        assert_eq!(
            fp.roll_wire(NodeId(0), NodeId(1), t(1)),
            FaultVerdict::Deliver
        );
        assert_eq!(fp.roll_wire(NodeId(1), NodeId(0), t(1)), FaultVerdict::Lost);
        assert_eq!(fp.stats.lost, 1);
    }

    #[test]
    fn outage_windows_are_half_open_and_checked_both_ways() {
        let mut fp = FaultPlane::new(7);
        fp.add_outage(NodeId(2), t(10), t(20));
        assert!(!fp.in_outage(NodeId(2), t(9)));
        assert!(fp.in_outage(NodeId(2), t(10)));
        assert!(fp.in_outage(NodeId(2), t(19)));
        assert!(!fp.in_outage(NodeId(2), t(20)));
        // Either endpoint being down drops the message.
        assert_eq!(
            fp.roll_wire(NodeId(2), NodeId(0), t(15)),
            FaultVerdict::Outage
        );
        assert_eq!(
            fp.roll_wire(NodeId(0), NodeId(2), t(15)),
            FaultVerdict::Outage
        );
        assert_eq!(fp.stats.outage_drops, 2);
    }

    /// Overlapping, touching, nested and out-of-order windows answer as
    /// their union does, checked instant by instant against a linear scan of
    /// the windows as added.
    #[test]
    fn outage_windows_merge_into_their_union() {
        let added = [
            (40, 50),
            (10, 20),
            (15, 30),
            (30, 35),
            (60, 60),
            (42, 45),
            (5, 6),
        ];
        let mut fp = FaultPlane::new(7);
        for (from, until) in added {
            fp.add_outage(NodeId(3), t(from), t(until));
        }
        let windows = [(5, 6), (10, 35), (40, 50)].map(|(s, e)| (t(s), t(e)));
        assert_eq!(fp.outages[3], windows);
        for ms in 0..70 {
            let union = added.iter().any(|&(s, e)| ms >= s && ms < e);
            assert_eq!(fp.in_outage(NodeId(3), t(ms)), union, "at {ms} ms");
        }
        // A node with no window, below or past the highest id, is never out.
        assert!(!fp.in_outage(NodeId(0), t(15)));
        assert!(!fp.in_outage(NodeId(9), t(15)));
    }

    #[test]
    fn same_seed_same_verdicts() {
        let run = || {
            let mut fp = FaultPlane::new(0xC0FFEE);
            fp.set_default_loss(0.3);
            fp.set_default_corruption(0.2);
            (0..64)
                .map(|_| {
                    (
                        fp.roll_wire(NodeId(0), NodeId(1), t(1)),
                        fp.roll_corruption(),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
