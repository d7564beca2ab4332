//! The receive buffer registry (RBR).
//!
//! §3.5.2: the DNE "maintains a receive buffer registry (RBR) table ... to
//! map the WR to the posted receive buffer". Our fabric returns the buffer
//! inside the completion itself, so the registry's remaining jobs are
//! (a) attributing each receive WR to its tenant so consumed buffers are
//! replenished from the right pool, and (b) tracking per-tenant consumption
//! counters the core thread uses to size replenishment batches.
//!
//! A receive WR id carries its tenant in the top 16 bits and a per-tenant
//! sequence number below, so attribution is a shift, not a lookup. Liveness
//! (a WR completes at most once) is a per-tenant [`IdRing`] over the
//! sequence numbers: a tenant's shared RQ completes in posting order, so
//! each ring spans exactly that tenant's posted-and-unconsumed WRs — an
//! idle tenant pins only its own pre-posted depth, never another tenant's
//! traffic.

use membuf::tenant::TenantId;
use rdma_sim::WrId;
use simcore::{IdRing, IdTable};

const SEQ_BITS: u32 = 48;

#[derive(Debug, Default)]
struct TenantWrs {
    /// WRs ever registered; also the next sequence number.
    posted: u64,
    consumed: u64,
    live: IdRing<()>,
}

/// Tracks posted receive WRs and per-tenant consumption.
#[derive(Debug, Default)]
pub struct ReceiveBufferRegistry {
    tenants: IdTable<TenantWrs>,
    outstanding: usize,
}

impl ReceiveBufferRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        ReceiveBufferRegistry::default()
    }

    /// Allocates a fresh WR id and records it as posted for `tenant`.
    pub fn register(&mut self, tenant: TenantId) -> WrId {
        let t = self
            .tenants
            .get_or_insert_with(tenant.0.into(), TenantWrs::default);
        let seq = t.posted;
        t.posted += 1;
        t.live.insert(seq, ());
        self.outstanding += 1;
        WrId(u64::from(tenant.0) << SEQ_BITS | seq)
    }

    /// Consumes a completed receive WR, returning its tenant.
    pub fn consume(&mut self, wr: WrId) -> Option<TenantId> {
        let tenant = TenantId((wr.0 >> SEQ_BITS) as u16);
        let t = self.tenants.get_mut(tenant.0.into())?;
        t.live.remove(wr.0 & ((1 << SEQ_BITS) - 1))?;
        t.consumed += 1;
        self.outstanding -= 1;
        Some(tenant)
    }

    /// Returns the number of WRs currently outstanding for `tenant`.
    ///
    /// Saturating: `consumed` can never legitimately exceed `posted` (every
    /// consume requires a live entry), but a counter-accounting bug must
    /// surface as zero, not as a wrapped ~2^64 that poisons replenishment.
    pub fn outstanding(&self, tenant: TenantId) -> u64 {
        self.tenants
            .get(tenant.0.into())
            .map_or(0, |t| t.posted.saturating_sub(t.consumed))
    }

    /// Returns the total consumed count for `tenant`.
    pub fn consumed(&self, tenant: TenantId) -> u64 {
        self.tenants.get(tenant.0.into()).map_or(0, |t| t.consumed)
    }

    /// Returns the total number of outstanding WRs.
    pub fn len(&self) -> usize {
        self.outstanding
    }

    /// Returns `true` when no WRs are outstanding.
    pub fn is_empty(&self) -> bool {
        self.outstanding == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn register_and_consume_round_trip() {
        let mut rbr = ReceiveBufferRegistry::new();
        let t = TenantId(3);
        let a = rbr.register(t);
        let b = rbr.register(t);
        assert_ne!(a, b, "WR ids are unique");
        assert_eq!(rbr.outstanding(t), 2);
        assert_eq!(rbr.consume(a), Some(t));
        assert_eq!(rbr.outstanding(t), 1);
        assert_eq!(rbr.consumed(t), 1);
        assert_eq!(rbr.consume(a), None, "double consume is rejected");
    }

    #[test]
    fn tenants_are_tracked_independently() {
        let mut rbr = ReceiveBufferRegistry::new();
        let w1 = rbr.register(TenantId(1));
        let _w2 = rbr.register(TenantId(2));
        rbr.consume(w1);
        assert_eq!(rbr.outstanding(TenantId(1)), 0);
        assert_eq!(rbr.outstanding(TenantId(2)), 1);
        assert_eq!(rbr.len(), 1);
    }

    #[test]
    fn unknown_wr_is_none() {
        let mut rbr = ReceiveBufferRegistry::new();
        assert_eq!(rbr.consume(WrId(99)), None);
        assert!(rbr.is_empty());
    }

    /// Property: across randomized interleavings of registrations, valid
    /// consumes, double consumes and bogus-WR consumes (the failure paths a
    /// faulty fabric exercises), `outstanding` always equals the model count
    /// and never underflows.
    #[test]
    fn outstanding_never_underflows_under_random_interleavings() {
        use simcore::SimRng;
        for seed in 0..8u64 {
            let mut rng = SimRng::new(0xB0F + seed);
            let mut rbr = ReceiveBufferRegistry::new();
            let tenants = [TenantId(1), TenantId(2), TenantId(3)];
            let mut live: Vec<(WrId, TenantId)> = Vec::new();
            let mut dead: Vec<WrId> = Vec::new();
            let mut model: BTreeMap<TenantId, u64> = BTreeMap::new();
            for _ in 0..2_000 {
                match rng.gen_range(4) {
                    0 | 1 => {
                        let t = tenants[rng.gen_range(tenants.len() as u64) as usize];
                        live.push((rbr.register(t), t));
                        *model.entry(t).or_insert(0) += 1;
                    }
                    2 if !live.is_empty() => {
                        let i = rng.gen_range(live.len() as u64) as usize;
                        let (wr, t) = live.swap_remove(i);
                        assert_eq!(rbr.consume(wr), Some(t));
                        *model.get_mut(&t).expect("registered") -= 1;
                        dead.push(wr);
                    }
                    _ => {
                        // Failure interleaving: double consume or bogus WR.
                        let wr = if !dead.is_empty() && rng.chance(0.5) {
                            dead[rng.gen_range(dead.len() as u64) as usize]
                        } else {
                            WrId(u64::MAX - rng.gen_range(1_000))
                        };
                        let was_live = live.iter().any(|(w, _)| *w == wr);
                        if !was_live {
                            assert_eq!(rbr.consume(wr), None);
                        }
                    }
                }
                for t in tenants {
                    let out = rbr.outstanding(t);
                    assert_eq!(out, model.get(&t).copied().unwrap_or(0));
                    assert!(out < 1 << 32, "no underflow wrap: {out}");
                }
            }
            assert_eq!(rbr.len() as u64, model.values().sum::<u64>());
        }
    }

    /// Regression guard for the table conversion: a tenant that posts its
    /// receive depth and then goes quiet must not make the registry grow
    /// with *other* tenants' traffic (a single id-ordered ring would be
    /// pinned at the idle tenant's oldest WR forever).
    #[test]
    fn idle_tenant_does_not_pin_other_tenants_rings() {
        let mut rbr = ReceiveBufferRegistry::new();
        let (idle, busy) = (TenantId(1), TenantId(2));
        for _ in 0..64 {
            rbr.register(idle);
        }
        let mut inflight: std::collections::VecDeque<WrId> =
            (0..64).map(|_| rbr.register(busy)).collect();
        for _ in 0..100_000 {
            let wr = inflight.pop_front().expect("depth 64");
            assert_eq!(rbr.consume(wr), Some(busy));
            inflight.push_back(rbr.register(busy));
        }
        let span = |t: TenantId| rbr.tenants.get(t.0.into()).expect("seen").live.span();
        assert_eq!((span(idle), span(busy)), (64, 64));
        assert_eq!(rbr.len(), 128);
        assert_eq!(rbr.consumed(busy), 100_000);
    }
}
