//! One-sided RDMA verbs: WRITE and compare-and-swap.
//!
//! These exist to implement the Fig. 12 baselines faithfully:
//!
//! - **OWRC** (one-sided write with receiver-side copy): the receiver
//!   dedicates an RDMA-only *landing zone* (§2.1, Fig. 3 (2)); remote
//!   writes land there without consuming receive WRs or raising receiver
//!   completions, and the receiver discovers data FARM-style by polling
//!   ([`Fabric::poll_landing`]) before copying the payload into its local
//!   pool.
//! - **OWDL** (one-sided write with distributed locks): lock words live in
//!   atomic cells on the responder; lock acquisition and release are RDMA
//!   compare-and-swap round trips ([`Fabric::post_cas`]).
//!
//! NADINO itself deliberately avoids these primitives (Design
//! Implication #3); they are here so the comparison can be reproduced.

use membuf::pool::OwnedBuf;
use simcore::{Sim, SimTime};

use crate::fabric::{Fabric, QpHandle};
use crate::types::{NodeId, RKey, RdmaError, WrId};

impl Fabric {
    /// Dedicates `buf` as landing slot `(rkey, slot)` on `node`.
    ///
    /// The slot is an RDMA-only buffer: remote one-sided writes land here
    /// without any receiver involvement.
    pub fn post_landing(
        &self,
        node: NodeId,
        rkey: RKey,
        slot: u32,
        buf: OwnedBuf,
    ) -> Result<(), RdmaError> {
        let mut core = self.core_mut();
        let node = core.node_mut(node)?;
        // The slot buffer must come from the pool the rkey names.
        let region = node.mrs.region(rkey)?;
        if region.pool.tenant() != buf.tenant() || region.pool.pool_id() != buf.pool_id() {
            return Err(RdmaError::UnregisteredMemory);
        }
        node.landing.insert((rkey, slot), (buf, None));
        Ok(())
    }

    /// FARM-style arrival poll: returns the payload length once a write to
    /// the slot has landed (relative to virtual `now`).
    pub fn poll_landing(
        &self,
        now: SimTime,
        node: NodeId,
        rkey: RKey,
        slot: u32,
    ) -> Result<Option<u32>, RdmaError> {
        let core = self.core();
        let landing = &core.node(node)?.landing;
        let (buf, landed) = landing.get(&(rkey, slot)).ok_or(RdmaError::BadSlot(slot))?;
        Ok(landed
            .is_some_and(|at| at <= now)
            .then_some(buf.len() as u32))
    }

    /// Takes the landing buffer out of the slot (the receiver then copies
    /// the payload into its local pool and re-posts a fresh slot).
    pub fn claim_landing(
        &self,
        node: NodeId,
        rkey: RKey,
        slot: u32,
    ) -> Result<OwnedBuf, RdmaError> {
        let mut core = self.core_mut();
        let landing = &mut core.node_mut(node)?.landing;
        let (buf, _) = landing
            .remove(&(rkey, slot))
            .ok_or(RdmaError::BadSlot(slot))?;
        Ok(buf)
    }

    /// Posts a one-sided WRITE of `buf` into remote slot `(rkey, slot)`.
    ///
    /// The responder CPU (and RNIC receive queue) are not involved: no
    /// receiver completion is generated. The sender's completion returns
    /// after the ACK, carrying `buf` back.
    #[allow(clippy::too_many_arguments)]
    pub fn post_write(
        &self,
        sim: &mut Sim,
        h: QpHandle,
        wr_id: WrId,
        buf: OwnedBuf,
        rkey: RKey,
        slot: u32,
        imm: u64,
    ) -> Result<(), RdmaError> {
        let now = sim.now();
        let arrive = self
            .core_mut()
            .post_write(now, h, wr_id, buf, (rkey, slot), imm)?;
        self.put(sim, arrive);
        Ok(())
    }

    /// Posts an RDMA compare-and-swap on remote atomic cell `(rkey, cell)`.
    ///
    /// The completion's `imm` field carries the *old* value (so the caller
    /// learns whether the swap happened), after a full round trip plus the
    /// responder's atomic execution cost.
    #[allow(clippy::too_many_arguments)]
    pub fn post_cas(
        &self,
        sim: &mut Sim,
        h: QpHandle,
        wr_id: WrId,
        rkey: RKey,
        cell: u32,
        expect: u64,
        swap: u64,
    ) -> Result<(), RdmaError> {
        let now = sim.now();
        let arrive = self
            .core_mut()
            .post_cas(now, h, wr_id, (rkey, cell), (expect, swap))?;
        self.put(sim, arrive);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::RdmaCosts;
    use crate::fabric::{CqId, RqId};
    use crate::types::{CqeOpcode, CqeStatus};
    use membuf::pool::{BufferPool, PoolConfig};
    use membuf::tenant::TenantId;

    fn mk_pool(tenant: u16, pool_id: u16) -> BufferPool {
        let mut cfg = PoolConfig::new(TenantId(tenant), pool_id, 8192, 64);
        cfg.segment_size = 64 * 1024;
        BufferPool::new(cfg).unwrap()
    }

    struct Env {
        fabric: Fabric,
        sim: Sim,
        pool_a: BufferPool,
        pool_b: BufferPool,
        cq_a: CqId,
        rkey_b: RKey,
        h_ab: QpHandle,
        b: NodeId,
    }

    fn setup() -> Env {
        let fabric = Fabric::new(RdmaCosts::default());
        let mut sim = Sim::new();
        let a = fabric.add_node();
        let b = fabric.add_node();
        let tenant = TenantId(1);
        let pool_a = mk_pool(1, 0);
        let pool_b = mk_pool(1, 0);
        fabric.register_pool(a, pool_a.clone()).unwrap();
        let rkey_b = fabric.register_pool(b, pool_b.clone()).unwrap();
        let cq_a = fabric.create_cq(a).unwrap();
        let cq_b = fabric.create_cq(b).unwrap();
        let rq_a = fabric.create_rq(a, tenant).unwrap();
        let rq_b: RqId = fabric.create_rq(b, tenant).unwrap();
        let (h_ab, _) = fabric
            .connect(&mut sim, tenant, a, cq_a, rq_a, b, cq_b, rq_b)
            .unwrap();
        sim.run();
        Env {
            fabric,
            sim,
            pool_a,
            pool_b,
            cq_a,
            rkey_b,
            h_ab,
            b,
        }
    }

    #[test]
    fn one_sided_write_lands_without_receiver_involvement() {
        let mut e = setup();
        let slot_buf = e.pool_b.get().unwrap();
        e.fabric.post_landing(e.b, e.rkey_b, 0, slot_buf).unwrap();
        assert_eq!(
            e.fabric
                .poll_landing(e.sim.now(), e.b, e.rkey_b, 0)
                .unwrap(),
            None
        );
        let mut buf = e.pool_a.get().unwrap();
        buf.write_payload(b"receiver-oblivious").unwrap();
        let t0 = e.sim.now();
        e.fabric
            .post_write(&mut e.sim, e.h_ab, WrId(1), buf, e.rkey_b, 0, 0)
            .unwrap();
        e.sim.run();
        // Sender completion with the buffer back; ~4us for a small write.
        let cqes = e.fabric.poll_cq(e.cq_a, 8);
        assert_eq!(cqes.len(), 1);
        assert_eq!(cqes[0].status, CqeStatus::Success);
        assert_eq!(cqes[0].opcode, CqeOpcode::Write);
        let us = (e.sim.now() - t0).as_micros_f64();
        assert!(us > 2.5 && us < 7.0, "write completion took {us}us");
        // Receiver polls and claims.
        let len = e
            .fabric
            .poll_landing(e.sim.now(), e.b, e.rkey_b, 0)
            .unwrap()
            .expect("data landed");
        assert_eq!(len as usize, "receiver-oblivious".len());
        let landed = e.fabric.claim_landing(e.b, e.rkey_b, 0).unwrap();
        assert_eq!(landed.as_slice(), b"receiver-oblivious");
    }

    #[test]
    fn write_to_missing_slot_errors() {
        let mut e = setup();
        let buf = e.pool_a.get().unwrap();
        e.fabric
            .post_write(&mut e.sim, e.h_ab, WrId(1), buf, e.rkey_b, 42, 0)
            .unwrap();
        e.sim.run();
        let cqes = e.fabric.poll_cq(e.cq_a, 8);
        assert_eq!(cqes[0].status, CqeStatus::RemoteAccessError);
        assert!(cqes[0].buf.is_some());
    }

    #[test]
    fn cas_acquires_and_releases_a_lock() {
        let mut e = setup();
        // (expect, swap) → old value the completion reports.
        let steps = [
            (0, 1, 0, "free lock acquired"),
            (0, 1, 1, "lock already held"),
            (1, 0, 1, "holder releases"),
            (0, 1, 0, "released lock acquired again"),
        ];
        for (i, (expect, swap, old, what)) in steps.into_iter().enumerate() {
            e.fabric
                .post_cas(
                    &mut e.sim,
                    e.h_ab,
                    WrId(i as u64),
                    e.rkey_b,
                    0,
                    expect,
                    swap,
                )
                .unwrap();
            e.sim.run();
            let cqes = e.fabric.poll_cq(e.cq_a, 8);
            assert_eq!(cqes[0].imm, old, "{what}");
        }
    }

    #[test]
    fn cas_takes_a_round_trip() {
        let mut e = setup();
        let t0 = e.sim.now();
        e.fabric
            .post_cas(&mut e.sim, e.h_ab, WrId(1), e.rkey_b, 0, 0, 1)
            .unwrap();
        e.sim.run();
        let us = (e.sim.now() - t0).as_micros_f64();
        assert!(us > 3.0 && us < 8.0, "CAS RTT = {us}us");
    }
}
