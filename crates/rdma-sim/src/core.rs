//! The RNIC as a state machine that never sees a simulator.
//!
//! [`Core`] owns everything the fabric knows: nodes, CQs, shared RQs, the
//! QP table, the pre-warm stock, the fault plane and the tracer. Its timed
//! work enters in one place, [`Core::step`]: the current instant and one
//! [`Input`] (a hardware event coming due) in, at most two [`Output`]s out,
//! handed to a sink in emission order. The verbs that start a timeline
//! (`post_send`, `post_write`, `post_cas`, `establish`) validate and admit
//! under the caller's one borrow and return its first `Output`. The driver
//! in `crate::fabric` turns each `At` into one event and each `Wake` into
//! one call of the CQ's waker.
//!
//! CQ, RQ and QP ids come from fabric-wide counters and are never reused,
//! so the tables are indexed by id: CQs and RQs live for the fabric's
//! lifetime in plain vectors, QPs in an [`IdTable`] where a destroyed QP
//! leaves a 4-byte tombstone. A QP holds the CQ and RQ its sends land on,
//! so delivery is one QP load.

use std::collections::{HashMap, VecDeque};

use membuf::pool::OwnedBuf;
use membuf::tenant::TenantId;
use simcore::ratelimit::TokenBucket;
use simcore::{IdTable, Server, SimDuration, SimTime};

use crate::cost::RdmaCosts;
use crate::fabric::{CqId, QpCounters, QpHandle, RqId};
use crate::fault::{FaultPlane, FaultVerdict};
use crate::mr::MrTable;
use crate::types::{Cqe, CqeOpcode, CqeStatus, NodeId, QpId, RKey, RdmaError, WrId};

/// Depth of every completion queue, ample for every experiment. A
/// completion arriving at a full CQ is dropped and counted — the overflow
/// real RNICs raise as a fatal async event.
pub(crate) const CQ_DEPTH: usize = 64 * 1024;

/// Normalizes a node pair into the unordered key the pre-warm stock uses.
pub(crate) fn link_key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    (a.min(b), a.max(b))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum QpState {
    Connecting,
    Ready,
    /// The connection failed (injected fault or fatal transport error).
    Error,
}

pub(crate) struct Qp {
    /// The node this endpoint lives on (QP ids are fabric-wide, so a
    /// handle naming the wrong node must not resolve).
    pub(crate) node: NodeId,
    pub(crate) peer_node: NodeId,
    pub(crate) peer_qp: QpId,
    pub(crate) tenant: TenantId,
    /// This endpoint's CQ: where its send completions go.
    pub(crate) cq: CqId,
    /// The peer endpoint's CQ and shared RQ — where a send on this QP
    /// lands — held here so delivery never looks the peer up.
    pub(crate) peer_cq: CqId,
    pub(crate) peer_rq: RqId,
    pub(crate) state: QpState,
    /// Shadow-QP accounting (§3.3): only active QPs occupy RNIC cache.
    pub(crate) active: bool,
    pub(crate) sq_outstanding: u32,
    pub(crate) counters: QpCounters,
}

/// A shared receive queue. Its WR ids and its buffers are held apart: an
/// arrival completes the oldest WR id, in posting order as verbs promise,
/// into the newest buffer, the one most likely still in cache. All of an
/// RQ's buffers come from one pool (`Fabric::post_recv` refuses another),
/// so which one takes the payload is invisible: it is written in full and
/// nothing reads its index (DESIGN §5).
pub(crate) struct RqState {
    pub(crate) node: NodeId,
    pub(crate) tenant: TenantId,
    /// Posted WR ids, oldest first.
    pub(crate) wr_ids: VecDeque<WrId>,
    /// Posted buffers, newest last; as many as `wr_ids`.
    pub(crate) bufs: Vec<OwnedBuf>,
}

impl RqState {
    pub(crate) fn new(node: NodeId, tenant: TenantId) -> Self {
        RqState {
            node,
            tenant,
            wr_ids: VecDeque::new(),
            bufs: Vec::new(),
        }
    }

    pub(crate) fn post(&mut self, wr_id: WrId, buf: OwnedBuf) {
        self.wr_ids.push_back(wr_id);
        self.bufs.push(buf);
    }

    /// Takes the oldest WR id and the newest buffer, or `None` when nothing
    /// is posted (both stacks grow and shrink together).
    fn take(&mut self) -> Option<(WrId, OwnedBuf)> {
        self.wr_ids.pop_front().zip(self.bufs.pop())
    }

    pub(crate) fn depth(&self) -> usize {
        self.wr_ids.len()
    }
}

pub(crate) struct CqState {
    pub(crate) node: NodeId,
    pub(crate) entries: VecDeque<Cqe>,
    pub(crate) overflows: u64,
}

pub(crate) struct NodeState {
    pub(crate) rnic_tx: Server,
    pub(crate) rnic_rx: Server,
    pub(crate) egress: TokenBucket,
    pub(crate) mrs: MrTable,
    pub(crate) active_qps: usize,
    /// High-water mark of simultaneously active QPs — the QP-cache
    /// pressure signal the elastic control plane sizes its capacity
    /// bound against.
    pub(crate) peak_active_qps: usize,
    /// One-sided landing slots keyed by `(rkey, slot index)`: the buffer,
    /// and when the last write into it landed.
    pub(crate) landing: HashMap<(RKey, u32), (OwnedBuf, Option<SimTime>)>,
    /// Atomic cells for compare-and-swap, keyed by `(rkey, cell index)`.
    pub(crate) atomics: HashMap<(RKey, u32), u64>,
    pub(crate) tx_messages: u64,
    pub(crate) rx_messages: u64,
    pub(crate) rnr_events: u64,
}

/// A work request on the wire: who posted it and where it completes. It
/// carries the sender's CQ so the WR can be completed (in error) even if
/// its QP is gone by then.
#[derive(Clone, Copy)]
pub(crate) struct Delivery {
    pub(crate) sender: QpHandle,
    pub(crate) sender_cq: CqId,
    pub(crate) wr_id: WrId,
    pub(crate) imm: u64,
    /// RNR retries left (two-sided sends).
    pub(crate) retries_left: u32,
}

impl Delivery {
    fn new(sender: QpHandle, sender_cq: CqId, wr_id: WrId, imm: u64, retries_left: u32) -> Self {
        Delivery {
            sender,
            sender_cq,
            wr_id,
            imm,
            retries_left,
        }
    }

    /// The sender's completion, landing at `at`: `buf` rides home in it and
    /// gives its length (an atomic, with no buffer, moves 8 bytes).
    fn done(self, at: SimTime, op: CqeOpcode, status: CqeStatus, buf: Option<OwnedBuf>) -> Output {
        let cqe = Cqe {
            wr_id: self.wr_id,
            qp: self.sender.qp,
            opcode: op,
            status,
            byte_len: buf.as_ref().map_or(8, |b| b.len() as u32),
            imm: self.imm,
            buf,
        };
        let cq = self.sender_cq;
        Output::At(at, Input::PushCqe { cq, cqe })
    }
}

/// A hardware event coming due.
pub(crate) enum Input {
    /// A two-sided send reaches the responder RNIC (again, after an RNR
    /// NAK).
    Arrive { d: Delivery, buf: OwnedBuf },
    /// A one-sided WRITE reaches a landing slot:
    /// `WriteArrive(sender, cq, wr_id, imm, peer, (rkey, slot), buf)`. Flat
    /// rather than a `Delivery`, which would pad every input to 72 B.
    WriteArrive(QpHandle, CqId, WrId, u64, NodeId, (RKey, u32), OwnedBuf),
    /// A compare-and-swap reaches an atomic cell:
    /// `CasArrive(sender, cq, wr_id, peer, (rkey, cell), (expect, swap))`.
    CasArrive(QpHandle, CqId, WrId, NodeId, (RKey, u32), (u64, u64)),
    /// A completion lands on `cq`.
    PushCqe { cq: CqId, cqe: Cqe },
    /// Connection setup of the endpoint pair `(a, b)` finished.
    Ready { a: QpId, b: QpId },
    /// `n` pre-warmed connection skeletons join `link`'s stock.
    Stock { link: (NodeId, NodeId), n: usize },
    /// A scheduled fault breaks the connection `h` belongs to.
    QpKill(QpHandle),
}

/// What the core asks of the driver. A step emits at most two.
pub(crate) enum Output {
    /// Feed the input to [`Core::step`] at the instant.
    At(SimTime, Input),
    /// Call `cq`'s waker, if one is armed. Only a `PushCqe` emits it, as its
    /// step's one output.
    Wake(CqId),
}

#[derive(Default)]
pub(crate) struct Core {
    pub(crate) costs: RdmaCosts,
    pub(crate) nodes: Vec<NodeState>,
    /// Indexed by `CqId`; CQs are never destroyed.
    pub(crate) cqs: Vec<CqState>,
    /// Indexed by `RqId`; RQs are never destroyed.
    pub(crate) rqs: Vec<RqState>,
    /// Both endpoints of every connection, keyed by `QpId`.
    pub(crate) qps: IdTable<Qp>,
    /// Pre-warmed connection stock per unordered node pair: QP pairs whose
    /// RC handshake already ran in the background, waiting for a tenant to
    /// claim them (Swift-style pre-warm pool).
    pub(crate) prewarm: HashMap<(NodeId, NodeId), usize>,
    /// Optional deterministic fault model; `None` leaves delivery untouched.
    pub(crate) faults: Option<FaultPlane>,
    /// Annotates fault-plane events into request traces (disabled by
    /// default).
    pub(crate) tracer: obs::Tracer,
    next_qp: u32,
}

impl Core {
    pub(crate) fn node(&self, id: NodeId) -> Result<&NodeState, RdmaError> {
        self.nodes
            .get(id.0 as usize)
            .ok_or(RdmaError::UnknownNode(id))
    }

    pub(crate) fn node_mut(&mut self, id: NodeId) -> Result<&mut NodeState, RdmaError> {
        self.nodes
            .get_mut(id.0 as usize)
            .ok_or(RdmaError::UnknownNode(id))
    }

    pub(crate) fn qp(&self, h: QpHandle) -> Result<&Qp, RdmaError> {
        self.node(h.node)?;
        self.qps
            .get(h.qp.0)
            .filter(|q| q.node == h.node)
            .ok_or(RdmaError::UnknownQp(h.qp))
    }

    /// Advances the fabric by one hardware event, handing what follows to
    /// `out` in order.
    pub(crate) fn step(&mut self, now: SimTime, input: Input, out: &mut impl FnMut(Output)) {
        match input {
            Input::Arrive { d, buf } => self.arrive(now, d, buf, out),
            Input::WriteArrive(sender, cq, wr_id, imm, peer, slot, buf) => {
                let d = Delivery::new(sender, cq, wr_id, imm, 0);
                let rx_done = self.rx_admit(now, peer, self.costs.host_dma(buf.len()));
                self.retire_wr(d.sender);
                let status = match self.nodes[peer.0 as usize].landing.get_mut(&slot) {
                    None => CqeStatus::RemoteAccessError,
                    Some((landed, at)) => match landed.write_payload(buf.as_slice()) {
                        Ok(()) => {
                            *at = Some(rx_done);
                            CqeStatus::Success
                        }
                        Err(_) => CqeStatus::LocalLengthError,
                    },
                };
                let at = rx_done + self.costs.ack_delay;
                out(d.done(at, CqeOpcode::Write, status, Some(buf)));
            }
            Input::CasArrive(sender, cq, wr_id, peer, cell, (expect, swap)) => {
                let rx_done = self.rx_admit(now, peer, self.costs.atomic_extra);
                self.retire_wr(sender);
                let word = self.nodes[peer.0 as usize].atomics.entry(cell).or_insert(0);
                let old = *word;
                if old == expect {
                    *word = swap;
                }
                // The completion's immediate data is the old value.
                let d = Delivery::new(sender, cq, wr_id, old, 0);
                let at = rx_done + self.costs.propagation;
                out(d.done(at, CqeOpcode::CompareSwap, CqeStatus::Success, None));
            }
            Input::PushCqe { cq, cqe } => {
                // A CQE for a CQ that does not exist, or arriving at a full
                // one, is dropped (recycling any attached buffer).
                if let Some(state) = self.cqs.get_mut(cq.0 as usize) {
                    if state.entries.len() < CQ_DEPTH {
                        state.entries.push_back(cqe);
                        out(Output::Wake(cq));
                    } else {
                        state.overflows += 1;
                    }
                }
            }
            Input::Ready { a, b } => {
                // Only a connection still setting up becomes usable: an
                // endpoint errored or destroyed meanwhile stays that way.
                for id in [a, b] {
                    let qp = self.qps.get_mut(id.0);
                    if let Some(qp) = qp.filter(|q| q.state == QpState::Connecting) {
                        qp.state = QpState::Ready;
                    }
                }
            }
            Input::Stock { link, n } => *self.prewarm.entry(link).or_insert(0) += n,
            Input::QpKill(h) => {
                if self.qp_error(h).is_ok() {
                    if let Some(fp) = self.faults.as_mut() {
                        fp.stats.qp_kills += 1;
                    }
                }
            }
        }
    }

    /// A two-sided send reaches the responder: RQ pop (the oldest WR id, the
    /// newest buffer), DMA into that buffer, receiver CQE, then the ACK's
    /// sender CQE.
    fn arrive(&mut self, now: SimTime, d: Delivery, buf: OwnedBuf, out: &mut impl FnMut(Output)) {
        use CqeStatus::{RnrRetryExceeded, TransportRetryExceeded};
        let sent = |at, status, buf| d.done(at, CqeOpcode::Send, status, Some(buf));

        // Everything delivery needs hangs off the sender's QP. If the
        // connection was destroyed with this send in flight (or its RQ is
        // gone), flush the WR back to its poster in error: the CQE carries
        // the buffer home, so nothing leaks and nothing hangs.
        let route = self.qps.get(d.sender.qp.0).and_then(|q| {
            self.rqs.get(q.peer_rq.0 as usize)?;
            Some((q.peer_node, q.peer_qp, q.peer_cq, q.peer_rq, q.tenant))
        });
        let Some((peer_node, peer_qp, recv_cq, rq_id, tenant)) = route else {
            out(sent(now, TransportRetryExceeded, buf));
            return;
        };
        let (ack, rnr_timer) = (self.costs.ack_delay, self.costs.rnr_timer);
        let traced = |core: &Core| core.tracer.is_enabled() && obs::ctx::sampled(buf.as_slice());
        let mark_fault = |core: &Core, node: NodeId| {
            let Some(req_id) = obs::ctx::req_id(buf.as_slice()) else {
                return; // too short to name a request: nothing to annotate
            };
            let stage = obs::Stage::FaultInject;
            core.tracer
                .span(req_id, tenant.0, node.0 as u32, stage, now, now);
        };

        // Wire faults first: a lost message (link loss or crashed endpoint)
        // never reaches the responder RNIC. The requester retransmits until
        // its transport retry timer expires, then completes in error with
        // the buffer handed back for recycling.
        let wire = self
            .faults
            .as_mut()
            .map(|fp| fp.roll_wire(d.sender.node, peer_node, now));
        if wire.is_some_and(|verdict| verdict != FaultVerdict::Deliver) {
            if traced(self) {
                // Annotate the loss into the request's trace: an instant
                // marker on the sender node, where the retransmit state
                // lives (the message never reached the responder).
                mark_fault(self, d.sender.node);
            }
            self.retire_wr(d.sender);
            out(sent(now + rnr_timer, TransportRetryExceeded, buf));
            return;
        }

        let rx_done = self.rx_admit(now, peer_node, self.costs.host_dma(buf.len()));
        let Some((wr_id, mut rbuf)) = self.rqs[rq_id.0 as usize].take() else {
            // RNR NAK: retry after the timer, or fail the send.
            self.nodes[peer_node.0 as usize].rnr_events += 1;
            if d.retries_left > 0 {
                let retries_left = d.retries_left - 1;
                let d = Delivery { retries_left, ..d };
                out(Output::At(rx_done + rnr_timer, Input::Arrive { d, buf }));
            } else {
                self.retire_wr(d.sender);
                out(sent(rx_done + ack, RnrRetryExceeded, buf));
            }
            return;
        };

        // Corruption is detected at the responder after a buffer was popped,
        // and a posted buffer too small for the payload takes no DMA: either
        // way both ends complete in error.
        let corrupted = self.faults.as_mut().is_some_and(|fp| fp.roll_corruption());
        let status = if corrupted {
            if traced(self) {
                // Corruption is detected at the responder: mark it there.
                mark_fault(self, peer_node);
            }
            CqeStatus::DataCorrupted
        } else if rbuf.write_payload(buf.as_slice()).is_err() {
            CqeStatus::LocalLengthError
        } else {
            CqeStatus::Success
        };
        self.retire_wr(d.sender);
        let cqe = Cqe {
            wr_id,
            qp: peer_qp,
            opcode: CqeOpcode::Recv,
            status,
            byte_len: buf.len() as u32,
            imm: d.imm,
            buf: Some(rbuf),
        };
        out(Output::At(rx_done, Input::PushCqe { cq: recv_cq, cqe }));
        out(sent(rx_done + ack, status, buf));
    }

    /// Charges one inbound message to `node`'s responder RNIC: `work` on top
    /// of the fixed cost and the cache penalties. Returns when it is done.
    fn rx_admit(&mut self, now: SimTime, node: NodeId, work: SimDuration) -> SimTime {
        let n = &mut self.nodes[node.0 as usize];
        let penalty = self.costs.qp_cache_penalty(n.active_qps)
            + self.costs.mtt_penalty(n.mrs.total_mtt_entries());
        n.rx_messages += 1;
        n.rnic_rx
            .admit(now, self.costs.rnic_rx_fixed + work + penalty)
    }

    /// Validates a requester-side post of `len` bytes and admits it to the
    /// TX pipeline. Returns `(peer node, the WR on the wire, departure)`.
    fn admit_tx(
        &mut self,
        now: SimTime,
        h: QpHandle,
        wr_id: WrId,
        imm: u64,
        check_mr: Option<&OwnedBuf>,
        len: usize,
    ) -> Result<(NodeId, Delivery, SimTime), RdmaError> {
        let max = self.costs.max_msg_size;
        if len > max {
            return Err(RdmaError::MessageTooLarge { len, max });
        }
        let node = self
            .nodes
            .get_mut(h.node.0 as usize)
            .ok_or(RdmaError::UnknownNode(h.node))?;
        if let Some(buf) = check_mr {
            if !node.mrs.is_registered(buf.tenant(), buf.pool_id()) {
                return Err(RdmaError::UnregisteredMemory);
            }
        }
        let qp = self
            .qps
            .get_mut(h.qp.0)
            .filter(|q| q.node == h.node)
            .ok_or(RdmaError::UnknownQp(h.qp))?;
        if qp.state != QpState::Ready {
            return Err(RdmaError::QpNotReady(h.qp));
        }
        let penalty = self.costs.qp_cache_penalty(node.active_qps)
            + self.costs.mtt_penalty(node.mrs.total_mtt_entries());
        let tx_fixed = self.costs.rnic_tx_fixed + self.costs.host_dma(len);
        let tx_done = node.rnic_tx.admit(now, tx_fixed + penalty);
        let depart = node.egress.reserve(tx_done, len as u64);
        node.tx_messages += 1;
        qp.sq_outstanding += 1;
        qp.counters.posted += 1;
        qp.counters.bytes += len as u64;
        let d = Delivery::new(h, qp.cq, wr_id, imm, self.costs.rnr_retries);
        Ok((qp.peer_node, d, depart))
    }

    /// Admits a two-sided send: its arrival at the responder follows.
    pub(crate) fn post_send(
        &mut self,
        now: SimTime,
        h: QpHandle,
        wr_id: WrId,
        buf: OwnedBuf,
        imm: u64,
    ) -> Result<Output, RdmaError> {
        let (_, d, depart) = self.admit_tx(now, h, wr_id, imm, Some(&buf), buf.len())?;
        let arrival = depart + self.costs.serialization(buf.len()) + self.costs.propagation;
        Ok(Output::At(arrival, Input::Arrive { d, buf }))
    }

    /// Admits a one-sided WRITE into landing slot `slot` of `h`'s peer.
    pub(crate) fn post_write(
        &mut self,
        now: SimTime,
        h: QpHandle,
        wr_id: WrId,
        buf: OwnedBuf,
        slot: (RKey, u32),
        imm: u64,
    ) -> Result<Output, RdmaError> {
        let (peer, d, depart) = self.admit_tx(now, h, wr_id, imm, Some(&buf), buf.len())?;
        let arrival = depart + self.costs.serialization(buf.len()) + self.costs.propagation;
        let write = Input::WriteArrive(h, d.sender_cq, wr_id, imm, peer, slot, buf);
        Ok(Output::At(arrival, write))
    }

    /// Admits a compare-and-swap on atomic cell `cell` of `h`'s peer.
    pub(crate) fn post_cas(
        &mut self,
        now: SimTime,
        h: QpHandle,
        wr_id: WrId,
        cell: (RKey, u32),
        expect_swap: (u64, u64),
    ) -> Result<Output, RdmaError> {
        let (peer, d, depart) = self.admit_tx(now, h, wr_id, 0, None, 32)?;
        let cas = Input::CasArrive(h, d.sender_cq, wr_id, peer, cell, expect_swap);
        Ok(Output::At(depart + self.costs.propagation, cas))
    }

    /// Marks a WR as having left the SQ (a send completion was generated).
    fn retire_wr(&mut self, h: QpHandle) {
        if let Some(qp) = self.qps.get_mut(h.qp.0) {
            qp.sq_outstanding = qp.sq_outstanding.saturating_sub(1);
            qp.counters.completed += 1;
        }
    }

    /// Creates both endpoints of a connection in `Connecting` state; the
    /// returned `Ready` at `ready_at` ends their setup.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn establish(
        &mut self,
        ready_at: SimTime,
        tenant: TenantId,
        a: NodeId,
        cq_a: CqId,
        rq_a: RqId,
        b: NodeId,
        cq_b: CqId,
        rq_b: RqId,
    ) -> Result<((QpHandle, QpHandle), Output), RdmaError> {
        self.node(a)?;
        self.node(b)?;
        let cq_on = |cq: CqId| self.cqs.get(cq.0 as usize).map(|c| c.node);
        if cq_on(cq_a) != Some(a) || cq_on(cq_b) != Some(b) {
            return Err(RdmaError::UnknownCq);
        }
        let rq_on = |rq: RqId| self.rqs.get(rq.0 as usize).map(|r| r.node);
        if rq_on(rq_a) != Some(a) || rq_on(rq_b) != Some(b) {
            return Err(RdmaError::UnknownRq);
        }
        let qa = QpId(self.next_qp);
        let qb = QpId(self.next_qp + 1);
        self.next_qp += 2;
        let mk = |node, cq, peer_node, peer_qp, peer_cq, peer_rq| Qp {
            node,
            peer_node,
            peer_qp,
            tenant,
            cq,
            peer_cq,
            peer_rq,
            state: QpState::Connecting,
            active: false,
            sq_outstanding: 0,
            counters: QpCounters::default(),
        };
        self.qps.insert(qa.0, mk(a, cq_a, b, qb, cq_b, rq_b));
        self.qps.insert(qb.0, mk(b, cq_b, a, qa, cq_a, rq_a));
        let pair = (QpHandle { node: a, qp: qa }, QpHandle { node: b, qp: qb });
        Ok((pair, Output::At(ready_at, Input::Ready { a: qa, b: qb })))
    }

    /// Removes both endpoints of the connection `h` belongs to.
    pub(crate) fn destroy(&mut self, h: QpHandle) -> Result<(), RdmaError> {
        let peer_qp = self.qp(h)?.peer_qp;
        for id in [h.qp, peer_qp] {
            self.set_active(id, false);
            self.qps.remove(id.0);
        }
        Ok(())
    }

    /// Breaks the connection `h` belongs to at both endpoints.
    pub(crate) fn qp_error(&mut self, h: QpHandle) -> Result<(), RdmaError> {
        let peer_qp = self.qp(h)?.peer_qp;
        for id in [h.qp, peer_qp] {
            self.set_active(id, false);
            if let Some(qp) = self.qps.get_mut(id.0) {
                qp.state = QpState::Error;
            }
        }
        Ok(())
    }

    /// Sets one endpoint's shadow-QP flag, keeping its node's cache
    /// occupancy (and high-water mark) in step.
    pub(crate) fn set_active(&mut self, id: QpId, active: bool) {
        let Some(qp) = self.qps.get_mut(id.0) else {
            return;
        };
        if qp.active == active {
            return;
        }
        qp.active = active;
        let node = &mut self.nodes[qp.node.0 as usize];
        if active {
            node.active_qps += 1;
            node.peak_active_qps = node.peak_active_qps.max(node.active_qps);
        } else {
            node.active_qps -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::Fabric;
    use membuf::pool::{BufferPool, PoolConfig};

    fn mk_pool(capacity: u32) -> BufferPool {
        let mut cfg = PoolConfig::new(TenantId(1), 0, 1024, capacity);
        cfg.segment_size = 16 * 1024;
        BufferPool::new(cfg).unwrap()
    }

    #[test]
    fn overflowing_cq_drops_and_counts() {
        let fabric = Fabric::new(RdmaCosts::default());
        let node = fabric.add_node();
        let cq = fabric.create_cq(node).unwrap();
        let pool = mk_pool(4);
        let mut wakes = 0;
        for i in 0..CQ_DEPTH + 4 {
            // The last four carry buffers: dropped, they still recycle them.
            let buf = (i >= CQ_DEPTH).then(|| pool.get().unwrap());
            let cqe = Cqe {
                wr_id: WrId(i as u64),
                qp: QpId(0),
                opcode: CqeOpcode::Send,
                status: CqeStatus::Success,
                byte_len: 0,
                imm: 0,
                buf,
            };
            let push = Input::PushCqe { cq, cqe };
            fabric
                .core_mut()
                .step(SimTime::ZERO, push, &mut |_| wakes += 1);
        }
        assert_eq!(fabric.cq_depth(cq), CQ_DEPTH);
        assert_eq!(fabric.cq_overflows(cq), 4);
        assert_eq!(wakes, CQ_DEPTH, "a dropped completion wakes nobody");
        assert_eq!(pool.stats().free, pool.capacity());
    }

    /// What the exhaustive test may do next on its one connection.
    #[derive(Clone, Copy)]
    enum Act {
        /// `post_send` the next WR on `h` (two in all).
        Post,
        DestroyQp,
        InjectQpError,
        /// Feed the `i`-th input in flight to `step`.
        Fire(usize),
    }

    /// One step of an order, as the failure message prints it (its fields
    /// are read only through `Debug`).
    #[derive(Debug)]
    #[allow(dead_code)]
    enum Step {
        Post { wr: u64, accepted: bool },
        DestroyQp { took: bool },
        InjectQpError { took: bool },
        Ready,
        Arrive { wr: u64, rnr_retry: bool },
        Cqe(CqeOpcode, u64, CqeStatus),
    }

    /// One connection `h` from node a to node b, driven straight through the
    /// core: both endpoints active, `recv` buffers posted on b's RQ, one
    /// RNR retry, and an optional outage window on b.
    struct World<'p> {
        fabric: Fabric,
        pools: &'p (BufferPool, BufferPool),
        h: QpHandle,
        peer: QpHandle,
        /// `h`'s CQ and `peer`'s.
        cqs: [CqId; 2],
        rq_b: RqId,
        recv: usize,
        now: SimTime,
        pending: Vec<(SimTime, Input)>,
        posts: u64,
        accepted: Vec<WrId>,
        /// Sender CQEs emitted so far.
        completions: u32,
        destroyed: bool,
        errored: bool,
        /// A destroy or an error took effect: no endpoint may read `Ready`.
        broken: bool,
        order: Vec<Step>,
    }

    impl<'p> World<'p> {
        fn new(
            pools: &'p (BufferPool, BufferPool),
            recv: usize,
            outage: Option<[SimTime; 2]>,
        ) -> Self {
            let costs = RdmaCosts {
                rnr_retries: 1,
                ..RdmaCosts::default()
            };
            let ready_at = SimTime::ZERO + costs.connect_delay;
            let fabric = Fabric::new(costs);
            let (a, b, t) = (fabric.add_node(), fabric.add_node(), TenantId(1));
            fabric.register_pool(a, pools.0.clone()).unwrap();
            fabric.register_pool(b, pools.1.clone()).unwrap();
            let (cq_a, cq_b) = (fabric.create_cq(a).unwrap(), fabric.create_cq(b).unwrap());
            let (rq_a, rq_b) = (
                fabric.create_rq(a, t).unwrap(),
                fabric.create_rq(b, t).unwrap(),
            );
            for i in 0..recv {
                let buf = pools.1.get().unwrap();
                fabric.post_recv(rq_b, WrId(100 + i as u64), buf).unwrap();
            }
            if let Some([from, until]) = outage {
                fabric.schedule_node_outage(b, from, until);
            }
            let connect = fabric
                .core_mut()
                .establish(ready_at, t, a, cq_a, rq_a, b, cq_b, rq_b);
            let ((h, peer), Output::At(at, ready)) = connect.unwrap() else {
                unreachable!("establish hands back the `Ready` at `ready_at`")
            };
            for e in [h, peer] {
                fabric.set_qp_active(e, true).unwrap();
            }
            World {
                fabric,
                pools,
                h,
                peer,
                cqs: [cq_a, cq_b],
                rq_b,
                recv,
                now: SimTime::ZERO,
                pending: vec![(at, ready)],
                posts: 0,
                accepted: Vec::new(),
                completions: 0,
                destroyed: false,
                errored: false,
                broken: false,
                order: Vec::new(),
            }
        }

        fn enabled(&self) -> Vec<Act> {
            let mut acts: Vec<Act> = (0..self.pending.len()).map(Act::Fire).collect();
            acts.extend((self.posts < 2).then_some(Act::Post));
            acts.extend((!self.destroyed).then_some(Act::DestroyQp));
            acts.extend((!self.errored).then_some(Act::InjectQpError));
            acts
        }

        fn act(&mut self, act: Act) {
            let mut out = Vec::new();
            let mut core = self.fabric.core_mut();
            let step = match act {
                Act::Post => {
                    let wr = WrId(self.posts);
                    self.posts += 1;
                    let buf = self.pools.0.get().unwrap();
                    let posted = core.post_send(self.now, self.h, wr, buf, 0);
                    let accepted = posted.is_ok();
                    if let Ok(arrive) = posted {
                        self.accepted.push(wr);
                        out.push(arrive);
                    }
                    Step::Post { wr: wr.0, accepted }
                }
                Act::DestroyQp => {
                    self.destroyed = true;
                    let took = core.destroy(self.h).is_ok();
                    self.broken |= took;
                    Step::DestroyQp { took }
                }
                Act::InjectQpError => {
                    self.errored = true;
                    let took = core.qp_error(self.h).is_ok();
                    self.broken |= took;
                    Step::InjectQpError { took }
                }
                Act::Fire(i) => {
                    let (at, input) = self.pending.remove(i);
                    self.now = self.now.max(at);
                    let step = match &input {
                        Input::Ready { .. } => Step::Ready,
                        Input::Arrive { d, .. } => Step::Arrive {
                            wr: d.wr_id.0,
                            rnr_retry: d.retries_left == 0,
                        },
                        Input::PushCqe { cqe, .. } => {
                            Step::Cqe(cqe.opcode, cqe.wr_id.0, cqe.status)
                        }
                        _ => unreachable!("one two-sided connection"),
                    };
                    core.step(self.now, input, &mut |output| out.push(output));
                    step
                }
            };
            drop(core);
            self.order.push(step);
            for output in out {
                if let Output::At(at, input) = output {
                    if let Input::PushCqe { cqe, .. } = &input {
                        self.completions += u32::from(cqe.opcode == CqeOpcode::Send);
                    }
                    self.pending.push((at, input));
                }
            }
            self.check_step();
        }

        /// Checked after every step: no broken endpoint reads `Ready`, each
        /// node's cache occupancy is its active endpoints, and while `h`
        /// lives a WR leaves its SQ exactly when its sender CQE is emitted.
        fn check_step(&self) {
            let core = self.fabric.core();
            if let Ok(q) = core.qp(self.h) {
                let (retired, open) = (q.counters.completed, q.sq_outstanding as usize);
                let why = || format!("WRs retired after {:?}", self.order);
                assert_eq!(retired, u64::from(self.completions), "{}", why());
                assert_eq!(open, self.accepted.len() - retired as usize, "{}", why());
            }
            for e in [self.h, self.peer] {
                let ready = core.qp(e).is_ok_and(|q| q.state == QpState::Ready);
                assert!(
                    !(self.broken && ready),
                    "{e:?} reads Ready after {:?}",
                    self.order
                );
                let active = core
                    .qps
                    .iter()
                    .filter(|(_, q)| q.node == e.node && q.active);
                let occupancy = core.nodes[e.node.0 as usize].active_qps;
                assert_eq!(
                    occupancy,
                    active.count(),
                    "cache occupancy after {:?}",
                    self.order
                );
            }
        }

        /// Checked once nothing is in flight; tallies which outcomes the
        /// order reached.
        fn check_end(self, seen: &mut Vec<&'static str>) {
            let order = &self.order;
            let mut core = self.fabric.core_mut();
            let [sent, received] = self.cqs.map(|cq| {
                core.cqs[cq.0 as usize]
                    .entries
                    .drain(..)
                    .collect::<Vec<_>>()
            });
            for wr in (0..self.posts).map(WrId) {
                let cqes = sent
                    .iter()
                    .filter(|c| c.wr_id == wr && c.opcode == CqeOpcode::Send);
                let want = usize::from(self.accepted.contains(&wr));
                assert_eq!(cqes.count(), want, "sender CQEs for {wr:?} after {order:?}");
            }
            assert_eq!(
                sent.len(),
                self.accepted.len(),
                "stray sender CQEs after {order:?}"
            );
            let posted = core.rqs[self.rq_b.0 as usize].depth();
            let consumed = self.recv - posted;
            let recvs = received.iter().filter(|c| c.opcode == CqeOpcode::Recv);
            assert_eq!(recvs.count(), consumed, "receiver CQEs after {order:?}");
            assert_eq!(
                received.len(),
                consumed,
                "stray receiver CQEs after {order:?}"
            );

            let lost = core.faults.as_ref().map_or(0, |f| f.stats.outage_drops) as usize;
            let timed_out = sent
                .iter()
                .filter(|c| c.status == CqeStatus::TransportRetryExceeded);
            let flushed = timed_out.count() - lost;
            let statuses = sent.iter().map(|c| c.status);
            for (what, hit) in [
                (
                    "delivered",
                    statuses.clone().any(|s| s == CqeStatus::Success),
                ),
                (
                    "rnr exhausted",
                    statuses.clone().any(|s| s == CqeStatus::RnrRetryExceeded),
                ),
                ("lost in the outage", lost > 0),
                ("flushed from a destroyed qp", flushed > 0),
                ("refused at post", self.accepted.len() < self.posts as usize),
            ] {
                if hit && !seen.contains(&what) {
                    seen.push(what);
                }
            }
            drop((sent, received));
            let (pool_a, pool_b) = self.pools;
            let home_b = pool_b.stats().free as usize + posted;
            assert_eq!(
                pool_a.stats().free,
                pool_a.capacity(),
                "send buffers after {order:?}"
            );
            assert_eq!(
                home_b,
                pool_b.capacity() as usize,
                "receive buffers after {order:?}"
            );
        }
    }

    /// The RC lifecycle under faults, in every causality-respecting order:
    /// two `post_send`s with their arrivals, RNR re-arrivals and CQE
    /// pushes, the setup's `Ready`, `destroy_qp` and `inject_qp_error`, with
    /// 0 or 1 receive buffers posted and an outage window on the responder
    /// that covers the first arrival's instant or ends just before it. `now`
    /// never decreases; an input in flight fires at `max(now, its instant)`.
    /// After every order: one sender CQE per accepted post, one receiver CQE
    /// per consumed receive buffer, every buffer back in its pool or still
    /// posted. After every step: cache occupancy equals active endpoints, no
    /// errored or destroyed endpoint reads `Ready`, and a live sender has
    /// retired exactly the WRs whose sender CQE was emitted. A failure
    /// prints the order that broke the promise.
    #[test]
    fn every_order_of_one_connections_inputs_keeps_rc_promises() {
        let first_arrival = {
            let pools = (mk_pool(4), mk_pool(4));
            let mut world = World::new(&pools, 0, None);
            world.act(Act::Fire(0));
            world.act(Act::Post);
            world.pending[0].0
        };
        let nanos = SimDuration::from_nanos(1);
        let covers = [first_arrival, first_arrival + nanos];
        let misses = [
            SimTime::from_nanos(first_arrival.as_nanos() - 1),
            first_arrival,
        ];
        let mut seen = Vec::new();
        let mut orders = Vec::new();
        for recv in [0, 1] {
            for window in [misses, covers] {
                let pools = (mk_pool(4), mk_pool(4));
                orders.push(simcore::explore(
                    || World::new(&pools, recv, Some(window)),
                    |world| world.enabled().len(),
                    |world, i| world.act(world.enabled()[i]),
                    |world| world.check_end(&mut seen),
                ));
            }
        }
        assert_eq!(orders, [1542, 828, 2976, 1468]);
        seen.sort_unstable();
        let all = [
            "delivered",
            "flushed from a destroyed qp",
            "lost in the outage",
            "refused at post",
            "rnr exhausted",
        ];
        assert_eq!(seen, all);
    }
}
