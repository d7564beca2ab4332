//! RDMA-primitive echo drivers (Fig. 6 and Fig. 12).
//!
//! Each driver runs a closed-loop echo between two nodes with a
//! configurable window of outstanding requests and measures per-request
//! round-trip latency plus sustained request rate:
//!
//! - [`Primitive::TwoSided`]: NADINO's choice — send/receive with
//!   pre-posted buffers; the echo server bounces the *received buffer*
//!   straight back (true zero copy).
//! - [`Primitive::Owdl`]: one-sided write with distributed locks
//!   (Fig. 3 (1)). The writer takes the slot's lock word at the receiver
//!   with a compare-and-swap, writes once the acquire returns, and posts
//!   the release CAS when the write completes. The acquire round trip and
//!   the write are the critical path: nobody waits for the release, and
//!   the receiver finds the data by polling the slot without reading the
//!   lock word.
//! - [`Primitive::OwrcBest`] / [`Primitive::OwrcWorst`]: one-sided write
//!   into a dedicated RDMA-only landing zone with a receiver-side copy
//!   into the local pool (Fig. 3 (2)); *Best* enjoys artificial cache
//!   locality, *Worst* is forced to main memory (the paper's TLB-flush
//!   variant).
//!
//! One-sided receivers discover arrivals FARM-style by polling the landing
//! zone, which is why those variants keep a core busy even when idle.
//!
//! A run is one state machine, `Echo`, with one entry, `Echo::on`, fed by
//! both CQ wakers and every timer; posted work requests are data (`Wr`).
//! `Echo::at` is the file's one scheduling site. A completion in error, a
//! refused post or a failed re-post ends the run with an [`EchoError`].

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::{Rc, Weak};

use dpu_sim::soc::{Processor, ProcessorKind};
use membuf::pool::{BufferPool, OwnedBuf, PoolConfig, PoolError};
use membuf::tenant::TenantId;
use rdma_sim::fabric::{CqId, QpHandle, RqId};
use rdma_sim::types::{Cqe, CqeOpcode, CqeStatus, RKey};
use rdma_sim::{Fabric, RdmaCosts, RdmaError, WrId};
use simcore::{Histogram, Sim, SimDuration, SimTime};

/// The communication primitive under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Primitive {
    /// Two-sided send/receive (NADINO).
    TwoSided,
    /// One-sided write with distributed locks.
    Owdl,
    /// One-sided write + receiver copy, cache-hot copy.
    OwrcBest,
    /// One-sided write + receiver copy, main-memory copy (TLB flushed).
    OwrcWorst,
}

impl Primitive {
    /// OWRC's receiver-side copy of a landed `bytes`-byte write into the
    /// local pool: a fixed management cost plus the copy at the variant's
    /// rate. Zero for the primitives that do not copy.
    fn copy(self, bytes: usize) -> SimDuration {
        let rate = match self {
            Primitive::TwoSided | Primitive::Owdl => return SimDuration::ZERO,
            Primitive::OwrcBest => 8_000_000_000.0,
            Primitive::OwrcWorst => 2_500_000_000.0,
        };
        SimDuration::from_nanos(600) + SimDuration::from_secs_f64(bytes as f64 / rate)
    }
}

/// Per-message endpoint handling cost (reference CPU time, scaled by the
/// processor's wimpy factor): full verb management per message, of which
/// only this CPU-bound part is penalized by wimpy cores (Fig. 6).
const PER_MSG: SimDuration = SimDuration::from_nanos(700);
/// Landing-zone poll interval for the one-sided variants (Fig. 12).
const POLL_INTERVAL: SimDuration = SimDuration::from_nanos(300);
/// Requester CPU consumed by each verb post of the OWDL lock protocol
/// (CAS acquire, data write, CAS release all hit the SQ).
const OWDL_POST_COST: SimDuration = SimDuration::from_nanos(400);
/// How long an OWDL writer waits before it retries an acquire that found
/// the lock held.
const LOCK_BACKOFF: SimDuration = SimDuration::from_micros(2);

/// Echo benchmark configuration.
#[derive(Debug, Clone)]
pub struct EchoConfig {
    pub primitive: Primitive,
    /// Payload bytes per message.
    pub payload: usize,
    /// Outstanding requests (closed-loop window).
    pub window: usize,
    /// Requests to complete before stopping.
    pub requests: u64,
    /// Processor kind running the echo endpoints (Fig. 6 compares
    /// host-CPU vs. DPU execution of the same verbs).
    pub proc: ProcessorKind,
    /// Per-message handling cost that is *not* CPU-frequency-bound
    /// (doorbell MMIO, DMA waits) and therefore not scaled by the wimpy
    /// factor — the reason raw verb handling barely suffers on DPU cores.
    pub per_msg_unscaled: SimDuration,
}

impl Default for EchoConfig {
    fn default() -> Self {
        EchoConfig {
            primitive: Primitive::TwoSided,
            payload: 64,
            window: 1,
            requests: 500,
            proc: ProcessorKind::DpuArm,
            per_msg_unscaled: SimDuration::ZERO,
        }
    }
}

/// Echo benchmark results.
#[derive(Debug, Clone)]
pub struct EchoResult {
    pub completed: u64,
    pub elapsed: SimDuration,
    pub rps: f64,
    pub latency: Histogram,
}

/// Why an echo run ended before its last request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EchoError {
    /// The fabric refused a verb: in set-up, a post or a re-post.
    Rdma(RdmaError),
    /// A pool had no buffer left, or could not be built.
    Pool(PoolError),
    /// A work request completed in error.
    Completion(CqeOpcode, CqeStatus),
    /// A completion for a work request never posted, a receive without its
    /// buffer, or a landed payload too short for a request id.
    Unreadable,
}

impl From<RdmaError> for EchoError {
    fn from(e: RdmaError) -> Self {
        EchoError::Rdma(e)
    }
}

impl From<PoolError> for EchoError {
    fn from(e: PoolError) -> Self {
        EchoError::Pool(e)
    }
}

/// Runs one echo benchmark to completion and reports the measurements.
pub fn run_echo(cfg: EchoConfig) -> Result<EchoResult, EchoError> {
    let mut sim = Sim::new();
    let echo = Echo::start(&mut sim, cfg)?;
    sim.run();
    let mut echo = echo.borrow_mut();
    echo.finish()
}

/// Indexes of [`Echo::sides`].
const CLIENT: usize = 0;
const SERVER: usize = 1;

/// What a posted work request does when it completes.
enum Wr {
    /// A send, an OWRC write or OWDL's release: nothing follows.
    Recycle,
    /// OWDL's acquire CAS for `req`, returning the lock word's old value:
    /// 0, the lock is ours and the write follows; else retry after a backoff.
    Acquire { req: u64 },
    /// OWDL's write under the lock: release the lock.
    LockedWrite { req: u64 },
}

/// One end of the echo.
struct Side {
    qp: QpHandle,
    cq: CqId,
    rq: RqId,
    /// Keys of this side's pool (landing zone, lock words) and the peer's.
    own: RKey,
    remote: RKey,
    pool: BufferPool,
    cpu: Processor,
    /// Posted work requests by id, and the id the next one gets.
    pending: HashMap<WrId, Wr>,
    next_wr: u64,
}

impl Side {
    /// Files `wr` under a fresh id to post it with.
    fn track(&mut self, wr: Wr) -> WrId {
        let id = WrId(self.next_wr);
        self.next_wr += 1;
        self.pending.insert(id, wr);
        id
    }
}

/// What [`Echo::on`] is fed.
enum Input {
    /// A side's CQ has completions (its waker).
    Wake(usize),
    /// A side posts the primitive's first verb for a request: the client's
    /// after its CPU charge, the server's echo, OWDL's acquire after a backoff.
    Post(usize, u64),
    /// The server sends a received buffer straight back.
    Bounce(OwnedBuf, u64),
    /// A side polls its landing zone.
    Poll(usize),
    /// The client has handled the echo of a request.
    Complete(u64),
}

/// What a step of [`Echo`] returns: an error ends the run.
type Step = Result<(), EchoError>;

/// One echo run: both sides and the request ledger. `run_echo` owns it
/// as the one `Rc`; the CQ wakers and the timers hold it weakly, so the
/// fabric's wakers make no cycle.
struct Echo {
    cfg: EchoConfig,
    fabric: Fabric,
    sides: [Side; 2],
    me: Weak<RefCell<Echo>>,
    issued: u64,
    completed: u64,
    started: HashMap<u64, SimTime>,
    hist: Histogram,
    began: SimTime,
    ended: SimTime,
    /// The first failure: once set, inputs are dropped and the run drains.
    failed: Option<EchoError>,
}

impl Echo {
    /// Builds both sides, connects them, pre-posts receive buffers or
    /// landing slots and arms the CQ wakers; then opens the window and, for
    /// the one-sided variants, starts the server's and the client's poller.
    fn start(sim: &mut Sim, cfg: EchoConfig) -> Result<Rc<RefCell<Echo>>, EchoError> {
        assert!(cfg.window >= 1 && cfg.requests >= 1);
        assert!(cfg.payload >= 8, "payload must hold the request id");
        let fabric = Fabric::new(RdmaCosts::default());
        let tenant = TenantId(1);
        let buf_size = cfg.payload.next_power_of_two().max(64);
        let pool_cap = (cfg.window as u32 * 8).max(64);
        let mut pc = PoolConfig::new(tenant, 0, buf_size, pool_cap);
        pc.segment_size = (buf_size * pool_cap as usize).next_power_of_two();
        let [a, b] = [fabric.add_node(), fabric.add_node()];
        let pools = [BufferPool::new(pc.clone())?, BufferPool::new(pc)?];
        let rkeys = [
            fabric.register_pool(a, pools[0].clone())?,
            fabric.register_pool(b, pools[1].clone())?,
        ];
        let cqs = [fabric.create_cq(a)?, fabric.create_cq(b)?];
        let rqs = [fabric.create_rq(a, tenant)?, fabric.create_rq(b, tenant)?];
        let (ab, ba) = fabric.connect(sim, tenant, a, cqs[0], rqs[0], b, cqs[1], rqs[1])?;
        sim.run();
        fabric.set_qp_active(ab, true)?;
        fabric.set_qp_active(ba, true)?;
        let sides = [CLIENT, SERVER].map(|s| Side {
            qp: [ab, ba][s],
            cq: cqs[s],
            rq: rqs[s],
            own: rkeys[s],
            remote: rkeys[1 - s],
            pool: pools[s].clone(),
            cpu: Processor::new(cfg.proc, 1),
            pending: HashMap::new(),
            next_wr: 0,
        });
        for side in &sides {
            if cfg.primitive == Primitive::TwoSided {
                for i in 0..(cfg.window * 2).max(8) {
                    fabric.post_recv(side.rq, WrId(i as u64), side.pool.get()?)?;
                }
            } else {
                for slot in 0..cfg.window as u32 {
                    fabric.post_landing(side.qp.node, side.own, slot, side.pool.get()?)?;
                }
            }
        }
        let echo = Rc::new_cyclic(|me| {
            RefCell::new(Echo {
                cfg,
                fabric: fabric.clone(),
                sides,
                me: me.clone(),
                issued: 0,
                completed: 0,
                started: HashMap::new(),
                hist: Histogram::new(),
                began: sim.now(),
                ended: sim.now(),
                failed: None,
            })
        });
        for (s, cq) in cqs.into_iter().enumerate() {
            let me = Rc::downgrade(&echo);
            fabric.set_cq_waker(cq, Rc::new(move |sim| feed(&me, sim, Input::Wake(s))))?;
        }
        let mut run = echo.borrow_mut();
        for _ in 0..run.cfg.window {
            run.issue(sim);
        }
        if run.cfg.primitive != Primitive::TwoSided {
            for s in [SERVER, CLIENT] {
                run.at(sim, sim.now() + POLL_INTERVAL, Input::Poll(s));
            }
        }
        drop(run);
        Ok(echo)
    }

    /// The one entry, fed by [`feed`].
    fn on(&mut self, sim: &mut Sim, input: Input) -> Step {
        match input {
            Input::Wake(s) => {
                while let Some(cqe) = self.fabric.poll_one(self.sides[s].cq) {
                    self.completion(sim, s, cqe)?;
                }
                Ok(())
            }
            Input::Post(s, req) => match self.cfg.primitive {
                Primitive::TwoSided => self.send(sim, s, self.stamp(s, req)?, req),
                Primitive::Owdl => self.cas(sim, s, Wr::Acquire { req }, req, (0, 1)),
                Primitive::OwrcBest | Primitive::OwrcWorst => self.write(sim, s, Wr::Recycle, req),
            },
            Input::Bounce(buf, req) => self.send(sim, SERVER, buf, req),
            Input::Poll(s) => self.poll(sim, s),
            Input::Complete(req) => self.complete(sim, req),
        }
    }

    /// One completion on a side's CQ. A two-sided receive, known by its
    /// opcode, re-posts a buffer; the client completes the request, the
    /// server bounces the buffer once charged. The rest are filed [`Wr`]s.
    fn completion(&mut self, sim: &mut Sim, s: usize, cqe: Cqe) -> Step {
        if cqe.status != CqeStatus::Success {
            return Err(EchoError::Completion(cqe.opcode, cqe.status));
        }
        let (fabric, side) = (&self.fabric, &mut self.sides[s]);
        if cqe.opcode == CqeOpcode::Recv {
            fabric.post_recv(side.rq, cqe.wr_id, side.pool.get()?)?;
            if s == CLIENT {
                return self.complete(sim, cqe.imm);
            }
            let buf = cqe.buf.ok_or(EchoError::Unreadable)?;
            let done = self.handle(s, sim.now(), SimDuration::ZERO);
            self.at(sim, done, Input::Bounce(buf, cqe.imm));
            return Ok(());
        }
        let wr = side.pending.remove(&cqe.wr_id);
        match wr.ok_or(EchoError::Unreadable)? {
            Wr::Recycle => Ok(()),
            Wr::Acquire { req } if cqe.imm != 0 => {
                self.at(sim, sim.now() + LOCK_BACKOFF, Input::Post(s, req));
                Ok(())
            }
            Wr::Acquire { req } => {
                side.cpu.run(sim.now(), OWDL_POST_COST);
                self.write(sim, s, Wr::LockedWrite { req }, req)
            }
            Wr::LockedWrite { req } => self.cas(sim, s, Wr::Recycle, req, (1, 0)),
        }
    }

    /// FARM-style poll of a side's landing zone until the last request
    /// completes. A landed slot is claimed, re-posted and charged (OWRC's
    /// copy unscaled); then the client completes, the server echoes back.
    fn poll(&mut self, sim: &mut Sim, s: usize) -> Step {
        if self.completed >= self.cfg.requests {
            return Ok(());
        }
        let now = sim.now();
        for slot in 0..self.cfg.window as u32 {
            let (fabric, side) = (&self.fabric, &self.sides[s]);
            let (node, zone) = (side.qp.node, side.own);
            if fabric.poll_landing(now, node, zone, slot)?.is_none() {
                continue;
            }
            let buf = fabric.claim_landing(node, zone, slot)?;
            fabric.post_landing(node, zone, slot, side.pool.get()?)?;
            let id = buf.as_slice().first_chunk::<8>();
            let req = u64::from_le_bytes(*id.ok_or(EchoError::Unreadable)?);
            let done = self.handle(s, now, self.cfg.primitive.copy(buf.len()));
            let next = match s {
                CLIENT => Input::Complete(req),
                _ => Input::Post(SERVER, req),
            };
            self.at(sim, done, next);
        }
        self.at(sim, now + POLL_INTERVAL, Input::Poll(s));
        Ok(())
    }

    /// Records a finished request and issues the next one.
    fn complete(&mut self, sim: &mut Sim, req: u64) -> Step {
        if let Some(t0) = self.started.remove(&req) {
            self.hist.record(sim.now().saturating_since(t0));
            self.completed += 1;
            self.ended = sim.now();
        }
        self.issue(sim);
        Ok(())
    }

    /// Issues the next request, if one is left: CPU charge, then first verb.
    fn issue(&mut self, sim: &mut Sim) {
        if self.issued < self.cfg.requests {
            let req = self.issued;
            self.issued += 1;
            self.started.insert(req, sim.now());
            let done = self.handle(CLIENT, sim.now(), SimDuration::ZERO);
            self.at(sim, done, Input::Post(CLIENT, req));
        }
    }

    /// Charges one message's handling to a side's CPU at `now`, the wimpy
    /// factor scaling `PER_MSG` but not `extra`. Returns when it is done.
    fn handle(&mut self, s: usize, now: SimTime, extra: SimDuration) -> SimTime {
        let cpu = &mut self.sides[s].cpu;
        cpu.run(now, PER_MSG);
        cpu.run_unscaled(now, extra + self.cfg.per_msg_unscaled)
    }

    /// A buffer from a side's pool holding one message stamped with `req`.
    fn stamp(&self, s: usize, req: u64) -> Result<OwnedBuf, EchoError> {
        let mut buf = self.sides[s].pool.get()?;
        buf.set_len(self.cfg.payload)?;
        buf.as_mut_slice()[..8].copy_from_slice(&req.to_le_bytes());
        Ok(buf)
    }

    /// The landing slot, and the lock word, that carry `req`.
    fn slot(&self, req: u64) -> u32 {
        (req % self.cfg.window as u64) as u32
    }

    fn send(&mut self, sim: &mut Sim, s: usize, buf: OwnedBuf, req: u64) -> Step {
        let (fabric, side) = (&self.fabric, &mut self.sides[s]);
        let wr = side.track(Wr::Recycle);
        Ok(fabric.post_send(sim, side.qp, wr, buf, req)?)
    }

    /// Writes `req` into its slot of the peer's landing zone.
    fn write(&mut self, sim: &mut Sim, s: usize, wr: Wr, req: u64) -> Step {
        let (buf, slot) = (self.stamp(s, req)?, self.slot(req));
        let (fabric, side) = (&self.fabric, &mut self.sides[s]);
        let wr = side.track(wr);
        Ok(fabric.post_write(sim, side.qp, wr, buf, side.remote, slot, req)?)
    }

    /// OWDL: a CAS on `req`'s lock word at the peer, its post charged to the CPU.
    fn cas(&mut self, sim: &mut Sim, s: usize, wr: Wr, req: u64, cas: (u64, u64)) -> Step {
        let slot = self.slot(req);
        let (fabric, side) = (&self.fabric, &mut self.sides[s]);
        side.cpu.run(sim.now(), OWDL_POST_COST);
        let wr = side.track(wr);
        Ok(fabric.post_cas(sim, side.qp, wr, side.remote, slot, cas.0, cas.1)?)
    }

    /// Feeds `input` back to [`Echo::on`] at `instant`: the one schedule site.
    fn at(&self, sim: &mut Sim, instant: SimTime, input: Input) {
        let me = self.me.clone();
        sim.schedule_at(instant, move |sim| feed(&me, sim, input));
    }

    /// The measurements, or the failure that ended the run.
    fn finish(&mut self) -> Result<EchoResult, EchoError> {
        if let Some(e) = self.failed.take() {
            return Err(e);
        }
        let elapsed = self.ended.saturating_since(self.began);
        let secs = elapsed.as_secs_f64();
        Ok(EchoResult {
            completed: self.completed,
            elapsed,
            rps: if secs > 0.0 {
                self.completed as f64 / secs
            } else {
                0.0
            },
            latency: std::mem::take(&mut self.hist),
        })
    }
}

/// Hands `input` from a waker or timer to its run. The first failure ends the
/// run: later inputs are dropped, so the pollers stop and the run drains.
fn feed(me: &Weak<RefCell<Echo>>, sim: &mut Sim, input: Input) {
    if let Some(echo) = me.upgrade() {
        let run = &mut *echo.borrow_mut();
        if run.failed.is_none() {
            run.failed = run.on(sim, input).err();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(primitive: Primitive, payload: usize) -> EchoConfig {
        EchoConfig {
            primitive,
            payload,
            requests: 300,
            ..EchoConfig::default()
        }
    }

    fn run(c: EchoConfig) -> EchoResult {
        run_echo(c).unwrap()
    }

    #[test]
    fn two_sided_64b_echo_is_about_8_microseconds() {
        let r = run(cfg(Primitive::TwoSided, 64));
        assert_eq!(r.completed, 300);
        let mean = r.latency.mean().as_micros_f64();
        assert!(
            (7.0..=10.0).contains(&mean),
            "two-sided 64B echo = {mean}us (paper: 8.4)"
        );
    }

    #[test]
    fn two_sided_4k_echo_is_about_12_microseconds() {
        let r = run(cfg(Primitive::TwoSided, 4096));
        let mean = r.latency.mean().as_micros_f64();
        assert!(
            (10.0..=13.5).contains(&mean),
            "two-sided 4KB echo = {mean}us (paper: 11.6)"
        );
    }

    #[test]
    fn owdl_is_2_to_3x_slower_than_two_sided_at_4k() {
        let two = run(cfg(Primitive::TwoSided, 4096));
        let owdl = run(cfg(Primitive::Owdl, 4096));
        let ratio = owdl.latency.mean().as_micros_f64() / two.latency.mean().as_micros_f64();
        assert!(
            (1.8..=3.0).contains(&ratio),
            "OWDL/two-sided = {ratio} (paper: ~2.3x at 4KB)"
        );
    }

    #[test]
    fn owrc_ordering_best_faster_than_worst_both_slower_than_two_sided() {
        let two = run(cfg(Primitive::TwoSided, 4096));
        let best = run(cfg(Primitive::OwrcBest, 4096));
        let worst = run(cfg(Primitive::OwrcWorst, 4096));
        let t = two.latency.mean().as_micros_f64();
        let b = best.latency.mean().as_micros_f64();
        let w = worst.latency.mean().as_micros_f64();
        assert!(t < b && b < w, "expected {t} < {b} < {w}");
        let ratio_b = b / t;
        let ratio_w = w / t;
        assert!(
            (1.15..=1.6).contains(&ratio_b),
            "Best/two-sided = {ratio_b}"
        );
        assert!(
            (1.25..=1.8).contains(&ratio_w),
            "Worst/two-sided = {ratio_w}"
        );
    }

    #[test]
    fn two_sided_throughput_beats_owdl() {
        let mut c2 = cfg(Primitive::TwoSided, 1024);
        c2.window = 8;
        let mut cl = cfg(Primitive::Owdl, 1024);
        cl.window = 8;
        let two = run(c2);
        let owdl = run(cl);
        assert!(
            two.rps > 2.0 * owdl.rps,
            "two-sided {} vs OWDL {} (paper: >2.1x)",
            two.rps,
            owdl.rps
        );
    }

    #[test]
    fn dpu_cores_barely_penalize_verb_echo() {
        // Fig. 6: native RDMA (DPU) is close to native RDMA (CPU) — verb
        // handling is light enough for wimpy cores.
        let mut dpu = cfg(Primitive::TwoSided, 1024);
        dpu.proc = ProcessorKind::DpuArm;
        let mut cpu = cfg(Primitive::TwoSided, 1024);
        cpu.proc = ProcessorKind::HostCpu;
        let r_dpu = run(dpu);
        let r_cpu = run(cpu);
        let ratio = r_dpu.latency.mean().as_micros_f64() / r_cpu.latency.mean().as_micros_f64();
        assert!(
            (1.0..=1.25).contains(&ratio),
            "DPU/CPU echo latency = {ratio} (paper: minimal penalty)"
        );
    }

    #[test]
    fn windowed_run_completes_all_requests() {
        let mut c = cfg(Primitive::OwrcBest, 256);
        c.window = 4;
        c.requests = 200;
        let r = run(c);
        assert_eq!(r.completed, 200);
        assert!(r.rps > 0.0);
        assert_eq!(r.latency.count(), 200);
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Fault {
        /// Every two-sided message is lost on the wire: the client's send
        /// completes in error.
        WireLoss,
        /// The server's pool is empty: its first re-post finds no buffer.
        DryPool,
        /// The connection breaks 20 µs in: the next post is refused.
        QpKill,
    }

    #[test]
    fn a_failed_completion_ends_the_run_typed() {
        use Primitive::*;
        for primitive in [TwoSided, Owdl, OwrcBest, OwrcWorst] {
            for fault in [Fault::WireLoss, Fault::DryPool, Fault::QpKill] {
                if fault == Fault::WireLoss && primitive != TwoSided {
                    continue; // the fault plane drops two-sided sends only
                }
                let mut sim = Sim::new();
                let echo = Echo::start(&mut sim, cfg(primitive, 64)).unwrap();
                let mut hoard = Vec::new();
                {
                    let e = echo.borrow();
                    match fault {
                        Fault::WireLoss => e.fabric.with_fault_plane(|fp| fp.set_default_loss(1.0)),
                        Fault::DryPool => {
                            hoard.extend(std::iter::from_fn(|| e.sides[SERVER].pool.get().ok()));
                        }
                        Fault::QpKill => {
                            let at = sim.now() + SimDuration::from_micros(20);
                            e.fabric.schedule_qp_kill(&mut sim, at, e.sides[CLIENT].qp);
                        }
                    }
                }
                sim.run();
                let end = echo.borrow_mut().finish();
                let typed = match fault {
                    Fault::WireLoss => matches!(
                        end,
                        Err(EchoError::Completion(_, CqeStatus::TransportRetryExceeded))
                    ),
                    Fault::DryPool => matches!(end, Err(EchoError::Pool(PoolError::Exhausted))),
                    Fault::QpKill => matches!(end, Err(EchoError::Rdma(RdmaError::QpNotReady(_)))),
                };
                assert!(typed, "{primitive:?} under {fault:?} ended {end:?}");
                assert_eq!(sim.pending_events(), 0, "{primitive:?} under {fault:?}");
            }
        }
    }

    #[test]
    fn a_held_lock_backs_off_once_and_every_request_completes() {
        let mut sim = Sim::new();
        let echo = Echo::start(&mut sim, cfg(Primitive::Owdl, 64)).unwrap();
        let (fabric, qp, cq, lock) = {
            let e = echo.borrow();
            let client = &e.sides[CLIENT];
            (e.fabric.clone(), client.qp, client.cq, client.remote)
        };
        // Another holder takes slot 0's lock word before the first acquire
        // (still waiting on the client's CPU) reaches it, and gives it back
        // 3 µs later.
        let (take, give) = {
            let client = &mut echo.borrow_mut().sides[CLIENT];
            (client.track(Wr::Recycle), client.track(Wr::Recycle))
        };
        fabric.post_cas(&mut sim, qp, take, lock, 0, 0, 1).unwrap();
        let holder = fabric.clone();
        sim.schedule_after(SimDuration::from_micros(3), move |sim| {
            holder.post_cas(sim, qp, give, lock, 0, 1, 0).unwrap();
        });
        sim.run();
        let r = echo.borrow_mut().finish().unwrap();
        assert_eq!(r.completed, 300);
        // Three verbs per request, the holder's two, one retried acquire.
        assert_eq!(fabric.qp_counters(qp).posted, 3 * 300 + 2 + 1);
        // The lock word ends free: a CAS that cannot match reads it.
        fabric.set_cq_waker(cq, Rc::new(|_| {})).unwrap();
        fabric
            .post_cas(&mut sim, qp, WrId(0), lock, 0, 2, 2)
            .unwrap();
        sim.run();
        assert_eq!(fabric.poll_one(cq).map(|c| c.imm), Some(0));
    }
}
