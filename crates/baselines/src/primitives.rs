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
//!   (Fig. 3 (1)): every write is bracketed by an RDMA compare-and-swap
//!   acquire and release, three round trips per direction.
//! - [`Primitive::OwrcBest`] / [`Primitive::OwrcWorst`]: one-sided write
//!   into a dedicated RDMA-only landing zone with a receiver-side copy
//!   into the local pool (Fig. 3 (2)); *Best* enjoys artificial cache
//!   locality, *Worst* is forced to main memory (the paper's TLB-flush
//!   variant).
//!
//! One-sided receivers discover arrivals FARM-style by polling the landing
//! zone, which is why those variants keep a core busy even when idle.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use dpu_sim::soc::{Processor, ProcessorKind};
use membuf::pool::{BufferPool, PoolConfig};
use membuf::tenant::TenantId;
use rdma_sim::fabric::{QpHandle, RqId};
use rdma_sim::types::{Cqe, CqeOpcode, CqeStatus, RKey};
use rdma_sim::{Fabric, NodeId, RdmaCosts, WrId};
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
    /// The receiver-side copy rate in bytes/second (`None` = no copy).
    fn copy_rate(self) -> Option<f64> {
        match self {
            Primitive::TwoSided | Primitive::Owdl => None,
            Primitive::OwrcBest => Some(8_000_000_000.0),
            Primitive::OwrcWorst => Some(2_500_000_000.0),
        }
    }

    /// Fixed receiver-side copy management cost.
    fn copy_fixed(self) -> SimDuration {
        match self {
            Primitive::TwoSided | Primitive::Owdl => SimDuration::ZERO,
            Primitive::OwrcBest | Primitive::OwrcWorst => SimDuration::from_nanos(600),
        }
    }

    /// Whether the variant needs landing zones + polling.
    fn one_sided(self) -> bool {
        self != Primitive::TwoSided
    }
}

/// Per-message endpoint handling cost (reference CPU time, scaled by the
/// processor's wimpy factor): full verb management per message, of which
/// only this CPU-bound part is penalized by wimpy cores (Fig. 6).
const PER_MSG: SimDuration = SimDuration::from_nanos(700);
/// Landing-zone poll interval for the one-sided variants (Fig. 12).
const POLL_INTERVAL: SimDuration = SimDuration::from_nanos(300);

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

/// Requester CPU consumed by each extra verb post of the OWDL lock
/// protocol (CAS acquire, data write, CAS release all hit the SQ).
const OWDL_POST_COST: SimDuration = SimDuration::from_nanos(400);

type Cont = Box<dyn FnOnce(&mut Sim, Cqe)>;

/// Per-side completion dispatcher: wr_id → continuation.
#[derive(Default)]
struct Dispatcher {
    pending: HashMap<WrId, Cont>,
    next_wr: u64,
}

impl Dispatcher {
    fn register(&mut self, cont: Cont) -> WrId {
        let wr = WrId(self.next_wr);
        self.next_wr += 1;
        self.pending.insert(wr, cont);
        wr
    }

    fn take(&mut self, wr: WrId) -> Option<Cont> {
        self.pending.remove(&wr)
    }
}

struct Side {
    node: NodeId,
    rq: RqId,
    qp: QpHandle,
    pool: BufferPool,
    rkey_remote: RKey,
    cpu: Processor,
    disp: Dispatcher,
}

struct Shared {
    cfg: EchoConfig,
    fabric: Fabric,
    client: Side,
    server: Side,
    issued: u64,
    completed: u64,
    started: HashMap<u64, SimTime>,
    hist: Histogram,
    began: SimTime,
    ended: SimTime,
}

impl Shared {
    fn finished(&self) -> bool {
        self.completed >= self.cfg.requests
    }
}

/// Runs one echo benchmark to completion and reports the measurements.
pub fn run_echo(cfg: EchoConfig) -> EchoResult {
    assert!(cfg.window >= 1 && cfg.requests >= 1);
    assert!(cfg.payload >= 8, "payload must hold the request id");
    let fabric = Fabric::new(RdmaCosts::default());
    let mut sim = Sim::new();
    let a = fabric.add_node();
    let b = fabric.add_node();
    let tenant = TenantId(1);
    let buf_size = cfg.payload.next_power_of_two().max(64);
    let pool_cap = (cfg.window as u32 * 8).max(64);
    let mk_pool = || {
        let mut pc = PoolConfig::new(tenant, 0, buf_size, pool_cap);
        pc.segment_size = (buf_size * pool_cap as usize).next_power_of_two();
        BufferPool::new(pc).unwrap()
    };
    let pool_a = mk_pool();
    let pool_b = mk_pool();
    let rkey_a = fabric.register_pool(a, pool_a.clone()).unwrap();
    let rkey_b = fabric.register_pool(b, pool_b.clone()).unwrap();
    let cq_a = fabric.create_cq(a).unwrap();
    let cq_b = fabric.create_cq(b).unwrap();
    let rq_a = fabric.create_rq(a, tenant).unwrap();
    let rq_b = fabric.create_rq(b, tenant).unwrap();
    let (h_ab, h_ba) = fabric
        .connect(&mut sim, tenant, a, cq_a, rq_a, b, cq_b, rq_b)
        .unwrap();
    sim.run();
    fabric.set_qp_active(h_ab, true).unwrap();
    fabric.set_qp_active(h_ba, true).unwrap();

    // Pre-post receives / landing slots.
    if cfg.primitive.one_sided() {
        for slot in 0..cfg.window as u32 {
            fabric
                .post_landing(b, rkey_b, slot, pool_b.get().unwrap())
                .unwrap();
            fabric
                .post_landing(a, rkey_a, slot, pool_a.get().unwrap())
                .unwrap();
        }
    } else {
        for side in [(rq_a, &pool_a), (rq_b, &pool_b)] {
            for i in 0..(cfg.window * 2).max(8) {
                fabric
                    .post_recv(side.0, WrId(1_000_000 + i as u64), side.1.get().unwrap())
                    .unwrap();
            }
        }
    }

    let state = Rc::new(RefCell::new(Shared {
        client: Side {
            node: a,
            rq: rq_a,
            qp: h_ab,
            pool: pool_a,
            rkey_remote: rkey_b,
            cpu: Processor::new(cfg.proc, 1),
            disp: Dispatcher::default(),
        },
        server: Side {
            node: b,
            rq: rq_b,
            qp: h_ba,
            pool: pool_b,
            rkey_remote: rkey_a,
            cpu: Processor::new(cfg.proc, 1),
            disp: Dispatcher::default(),
        },
        cfg,
        fabric: fabric.clone(),
        issued: 0,
        completed: 0,
        started: HashMap::new(),
        hist: Histogram::new(),
        began: sim.now(),
        ended: sim.now(),
    }));

    // CQ wakers drain completions into the dispatchers.
    for (cq, is_client) in [(cq_a, true), (cq_b, false)] {
        let st = state.clone();
        let fabric = fabric.clone();
        fabric
            .clone()
            .set_cq_waker(
                cq,
                Rc::new(move |sim| loop {
                    let cqes = fabric.poll_cq(cq, 16);
                    if cqes.is_empty() {
                        break;
                    }
                    for cqe in cqes {
                        handle_cqe(&st, sim, is_client, cqe);
                    }
                }),
            )
            .unwrap();
    }

    {
        let mut st = state.borrow_mut();
        st.began = sim.now();
    }
    // Kick off the window.
    let window = state.borrow().cfg.window;
    for _ in 0..window {
        issue_request(&state, &mut sim);
    }
    // Start landing-zone pollers for one-sided variants.
    if state.borrow().cfg.primitive.one_sided() {
        start_poller(&state, &mut sim, false); // server polls for requests
        start_poller(&state, &mut sim, true); // client polls for echoes
    }
    sim.run();

    let st = state.borrow();
    let elapsed = st.ended.saturating_since(st.began);
    let secs = elapsed.as_secs_f64();
    EchoResult {
        completed: st.completed,
        elapsed,
        rps: if secs > 0.0 {
            st.completed as f64 / secs
        } else {
            0.0
        },
        latency: st.hist.clone(),
    }
}

/// Issues one client request (any primitive).
fn issue_request(state: &Rc<RefCell<Shared>>, sim: &mut Sim) {
    let (req, cpu_done, primitive) = {
        let mut st = state.borrow_mut();
        if st.issued >= st.cfg.requests {
            return;
        }
        let req = st.issued;
        st.issued += 1;
        st.started.insert(req, sim.now());
        let unscaled = st.cfg.per_msg_unscaled;
        st.client.cpu.run(sim.now(), PER_MSG);
        let done = st.client.cpu.run_unscaled(sim.now(), unscaled);
        (req, done, st.cfg.primitive)
    };
    let st2 = state.clone();
    sim.schedule_at(cpu_done, move |sim| {
        match primitive {
            Primitive::TwoSided => {
                let (fabric, qp, wr, buf) = {
                    let mut st = st2.borrow_mut();
                    let mut buf = st.client.pool.get().expect("client pool sized for window");
                    let payload = st.cfg.payload;
                    buf.set_len(payload).unwrap();
                    buf.as_mut_slice()[..8].copy_from_slice(&req.to_le_bytes());
                    buf.set_len(payload).unwrap();
                    // Send completion just recycles the buffer.
                    let wr = st.client.disp.register(Box::new(|_, _cqe| {}));
                    (st.fabric.clone(), st.client.qp, wr, buf)
                };
                fabric.post_send(sim, qp, wr, buf, req).unwrap();
            }
            Primitive::Owdl => locked_write(&st2, sim, true, req),
            Primitive::OwrcBest | Primitive::OwrcWorst => plain_write(&st2, sim, true, req),
        }
    });
}

/// One-sided write without locks (OWRC): write into the remote landing slot.
fn plain_write(state: &Rc<RefCell<Shared>>, sim: &mut Sim, from_client: bool, req: u64) {
    let (fabric, qp, rkey, slot, wr, buf) = {
        let mut st = state.borrow_mut();
        let window = st.cfg.window as u64;
        let payload = st.cfg.payload;
        let fabric = st.fabric.clone();
        let side = if from_client {
            &mut st.client
        } else {
            &mut st.server
        };
        let mut buf = side.pool.get().expect("pool sized for window");
        buf.set_len(payload).unwrap();
        buf.as_mut_slice()[..8].copy_from_slice(&req.to_le_bytes());
        buf.set_len(payload).unwrap();
        let wr = side.disp.register(Box::new(|_, _| {})); // recycle on completion
        (
            fabric,
            side.qp,
            side.rkey_remote,
            (req % window) as u32,
            wr,
            buf,
        )
    };
    fabric
        .post_write(sim, qp, wr, buf, rkey, slot, req)
        .unwrap();
}

/// OWDL's locked write: CAS-acquire → write → CAS-release, then done.
fn locked_write(state: &Rc<RefCell<Shared>>, sim: &mut Sim, from_client: bool, req: u64) {
    let (fabric, qp, rkey, slot, wr) = {
        let mut st = state.borrow_mut();
        let window = st.cfg.window as u64;
        let slot = (req % window) as u32;
        let st_rc = state.clone();
        let fabric = st.fabric.clone();
        let side = if from_client {
            &mut st.client
        } else {
            &mut st.server
        };
        let qp = side.qp;
        let rkey = side.rkey_remote;
        side.cpu.run(sim.now(), OWDL_POST_COST);
        let wr = side.disp.register(Box::new(move |sim, cqe| {
            on_cas_acquire(&st_rc, sim, from_client, req, cqe);
        }));
        (fabric, qp, rkey, slot, wr)
    };
    fabric.post_cas(sim, qp, wr, rkey, slot, 0, 1).unwrap();
}

fn on_cas_acquire(
    state: &Rc<RefCell<Shared>>,
    sim: &mut Sim,
    from_client: bool,
    req: u64,
    cqe: Cqe,
) {
    if cqe.imm != 0 {
        // Lock held: retry after a short backoff.
        let st2 = state.clone();
        sim.schedule_after(SimDuration::from_micros(2), move |sim| {
            locked_write(&st2, sim, from_client, req);
        });
        return;
    }
    // Acquired: issue the data write, then release on completion.
    let (fabric, qp, rkey, slot, wr, buf) = {
        let mut st = state.borrow_mut();
        let window = st.cfg.window as u64;
        let payload = st.cfg.payload;
        let slot = (req % window) as u32;
        let st_rc = state.clone();
        let fabric = st.fabric.clone();
        let side = if from_client {
            &mut st.client
        } else {
            &mut st.server
        };
        let mut buf = side.pool.get().expect("pool sized for window");
        buf.set_len(payload).unwrap();
        buf.as_mut_slice()[..8].copy_from_slice(&req.to_le_bytes());
        buf.set_len(payload).unwrap();
        side.cpu.run(sim.now(), OWDL_POST_COST);
        let wr = side.disp.register(Box::new(move |sim, _cqe| {
            // Write done: release the remote lock.
            let (fabric, qp, rkey, wr) = {
                let mut st = st_rc.borrow_mut();
                let fabric = st.fabric.clone();
                let side = if from_client {
                    &mut st.client
                } else {
                    &mut st.server
                };
                side.cpu.run(sim.now(), OWDL_POST_COST);
                let wr = side.disp.register(Box::new(|_, _| {}));
                (fabric, side.qp, side.rkey_remote, wr)
            };
            fabric.post_cas(sim, qp, wr, rkey, slot, 1, 0).unwrap();
        }));
        (fabric, side.qp, side.rkey_remote, slot, wr, buf)
    };
    fabric
        .post_write(sim, qp, wr, buf, rkey, slot, req)
        .unwrap();
}

/// Handles a completion on either side.
fn handle_cqe(state: &Rc<RefCell<Shared>>, sim: &mut Sim, is_client: bool, cqe: Cqe) {
    debug_assert_eq!(
        cqe.status,
        CqeStatus::Success,
        "echo drivers expect clean runs"
    );
    // Dispatched continuations (sends, writes, CAS chains).
    let cont = {
        let mut st = state.borrow_mut();
        let side = if is_client {
            &mut st.client
        } else {
            &mut st.server
        };
        side.disp.take(cqe.wr_id)
    };
    if let Some(cont) = cont {
        cont(sim, cqe);
        return;
    }
    // Unsolicited: a two-sided receive.
    if cqe.opcode != CqeOpcode::Recv {
        return;
    }
    let req = cqe.imm;
    {
        // Replenish the consumed receive buffer.
        let st = state.borrow();
        let (rq, pool) = if is_client {
            (st.client.rq, st.client.pool.clone())
        } else {
            (st.server.rq, st.server.pool.clone())
        };
        if let Ok(buf) = pool.get() {
            let _ = st.fabric.post_recv(rq, WrId(2_000_000 + req), buf);
        }
    }
    if is_client {
        client_complete(state, sim, req);
    } else {
        // Server: charge handling, then bounce the received buffer back.
        let buf = cqe.buf.expect("recv carries the buffer");
        let done = {
            let mut st = state.borrow_mut();
            let unscaled = st.cfg.per_msg_unscaled;
            st.server.cpu.run(sim.now(), PER_MSG);
            st.server.cpu.run_unscaled(sim.now(), unscaled)
        };
        let st2 = state.clone();
        sim.schedule_at(done, move |sim| {
            let (fabric, qp, wr) = {
                let mut st = st2.borrow_mut();
                let wr = st.server.disp.register(Box::new(|_, _| {}));
                (st.fabric.clone(), st.server.qp, wr)
            };
            fabric.post_send(sim, qp, wr, buf, req).unwrap();
        });
    }
}

/// Records a finished request and issues the next one.
fn client_complete(state: &Rc<RefCell<Shared>>, sim: &mut Sim, req: u64) {
    {
        let mut st = state.borrow_mut();
        if let Some(t0) = st.started.remove(&req) {
            let rtt = sim.now().saturating_since(t0);
            st.hist.record(rtt);
            st.completed += 1;
            st.ended = sim.now();
        }
    }
    issue_request(state, sim);
}

/// Starts the landing-zone poller for one side (one-sided variants).
fn start_poller(state: &Rc<RefCell<Shared>>, sim: &mut Sim, client_side: bool) {
    let st2 = state.clone();
    sim.schedule_after(POLL_INTERVAL, move |sim| {
        poll_once(&st2, sim, client_side);
    });
}

fn poll_once(state: &Rc<RefCell<Shared>>, sim: &mut Sim, client_side: bool) {
    let (fabric, node, rkey, window, finished) = {
        let st = state.borrow();
        let (node, rkey) = if client_side {
            (
                st.client.node,
                st.fabric.rkey_of(st.client.node, TenantId(1), 0).unwrap(),
            )
        } else {
            (
                st.server.node,
                st.fabric.rkey_of(st.server.node, TenantId(1), 0).unwrap(),
            )
        };
        (
            st.fabric.clone(),
            node,
            rkey,
            st.cfg.window as u32,
            st.finished(),
        )
    };
    if finished {
        return;
    }
    for slot in 0..window {
        let ready = fabric
            .poll_landing(sim.now(), node, rkey, slot)
            .unwrap_or(None);
        if ready.is_none() {
            continue;
        }
        let buf = fabric.claim_landing(node, rkey, slot).expect("just polled");
        let req = u64::from_le_bytes(buf.as_slice()[..8].try_into().unwrap());
        // Re-post a fresh landing buffer for the slot.
        {
            let st = state.borrow();
            let pool = if client_side {
                st.client.pool.clone()
            } else {
                st.server.pool.clone()
            };
            if let Ok(fresh) = pool.get() {
                let _ = fabric.post_landing(node, rkey, slot, fresh);
            }
        }
        // Receiver-side handling: per-message cost (CPU-bound, scaled by
        // the wimpy factor) plus, for OWRC, the copy — which is memory-
        // bound and therefore charged in wall-clock terms.
        let (cpu_done, primitive) = {
            let mut st = state.borrow_mut();
            let payload_len = buf.len();
            let primitive = st.cfg.primitive;
            let copy = match primitive.copy_rate() {
                Some(rate) => {
                    primitive.copy_fixed() + SimDuration::from_secs_f64(payload_len as f64 / rate)
                }
                None => SimDuration::ZERO,
            };
            let unscaled = st.cfg.per_msg_unscaled;
            let side = if client_side {
                &mut st.client
            } else {
                &mut st.server
            };
            side.cpu.run(sim.now(), PER_MSG);
            (side.cpu.run_unscaled(sim.now(), copy + unscaled), primitive)
        };
        drop(buf);
        let st2 = state.clone();
        sim.schedule_at(cpu_done, move |sim| {
            if client_side {
                client_complete(&st2, sim, req);
            } else {
                // Echo back with the same primitive.
                match primitive {
                    Primitive::Owdl => locked_write(&st2, sim, false, req),
                    _ => plain_write(&st2, sim, false, req),
                }
            }
        });
    }
    start_poller(state, sim, client_side);
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

    #[test]
    fn two_sided_64b_echo_is_about_8_microseconds() {
        let r = run_echo(cfg(Primitive::TwoSided, 64));
        assert_eq!(r.completed, 300);
        let mean = r.latency.mean().as_micros_f64();
        assert!(
            (7.0..=10.0).contains(&mean),
            "two-sided 64B echo = {mean}us (paper: 8.4)"
        );
    }

    #[test]
    fn two_sided_4k_echo_is_about_12_microseconds() {
        let r = run_echo(cfg(Primitive::TwoSided, 4096));
        let mean = r.latency.mean().as_micros_f64();
        assert!(
            (10.0..=13.5).contains(&mean),
            "two-sided 4KB echo = {mean}us (paper: 11.6)"
        );
    }

    #[test]
    fn owdl_is_2_to_3x_slower_than_two_sided_at_4k() {
        let two = run_echo(cfg(Primitive::TwoSided, 4096));
        let owdl = run_echo(cfg(Primitive::Owdl, 4096));
        let ratio = owdl.latency.mean().as_micros_f64() / two.latency.mean().as_micros_f64();
        assert!(
            (1.8..=3.0).contains(&ratio),
            "OWDL/two-sided = {ratio} (paper: ~2.3x at 4KB)"
        );
    }

    #[test]
    fn owrc_ordering_best_faster_than_worst_both_slower_than_two_sided() {
        let two = run_echo(cfg(Primitive::TwoSided, 4096));
        let best = run_echo(cfg(Primitive::OwrcBest, 4096));
        let worst = run_echo(cfg(Primitive::OwrcWorst, 4096));
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
        let two = run_echo(c2);
        let owdl = run_echo(cl);
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
        let r_dpu = run_echo(dpu);
        let r_cpu = run_echo(cpu);
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
        let r = run_echo(c);
        assert_eq!(r.completed, 200);
        assert!(r.rps > 0.0);
        assert_eq!(r.latency.count(), 200);
    }
}
