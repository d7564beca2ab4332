//! The unified I/O library (§3.5): the public handle and its machine.
//!
//! "The I/O library, once invoked by the user code, transparently
//! determines the intra-/inter-node data path": a local destination gets
//! the descriptor over SK_MSG after the sidecar's check, a remote one goes
//! to the DNE, and host-side IPC costs are charged to the node's host
//! cores. The state machine in `crate::core` decides all of it; the
//! library's [`Machine`] impl is the crate's one place that schedules an
//! event, submits to the DNE, or calls an endpoint, a completion or the
//! failure handler.

use std::cell::RefCell;
use std::rc::Rc;

use dne::engine::FnEndpoint;
use dne::Dne;
use dpu_sim::soc::Processor;
use membuf::descriptor::BufferDesc;
use membuf::pool::BufferPool;
use membuf::tenant::TenantId;
use obs::Tracer;
use rdma_sim::NodeId;
use simcore::{Driver, IdTable, Machine, Sim, SimDuration, SimTime, Sink};

use crate::core::{Core, Function, Host, Input, Output, Spec};
use crate::function::CompletionFn;
use crate::placement::Placement;

/// Counters kept by the library.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Descriptors delivered over intra-node shared memory.
    pub local_sends: u64,
    /// Descriptors handed to the DNE for inter-node RDMA.
    pub remote_sends: u64,
    /// Descriptors dropped (sidecar denial, unknown placement, bad
    /// descriptor).
    pub dropped: u64,
}

/// A cell the library shares with the node around it.
type Shared<T> = Rc<RefCell<T>>;

/// What an [`IoLib`] handle points at: the state machine, and beside it
/// the node state a step borrows and the closures only the driver calls.
struct Lib {
    core: RefCell<Core>,
    dne: Dne,
    /// The node's host cores; the cluster reads their utilisation.
    cpu: Shared<Processor>,
    /// The cluster's placement map.
    placement: Shared<Placement>,
    /// Closure endpoints from [`IoLib::register_function`], by function id.
    endpoints: RefCell<IdTable<FnEndpoint>>,
    /// Completions of chain and DAG functions, by function id.
    completions: RefCell<IdTable<CompletionFn>>,
}

/// An `At` or a `Submit` is applied as the step emits it (a DNE `Submit`
/// step only schedules); from the first output that can re-enter the
/// library on — a `Call`, `Complete` or `Fail` — the rest wait until every
/// borrow the step took is dropped.
impl Machine for Lib {
    type In = Input;
    type Out = Output;
    type Answer = ();

    fn step(&self, now: SimTime, input: Input, sink: &mut Sink<'_, Self>) {
        let (mut cpu, placement) = (self.cpu.borrow_mut(), self.placement.borrow());
        let mut host = Host {
            cpu: &mut cpu,
            placement: &placement,
            wire_version: self.dne.wire_version(),
        };
        let emit = &mut |output| sink.put(output);
        self.core.borrow_mut().step(now, input, &mut host, emit);
    }

    fn apply(lib: &Rc<Driver<Self>>, sim: &mut Sim, output: Output) -> Result<(), Output> {
        match output {
            Output::At(at, input) => lib.schedule(sim, at, input),
            Output::Submit { tenant, desc } => lib.dne.submit(sim, tenant, desc),
            reentrant => return Err(reentrant),
        }
        Ok(())
    }

    fn settle(lib: &Rc<Driver<Self>>, sim: &mut Sim, output: Output) {
        match output {
            Output::Call(fn_id, desc) => {
                let ep = lib.endpoints.borrow().get(fn_id.into()).cloned();
                if let Some(ep) = ep {
                    ep(sim, desc);
                }
            }
            Output::Complete { fn_id, req_id } => {
                let done = lib.completions.borrow().get(fn_id.into()).cloned();
                if let Some(done) = done {
                    done(sim, req_id);
                }
            }
            Output::Fail(failure) => lib.dne.report_failure(sim, failure),
            Output::At(..) | Output::Submit { .. } => {}
        }
    }
}

/// The per-node unified I/O library.
#[derive(Clone)]
pub struct IoLib {
    inner: Rc<Driver<Lib>>,
}

impl IoLib {
    /// Creates the library for `node`, backed by that node's DNE and host
    /// cores.
    pub fn new(
        node: NodeId,
        dne: Dne,
        cpu: Rc<RefCell<Processor>>,
        placement: Rc<RefCell<Placement>>,
    ) -> IoLib {
        let core = Core::new(node, dne.ipc_costs());
        IoLib {
            inner: Driver::new(Lib {
                core: RefCell::new(core),
                dne,
                cpu,
                placement,
                endpoints: RefCell::default(),
                completions: RefCell::default(),
            }),
        }
    }

    /// Registers a tenant's local memory pool: functions redeem and take
    /// their buffers from it, and drop paths recycle into it.
    pub fn register_tenant_pool(&self, tenant: TenantId, pool: BufferPool) {
        let mut core = self.inner.core.borrow_mut();
        core.pools.insert(tenant.0.into(), pool);
    }

    /// Registers a local function that is a closure: descriptors reaching
    /// it, over SK_MSG or from the DNE, are handed to `endpoint`.
    pub fn register_function(&self, fn_id: u16, tenant: TenantId, endpoint: FnEndpoint) {
        self.inner
            .endpoints
            .borrow_mut()
            .insert(fn_id.into(), endpoint);
        self.install(fn_id, tenant, None);
    }

    /// Registers function `fn_id` of a chain or DAG as data: each descriptor
    /// reaching it runs `exec_cost` on the host cores and moves on as
    /// `spec` says; a request that finishes here calls `on_complete`.
    pub fn register_spec(
        &self,
        fn_id: u16,
        spec: Spec,
        exec_cost: SimDuration,
        on_complete: CompletionFn,
    ) {
        self.inner
            .completions
            .borrow_mut()
            .insert(fn_id.into(), on_complete);
        let tenant = spec.tenant();
        self.install(fn_id, tenant, Some(Function { spec, exec_cost }));
    }

    /// Installs `fn_id` in the core and points the DNE's deliveries for it
    /// at this library. The engine holds the library weakly: the library
    /// holds the engine.
    fn install(&self, fn_id: u16, tenant: TenantId, function: Option<Function>) {
        let mut core = self.inner.core.borrow_mut();
        core.install(fn_id, tenant, function);
        let lib = Rc::downgrade(&self.inner);
        let endpoint: FnEndpoint = Rc::new(move |sim, desc| {
            if let Some(lib) = lib.upgrade() {
                lib.drive(sim, Input::Deliver { desc });
            }
        });
        self.inner.dne.register_endpoint(fn_id, endpoint);
    }

    /// Closes every DAG join the failed request `req_id` left open on this
    /// node. The cluster calls it on every node for every typed failure.
    pub fn forget(&self, req_id: u64) {
        self.inner.core.borrow_mut().forget(req_id);
    }

    /// Sends a detached buffer descriptor to `desc.dst_fn`.
    ///
    /// Local destinations: sidecar check, SK_MSG descriptor hand-off.
    /// Remote destinations: hand-off to the DNE. Drops recycle the buffer
    /// back into the tenant's pool.
    pub fn send(&self, sim: &mut Sim, tenant: TenantId, desc: BufferDesc) {
        self.send_traced(sim, tenant, desc, None)
    }

    /// [`IoLib::send`] with the trace identity pre-read by the caller.
    ///
    /// A local delivery records an `SkMsg` span, which needs the request
    /// id and sampling bit from the payload head. A caller that held the
    /// buffer a moment ago (the front door) already knows both; passing
    /// them here skips a validated pool peek — a table lookup plus one
    /// atomic load — on every traced local hop. With `None` the meta is
    /// peeked lazily, and only when tracing is on.
    pub fn send_traced(
        &self,
        sim: &mut Sim,
        tenant: TenantId,
        desc: BufferDesc,
        meta: Option<(u64, bool)>,
    ) {
        self.inner.drive(sim, Input::Send { tenant, desc, meta });
    }

    /// Returns a snapshot of the counters.
    pub fn stats(&self) -> IoStats {
        self.inner.core.borrow().stats
    }

    /// Returns `(checks, denials)` from the sidecar.
    pub fn sidecar_counters(&self) -> (u64, u64) {
        let core = self.inner.core.borrow();
        (core.sidecar.checks(), core.sidecar.denials())
    }

    /// Installs a span tracer for intra-node SK_MSG deliveries and function
    /// executions and threads it into the node's DNE for the RDMA path.
    pub fn set_tracer(&self, tracer: Tracer) {
        self.inner.dne.set_tracer(tracer.clone());
        self.inner.core.borrow_mut().tracer = tracer;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::write_request_payload;
    use dne::types::DneConfig;
    use dpu_sim::mmap::{doca_mmap_create_from_export, doca_mmap_export_full};
    use dpu_sim::soc::ProcessorKind;
    use membuf::pool::PoolConfig;
    use obs::Stage;
    use rdma_sim::{Fabric, RdmaCosts};
    use simcore::SimTime;

    fn mk_pool(tenant: u16) -> BufferPool {
        let mut cfg = PoolConfig::new(TenantId(tenant), 0, 4096, 128);
        cfg.segment_size = 128 * 1024;
        BufferPool::new(cfg).unwrap()
    }

    struct Env {
        sim: Sim,
        iolib: IoLib,
        pool: BufferPool,
        tenant: TenantId,
    }

    /// One node with fn 1 and fn 2 local; fn 9 is "remote" (unplaced DNE
    /// peer not wired, so we only check the counter).
    fn setup() -> Env {
        let fabric = Fabric::new(RdmaCosts::default());
        let mut sim = Sim::new();
        let node = fabric.add_node();
        let _peer = fabric.add_node();
        let tenant = TenantId(1);
        let pool = mk_pool(1);
        let dne = Dne::new(fabric, node, DneConfig::nadino_dne()).unwrap();
        let mapped = doca_mmap_create_from_export(&doca_mmap_export_full(&pool).unwrap()).unwrap();
        dne.register_tenant(tenant, 1, &mapped).unwrap();
        let placement = Rc::new(RefCell::new(Placement::new()));
        placement.borrow_mut().place(1, node);
        placement.borrow_mut().place(2, node);
        placement.borrow_mut().place(9, rdma_sim::NodeId(1));
        let cpu = Rc::new(RefCell::new(Processor::new(ProcessorKind::HostCpu, 4)));
        let iolib = IoLib::new(node, dne, cpu, placement);
        iolib.register_tenant_pool(tenant, pool.clone());
        sim.run();
        Env {
            sim,
            iolib,
            pool,
            tenant,
        }
    }

    #[test]
    fn local_send_delivers_via_skmsg() {
        let mut env = setup();
        let got: Rc<RefCell<Vec<u16>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = got.clone();
        let pool = env.pool.clone();
        env.iolib.register_function(
            2,
            env.tenant,
            Rc::new(move |_sim, desc| {
                let _ = pool.redeem(desc).unwrap();
                sink.borrow_mut().push(desc.dst_fn);
            }),
        );
        let mut buf = env.pool.get().unwrap();
        buf.write_payload(b"intra-node").unwrap();
        let t0 = env.sim.now();
        env.iolib.send(&mut env.sim, env.tenant, buf.into_desc(2));
        env.sim.run();
        assert_eq!(*got.borrow(), vec![2]);
        let stats = env.iolib.stats();
        assert_eq!(stats.local_sends, 1);
        assert_eq!(stats.remote_sends, 0);
        // SK_MSG delivery is a couple of microseconds.
        let us = (env.sim.now() - t0).as_micros_f64();
        assert!(us > 1.0 && us < 10.0, "local delivery took {us}us");
    }

    #[test]
    fn cross_tenant_local_send_denied_and_recycled() {
        let mut env = setup();
        env.iolib
            .register_function(2, TenantId(7), Rc::new(|_, _| panic!("must not deliver")));
        let free_before = env.pool.stats().free;
        let buf = env.pool.get().unwrap();
        // Tenant 1 tries to reach fn 2, owned by tenant 7.
        env.iolib.send(&mut env.sim, env.tenant, buf.into_desc(2));
        env.sim.run();
        assert_eq!(env.iolib.stats().dropped, 1);
        assert_eq!(env.iolib.stats().local_sends, 0);
        assert_eq!(
            env.iolib.sidecar_counters(),
            (1, 1),
            "one check, one denial"
        );
        assert_eq!(env.pool.stats().free, free_before, "buffer recycled");
    }

    #[test]
    fn remote_send_goes_to_the_dne() {
        let mut env = setup();
        let buf = env.pool.get().unwrap();
        env.iolib.send(&mut env.sim, env.tenant, buf.into_desc(9));
        env.sim.run();
        assert_eq!(env.iolib.stats().remote_sends, 1);
    }

    #[test]
    fn unplaced_function_drops_and_recycles() {
        let mut env = setup();
        let free_before = env.pool.stats().free;
        let buf = env.pool.get().unwrap();
        env.iolib.send(&mut env.sim, env.tenant, buf.into_desc(42));
        env.sim.run();
        assert_eq!(env.iolib.stats().dropped, 1);
        assert_eq!(env.pool.stats().free, free_before);
    }

    #[test]
    fn local_send_traces_the_skmsg_stage() {
        let mut env = setup();
        let tracer = Tracer::enabled();
        env.iolib.set_tracer(tracer.clone());
        let pool = env.pool.clone();
        env.iolib.register_function(
            2,
            env.tenant,
            Rc::new(move |_sim, desc| {
                let _ = pool.redeem(desc).unwrap();
            }),
        );
        // The test plays ingress: stamp the sampled bit the gateway would
        // normally decide at admission.
        let mut payload = [0u8; obs::CTX_REGION];
        payload[..8].copy_from_slice(&77u64.to_le_bytes());
        obs::ctx::write_ctx(&mut payload, 0, true);
        let mut buf = env.pool.get().unwrap();
        buf.write_payload(&payload).unwrap();
        env.iolib.send(&mut env.sim, env.tenant, buf.into_desc(2));
        env.sim.run();
        assert_eq!(tracer.stages_of(77), vec![Stage::SkMsg]);
        let rec = &tracer.records()[0];
        assert_eq!(rec.tenant, env.tenant.0);
        assert!(rec.duration_ns() > 1_000, "SK_MSG leg spans the IPC hop");
    }

    /// Full two-node chain: client → f1(node0) → f2(node1) → f3(node0) → done.
    #[test]
    fn three_hop_chain_across_two_nodes_completes() {
        let fabric = Fabric::new(RdmaCosts::default());
        let mut sim = Sim::new();
        let n0 = fabric.add_node();
        let n1 = fabric.add_node();
        let tenant = TenantId(1);
        let pool0 = mk_pool(1);
        let pool1 = mk_pool(1);
        let dne0 = Dne::new(fabric.clone(), n0, DneConfig::nadino_dne()).unwrap();
        let dne1 = Dne::new(fabric, n1, DneConfig::nadino_dne()).unwrap();
        for (dne, pool) in [(&dne0, &pool0), (&dne1, &pool1)] {
            let mapped =
                doca_mmap_create_from_export(&doca_mmap_export_full(pool).unwrap()).unwrap();
            dne.register_tenant(tenant, 1, &mapped).unwrap();
        }
        Dne::connect_pair(&mut sim, &dne0, &dne1, tenant, 2).unwrap();

        let placement = Rc::new(RefCell::new(Placement::new()));
        placement.borrow_mut().place(1, n0);
        placement.borrow_mut().place(2, n1);
        placement.borrow_mut().place(3, n0);
        for dne in [&dne0, &dne1] {
            dne.set_route(1, n0);
            dne.set_route(2, n1);
            dne.set_route(3, n0);
        }

        let cpu0 = Rc::new(RefCell::new(Processor::new(ProcessorKind::HostCpu, 2)));
        let cpu1 = Rc::new(RefCell::new(Processor::new(ProcessorKind::HostCpu, 2)));
        let io0 = IoLib::new(n0, dne0, cpu0.clone(), placement.clone());
        let io1 = IoLib::new(n1, dne1, cpu1.clone(), placement.clone());
        io0.register_tenant_pool(tenant, pool0.clone());
        io1.register_tenant_pool(tenant, pool1.clone());

        let completions: Rc<RefCell<Vec<(u64, SimTime)>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = completions.clone();
        let on_complete: CompletionFn = Rc::new(move |sim, id| {
            sink.borrow_mut().push((id, sim.now()));
        });
        let chain = Rc::new(crate::ChainSpec::new("c", tenant, vec![1, 2, 3]));
        let exec = SimDuration::from_micros(20);
        for (f, io) in [(1, &io0), (2, &io1), (3, &io0)] {
            let spec = Spec::Chain(chain.clone());
            io.register_spec(f, spec, exec, on_complete.clone());
        }
        sim.run(); // connections up

        // Trace the request across both nodes' engines and IPC paths.
        let tracer = obs::Tracer::enabled();
        io0.set_tracer(tracer.clone());
        io1.set_tracer(tracer.clone());

        // Inject a request at f1 the way the ingress would: write the
        // payload into node 0's pool and deliver the descriptor.
        let start = sim.now();
        let mut buf = pool0.get().unwrap();
        let payload = write_request_payload(&mut buf, 77, 256).unwrap();
        // The test plays ingress: stamp the sampled bit the gateway would
        // normally decide at admission.
        obs::ctx::write_ctx(payload, 0, true);
        io0.send(&mut sim, tenant, buf.into_desc(1));
        sim.run();

        let done = completions.borrow();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, 77);
        let ms = (done[0].1 - start).as_micros_f64();
        // 3 exec steps (20us each) + 1 local + 2 remote hops.
        assert!(ms > 60.0 && ms < 200.0, "chain latency = {ms}us");
        // One intra-node hop (f3 is local to f1's node), two inter-node.
        assert_eq!(io0.stats().local_sends, 1);
        assert_eq!(io0.stats().remote_sends, 1);
        assert_eq!(io1.stats().remote_sends, 1);
        // Every buffer went home: only the 64 pre-posted receive buffers
        // (held by the RNIC receive queues) remain checked out.
        assert_eq!(pool0.stats().free, pool0.capacity() - 64);
        assert_eq!(pool1.stats().free, pool1.capacity() - 64);
        assert_eq!(pool0.stats().in_flight, 0);
        assert_eq!(pool1.stats().in_flight, 0);
        // The trace shows the whole pipeline: intra-node SK_MSG, three
        // function executions, and the inter-node RDMA stages.
        let stages = tracer.stages_of(77);
        for s in [
            Stage::SkMsg,
            Stage::FnExec,
            Stage::ComchSubmit,
            Stage::DwrrQueue,
            Stage::DneTx,
            Stage::ConnPick,
            Stage::Fabric,
            Stage::RxCompletion,
            Stage::RbrRecover,
            Stage::ComchDeliver,
        ] {
            assert!(stages.contains(&s), "missing stage {s:?} in {stages:?}");
        }
        let fn_execs = tracer
            .records()
            .iter()
            .filter(|r| r.stage == Stage::FnExec)
            .count();
        assert_eq!(fn_execs, 3, "one FnExec span per chain position");
    }

    #[test]
    fn forged_descriptor_is_refused() {
        let mut env = setup();
        let called = Rc::new(RefCell::new(0u32));
        let c = called.clone();
        env.iolib.register_spec(
            1,
            Spec::Chain(Rc::new(crate::ChainSpec::new("c", env.tenant, vec![1]))),
            SimDuration::from_micros(1),
            Rc::new(move |_, _| *c.borrow_mut() += 1),
        );
        let forged = BufferDesc {
            tenant: 1,
            pool_id: 0,
            buf_index: 3,
            len: 16,
            generation: 0,
            dst_fn: 1,
        };
        // Delivered the way SK_MSG or the DNE would hand it over.
        let deliver = Input::Deliver { desc: forged };
        env.iolib.inner.drive(&mut env.sim, deliver);
        env.sim.run();
        assert_eq!(*called.borrow(), 0, "forged descriptor must not execute");
        assert_eq!(env.pool.stats().failed_redeems, 1);
    }
}
