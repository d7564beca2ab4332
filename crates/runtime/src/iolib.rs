//! The unified I/O library (§3.5).
//!
//! "The I/O library, once invoked by the user code, transparently
//! determines the intra-/inter-node data path": [`IoLib::send`] consults
//! the placement map; a local destination gets the descriptor over SK_MSG
//! (after the sidecar's access check), a remote destination is handed to
//! the DNE for two-sided RDMA. Host-side IPC costs are charged to the
//! node's host cores, so function density effects show up in utilization.

use std::cell::RefCell;
use std::rc::Rc;

use dne::engine::FnEndpoint;
use dne::types::{IpcCosts, IpcKind};
use dne::Dne;
use dpu_sim::soc::Processor;
use membuf::descriptor::BufferDesc;
use membuf::pool::BufferPool;
use membuf::tenant::TenantId;
use obs::{Stage, Tracer};
use rdma_sim::NodeId;
use simcore::{IdTable, Sim};

use crate::function::decode_request_id;
use crate::placement::Placement;
use crate::sidecar::{AccessDecision, Sidecar};

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

struct IoInner {
    node: NodeId,
    placement: Rc<RefCell<Placement>>,
    dne: Dne,
    cpu: Rc<RefCell<Processor>>,
    /// Indexed by function id.
    endpoints: IdTable<FnEndpoint>,
    /// Indexed by tenant id.
    pools: IdTable<BufferPool>,
    sidecar: Sidecar,
    skmsg: IpcCosts,
    dne_ipc: IpcCosts,
    stats: IoStats,
    tracer: Tracer,
}

impl IoInner {
    /// Request id and ingress sampling bit of the in-flight descriptor,
    /// read from the payload head in a single peek (only called when
    /// tracing is on; peeking costs a pool lookup).
    fn trace_meta_of_desc(&self, tenant: TenantId, desc: BufferDesc) -> (u64, bool) {
        let mut head = [0u8; obs::CTX_REGION];
        self.pools
            .get(tenant.0.into())
            .and_then(|p| p.peek_payload_into(desc, &mut head))
            .map(|n| {
                let head = &head[..n];
                (decode_request_id(head), obs::ctx::sampled(head))
            })
            .unwrap_or((0, false))
    }

    /// Records the `SkMsg` span of a local delivery (sampled requests on an
    /// enabled tracer only): from `now` until the descriptor lands, one
    /// SK_MSG latency after the host cores finish at `cpu_done`.
    fn span_skmsg(
        &self,
        tenant: TenantId,
        desc: BufferDesc,
        trace_meta: Option<(u64, bool)>,
        now: simcore::SimTime,
        cpu_done: simcore::SimTime,
    ) {
        if !self.tracer.is_enabled() {
            return;
        }
        let (req_id, sampled) = trace_meta.unwrap_or_else(|| self.trace_meta_of_desc(tenant, desc));
        if sampled {
            self.tracer.span(
                req_id,
                tenant.0,
                self.node.0 as u32,
                Stage::SkMsg,
                now,
                cpu_done + self.skmsg.one_way_latency,
            );
        }
    }
}

/// The per-node unified I/O library.
#[derive(Clone)]
pub struct IoLib {
    inner: Rc<RefCell<IoInner>>,
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
        let dne_ipc = dne.ipc_costs();
        IoLib {
            inner: Rc::new(RefCell::new(IoInner {
                node,
                placement,
                dne,
                cpu,
                endpoints: IdTable::new(),
                pools: IdTable::new(),
                sidecar: Sidecar::new(),
                skmsg: IpcCosts::for_kind(IpcKind::SkMsg),
                dne_ipc,
                stats: IoStats::default(),
                tracer: Tracer::disabled(),
            })),
        }
    }

    /// Returns the node this library serves.
    pub fn node(&self) -> NodeId {
        self.inner.borrow().node
    }

    /// The CTX wire version of this node's engine. Runtime stamp sites
    /// (fresh per-hop DAG payloads) write at this version so a node that
    /// has not been upgraded yet never stamps regions it does not own.
    pub fn wire_version(&self) -> u8 {
        self.inner.borrow().dne.wire_version()
    }

    /// Registers a tenant's local memory pool (needed to recycle buffers
    /// on drop paths).
    pub fn register_tenant_pool(&self, tenant: TenantId, pool: BufferPool) {
        self.inner.borrow_mut().pools.insert(tenant.0.into(), pool);
    }

    /// Registers a local function: wires its endpoint into both the local
    /// delivery map and the DNE (for descriptors arriving over RDMA), and
    /// records its tenant with the sidecar.
    pub fn register_function(&self, fn_id: u16, tenant: TenantId, endpoint: FnEndpoint) {
        let mut inner = self.inner.borrow_mut();
        inner.sidecar.assign(fn_id, tenant);
        inner.endpoints.insert(fn_id.into(), endpoint.clone());
        inner.dne.register_endpoint(fn_id, endpoint);
    }

    /// Unregisters every function, here and in the DNE. Endpoints hold
    /// this library (and through it the engine) while both hold the
    /// endpoints, so a node is only freed once its owner calls this.
    pub fn unregister_all(&self) {
        let (endpoints, dne) = {
            let mut inner = self.inner.borrow_mut();
            (std::mem::take(&mut inner.endpoints), inner.dne.clone())
        };
        drop(endpoints); // outside the borrow: may drop the last `IoLib` clones
        dne.clear_endpoints();
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
    /// buffer a moment ago (function endpoints, the ingress injector)
    /// already knows both; passing them here skips a validated pool peek
    /// — a table lookup plus one atomic load — on every traced local hop.
    /// With `None` the meta is peeked lazily, and only when tracing is on.
    pub fn send_traced(
        &self,
        sim: &mut Sim,
        tenant: TenantId,
        desc: BufferDesc,
        trace_meta: Option<(u64, bool)>,
    ) {
        enum Path {
            Local(FnEndpoint, simcore::SimTime, simcore::SimDuration),
            Remote(Dne),
            Drop,
        }
        let path = {
            let mut inner = self.inner.borrow_mut();
            let dst_node = inner.placement.borrow().node_of(desc.dst_fn);
            match dst_node {
                None => {
                    inner.stats.dropped += 1;
                    Path::Drop
                }
                Some(n) if n == inner.node => match inner.sidecar.check(tenant, desc.dst_fn) {
                    AccessDecision::Allow => match inner.endpoints.get(desc.dst_fn.into()).cloned()
                    {
                        Some(ep) => {
                            let service = inner.skmsg.host_service + Sidecar::CHECK_COST;
                            let cpu_done = inner.cpu.borrow_mut().run(sim.now(), service);
                            inner.stats.local_sends += 1;
                            inner.span_skmsg(tenant, desc, trace_meta, sim.now(), cpu_done);
                            Path::Local(ep, cpu_done, inner.skmsg.one_way_latency)
                        }
                        None => {
                            inner.stats.dropped += 1;
                            Path::Drop
                        }
                    },
                    AccessDecision::Deny => {
                        inner.stats.dropped += 1;
                        Path::Drop
                    }
                },
                Some(_) => {
                    // Remote: charge the host-side IPC cost, then hand off.
                    let service = inner.dne_ipc.host_service;
                    inner.cpu.borrow_mut().run(sim.now(), service);
                    inner.stats.remote_sends += 1;
                    Path::Remote(inner.dne.clone())
                }
            }
        };
        match path {
            Path::Local(ep, cpu_done, latency) => {
                sim.schedule_at(cpu_done + latency, move |sim| ep(sim, desc));
            }
            Path::Remote(dne) => dne.submit(sim, tenant, desc),
            Path::Drop => {
                // Recycle the in-flight buffer if we know the pool.
                let inner = self.inner.borrow();
                if let Some(pool) = inner.pools.get(tenant.0.into()) {
                    let _ = pool.redeem(desc); // dropped => returned to pool
                }
            }
        }
    }

    /// Reports a request cancelled at function dispatch because its
    /// deadline expired. The failure flows through the node's DNE failure
    /// handler, so upstream (gateway/health) sees function-level expiry
    /// through the same sink as transport failures.
    pub fn report_expired(&self, sim: &mut Sim, tenant: TenantId, dst_fn: u16, req_id: u64) {
        let (dne, node) = {
            let inner = self.inner.borrow();
            (inner.dne.clone(), inner.node)
        };
        dne.report_failure(
            sim,
            dne::types::DeliveryFailure {
                tenant,
                dst_fn,
                req_id,
                attempts: 0,
                reason: dne::types::FailureReason::DeadlineExceeded,
                dst_node: Some(node),
            },
        );
    }

    /// Returns a snapshot of the counters.
    pub fn stats(&self) -> IoStats {
        self.inner.borrow().stats
    }

    /// Returns `(checks, denials)` from the sidecar.
    pub fn sidecar_counters(&self) -> (u64, u64) {
        let inner = self.inner.borrow();
        (inner.sidecar.checks(), inner.sidecar.denials())
    }

    /// Installs a span tracer for intra-node SK_MSG deliveries and threads
    /// it into the node's DNE for the RDMA path.
    pub fn set_tracer(&self, tracer: Tracer) {
        let mut inner = self.inner.borrow_mut();
        inner.dne.set_tracer(tracer.clone());
        inner.tracer = tracer;
    }

    /// Returns a handle to the installed tracer (disabled by default).
    pub fn tracer(&self) -> Tracer {
        self.inner.borrow().tracer.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dne::types::DneConfig;
    use dpu_sim::mmap::{doca_mmap_create_from_export, doca_mmap_export_full};
    use dpu_sim::soc::ProcessorKind;
    use membuf::pool::PoolConfig;
    use rdma_sim::{Fabric, RdmaCosts};

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
}
