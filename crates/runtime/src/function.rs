//! Simulated function containers.
//!
//! A [`ChainFunction`] is a function of a chain: it redeems the incoming
//! descriptor, runs its application logic on the node's host cores for a
//! configured service time, and either forwards the (still zero-copy)
//! buffer to the next hop through the I/O library or completes the
//! request.
//!
//! Request identity travels *inside* the payload — the first eight bytes
//! are a little-endian request id — so end-to-end latency can be measured
//! without any side channel, exactly as a real header field would be.

use std::cell::RefCell;
use std::rc::Rc;

use dne::engine::FnEndpoint;
use dpu_sim::soc::Processor;
use membuf::pool::BufferPool;
use obs::Stage;
use simcore::{Sim, SimDuration, SimTime};

use crate::iolib::IoLib;

/// Returns `true` when the payload carries a deadline that has already
/// passed at `now` — the function-dispatch cancellation point.
pub fn deadline_expired(payload: &[u8], now: SimTime) -> bool {
    deadline_expired_ns(obs::read_deadline_ns(payload).unwrap_or(0), now)
}

/// Returns `true` when a raw on-wire deadline value (0 = none) has passed.
pub fn deadline_expired_ns(deadline_ns: u64, now: SimTime) -> bool {
    deadline_ns != 0 && now >= SimTime::from_nanos(deadline_ns)
}

/// Completion callback: `(sim, request id)`.
pub type CompletionFn = Rc<dyn Fn(&mut Sim, u64)>;

/// Encodes a request payload: 8-byte request id followed by padding up to
/// `total_len` (minimum 8 bytes).
pub fn encode_request_payload(req_id: u64, total_len: usize) -> Vec<u8> {
    let len = total_len.max(8);
    let mut payload = vec![0u8; len];
    payload[..8].copy_from_slice(&req_id.to_le_bytes());
    payload
}

/// Decodes the request id from a payload (zero if too short).
pub fn decode_request_id(payload: &[u8]) -> u64 {
    obs::ctx::req_id(payload).unwrap_or(0)
}

/// Writes the chain hop index into a payload (bytes 8..10).
///
/// # Panics
///
/// Panics if the payload is shorter than 10 bytes.
pub fn set_hop(payload: &mut [u8], hop: u16) {
    payload[8..10].copy_from_slice(&hop.to_le_bytes());
}

/// Reads the chain hop index from a payload (zero if too short).
pub fn decode_hop(payload: &[u8]) -> u16 {
    if payload.len() < 10 {
        return 0;
    }
    u16::from_le_bytes(payload[8..10].try_into().expect("checked length"))
}

/// Builder for *chain-aware* function endpoints.
///
/// A chain-aware function reads the current hop index out of the payload
/// — so a function that appears at several positions of a chain (the
/// Online Boutique frontend re-enters between downstream calls) routes
/// correctly from a single registration.
pub struct ChainFunction;

impl ChainFunction {
    /// Creates a chain-aware endpoint for one function of `chain`.
    ///
    /// On each descriptor: redeem from `pool` (a stale or forged
    /// descriptor is refused silently; the pool counts the failed redeem),
    /// run `exec_cost` on `cpu`, bump the payload's hop index and forward
    /// to the next hop — or recycle the buffer and complete the request
    /// when this was the final hop. A request whose deadline has passed is
    /// recycled before it burns CPU and surfaces as a typed expiry.
    pub fn endpoint(
        chain: Rc<crate::chain::ChainSpec>,
        exec_cost: SimDuration,
        pool: BufferPool,
        cpu: Rc<RefCell<Processor>>,
        iolib: IoLib,
        on_complete: CompletionFn,
    ) -> FnEndpoint {
        let tenant = chain.tenant;
        Rc::new(move |sim: &mut Sim, desc| {
            let Ok(mut buf) = pool.redeem(desc) else {
                return;
            };
            if deadline_expired(buf.as_slice(), sim.now()) {
                let req_id = decode_request_id(buf.as_slice());
                drop(buf);
                iolib.report_expired(sim, tenant, desc.dst_fn, req_id);
                return;
            }
            let done = cpu.borrow_mut().run(sim.now(), exec_cost);
            let tracer = iolib.tracer();
            let sampled = tracer.is_enabled() && obs::ctx::sampled(buf.as_slice());
            if sampled {
                tracer.span(
                    decode_request_id(buf.as_slice()),
                    tenant.0,
                    iolib.node().0 as u32,
                    Stage::FnExec,
                    sim.now(),
                    done,
                );
            }
            let chain = chain.clone();
            let iolib = iolib.clone();
            let on_complete = on_complete.clone();
            let hop = decode_hop(buf.as_slice()) as usize;
            sim.schedule_at(done, move |sim| {
                let next = hop + 1;
                if next < chain.hops.len() {
                    set_hop(buf.as_mut_slice(), next as u16);
                    let dst = chain.hops[next];
                    // Forward the trace identity we just read so a local
                    // hop's SkMsg span needs no pool peek.
                    let meta = (decode_request_id(buf.as_slice()), sampled);
                    iolib.send_traced(sim, tenant, buf.into_desc(dst), Some(meta));
                } else {
                    let req_id = decode_request_id(buf.as_slice());
                    drop(buf);
                    on_complete(sim, req_id);
                }
            });
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::Placement;
    use dne::types::DneConfig;
    use dne::Dne;
    use dpu_sim::mmap::{doca_mmap_create_from_export, doca_mmap_export_full};
    use dpu_sim::soc::ProcessorKind;
    use membuf::pool::PoolConfig;
    use membuf::tenant::TenantId;
    use rdma_sim::{Fabric, NodeId, RdmaCosts};
    use simcore::SimTime;

    #[test]
    fn payload_roundtrip() {
        let p = encode_request_payload(0xdead_beef_1234, 64);
        assert_eq!(p.len(), 64);
        assert_eq!(decode_request_id(&p), 0xdead_beef_1234);
        assert_eq!(decode_request_id(&[1, 2, 3]), 0, "short payload");
        assert_eq!(encode_request_payload(1, 0).len(), 8, "minimum length");
    }

    fn mk_pool(tenant: u16) -> BufferPool {
        let mut cfg = PoolConfig::new(TenantId(tenant), 0, 4096, 128);
        cfg.segment_size = 128 * 1024;
        BufferPool::new(cfg).unwrap()
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
        for (f, io, pool, cpu) in [
            (1, &io0, &pool0, &cpu0),
            (2, &io1, &pool1, &cpu1),
            (3, &io0, &pool0, &cpu0),
        ] {
            let ep = ChainFunction::endpoint(
                chain.clone(),
                exec,
                pool.clone(),
                cpu.clone(),
                io.clone(),
                on_complete.clone(),
            );
            io.register_function(f, tenant, ep);
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
        let mut payload = encode_request_payload(77, 256);
        // The test plays ingress: stamp the sampled bit the gateway would
        // normally decide at admission.
        obs::ctx::write_ctx(&mut payload, 0, true);
        buf.write_payload(&payload).unwrap();
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
        use membuf::descriptor::BufferDesc;
        let pool = mk_pool(1);
        let cpu = Rc::new(RefCell::new(Processor::new(ProcessorKind::HostCpu, 1)));
        let fabric = Fabric::new(RdmaCosts::default());
        let node = fabric.add_node();
        let dne = Dne::new(fabric, node, DneConfig::nadino_dne()).unwrap();
        let placement = Rc::new(RefCell::new(Placement::new()));
        let iolib = IoLib::new(NodeId(0), dne, cpu.clone(), placement);
        let called = Rc::new(RefCell::new(0u32));
        let c = called.clone();
        let ep = ChainFunction::endpoint(
            Rc::new(crate::ChainSpec::new("c", TenantId(1), vec![1])),
            SimDuration::from_micros(1),
            pool.clone(),
            cpu,
            iolib,
            Rc::new(move |_, _| *c.borrow_mut() += 1),
        );
        let mut sim = Sim::new();
        let forged = BufferDesc {
            tenant: 1,
            pool_id: 0,
            buf_index: 3,
            len: 16,
            generation: 0,
            dst_fn: 1,
        };
        ep(&mut sim, forged);
        sim.run();
        assert_eq!(*called.borrow(), 0, "forged descriptor must not execute");
        assert_eq!(pool.stats().failed_redeems, 1);
    }
}
