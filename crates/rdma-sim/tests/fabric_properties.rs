//! Randomized tests on the fabric: completion accounting and buffer
//! conservation under seeded-random interleavings of sends and receive
//! posts.

use membuf::pool::{BufferPool, PoolConfig};
use membuf::tenant::TenantId;
use rdma_sim::types::{CqeOpcode, CqeStatus};
use rdma_sim::{Fabric, RdmaCosts, WrId};
use simcore::{Sim, SimRng};

#[derive(Debug, Clone)]
enum Op {
    /// Post `n` receive buffers on the responder.
    PostRecv(u8),
    /// Post a send of `len` bytes.
    Send(u16),
}

fn random_op(rng: &mut SimRng) -> Op {
    if rng.chance(0.5) {
        Op::PostRecv(1 + rng.gen_range(3) as u8)
    } else {
        Op::Send(8 + rng.gen_range(1016) as u16)
    }
}

#[test]
fn every_send_completes_exactly_once() {
    let mut rng = SimRng::new(0xfab);
    for _ in 0..64 {
        let n = 1 + rng.gen_range(39) as usize;
        let ops: Vec<Op> = (0..n).map(|_| random_op(&mut rng)).collect();
        run_case(ops);
    }
}

fn run_case(ops: Vec<Op>) {
    let fabric = Fabric::new(RdmaCosts::default());
    let mut sim = Sim::new();
    let a = fabric.add_node();
    let b = fabric.add_node();
    let tenant = TenantId(1);
    let capacity = 128u32;
    let mk_pool = || {
        let mut cfg = PoolConfig::new(tenant, 0, 2048, capacity);
        cfg.segment_size = 128 * 1024;
        BufferPool::new(cfg).unwrap()
    };
    let pool_a = mk_pool();
    let pool_b = mk_pool();
    fabric.register_pool(a, pool_a.clone()).unwrap();
    fabric.register_pool(b, pool_b.clone()).unwrap();
    let cq_a = fabric.create_cq(a).unwrap();
    let cq_b = fabric.create_cq(b).unwrap();
    let rq_a = fabric.create_rq(a, tenant).unwrap();
    let rq_b = fabric.create_rq(b, tenant).unwrap();
    let (h, _) = fabric
        .connect(&mut sim, tenant, a, cq_a, rq_a, b, cq_b, rq_b)
        .unwrap();
    sim.run();

    let mut sends = 0u64;
    let mut recv_posts = 0u64;
    let mut wr = 0u64;
    for op in &ops {
        match op {
            Op::PostRecv(n) => {
                for _ in 0..*n {
                    if let Ok(buf) = pool_b.get() {
                        wr += 1;
                        fabric.post_recv(rq_b, WrId(wr), buf).unwrap();
                        recv_posts += 1;
                    }
                }
            }
            Op::Send(len) => {
                if let Ok(mut buf) = pool_a.get() {
                    buf.set_len(*len as usize).unwrap();
                    wr += 1;
                    fabric.post_send(&mut sim, h, WrId(wr), buf, 0).unwrap();
                    sends += 1;
                }
            }
        }
    }
    sim.run();

    // Exactly one sender-side CQE per posted send, success or RNR error.
    let tx: Vec<_> = fabric.poll_cq(cq_a, 4096);
    assert_eq!(tx.len() as u64, sends);
    let mut successes = 0u64;
    for cqe in &tx {
        assert_eq!(cqe.opcode, CqeOpcode::Send);
        assert!(cqe.buf.is_some(), "sender buffer always returns");
        match cqe.status {
            CqeStatus::Success => successes += 1,
            CqeStatus::RnrRetryExceeded => {}
            other => panic!("unexpected status {other:?}"),
        }
    }
    // Receiver completions match sender successes, and each carries data.
    let rx: Vec<_> = fabric.poll_cq(cq_b, 4096);
    assert_eq!(rx.len() as u64, successes);
    assert!(successes <= recv_posts);
    // Buffer conservation on both pools once completions are dropped.
    drop(tx);
    drop(rx);
    let sa = pool_a.stats();
    assert_eq!(sa.free, capacity, "sender pool fully recycled");
    let sb = pool_b.stats();
    // Receiver: unconsumed posted buffers still sit in the RQ (owned).
    assert_eq!(sb.free as u64, capacity as u64 - (recv_posts - successes));
    assert_eq!(sb.in_flight, 0);
}
