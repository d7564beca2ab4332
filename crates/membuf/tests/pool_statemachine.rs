//! Randomized state-machine test of the buffer pool's ownership
//! discipline: arbitrary interleavings of get/detach/redeem/put/stale-
//! redeem must never violate the conservation invariant or grant two
//! owners access to one buffer.
//!
//! Cases are driven by a seeded SplitMix64 stream, so every run explores
//! the same interleavings.

use membuf::descriptor::BufferDesc;
use membuf::pool::{BufferPool, OwnedBuf, PoolConfig, PoolError};
use membuf::tenant::TenantId;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        ((self.next() as u128 * bound as u128) >> 64) as u64
    }
}

#[derive(Debug, Clone)]
enum Op {
    Get,
    Put(usize),
    Detach(usize, u16),
    Redeem(usize),
    RedeemStale(usize),
    WriteRead(usize, u8),
}

fn random_op(rng: &mut Rng) -> Op {
    match rng.below(6) {
        0 => Op::Get,
        1 => Op::Put(rng.below(8) as usize),
        2 => Op::Detach(rng.below(8) as usize, rng.next() as u16),
        3 => Op::Redeem(rng.below(8) as usize),
        4 => Op::RedeemStale(rng.below(8) as usize),
        _ => Op::WriteRead(rng.below(8) as usize, rng.next() as u8),
    }
}

#[test]
fn ownership_state_machine_holds() {
    let mut rng = Rng(0x1009_57a7e);
    for case in 0..256 {
        let ops: Vec<Op> = {
            let n = 1 + rng.below(199) as usize;
            (0..n).map(|_| random_op(&mut rng)).collect()
        };
        run_case(case, ops);
    }
    // A shrunk case from an earlier randomized search: a spent descriptor
    // replayed after puts and detaches of the buffers around it.
    use Op::*;
    run_case(
        256,
        vec![
            Get,
            Get,
            Get,
            Get,
            Detach(0, 0),
            Detach(0, 0),
            Get,
            Get,
            Redeem(0),
            Detach(1, 0),
            Put(0),
            Detach(7, 0),
            RedeemStale(0),
        ],
    );
}

fn run_case(case: u64, ops: Vec<Op>) {
    let capacity = 16u32;
    let mut cfg = PoolConfig::new(TenantId(1), 0, 256, capacity);
    cfg.segment_size = 8192;
    let pool = BufferPool::new(cfg).unwrap();
    let mut owned: Vec<OwnedBuf> = Vec::new();
    let mut in_flight: Vec<BufferDesc> = Vec::new();
    // Spent descriptors stay here for the rest of the case, so later ops
    // replay them after their buffer was put, re-got and re-detached.
    let mut stale: Vec<BufferDesc> = Vec::new();
    // The model's own ledger of what the pool's counters must say.
    let (mut gets, mut puts, mut detaches, mut redeems) = (0u64, 0u64, 0u64, 0u64);
    let (mut failed_gets, mut failed_redeems) = (0u64, 0u64);

    for op in ops {
        match op {
            Op::Get => match pool.get() {
                Ok(b) => {
                    gets += 1;
                    owned.push(b);
                }
                Err(e) => {
                    failed_gets += 1;
                    assert_eq!(e, PoolError::Exhausted, "case {case}");
                    assert_eq!(owned.len() + in_flight.len(), capacity as usize);
                }
            },
            Op::Put(i) if !owned.is_empty() => {
                let b = owned.swap_remove(i % owned.len());
                pool.put(b);
                puts += 1;
            }
            Op::Detach(i, dst) if !owned.is_empty() => {
                let b = owned.swap_remove(i % owned.len());
                in_flight.push(b.into_desc(dst));
                detaches += 1;
            }
            Op::Redeem(i) if !in_flight.is_empty() => {
                let d = in_flight.swap_remove(i % in_flight.len());
                let b = pool.redeem(d).expect("live descriptor must redeem");
                redeems += 1;
                // Redeeming again with the same descriptor must fail.
                assert_eq!(
                    pool.redeem(d).unwrap_err(),
                    PoolError::NotInFlight,
                    "case {case}"
                );
                failed_redeems += 1;
                stale.push(d);
                owned.push(b);
            }
            Op::RedeemStale(i) if !stale.is_empty() => {
                let d = stale[i % stale.len()];
                let e = pool
                    .redeem(d)
                    .expect_err("stale descriptor must not redeem");
                failed_redeems += 1;
                // Back in flight under a newer generation, or not in flight.
                let redetached = in_flight.iter().any(|f| f.buf_index == d.buf_index);
                let want = if redetached {
                    PoolError::StaleGeneration
                } else {
                    PoolError::NotInFlight
                };
                assert_eq!(e, want, "case {case}");
            }
            Op::WriteRead(i, v) if !owned.is_empty() => {
                let idx = i % owned.len();
                owned[idx].write_payload(&[v; 64]).unwrap();
                assert!(owned[idx].as_slice().iter().all(|&x| x == v), "case {case}");
            }
            _ => {}
        }
        // Conservation: every buffer is in exactly one state.
        let s = pool.stats();
        assert_eq!(
            s.free + s.owned + s.in_flight,
            capacity,
            "case {case}: conservation violated: {s:?}"
        );
        assert_eq!(s.owned as usize, owned.len(), "case {case}");
        assert_eq!(s.in_flight as usize, in_flight.len(), "case {case}");
        // The counters agree with the model, hence with each other:
        // `gets - puts == owned + in_flight`, `detaches - redeems == in_flight`.
        assert_eq!(
            (s.gets, s.puts, s.detaches, s.redeems),
            (gets, puts, detaches, redeems),
            "case {case}: {s:?}"
        );
        assert_eq!(s.gets - s.puts, (s.owned + s.in_flight) as u64);
        assert_eq!(s.detaches - s.redeems, s.in_flight as u64);
        assert_eq!(
            (s.failed_gets, s.failed_redeems),
            (failed_gets, failed_redeems),
            "case {case}"
        );
    }
    // Drain: everything returns to free.
    owned.clear();
    for d in in_flight.drain(..) {
        drop(pool.redeem(d).unwrap());
    }
    assert_eq!(pool.stats().free, capacity, "case {case}");
}
