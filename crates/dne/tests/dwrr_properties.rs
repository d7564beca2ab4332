//! Randomized tests on the DWRR scheduler: long-run fairness proportional
//! to weights under seeded-random weight assignments and backlogs, and
//! strict FIFO order within each tenant.

use dne::sched::{DwrrScheduler, FcfsScheduler, TenantScheduler};
use membuf::tenant::TenantId;
use simcore::SimRng;

#[test]
fn shares_track_weights() {
    let mut rng = SimRng::new(0xd11);
    for _ in 0..64 {
        let n = 2 + rng.gen_range(4) as usize;
        let weights: Vec<u32> = (0..n).map(|_| 1 + rng.gen_range(11) as u32).collect();
        let quantum = rng.uniform(0.25, 4.0);
        let mut s = DwrrScheduler::new(quantum);
        for (i, &w) in weights.iter().enumerate() {
            s.register(TenantId(i as u16), w);
        }
        // Deep backlog for every tenant.
        let backlog = 4_000u32;
        for i in 0..weights.len() {
            for k in 0..backlog {
                s.enqueue(TenantId(i as u16), k);
            }
        }
        // Serve a window proportional to the weight sum, then check shares.
        let total_w: u32 = weights.iter().sum();
        let window = (total_w as usize) * 120;
        let mut counts = vec![0u32; weights.len()];
        for _ in 0..window {
            let (t, _) = s.dequeue().expect("deep backlog");
            counts[t.0 as usize] += 1;
        }
        for (i, &w) in weights.iter().enumerate() {
            let expect = window as f64 * w as f64 / total_w as f64;
            let got = counts[i] as f64;
            assert!(
                (got - expect).abs() / expect < 0.10,
                "tenant {i} (w={w}): got {got}, expected {expect} of {window}"
            );
        }
    }
}

#[test]
fn bursty_arrivals_converge_to_weight_share_with_bounded_deficit() {
    let mut rng = SimRng::new(0xb0b5);
    for _ in 0..24 {
        let n = 2 + rng.gen_range(3) as usize;
        let weights: Vec<u32> = (0..n).map(|_| 1 + rng.gen_range(7) as u32).collect();
        let quantum = rng.uniform(0.5, 2.0);
        let mut s = DwrrScheduler::new(quantum);
        for (i, &w) in weights.iter().enumerate() {
            s.register(TenantId(i as u16), w);
        }
        // Adversarial on/off arrivals: each tenant alternates silence with
        // bursts of up to 64 items, offered faster than the drain rate of
        // 8 items per tick so queues stay contended most of the time.
        let mut next_item = 0u32;
        let mut burst_left = vec![0u32; n];
        let mut contended = vec![0u64; n];
        let mut contended_total = 0u64;
        for _tick in 0..600 {
            for (t, left) in burst_left.iter_mut().enumerate() {
                if *left == 0 && rng.gen_range(100) < 20 {
                    *left = 1 + rng.gen_range(64) as u32;
                }
                if *left > 0 {
                    let k = (1 + rng.gen_range(16) as u32).min(*left);
                    *left -= k;
                    for _ in 0..k {
                        s.enqueue(TenantId(t as u16), next_item);
                        next_item += 1;
                    }
                }
            }
            for _ in 0..8 {
                let all_backlogged = (0..n).all(|t| s.tenant_backlog(TenantId(t as u16)) > 0);
                let Some((t, _)) = s.dequeue() else { break };
                if all_backlogged {
                    contended[t.0 as usize] += 1;
                    contended_total += 1;
                }
                // Bounded deficit: never more than one quantum grant above a
                // single unit of unspent service, for any tenant, at any time.
                for (i, &w) in weights.iter().enumerate() {
                    let d = s.deficit_of(TenantId(i as u16)).expect("registered");
                    assert!(
                        d <= w as f64 * quantum + 1.0 + 1e-9,
                        "tenant {i} (w={w}, q={quantum}): deficit {d} unbounded"
                    );
                }
            }
        }
        // During fully-contended service, shares must track weight shares.
        assert!(
            contended_total >= 500,
            "burst pattern too sparse to measure contention ({contended_total})"
        );
        let total_w: u32 = weights.iter().sum();
        for (i, &w) in weights.iter().enumerate() {
            let expect = contended_total as f64 * w as f64 / total_w as f64;
            let got = contended[i] as f64;
            assert!(
                (got - expect).abs() <= 0.15 * expect + 64.0,
                "tenant {i} (w={w}): got {got}, expected {expect} of {contended_total}"
            );
        }
    }
}

#[test]
fn per_tenant_fifo_order() {
    let mut rng = SimRng::new(0xd22);
    for _ in 0..64 {
        let n = 1 + rng.gen_range(299) as usize;
        let items: Vec<(u16, u32)> = (0..n)
            .map(|_| (rng.gen_range(4) as u16, rng.next_u64() as u32))
            .collect();
        let mut s = DwrrScheduler::new(1.0);
        let mut expected: Vec<Vec<u32>> = vec![Vec::new(); 4];
        for &(t, v) in &items {
            s.enqueue(TenantId(t), v);
            expected[t as usize].push(v);
        }
        let mut got: Vec<Vec<u32>> = vec![Vec::new(); 4];
        while let Some((t, v)) = s.dequeue() {
            got[t.0 as usize].push(v);
        }
        assert_eq!(got, expected, "items must stay FIFO within a tenant");
    }
}

#[test]
fn no_items_lost_or_invented() {
    let mut rng = SimRng::new(0xd33);
    for _ in 0..64 {
        let n = rng.gen_range(400) as usize;
        let items: Vec<(u16, u32)> = (0..n)
            .map(|_| (rng.gen_range(6) as u16, rng.next_u64() as u32))
            .collect();
        let mut dwrr = DwrrScheduler::new(1.0);
        let mut fcfs = FcfsScheduler::new();
        for &(t, v) in &items {
            dwrr.enqueue(TenantId(t), v);
            fcfs.enqueue(TenantId(t), v);
        }
        assert_eq!(dwrr.len(), items.len());
        let mut served = 0;
        while dwrr.dequeue().is_some() {
            served += 1;
        }
        assert_eq!(served, items.len());
        assert!(dwrr.is_empty());
        // FCFS preserves global arrival order.
        let order: Vec<(TenantId, u32)> = std::iter::from_fn(|| fcfs.dequeue()).collect();
        let expected: Vec<(TenantId, u32)> = items.iter().map(|&(t, v)| (TenantId(t), v)).collect();
        assert_eq!(order, expected);
    }
}
