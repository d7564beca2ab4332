//! Differential suite for the one parallel path this repo has: independent
//! cells, each a fresh `Sim`, run side by side through
//! [`nadino::experiment::parallel::pmap`] (DESIGN.md §2.2, "One simulation,
//! one thread").
//!
//! Every cell builds the full-fidelity [`Cluster`] *inside* a `pmap` worker
//! — fig06's echo chain, a `register_dag` fan-out, and both again through a
//! seeded fault plane with a node outage — and hands back one [`Digest`].
//! What a cell computes must not depend on which thread built it, how many
//! siblings ran beside it, or the order they finished in: the digests at 2
//! and 4 threads must equal the ones computed inline, at every seed of the
//! matrix ([`SEEDS`]).

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use dne::DeliveryFailure;
use ingress::{Gateway, GatewayConfig};
use membuf::pool::PoolStats;
use membuf::tenant::TenantId;
use nadino::cluster::{Cluster, ClusterConfig};
use nadino::experiment::parallel::pmap;
use nadino::workload::ClosedLoop;
use rdma_sim::FaultPlane;
use runtime::{ChainSpec, DagSpec};
use simcore::rng::SEEDS;
use simcore::{Histogram, Sim, SimDuration, SimRng};

const TENANT: TenantId = TenantId(1);
/// Cells per `pmap` call, seeded `seed, seed + 1, ...`: as many as the
/// widest pool, so at 4 threads every cell has a thread of its own.
const CELLS: u64 = 4;
/// Pool widths compared against the inline (`threads = 1`) run.
const THREADS: [usize; 2] = [2, 4];
const CLIENTS: usize = 8;

/// Everything a finished cell reports; plain data, so it crosses back from
/// the worker thread that the cluster itself can never leave.
#[derive(Debug, PartialEq, Eq)]
struct Digest {
    completed: u64,
    /// Typed delivery failures, in the order the engines reported them.
    failed: Vec<DeliveryFailure>,
    /// Send retries summed over the nodes' engines.
    retries: u64,
    /// `Debug` of the latency histogram: every bucket, the sum, min and max.
    latency: String,
    /// Per `(tenant, node)` pool, in that order.
    pools: Vec<PoolStats>,
    pending_replies: usize,
}

/// A two-node cluster with the tenant provisioned and a sink collecting
/// every typed failure.
fn cluster_with_failure_log(sim: &mut Sim) -> (Cluster, Rc<RefCell<Vec<DeliveryFailure>>>) {
    let mut cluster = Cluster::new(sim, ClusterConfig::default());
    cluster.add_tenant(sim, TENANT, 1).unwrap();
    let failed = Rc::new(RefCell::new(Vec::new()));
    let log = failed.clone();
    cluster.set_delivery_failure_handler(Rc::new(move |_sim, f| log.borrow_mut().push(f)));
    (cluster, failed)
}

/// Per-function execution costs of 1–8 us drawn from the cell's seed, so
/// the seed steers the trajectory even where no fault plane is installed.
fn exec_costs(seed: u64) -> impl Fn(u16) -> SimDuration {
    let mut rng = SimRng::new(seed);
    let costs: Vec<SimDuration> = (0..8)
        .map(|_| SimDuration::from_nanos(1_000 + rng.gen_range(7_000)))
        .collect();
    move |f| costs[f as usize % costs.len()]
}

/// The chain every echo cell runs: fig06's 1→2→1 across the two nodes.
fn echo_chain(cluster: &Cluster) -> ChainSpec {
    cluster.place(1, 0);
    cluster.place(2, 1);
    ChainSpec::new("echo", TENANT, vec![1, 2, 1])
}

/// The fan-out every DAG cell runs: 1 calls {2, 3, 4, 5}, three of them
/// across the wire.
fn fan_out(cluster: &Cluster) -> DagSpec {
    for (f, node) in [(1, 0), (2, 1), (3, 1), (4, 0), (5, 1)] {
        cluster.place(f, node);
    }
    DagSpec::new("fanout", TENANT, 1, &[(1, &[2, 3, 4, 5][..])])
}

/// Wire loss and corruption rolled from the cell's seed plus a 1 ms outage
/// of node 1 starting 500 us from now, installed after provisioning so
/// setup is never hit.
fn install_faults(sim: &Sim, cluster: &Cluster, seed: u64) {
    let mut plane = FaultPlane::new(seed);
    plane.set_default_loss(0.02);
    plane.set_default_corruption(0.01);
    cluster.fabric.install_fault_plane(plane);
    let from = sim.now() + SimDuration::from_micros(500);
    let until = from + SimDuration::from_millis(1);
    cluster
        .fabric
        .schedule_node_outage(cluster.nodes[1].id, from, until);
}

fn digest(
    cluster: &Cluster,
    completed: u64,
    latency: &Histogram,
    failed: &RefCell<Vec<DeliveryFailure>>,
) -> Digest {
    Digest {
        completed,
        failed: failed.borrow().clone(),
        retries: cluster.nodes.iter().map(|n| n.dne.stats().retries).sum(),
        latency: format!("{latency:?}"),
        pools: cluster
            .pools_snapshot()
            .iter()
            .map(|(_, _, pool)| pool.stats())
            .collect(),
        pending_replies: cluster.pending_replies(),
    }
}

/// fig06's cell: the echo chain, closed loop.
fn echo_cell(seed: u64) -> Digest {
    let mut sim = Sim::new();
    let (cluster, failed) = cluster_with_failure_log(&mut sim);
    let chain = echo_chain(&cluster);
    let driver = ClosedLoop::new(sim.now() + SimDuration::from_millis(2));
    cluster.register_chain(&chain, exec_costs(seed), driver.completion());
    let cluster = Rc::new(cluster);
    driver.start(&mut sim, &cluster, &chain, CLIENTS, 1024);
    sim.run();
    digest(&cluster, driver.completed(), &driver.latency(), &failed)
}

/// fig16's dataflow: the fan-out/fan-in DAG, closed loop.
fn dag_cell(seed: u64) -> Digest {
    let mut sim = Sim::new();
    let (cluster, failed) = cluster_with_failure_log(&mut sim);
    let dag = fan_out(&cluster);
    let driver = ClosedLoop::new(sim.now() + SimDuration::from_millis(2));
    cluster.register_dag(&dag, exec_costs(seed), driver.completion());
    let cluster = Rc::new(cluster);
    // Weakly: the cluster's endpoints own the driver's completion.
    let door = Rc::downgrade(&cluster);
    driver.set_issuer(Rc::new(move |sim, req| {
        let cluster = door.upgrade().expect("the cluster outlives its run");
        assert!(cluster.inject_dag(sim, &dag, req), "request {req} refused");
    }));
    for _ in 0..CLIENTS {
        driver.issue_one(&mut sim);
    }
    sim.run();
    digest(&cluster, driver.completed(), &driver.latency(), &failed)
}

/// The echo chain behind the gateway and the cluster's front door, through
/// wire loss and the outage: flows reissue whether a request is answered
/// `Ok` or failed typed.
fn outage_echo_cell(seed: u64) -> Digest {
    let mut sim = Sim::new();
    let (cluster, failed) = cluster_with_failure_log(&mut sim);
    let chain = echo_chain(&cluster);
    let cluster = Rc::new(cluster);
    let upstream = cluster.serve_chain(&chain, exec_costs(seed), 1024);
    install_faults(&sim, &cluster, seed);
    let gateway = Gateway::new(GatewayConfig::default());
    let driver = ClosedLoop::new(sim.now() + SimDuration::from_millis(3));
    driver.start_gateway(&mut sim, &gateway, TENANT.0, &upstream, CLIENTS, 64);
    sim.run();
    digest(&cluster, driver.completed(), &driver.latency(), &failed)
}

/// The fan-out through wire loss and the outage, open loop: one request
/// every 10 us, so the outage catches a batch of them mid-flight. Checks in
/// place that no request vanished and no buffer leaked.
fn outage_dag_cell(seed: u64) -> Digest {
    const REQUESTS: u64 = 300;
    let gap = SimDuration::from_micros(10);
    let mut sim = Sim::new();
    let (cluster, failed) = cluster_with_failure_log(&mut sim);
    let dag = fan_out(&cluster);
    let t0 = sim.now();
    // Completed ids, and their latency from the scheduled injection instant.
    let done: Rc<RefCell<(BTreeSet<u64>, Histogram)>> = Rc::default();
    let sink = done.clone();
    cluster.register_dag(
        &dag,
        exec_costs(seed),
        Rc::new(move |sim, req| {
            let (completed, latency) = &mut *sink.borrow_mut();
            assert!(completed.insert(req), "request {req} completed twice");
            latency.record(sim.now().saturating_since(t0 + gap * req));
        }),
    );
    let free_after_setup: Vec<u32> = cluster
        .pools_snapshot()
        .iter()
        .map(|(_, _, pool)| pool.stats().free)
        .collect();
    install_faults(&sim, &cluster, seed);
    for req in 0..REQUESTS {
        assert!(
            cluster.inject_dag(&mut sim, &dag, req),
            "request {req} refused"
        );
        sim.run_for(gap);
    }
    sim.run();

    let (completed, latency) = &*done.borrow();
    let out = digest(&cluster, completed.len() as u64, latency, &failed);
    let reported: BTreeSet<u64> = out.failed.iter().map(|f| f.req_id).collect();
    for req in 0..REQUESTS {
        assert!(
            completed.contains(&req) || reported.contains(&req),
            "request {req} neither completed nor failed typed (seed {seed:#x})"
        );
    }
    assert!(
        completed.is_disjoint(&reported),
        "completed and failed: {:?} (seed {seed:#x})",
        completed.intersection(&reported).collect::<Vec<_>>()
    );
    let free_at_end: Vec<u32> = out.pools.iter().map(|p| p.free).collect();
    assert_eq!(
        free_at_end, free_after_setup,
        "buffers leaked (seed {seed:#x})"
    );
    out
}

/// At every seed of the matrix: runs `CELLS` cells inline and again at every
/// pool width and compares the digests. Returns the inline ones of all seeds.
fn identical_across_thread_counts(label: &str, cell: fn(u64) -> Digest) -> Vec<Digest> {
    let mut digests = Vec::new();
    for seed in SEEDS {
        let run = |threads: usize| {
            let cells = (0..CELLS).map(|i| move || cell(seed.wrapping_add(i)));
            pmap(cells.collect(), threads)
        };
        let inline = run(1);
        for threads in THREADS {
            assert_eq!(
                run(threads),
                inline,
                "{label}: {threads} threads diverged from inline (seed {seed:#x})"
            );
        }
        digests.extend(inline);
    }
    digests
}

#[test]
fn fig06_echo_cells_are_identical_across_thread_counts() {
    let cells = identical_across_thread_counts("echo", echo_cell);
    for d in &cells {
        assert!(d.completed > 0, "the workload must make progress");
        assert!(d.failed.is_empty(), "no fault plane, no failures: {d:?}");
    }
}

#[test]
fn dag_fan_out_cells_are_identical_across_thread_counts() {
    let cells = identical_across_thread_counts("dag", dag_cell);
    for d in &cells {
        assert!(d.completed > 0, "the workload must make progress");
        assert!(d.failed.is_empty(), "no fault plane, no failures: {d:?}");
    }
}

#[test]
fn echo_cells_through_an_outage_are_identical_across_thread_counts() {
    let cells = identical_across_thread_counts("outage echo", outage_echo_cell);
    for d in &cells {
        assert!(d.completed > 0, "the workload must make progress");
        assert!(d.retries > 0, "the engines must retry through the faults");
        assert!(
            !d.failed.is_empty(),
            "the outage must exhaust retry budgets"
        );
        assert_eq!(d.pending_replies, 0, "a gateway reply was never answered");
    }
}

#[test]
fn dag_cells_through_an_outage_account_for_every_request_and_buffer() {
    let cells = identical_across_thread_counts("outage dag", outage_dag_cell);
    for d in &cells {
        assert!(d.completed > 0, "requests outside the outage complete");
        assert!(!d.failed.is_empty(), "the outage must fail some requests");
    }
}

#[test]
fn digests_differ_across_seeds() {
    // The identity assertions above mean something only if the seed steers
    // the trajectory, with and without a fault plane.
    assert_ne!(echo_cell(1), echo_cell(2));
    assert_ne!(outage_echo_cell(1), outage_echo_cell(2));
}
