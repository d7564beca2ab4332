//! Quickstart: build a two-node NADINO cluster, deploy a three-hop
//! function chain and measure its end-to-end performance.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use membuf::tenant::TenantId;
use nadino::cluster::{Cluster, ClusterConfig};
use nadino::workload::ClosedLoop;
use runtime::ChainSpec;
use simcore::{Sim, SimDuration};

fn main() {
    // 1. A deterministic simulated testbed: two worker nodes, each with a
    //    BlueField-2-style DPU running the DNE on one wimpy ARM core.
    let mut sim = Sim::new();
    let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());

    // 2. Provision a tenant: per-node unified memory pools, cross-processor
    //    mmap export to the DPU, pre-established RC connections.
    let tenant = TenantId(1);
    cluster
        .add_tenant(&mut sim, tenant, 1)
        .expect("tenant provisioning");

    // 3. Deploy a chain: fn 1 (node 0) -> fn 2 (node 1) -> fn 1 again.
    //    Each function runs 20us of application logic per invocation.
    let chain = ChainSpec::new("quickstart", tenant, vec![1, 2, 1]);
    cluster.place(1, 0);
    cluster.place(2, 1);

    // 4. Drive it with 8 closed-loop clients for 100 ms of virtual time.
    let stop = sim.now() + SimDuration::from_millis(100);
    let driver = ClosedLoop::new(stop);
    cluster.register_chain(
        &chain,
        |_| SimDuration::from_micros(20),
        driver.completion(),
    );
    let cluster = std::rc::Rc::new(cluster);
    driver.start(&mut sim, &cluster, &chain, 8, 512);
    let t0 = sim.now();
    sim.run();
    let t1 = sim.now();

    // 5. Report.
    let lat = driver.latency();
    println!("quickstart: 3-hop chain across 2 nodes, 8 closed-loop clients");
    println!("  completed : {} requests", driver.completed());
    println!("  throughput: {:.0} RPS", driver.rps());
    println!(
        "  latency   : mean {:.1}us  p50 {:.1}us  p99 {:.1}us",
        lat.mean().as_micros_f64(),
        lat.percentile(50.0).as_micros_f64(),
        lat.percentile(99.0).as_micros_f64(),
    );
    println!(
        "  DPU cores : {:.2} busy (both DNEs)",
        cluster.engine_utilization(t0, t1)
    );
    println!(
        "  host cores: {:.2} busy (function execution)",
        cluster.host_utilization(t0, t1)
    );
    let stats = cluster.nodes[0].dne.stats();
    println!(
        "  node0 DNE : {} submitted, {} sent, {} delivered, {} drops",
        stats.submitted, stats.tx_posted, stats.rx_delivered, stats.drops
    );
    assert!(driver.completed() > 0, "the chain must make progress");
}
