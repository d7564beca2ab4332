//! Brownout: graceful degradation instead of collapse.
//!
//! A 3-node cluster behind the NADINO gateway with per-request deadlines
//! and adaptive per-tenant admission control. A bronze tenant ramps its
//! offered load well past its weight share while a gold tenant holds a
//! steady rate — then a node crashes mid-run. The control plane turns the
//! delivery failures into a failover onto the standby node and feeds the
//! lost capacity back into admission control, so the gateway sheds the
//! overload (503 + `Retry-After`, bronze first) instead of letting queues
//! and tail latencies grow without bound.
//!
//! ```sh
//! cargo run --example brownout
//! ```

use std::cell::Cell;
use std::rc::Rc;

use ingress::rss::FlowId;
use ingress::{AdmissionConfig, Gateway, GatewayConfig};
use membuf::tenant::TenantId;
use nadino::cluster::{Cluster, ClusterConfig};
use nadino::ControlPlane;
use rdma_sim::FaultPlane;
use runtime::ChainSpec;
use simcore::{Sim, SimDuration};

fn main() {
    let mut sim = Sim::new();
    let mut cluster = Cluster::new(
        &mut sim,
        ClusterConfig {
            workers: 3,
            ..ClusterConfig::default()
        },
    );
    let gold = TenantId(1);
    let bronze = TenantId(2);
    cluster.add_tenant(&mut sim, gold, 3).unwrap();
    cluster.add_tenant(&mut sim, bronze, 1).unwrap();
    // Both chains hop through node 1; node 2 is the standby for every hop.
    cluster.place_with_backup(1, 0, 2);
    cluster.place_with_backup(2, 1, 2);
    cluster.place_with_backup(3, 0, 2);
    cluster.place_with_backup(4, 1, 2);
    let cluster = Rc::new(cluster);

    // Both chains sit behind the cluster's front door: the gateway's reply
    // is held until the chain completes or fails typed.
    let gold_chain = ChainSpec::new("gold", gold, vec![1, 2, 1]);
    let bronze_chain = ChainSpec::new("bronze", bronze, vec![3, 4, 3]);
    let cost = |_| SimDuration::from_micros(5);
    let gold_up = cluster.serve_chain(&gold_chain, cost, 256);
    let bronze_up = cluster.serve_chain(&bronze_chain, cost, 256);

    // The crash: node 1 goes dark for 2ms a third of the way in.
    cluster.fabric.install_fault_plane(FaultPlane::new(0xB120));
    let t0 = sim.now();
    let crash_from = t0 + SimDuration::from_millis(10);
    cluster.fabric.schedule_node_outage(
        cluster.nodes[1].id,
        crash_from,
        crash_from + SimDuration::from_millis(2),
    );

    let gateway = Gateway::new(GatewayConfig {
        deadline: Some(SimDuration::from_millis(3)),
        admission: Some(AdmissionConfig {
            target: SimDuration::from_micros(300),
            interval: SimDuration::from_millis(1),
            retry_after_secs: 1,
        }),
        max_backlog: SimDuration::from_secs(10),
        ..GatewayConfig::default()
    });
    gateway.register_tenant(gold.0, 3);
    gateway.register_tenant(bronze.0, 1);
    let until = t0 + SimDuration::from_millis(45);
    let control = ControlPlane::start(&mut sim, &cluster, until, Some(&gateway));

    // 30ms of open-loop load in 50us ticks. Gold holds 1 request per tick;
    // bronze ramps from its fair share to a 4x flood and back.
    let resolved = Rc::new(Cell::new(0u64));
    let mut issued = 0u64;
    let mut flow = 0u32;
    for tick in 0..600u32 {
        let ms = tick as u64 * 50 / 1000;
        let bronze_rate = match ms {
            0..=9 => 1,
            10..=19 => 4,
            _ => 2,
        };
        for (tenant, rate, up) in [(gold.0, 1, &gold_up), (bronze.0, bronze_rate, &bronze_up)] {
            for _ in 0..rate {
                issued += 1;
                flow += 1;
                let resolved = resolved.clone();
                gateway.submit_tenant(
                    &mut sim,
                    tenant,
                    FlowId::from_client(flow, 0),
                    64,
                    up.clone(),
                    Box::new(move |_sim, _r| resolved.set(resolved.get() + 1)),
                );
            }
        }
        sim.run_for(SimDuration::from_micros(50));
    }
    sim.run();

    println!("brownout: 3-node cluster, node 1 crashes at 10ms for 2ms\n");
    println!("health transitions:");
    for e in control.health_events() {
        println!(
            "  {:>7.2}ms  node {}: {:?} -> {:?}",
            (e.at - t0).as_micros_f64() / 1000.0,
            e.node.0,
            e.from,
            e.to
        );
    }
    println!("\nper-tenant gateway accounting:");
    println!(
        "  {:<8} {:>9} {:>9} {:>7} {:>7} {:>7} {:>7}",
        "tenant", "accepted", "completed", "shed", "expired", "failed", "dropped"
    );
    for (t, name) in [(gold.0, "gold"), (bronze.0, "bronze")] {
        let s = gateway.tenant_stats(t);
        println!(
            "  {:<8} {:>9} {:>9} {:>7} {:>7} {:>7} {:>7}",
            name, s.accepted, s.completed, s.shed, s.expired, s.failed, s.dropped
        );
    }

    assert_eq!(resolved.get(), issued, "no request may hang");
    assert_eq!(cluster.pending_replies(), 0, "no reply may leak");
    let g = gateway.tenant_stats(gold.0);
    let b = gateway.tenant_stats(bronze.0);
    assert!(
        b.shed > g.shed,
        "bronze (flooding, weight 1) must shed before gold (weight 3)"
    );
    assert!(
        control
            .health_events()
            .iter()
            .any(|e| e.to == nadino::NodeState::Down),
        "the crash must drive node 1 Down"
    );
    assert!(
        control
            .health_events()
            .iter()
            .any(|e| e.from == nadino::NodeState::Draining && e.to == nadino::NodeState::Healthy),
        "node 1 must drain back to Healthy after the outage"
    );
    println!(
        "\nthe overload and the crash cost availability ({} sheds, {} failures), never liveness.",
        g.shed + b.shed,
        g.failed + b.failed
    );
}
