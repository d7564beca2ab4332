//! End-to-end observability: trace Online Boutique requests through every
//! pipeline stage and sample per-tenant engine metrics while they run.
//!
//! Two tenants share a two-node cluster: tenant 1 (weight 3) serves the
//! Home Query chain, tenant 2 (weight 1) serves ads. A cluster-wide
//! [`obs::Tracer`] records each request's stage intervals — gateway-free
//! here, so the spans run SK_MSG/Comch submit → DWRR queue → DNE TX →
//! connection pick → fabric flight → RX completion → RBR recovery → Comch
//! delivery → function execution — and the cluster's sampler publishes
//! the per-tenant levels (TX queue depth, DWRR deficit, shadow-QP hit
//! rate) as `(node, tenant)`-labelled gauges, one rollup window per tick.
//! Running totals are read from the engines' own counters after the run.
//!
//! Outputs:
//!   results/observability_trace.json    Perfetto / chrome://tracing JSON
//!   results/observability_metrics.json  metrics snapshot (JSON twin)
//!   results/flight_recorder.json        flight-recorder dump (chaos run)
//!
//! ```sh
//! cargo run --release --example observability
//! ```

use std::rc::Rc;

use membuf::tenant::TenantId;
use nadino::boutique;
use nadino::cluster::{Cluster, ClusterConfig};
use nadino::report::render_stage_breakdown;
use nadino::workload::ClosedLoop;
use obs::{chrome_trace, MetricsRegistry, ToJson, Tracer};
use runtime::ChainSpec;
use simcore::{Sim, SimDuration};

fn main() {
    let mut sim = Sim::new();
    let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
    let t1 = TenantId(1);
    let t2 = TenantId(2);
    cluster.add_tenant(&mut sim, t1, 3).expect("tenant 1");
    cluster.add_tenant(&mut sim, t2, 1).expect("tenant 2");

    // Tenant 1 runs Home Query on the paper's hotspot placement; tenant 2
    // runs Serve Ads on its own function instances (ids offset by 100),
    // co-placed with the originals.
    let home = boutique::home_query(t1);
    for f in home.functions() {
        cluster.place(f, boutique::hotspot_placement(f));
    }
    let ads_base = boutique::serve_ads(t2);
    let ads = ChainSpec::new(
        &ads_base.name,
        t2,
        ads_base.hops.iter().map(|&f| f + 100).collect(),
    );
    for f in ads_base.functions() {
        cluster.place(f + 100, boutique::hotspot_placement(f));
    }

    // Cluster-wide tracing: one tracer sees a request's spans on both
    // nodes' engines, I/O libraries, and function containers.
    let tracer = Tracer::enabled();
    cluster.set_tracer(&tracer);

    let t0 = sim.now();
    let stop = t0 + SimDuration::from_millis(50);
    let home_driver = ClosedLoop::new(stop);
    cluster.register_chain(&home, boutique::exec_cost, home_driver.completion());
    let ads_driver = ClosedLoop::new(stop);
    cluster.register_chain(
        &ads,
        |f| boutique::exec_cost(f - 100),
        ads_driver.completion(),
    );
    let cluster = Rc::new(cluster);
    home_driver.start(&mut sim, &cluster, &home, 8, 256);
    ads_driver.start(&mut sim, &cluster, &ads, 4, 256);

    // The one sampler: levels into the registry every virtual millisecond,
    // one aggregation window closed per tick.
    let reg = Rc::new(MetricsRegistry::new());
    let windows =
        cluster.start_obs_sampler(&mut sim, Rc::clone(&reg), SimDuration::from_millis(1), stop);
    sim.run();

    println!(
        "completed {} Home Query + {} Serve Ads requests in 50 virtual ms\n",
        home_driver.completed(),
        ads_driver.completed()
    );

    // 1. Perfetto trace: load results/observability_trace.json in
    //    https://ui.perfetto.dev or chrome://tracing.
    let records = tracer.records();
    let trace_path = std::path::Path::new("results/observability_trace.json");
    std::fs::create_dir_all("results").expect("mkdir results");
    std::fs::write(trace_path, chrome_trace(&records).to_string_pretty()).expect("write trace");
    println!(
        "wrote {} ({} spans, {} dropped)",
        trace_path.display(),
        records.len(),
        tracer.dropped()
    );

    // 2. Metrics snapshot: plain text here, JSON twin on disk.
    let snap = reg.snapshot();
    let metrics_path = std::path::Path::new("results/observability_metrics.json");
    std::fs::write(metrics_path, snap.to_json().to_string_pretty()).expect("write metrics");
    println!("wrote {}\n", metrics_path.display());

    // 3. Top-3 slowest pipeline stages by total attributed time.
    let totals = tracer.stage_totals();
    println!("top-3 slowest stages (by total time across all requests):");
    for t in totals.iter().take(3) {
        println!(
            "  {:14} {:>7} spans  total {:>8.1}ms  mean {:>7.2}us",
            t.stage.name(),
            t.spans,
            t.total_ns as f64 / 1e6,
            t.mean_us()
        );
    }

    // 4. Per-request stage coverage: every traced request crosses at least
    //    six distinct pipeline stages.
    let sample_req = records[0].req_id;
    let stages = tracer.stages_of(sample_req);
    println!(
        "\nrequest {sample_req} crossed {} distinct stages: {:?}",
        stages.len(),
        stages.iter().map(|s| s.name()).collect::<Vec<_>>()
    );

    // 5. The DNE's own per-stage latency accounting (always on, no tracer
    //    needed) rendered as the report table.
    for (idx, node) in cluster.nodes.iter().enumerate() {
        let stats = node.dne.stats();
        println!(
            "\n{}",
            render_stage_breakdown(
                &format!("DNE node {idx} stage latencies"),
                &[
                    ("tx_queue_wait", stats.tx_queue_wait),
                    ("sched_delay", stats.sched_delay),
                    ("post_to_completion", stats.post_to_completion),
                ],
            )
        );
    }

    // 6. Per-tenant levels from the sampler: the last reading as the text
    //    exposition, and how one of them moved as per-window rollups (the
    //    node label projected away). Totals come from their home struct.
    println!("metrics exposition (excerpt):");
    for line in snap.to_text().lines().filter(|l| {
        l.starts_with("dne_tx_queue_depth")
            || l.starts_with("dne_dwrr_deficit")
            || l.starts_with("shadow_qp_hit_rate")
    }) {
        println!("  {line}");
    }
    let windows = windows.borrow();
    println!("tenant 1 shadow-QP hit rate, fleet mean per 1 ms window:");
    for w in windows.windows().iter().step_by(10) {
        let rate = w.gauges.iter().find(|g| {
            g.name == "shadow_qp_hit_rate" && g.labels == [("tenant".to_string(), "1".to_string())]
        });
        let mean = rate.and_then(|g| g.mean).unwrap_or(0.0);
        println!("  [{:>5.1} ms] {mean:.3}", w.end_ns as f64 / 1e6);
    }
    for (idx, node) in cluster.nodes.iter().enumerate() {
        let stats = node.dne.stats();
        println!(
            "node {idx} totals: tx_posted {} rx_delivered {} rbr replenishes {} ({} failed)",
            stats.tx_posted, stats.rx_delivered, stats.replenishes, stats.replenish_failures
        );
    }

    // 7. Flight recorder: a seeded chaos run (5% wire loss plus a 1ms
    //    node-1 outage) exhausts some retry budgets; each typed
    //    DeliveryFailure freezes the recent-trace ring into a
    //    self-contained dump. The dump carries only virtual timestamps,
    //    so the same seed replays to a byte-identical file.
    flight_recorder_demo();
}

fn flight_recorder_demo() {
    use rdma_sim::FaultPlane;

    let mut sim = Sim::new();
    let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
    let tracer = Tracer::enabled();
    cluster.set_tracer(&tracer);
    cluster.enable_trace_pipeline(obs::PipelineConfig {
        tail_k: 8,
        flight_cap: 32,
        burn: Some(obs::BurnConfig {
            target_ns: 200_000,
            budget: 0.05,
            fast_window: SimDuration::from_millis(1),
            slow_window: SimDuration::from_millis(8),
            burn_threshold: 2.0,
            min_events: 4,
        }),
    });

    let tenant = TenantId(1);
    cluster.add_tenant(&mut sim, tenant, 1).expect("tenant");
    let chain = ChainSpec::new("echo", tenant, vec![1, 2, 1]);
    cluster.place(1, 0);
    cluster.place(2, 1);
    cluster.register_chain(&chain, |_| SimDuration::from_micros(5), Rc::new(|_, _| {}));
    cluster.set_delivery_failure_handler(Rc::new(|_, failure| {
        println!(
            "  delivery failure: req {} ({:?})",
            failure.req_id, failure.reason
        );
    }));

    let mut fp = FaultPlane::new(0xC4A0);
    fp.set_default_loss(0.05);
    fp.set_default_corruption(0.01);
    cluster.fabric.install_fault_plane(fp);
    let crash_from = sim.now() + SimDuration::from_millis(3);
    cluster.fabric.schedule_node_outage(
        cluster.nodes[1].id,
        crash_from,
        crash_from + SimDuration::from_millis(1),
    );

    println!("\nseeded chaos run (seed 0xC4A0, node-1 outage at +3ms):");
    for i in 0..200 {
        cluster.inject(&mut sim, &chain, 10_000 + i, 256);
        sim.run_for(SimDuration::from_micros(50));
    }
    sim.run();

    let dump = cluster
        .dump_flight_recorder(&sim)
        .expect("pipeline enabled");
    let dump_path = std::path::Path::new("results/flight_recorder.json");
    std::fs::write(dump_path, dump.to_string_pretty()).expect("write dump");
    cluster.with_trace_pipeline(|p| {
        println!(
            "flight recorder: {} dumps taken, ring holds {} traces ({} evicted)",
            p.dump_count(),
            p.flight().len(),
            p.flight().evicted()
        );
        println!(
            "tail sampler: kept {} traces ({} errors), discarded {}",
            p.tail().kept().len(),
            p.tail().errors().len(),
            p.tail().discarded()
        );
        let paths: Vec<_> = p
            .tail()
            .kept()
            .into_iter()
            .filter_map(|t| obs::critical_path::analyze(&t.spans))
            .collect();
        println!(
            "{}",
            obs::critical_path::render_breakdown(&obs::critical_path::tenant_breakdown(&paths))
        );
    });
    println!("wrote {}", dump_path.display());
}
