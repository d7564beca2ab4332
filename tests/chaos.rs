//! Chaos differential tests: the fault plane vs. the recovery pipeline.
//!
//! Two properties anchor the fault model:
//!
//! 1. **No request is ever silently lost.** Under a seeded fault plane
//!    (wire loss, corruption, a node crash window) every injected request
//!    either completes its chain or surfaces exactly one typed
//!    [`dne::DeliveryFailure`]; pools drain back to baseline and the same
//!    seed reproduces the run counter-for-counter.
//! 2. **A zero-fault plane is invisible.** Installing a plane with all
//!    probabilities at zero consumes no randomness and leaves the run
//!    byte-identical to one with no plane at all.

use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::rc::Rc;

use ingress::rss::FlowId;
use ingress::{AdmissionConfig, Gateway, GatewayConfig};
use membuf::tenant::TenantId;
use nadino::cluster::{Cluster, ClusterConfig};
use nadino::workload::ClosedLoop;
use rdma_sim::{FaultPlane, FaultStats};
use runtime::ChainSpec;
use simcore::rng::SEEDS;
use simcore::{Sim, SimDuration};

const REQUESTS: u64 = 200;
const REQ_BASE: u64 = 1_000;

/// The seeds a chaos test runs at: the matrix, then `extra` — the seed the
/// test ran at before the matrix moved in here, where the matrix lacks it.
/// Each is printed, so a failing test's captured output ends with its seed.
fn seeds(extra: &'static [u64]) -> impl Iterator<Item = u64> {
    let all = SEEDS.iter().chain(extra).copied();
    all.inspect(|seed| eprintln!("seed {seed:#x}"))
}

/// Everything a faulty run observed, for equality across same-seed runs.
#[derive(Debug, PartialEq, Eq)]
struct FaultyRunOutcome {
    completed: Vec<u64>,
    failed: Vec<u64>,
    end_ns: u64,
    faults: FaultStats,
    /// Per node: (tx_posted, rx_delivered, drops, retries, failovers,
    /// reconnects, give_ups).
    engines: Vec<(u64, u64, u64, u64, u64, u64, u64)>,
}

/// Runs a 1→2→1 echo chain under a seeded fault plane: 5% wire loss, 1%
/// corruption, and a 1ms crash window on node 1 long enough to exhaust
/// retry budgets (typed give-ups, not just transparent retries).
fn faulty_run(seed: u64) -> FaultyRunOutcome {
    let mut sim = Sim::new();
    let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
    let tenant = TenantId(1);
    cluster.add_tenant(&mut sim, tenant, 1).unwrap();
    let chain = ChainSpec::new("echo", tenant, vec![1, 2, 1]);
    cluster.place(1, 0);
    cluster.place(2, 1);

    let completed: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    let failed: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    let c2 = completed.clone();
    cluster.register_chain(
        &chain,
        |_| SimDuration::from_micros(5),
        Rc::new(move |_sim, req| c2.borrow_mut().push(req)),
    );
    let f2 = failed.clone();
    cluster.set_delivery_failure_handler(Rc::new(move |_sim, failure| {
        f2.borrow_mut().push(failure.req_id);
    }));

    // Faults start only after provisioning, so setup is never perturbed.
    let mut fp = FaultPlane::new(seed);
    fp.set_default_loss(0.05);
    fp.set_default_corruption(0.01);
    cluster.fabric.install_fault_plane(fp);
    let crash_from = sim.now() + SimDuration::from_millis(3);
    let crash_until = crash_from + SimDuration::from_millis(1);
    cluster
        .fabric
        .schedule_node_outage(cluster.nodes[1].id, crash_from, crash_until);

    // Open loop: one request every 50us, so the crash window catches a
    // batch mid-flight while the rest see only stochastic wire faults.
    for i in 0..REQUESTS {
        assert!(
            cluster.inject(&mut sim, &chain, REQ_BASE + i, 256),
            "entry pool exhausted at request {i}"
        );
        sim.run_for(SimDuration::from_micros(50));
    }
    sim.run();

    let completed = completed.borrow().clone();
    let failed = failed.borrow().clone();
    FaultyRunOutcome {
        completed,
        failed,
        end_ns: sim.now().as_nanos(),
        faults: cluster.fabric.fault_stats(),
        engines: cluster
            .nodes
            .iter()
            .map(|n| {
                let s = n.dne.stats();
                (
                    s.tx_posted,
                    s.rx_delivered,
                    s.drops,
                    s.retries,
                    s.failovers,
                    s.reconnects,
                    s.give_ups,
                )
            })
            .collect(),
    }
}

/// Every request terminates exactly once — delivery or typed failure — and
/// every buffer returns to its pool.
#[test]
fn faults_never_lose_requests_silently() {
    for seed in seeds(&[]) {
        let out = faulty_run(seed);

        // The run actually exercised the fault plane.
        assert!(
            out.faults.lost > 0,
            "wire loss never fired: {:?}",
            out.faults
        );
        assert!(
            out.faults.outage_drops > 0,
            "crash window never fired: {:?}",
            out.faults
        );
        let retries: u64 = out.engines.iter().map(|e| e.3).sum();
        assert!(retries > 0, "no retries despite faults");

        // Exactly-once termination: completed and failed partition the ids.
        let done: HashSet<u64> = out.completed.iter().copied().collect();
        let lost: HashSet<u64> = out.failed.iter().copied().collect();
        assert_eq!(done.len(), out.completed.len(), "duplicate completion");
        assert!(
            done.is_disjoint(&lost),
            "requests both completed and failed: {:?}",
            done.intersection(&lost).collect::<Vec<_>>()
        );
        assert_eq!(
            done.len() + lost.len(),
            REQUESTS as usize,
            "requests vanished: {} completed + {} failed (failed more than once: {})",
            done.len(),
            lost.len(),
            lost.len() != out.failed.len(),
        );
        for id in REQ_BASE..REQ_BASE + REQUESTS {
            assert!(
                done.contains(&id) || lost.contains(&id),
                "request {id} hung"
            );
        }
        assert!(
            !out.failed.is_empty(),
            "the crash window should exhaust some retry budgets"
        );

        // Give-ups at the engines match the typed failures that surfaced.
        let give_ups: u64 = out.engines.iter().map(|e| e.6).sum();
        assert_eq!(give_ups as usize, out.failed.len());
    }
}

/// Pool occupancy returns to baseline after a faulty run (no leaked
/// descriptors parked in retry state or dropped on error paths).
#[test]
fn faults_leak_no_buffers() {
    let mut sim = Sim::new();
    let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
    let tenant = TenantId(1);
    cluster.add_tenant(&mut sim, tenant, 1).unwrap();
    let chain = ChainSpec::new("echo", tenant, vec![1, 2, 1]);
    cluster.place(1, 0);
    cluster.place(2, 1);
    cluster.register_chain(&chain, |_| SimDuration::from_micros(5), Rc::new(|_, _| {}));
    cluster.set_delivery_failure_handler(Rc::new(|_, _| {}));
    let baseline: Vec<_> = (0..2)
        .map(|idx| cluster.pool(tenant, idx).stats().in_flight)
        .collect();

    let mut fp = FaultPlane::new(7);
    fp.set_default_loss(0.1);
    fp.set_default_corruption(0.05);
    cluster.fabric.install_fault_plane(fp);
    for i in 0..REQUESTS {
        cluster.inject(&mut sim, &chain, i, 256);
        sim.run_for(SimDuration::from_micros(50));
    }
    sim.run();

    for (idx, base) in baseline.iter().enumerate() {
        let stats = cluster.pool(tenant, idx).stats();
        assert_eq!(
            stats.in_flight, *base,
            "node {idx}: descriptors leaked under faults"
        );
    }
}

/// Same seed, same run: the fault plane's RNG stream is the only source of
/// randomness, so two identically-seeded runs agree on every counter.
#[test]
fn same_seed_reproduces_the_run_exactly() {
    for seed in seeds(&[0xD15EA5E]) {
        assert_eq!(faulty_run(seed), faulty_run(seed), "seed {seed:#x}");
    }
}

/// Like [`faulty_run`], but with the causal tracer and trace pipeline
/// enabled: returns the dump count, the last flight-recorder dump
/// (compact JSON) and the failed request ids.
fn flight_run(seed: u64) -> (u64, String, Vec<u64>) {
    let mut sim = Sim::new();
    let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
    let tracer = obs::Tracer::enabled();
    cluster.set_tracer(&tracer);
    cluster.enable_trace_pipeline(obs::PipelineConfig {
        tail_k: 8,
        flight_cap: 32,
        burn: None,
    });
    let tenant = TenantId(1);
    cluster.add_tenant(&mut sim, tenant, 1).unwrap();
    let chain = ChainSpec::new("echo", tenant, vec![1, 2, 1]);
    cluster.place(1, 0);
    cluster.place(2, 1);
    cluster.register_chain(&chain, |_| SimDuration::from_micros(5), Rc::new(|_, _| {}));
    let failed: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    let f2 = failed.clone();
    cluster.set_delivery_failure_handler(Rc::new(move |_sim, failure| {
        f2.borrow_mut().push(failure.req_id);
    }));

    let mut fp = FaultPlane::new(seed);
    fp.set_default_loss(0.05);
    fp.set_default_corruption(0.01);
    cluster.fabric.install_fault_plane(fp);
    let crash_from = sim.now() + SimDuration::from_millis(3);
    cluster.fabric.schedule_node_outage(
        cluster.nodes[1].id,
        crash_from,
        crash_from + SimDuration::from_millis(1),
    );
    for i in 0..REQUESTS {
        cluster.inject(&mut sim, &chain, REQ_BASE + i, 256);
        sim.run_for(SimDuration::from_micros(50));
    }
    sim.run();

    let dumps = cluster.with_trace_pipeline(|p| p.dump_count()).unwrap();
    let dump = cluster
        .with_trace_pipeline(|p| p.last_dump().map(|d| d.to_string_compact()))
        .unwrap()
        .expect("a typed failure should have taken a dump");
    let failed = failed.borrow().clone();
    (dumps, dump, failed)
}

/// A typed `DeliveryFailure` freezes a flight-recorder dump: one dump per
/// failure, reason tagged, the failed trace in the ring marked as an error.
#[test]
fn delivery_failure_triggers_flight_recorder_dump() {
    for seed in seeds(&[]) {
        let (dumps, dump, failed) = flight_run(seed);
        assert!(!failed.is_empty(), "run produced no typed failures");
        assert_eq!(dumps, failed.len() as u64, "one dump per typed failure");

        let doc = obs::parse(&dump).expect("dump is valid JSON");
        assert_eq!(
            doc.get("reason").and_then(|r| r.as_str()),
            Some("delivery_failure")
        );
        let traces = doc.get("traces").and_then(|t| t.as_arr()).unwrap();
        assert!(!traces.is_empty(), "dump carries no traces");
        // The failure that tripped the last dump is the newest ring entry,
        // marked as an error and carrying its spans.
        let last_failed = *failed.last().unwrap();
        let errored = traces
            .iter()
            .find(|t| t.get("trace_id").and_then(|v| v.as_u64()) == Some(last_failed))
            .expect("failed trace missing from dump");
        assert_eq!(
            errored.get("error").and_then(|v| v.as_bool()),
            Some(true),
            "failed trace not marked as error"
        );
    }
}

/// Flight-recorder dumps are part of the deterministic surface: the same
/// seed replays to a byte-identical dump (virtual timestamps only, no wall
/// clock anywhere in the bundle).
#[test]
fn same_seed_yields_byte_identical_flight_dump() {
    for seed in seeds(&[]) {
        let a = flight_run(seed);
        let b = flight_run(seed);
        assert_eq!(a.0, b.0, "dump counts differ across same-seed runs");
        assert_eq!(a.2, b.2, "failure sets differ across same-seed runs");
        assert_eq!(a.1, b.1, "flight dump is not byte-identical");
    }
}

/// A zero-fault plane draws no randomness and perturbs nothing: the run is
/// byte-identical (event count, virtual end time, every counter) to a run
/// with no plane installed.
#[test]
fn zero_fault_plane_is_byte_identical_to_no_plane() {
    let run = |plane: Option<FaultPlane>| {
        let mut sim = Sim::new();
        let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
        if let Some(fp) = plane {
            // Installed before provisioning: even setup crosses it.
            cluster.fabric.install_fault_plane(fp);
        }
        let tenant = TenantId(1);
        cluster.add_tenant(&mut sim, tenant, 1).unwrap();
        let chain = ChainSpec::new("echo", tenant, vec![1, 2, 1]);
        cluster.place(1, 0);
        cluster.place(2, 1);
        let driver = ClosedLoop::new(sim.now() + SimDuration::from_millis(20));
        cluster.register_chain(&chain, |_| SimDuration::from_micros(7), driver.completion());
        let cluster = Rc::new(cluster);
        driver.start(&mut sim, &cluster, &chain, 5, 256);
        sim.run();
        let stats = cluster.nodes[0].dne.stats();
        (
            driver.completed(),
            driver.latency().mean().as_nanos(),
            sim.now().as_nanos(),
            sim.executed_events(),
            (
                stats.submitted,
                stats.tx_posted,
                stats.rx_delivered,
                stats.drops,
                stats.retries,
                stats.give_ups,
            ),
            cluster.fabric.fault_stats(),
        )
    };
    let bare = run(None);
    let zeroed = run(Some(FaultPlane::new(0xFEED)));
    assert_eq!(bare, zeroed);
    assert_eq!(
        zeroed.5,
        FaultStats::default(),
        "zero plane injected faults"
    );
}

// ---------------------------------------------------------------------------
// Survivability: gateway (deadlines + admission control) in front of a
// 3-node cluster with backup placements and the health monitor, under a
// mid-run node crash plus a rogue tenant flooding at 3x the compliant rate
// on a third of the weight.
// ---------------------------------------------------------------------------

/// Per-tenant bookkeeping of one survival run.
#[derive(Debug, Default, PartialEq, Eq)]
struct TenantTally {
    ok: u64,
    shed: u64,
    expired: u64,
    failed: u64,
    dropped: u64,
}

/// The full deterministic surface of one survival run.
#[derive(Debug, PartialEq, Eq)]
struct SurvivalOutcome {
    issued: u64,
    resolved: u64,
    pending_left: usize,
    compliant: TenantTally,
    rogue: TenantTally,
    rogue_sheds: u64,
    outage_drops: u64,
    /// Health transitions as `"node:from->to@ns"` strings, in order.
    health: Vec<String>,
    dump_count: u64,
    dump: String,
    end_ns: u64,
}

/// Drive parameters: 20ms of open-loop load, compliant tenant 1 request
/// per 50us, rogue tenant 3 per 50us.
const SURVIVAL_TICKS: u32 = 400;
const ROGUE_PER_TICK: u32 = 3;

/// One full survival run. With `crash`, node 1 (primary of the second hop
/// of both chains) goes dark for 2ms mid-run; the health monitor must turn
/// the resulting delivery failures into a failover onto node 2 and restore
/// node 1 after the drain hold-down.
fn survival_run(seed: u64, crash: bool) -> SurvivalOutcome {
    let mut sim = Sim::new();
    let mut cluster = Cluster::new(
        &mut sim,
        ClusterConfig {
            workers: 3,
            ..ClusterConfig::default()
        },
    );
    let tracer = obs::Tracer::enabled();
    cluster.set_tracer(&tracer);
    cluster.enable_trace_pipeline(obs::PipelineConfig {
        tail_k: 8,
        flight_cap: 32,
        burn: None,
    });
    let compliant_t = TenantId(1);
    let rogue_t = TenantId(2);
    cluster.add_tenant(&mut sim, compliant_t, 3).unwrap();
    cluster.add_tenant(&mut sim, rogue_t, 1).unwrap();
    // Both chains hop through node 1 and can fail over to node 2.
    cluster.place_with_backup(1, 0, 2);
    cluster.place_with_backup(2, 1, 2);
    cluster.place_with_backup(3, 0, 2);
    cluster.place_with_backup(4, 1, 2);
    let cluster = Rc::new(cluster);

    // Both chains sit behind the cluster's front door: the gateway's reply
    // is held until the chain completes or fails typed.
    let compliant_chain = ChainSpec::new("compliant", compliant_t, vec![1, 2, 1]);
    let rogue_chain = ChainSpec::new("rogue", rogue_t, vec![3, 4, 3]);
    let cost = |_| SimDuration::from_micros(5);
    let compliant_up = cluster.serve_chain(&compliant_chain, cost, 256);
    let rogue_up = cluster.serve_chain(&rogue_chain, cost, 256);

    // Faults start only after provisioning: mild wire loss in every run,
    // plus the crash window in the faulty variant.
    let mut fp = FaultPlane::new(seed);
    fp.set_default_loss(0.02);
    cluster.fabric.install_fault_plane(fp);
    let drive_start = sim.now();
    if crash {
        let from = drive_start + SimDuration::from_millis(5);
        cluster.fabric.schedule_node_outage(
            cluster.nodes[1].id,
            from,
            from + SimDuration::from_millis(2),
        );
    }
    let until = drive_start + SimDuration::from_millis(60);
    let monitor = cluster.enable_health_monitor(&mut sim, until);

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
    gateway.set_tracer(tracer.clone());
    gateway.register_tenant(compliant_t.0, 3);
    gateway.register_tenant(rogue_t.0, 1);
    {
        // Brownout coupling: a node going down tightens admission targets.
        let gw = gateway.clone();
        monitor.set_capacity_handler(Rc::new(move |_sim, f| gw.set_capacity_factor(f)));
    }

    let issued = Rc::new(Cell::new(0u64));
    let resolved = Rc::new(Cell::new(0u64));
    let submit = |sim: &mut Sim, tenant: u16, flow: u32, up: &ingress::Upstream| {
        issued.set(issued.get() + 1);
        let resolved = resolved.clone();
        gateway.submit_tenant(
            sim,
            tenant,
            FlowId::from_client(flow, 0),
            64,
            up.clone(),
            Box::new(move |_sim, _r| resolved.set(resolved.get() + 1)),
        );
    };
    for tick in 0..SURVIVAL_TICKS {
        submit(&mut sim, compliant_t.0, tick, &compliant_up);
        for k in 0..ROGUE_PER_TICK {
            submit(
                &mut sim,
                rogue_t.0,
                100_000 + tick * ROGUE_PER_TICK + k,
                &rogue_up,
            );
        }
        sim.run_for(SimDuration::from_micros(50));
    }
    sim.run();

    let tally = |t: u16| {
        let s = gateway.tenant_stats(t);
        TenantTally {
            ok: s.completed,
            shed: s.shed,
            expired: s.expired,
            failed: s.failed,
            dropped: s.dropped,
        }
    };
    let health = monitor
        .events()
        .iter()
        .map(|e| format!("{}:{:?}->{:?}@{}", e.node.0, e.from, e.to, e.at.as_nanos()))
        .collect();
    let dump_count = cluster.with_trace_pipeline(|p| p.dump_count()).unwrap();
    let dump = cluster
        .with_trace_pipeline(|p| p.last_dump().map(|d| d.to_string_compact()))
        .unwrap()
        .unwrap_or_default();
    SurvivalOutcome {
        issued: issued.get(),
        resolved: resolved.get(),
        pending_left: cluster.pending_replies(),
        compliant: tally(compliant_t.0),
        rogue: tally(rogue_t.0),
        rogue_sheds: gateway.tenant_stats(rogue_t.0).shed,
        outage_drops: cluster.fabric.fault_stats().outage_drops,
        health,
        dump_count,
        dump,
        end_ns: sim.now().as_nanos(),
    }
}

/// The headline acceptance run: a mid-run node crash plus a rogue tenant.
/// Zero requests hang, the health monitor fails over and later restores
/// the node, the rogue tenant sheds hardest, and the compliant tenant
/// keeps >= 80% of its fault-free same-seed goodput.
#[test]
fn node_crash_with_rogue_tenant_degrades_gracefully() {
    for seed in seeds(&[0x5EED]) {
        let faultfree = survival_run(seed, false);
        let crashed = survival_run(seed, true);

        for out in [&faultfree, &crashed] {
            assert_eq!(
                out.resolved, out.issued,
                "requests hung: {} of {} resolved",
                out.resolved, out.issued
            );
            assert_eq!(out.pending_left, 0, "replies leaked in the pending map");
        }
        assert!(crashed.outage_drops > 0, "crash window never fired");
        assert_eq!(faultfree.outage_drops, 0, "fault-free run saw an outage");

        // The health monitor walked node 1 down and back up.
        let down = crashed.health.iter().any(|e| e.contains("1:Suspect->Down"));
        let back = crashed
            .health
            .iter()
            .any(|e| e.contains("1:Draining->Healthy"));
        assert!(down, "node 1 never went Down: {:?}", crashed.health);
        assert!(back, "node 1 never recovered: {:?}", crashed.health);
        assert!(
            faultfree.health.is_empty(),
            "fault-free run saw health transitions: {:?}",
            faultfree.health
        );

        // Graceful degradation: the crash costs the compliant tenant at most
        // 20% of its fault-free goodput on the same seed.
        assert!(
            crashed.compliant.ok as f64 >= 0.8 * faultfree.compliant.ok as f64,
            "compliant goodput collapsed: {} crashed vs {} fault-free",
            crashed.compliant.ok,
            faultfree.compliant.ok
        );

        // Weight-aware shedding: the rogue tenant (3x the arrivals, 1/3 the
        // weight) sheds more than the compliant tenant in both runs.
        for out in [&faultfree, &crashed] {
            assert!(
                out.rogue.shed > out.compliant.shed,
                "rogue shed {} vs compliant {}",
                out.rogue.shed,
                out.compliant.shed
            );
            assert_eq!(out.rogue_sheds, out.rogue.shed);
        }
    }
}

/// The survival run — gateway, admission control, deadlines, health-driven
/// failover and all — is part of the deterministic surface: same seed,
/// byte-identical flight-recorder dump and counters.
#[test]
fn survival_run_is_deterministic_per_seed() {
    for seed in seeds(&[0x5EED]) {
        let a = survival_run(seed, true);
        let b = survival_run(seed, true);
        assert_eq!(a, b, "same-seed survival runs diverged");
        assert!(!a.dump.is_empty(), "crash run took no flight dump");
    }
}

/// One routing-plane step of [`failover_walk`].
#[derive(Debug, Clone, Copy)]
enum RouteStep {
    FailOver(usize),
    Restore(usize),
}

/// Places `placements` (`(function, primary, backup)`) on `workers` nodes,
/// walks `steps` and checks after every one that "where does `f` live" has
/// one answer: the placement map (which picks the node a request enters on
/// and the I/O library's local-vs-remote arm) names the node every engine's
/// routing table names. Then an echo over functions 1 and 2 — whenever
/// neither is stranded — must complete, and when the two share a node all
/// three of its hops (entry, 1→2, 2→1) must be intra-node SK_MSG sends.
fn failover_walk(workers: usize, placements: &[(u16, usize, usize)], steps: &[RouteStep]) {
    let mut sim = Sim::new();
    let cfg = ClusterConfig {
        workers,
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(&mut sim, cfg);
    let tenant = TenantId(1);
    cluster.add_tenant(&mut sim, tenant, 1).unwrap();
    for &(f, primary, backup) in placements {
        cluster.place_with_backup(f, primary, backup);
    }
    let chain = ChainSpec::new("echo", tenant, vec![1, 2, 1]);
    let completed = Rc::new(Cell::new(0u64));
    let done = completed.clone();
    cluster.register_chain(
        &chain,
        |_| SimDuration::from_micros(5),
        Rc::new(move |_, _| done.set(done.get() + 1)),
    );
    let stranded_at = |idx: usize| {
        !cluster.nodes[0]
            .dne
            .stranded_on(cluster.nodes[idx].id)
            .is_empty()
    };

    for (n, &step) in steps.iter().enumerate() {
        match step {
            RouteStep::FailOver(idx) => drop(cluster.fail_over_node(idx)),
            RouteStep::Restore(idx) => drop(cluster.restore_node(idx)),
        }
        let ctx = format!("after step {n} of {:?}", &steps[..=n]);
        for &(f, ..) in placements {
            let placed = cluster.placement.borrow().node_of(f);
            for node in &cluster.nodes {
                assert_eq!(node.dne.route_of(f), placed, "function {f} {ctx}");
            }
        }
        let at = |f: u16| cluster.node_index_of(f).expect("placed above");
        let (at1, at2) = (at(1), at(2));
        if stranded_at(at1) || stranded_at(at2) {
            continue; // stranded: typed DestinationDown until a target recovers
        }
        let local_before = cluster.nodes[at1].iolib.stats().local_sends;
        let before = completed.get();
        assert!(cluster.inject(&mut sim, &chain, n as u64, 256), "{ctx}");
        sim.run();
        assert_eq!(completed.get(), before + 1, "echo lost {ctx}");
        if at1 == at2 {
            let local = cluster.nodes[at1].iolib.stats().local_sends - local_before;
            assert_eq!(local, 3, "co-located echo left node {at1} {ctx}");
        }
    }
}

/// Regression: a restore that rescues a stranded function onto its *backup*
/// used to re-place it on its primary. Function 2 (primary 1, backup 2)
/// strands when both nodes go down; node 2 coming back rescues it there,
/// next to function 1 — and the placement map has to say so too.
#[test]
fn placement_follows_a_rescue_onto_the_backup() {
    use RouteStep::*;
    let steps = [FailOver(2), FailOver(1), Restore(2)];
    failover_walk(3, &[(1, 2, 0), (2, 1, 2)], &steps);
}

/// The same property over seeded random placements and 240 random
/// fail-over / restore steps on 3 and on 4 workers.
#[test]
fn placement_follows_routing_through_random_failovers() {
    for seed in seeds(&[]) {
        let mut rng = simcore::SimRng::new(seed);
        for workers in [3usize, 4] {
            let mut pick = |bound: usize| rng.gen_range(bound as u64) as usize;
            let placements: Vec<(u16, usize, usize)> = (1..=5)
                .map(|f| {
                    let primary = pick(workers);
                    (f, primary, (primary + 1 + pick(workers - 1)) % workers)
                })
                .collect();
            let steps: Vec<RouteStep> = (0..240)
                .map(|_| match pick(2) {
                    0 => RouteStep::FailOver(pick(workers)),
                    _ => RouteStep::Restore(pick(workers)),
                })
                .collect();
            failover_walk(workers, &placements, &steps);
        }
    }
}

/// Span ids, parents and order are deterministic across commits, not just
/// across runs: the last flight dump of [`flight_run`] and of the crash
/// [`survival_run`] hash to pinned FNV-1a digests. Taken at commit
/// `3be2337`, before the tracer's span store was rewritten; re-pinned once
/// since, when dumps lost their last key, an always-`null` copy of the
/// metrics registry (each new dump was checked equal to the old one minus
/// that key). A change that means to alter what a dump holds re-pins them
/// and says why.
#[test]
fn flight_dumps_match_their_pinned_digests() {
    let digest = |dump: &str| simcore::rng::fnv1a(dump.bytes());
    for (seed, flight, survival) in [
        (1, 0xa032_a3a6_79da_3f75, 0x121d_0320_8fa8_e16f_u64),
        (42, 0x70dd_b22f_3bd3_e0d4, 0x9f53_fe59_ff03_9857),
    ] {
        assert_eq!(digest(&flight_run(seed).1), flight, "flight_run({seed})");
        let dump = survival_run(seed, true).dump;
        assert_eq!(digest(&dump), survival, "survival_run({seed})");
    }
}
