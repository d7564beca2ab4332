//! Cross-crate integration tests: the full NADINO stack end to end.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use membuf::tenant::TenantId;
use nadino::boutique;
use nadino::cluster::{Cluster, ClusterConfig};
use nadino::workload::ClosedLoop;
use nadino::ControlPlane;
use runtime::ChainSpec;
use simcore::{Sim, SimDuration};

/// The system allocator, counting per thread the bytes allocated and not
/// yet freed — so a test can ask whether dropping something gave its
/// memory back. Everything a cluster owns is `!Send`, so it is allocated
/// and freed on the thread of the test that built it.
struct LiveBytes;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn live_bytes() -> isize {
    LIVE.with(Cell::get)
}

fn count(bytes: isize) {
    // `try_with`: allocations during thread teardown have no counter left.
    let _ = LIVE.try_with(|live| live.set(live.get() + bytes));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is bookkeeping on the side.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: LiveBytes = LiveBytes;

/// A full Online Boutique chain runs across two nodes, completes requests,
/// and returns every buffer to the pools.
#[test]
fn boutique_chain_conserves_buffers() {
    let mut sim = Sim::new();
    let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
    let tenant = TenantId(1);
    cluster.add_tenant(&mut sim, tenant, 1).unwrap();
    for f in boutique::all_functions() {
        cluster.place(f, boutique::hotspot_placement(f));
    }
    let chain = boutique::home_query(tenant);
    let stop = sim.now() + SimDuration::from_millis(50);
    let driver = ClosedLoop::new(stop);
    cluster.register_chain(&chain, boutique::exec_cost, driver.completion());
    let cluster = Rc::new(cluster);
    driver.start(&mut sim, &cluster, &chain, 20, boutique::PAYLOAD_BYTES);
    sim.run();

    assert!(driver.completed() > 200, "got {}", driver.completed());
    // Latency at 20 clients is about a millisecond (Table 2).
    let mean_ms = driver.latency().mean().as_millis_f64();
    assert!((0.7..=2.0).contains(&mean_ms), "mean = {mean_ms}ms");
    // Buffer conservation: nothing owned, nothing stuck in flight.
    for idx in 0..2 {
        let stats = cluster.pool(tenant, idx).stats();
        assert_eq!(stats.owned, stats.owned.min(stats.capacity), "sanity");
        assert_eq!(stats.in_flight, 0, "node {idx}: descriptors leaked");
    }
    // No drops anywhere in the data plane.
    for node in &cluster.nodes {
        assert_eq!(node.dne.stats().drops, 0);
        assert_eq!(node.iolib.stats().dropped, 0);
    }
}

/// Two tenants on the same cluster cannot touch each other's traffic: the
/// sidecar denies cross-tenant descriptor delivery.
#[test]
fn cross_tenant_traffic_is_denied() {
    let mut sim = Sim::new();
    let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
    let (t1, t2) = (TenantId(1), TenantId(2));
    cluster.add_tenant(&mut sim, t1, 1).unwrap();
    cluster.add_tenant(&mut sim, t2, 1).unwrap();
    // Tenant 2 legitimately owns function 21 on node 0.
    cluster.place(21, 0);
    let chain2 = ChainSpec::new("victim", t2, vec![21]);
    let victim = ClosedLoop::new(sim.now() + SimDuration::from_millis(10));
    cluster.register_chain(&chain2, |_| SimDuration::ZERO, victim.completion());

    // Tenant 1 crafts a descriptor from its own pool targeting fn 21.
    let mut buf = cluster.pool(t1, 0).get().unwrap();
    runtime::write_request_payload(&mut buf, 99, 64).unwrap();
    cluster.nodes[0].iolib.send(&mut sim, t1, buf.into_desc(21));
    sim.run();

    // The victim never saw a completion and the sidecar logged the denial.
    assert_eq!(victim.completed(), 0);
    let (_, denials) = cluster.nodes[0].iolib.sidecar_counters();
    assert!(denials >= 1, "sidecar must log the violation");
    assert!(cluster.nodes[0].iolib.stats().dropped >= 1);
    // Tenant 1's buffer was recycled, not leaked.
    assert_eq!(cluster.pool(t1, 0).stats().in_flight, 0);
}

/// The same configuration and seedless deterministic engine produce
/// bit-identical results across runs.
#[test]
fn experiments_are_deterministic() {
    let run = || {
        let mut sim = Sim::new();
        let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
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
            (
                stats.submitted,
                stats.tx_posted,
                stats.rx_delivered,
                stats.drops,
            ),
            (
                stats.tx_queue_wait.summary().p99_us,
                stats.sched_delay.summary().mean_us,
                stats.post_to_completion.summary().p99_us,
            ),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
    assert_eq!(a.3, b.3);
    assert_eq!(a.4, b.4);
}

/// Scaling the number of worker nodes spreads a long chain and still
/// completes (3-node placement).
#[test]
fn three_node_cluster_runs_a_spread_chain() {
    let mut sim = Sim::new();
    let mut cluster = Cluster::new(
        &mut sim,
        ClusterConfig {
            workers: 3,
            ..ClusterConfig::default()
        },
    );
    let tenant = TenantId(1);
    cluster.add_tenant(&mut sim, tenant, 1).unwrap();
    let chain = ChainSpec::new("spread", tenant, vec![1, 2, 3, 2, 1]);
    cluster.place(1, 0);
    cluster.place(2, 1);
    cluster.place(3, 2);
    let driver = ClosedLoop::new(sim.now() + SimDuration::from_millis(30));
    cluster.register_chain(
        &chain,
        |_| SimDuration::from_micros(10),
        driver.completion(),
    );
    let cluster = Rc::new(cluster);
    driver.start(&mut sim, &cluster, &chain, 4, 128);
    sim.run();
    assert!(driver.completed() > 100);
    // All three DNEs moved traffic.
    for node in &cluster.nodes {
        assert!(node.dne.stats().tx_posted > 0, "node {:?}", node.id);
    }
}

/// Two tenants run full Boutique chains concurrently on one cluster; the
/// DWRR scheduler divides the engines' capacity by the 3:1 weights while
/// memory isolation keeps the pools disjoint.
#[test]
fn multi_tenant_boutique_shares_by_weight() {
    use dne::types::DneConfig;
    use nadino::cluster::ClusterConfig;

    let mut sim = Sim::new();
    // Throttle the engines so they are the contended resource.
    let mut dne = DneConfig::nadino_dne();
    dne.extra_per_msg = SimDuration::from_micros(2);
    let mut cluster = Cluster::new(
        &mut sim,
        ClusterConfig {
            dne,
            pool_bufs: 4096,
            ..ClusterConfig::default()
        },
    );
    let (t_heavy, t_light) = (TenantId(1), TenantId(2));
    cluster.add_tenant(&mut sim, t_heavy, 3).unwrap();
    cluster.add_tenant(&mut sim, t_light, 1).unwrap();
    let cluster = Rc::new(cluster);

    // Per-tenant function instances for the same chain shape.
    let mut drivers = Vec::new();
    for (tenant, base) in [(t_heavy, 100u16), (t_light, 200u16)] {
        let hops: Vec<u16> = nadino::boutique::home_query(tenant)
            .hops
            .iter()
            .map(|&f| base + f)
            .collect();
        let chain = ChainSpec::new("home", tenant, hops);
        for f in chain.functions() {
            cluster.place(f, nadino::boutique::hotspot_placement(f - base));
        }
        let driver = ClosedLoop::new(sim.now() + SimDuration::from_millis(300));
        // Tiny exec costs keep the engines, not the hosts, contended.
        cluster.register_chain(&chain, |_| SimDuration::from_micros(2), driver.completion());
        driver.start(&mut sim, &cluster, &chain, 64, 512);
        drivers.push(driver);
    }
    sim.run();
    let heavy = drivers[0].completed() as f64;
    let light = drivers[1].completed() as f64;
    let ratio = heavy / light;
    assert!(
        (2.2..=3.8).contains(&ratio),
        "3:1 weights should yield ~3x the throughput, got {ratio} ({heavy} vs {light})"
    );
    // Isolation: neither tenant's pool leaked into the other's accounting.
    for (tenant, driver) in [(t_heavy, &drivers[0]), (t_light, &drivers[1])] {
        assert!(driver.completed() > 500, "{tenant} made progress");
        for idx in 0..2 {
            assert_eq!(cluster.pool(tenant, idx).stats().in_flight, 0);
        }
    }
}

/// The event engine stores closures inline up to `INLINE_BYTES`; every
/// closure on a request's path through the full cluster fits, so steady
/// state schedules without allocating. `SimProfile::boxed_events` counts
/// the ones that do not: after warm-up, 1 000 echo requests and 100
/// boutique requests box none.
#[test]
fn steady_state_request_path_boxes_no_events() {
    let tenant = TenantId(1);
    let run = |chain: ChainSpec,
               place: &dyn Fn(&mut Cluster),
               cost: fn(u16) -> SimDuration,
               clients: usize,
               bytes: usize,
               want: u64| {
        let mut sim = Sim::new();
        let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
        cluster.add_tenant(&mut sim, tenant, 1).unwrap();
        place(&mut cluster);
        let warm = sim.now() + SimDuration::from_millis(5);
        let driver = ClosedLoop::new(warm + SimDuration::from_millis(120));
        cluster.register_chain(&chain, cost, driver.completion());
        let cluster = Rc::new(cluster);
        driver.start(&mut sim, &cluster, &chain, clients, bytes);
        sim.run_until(warm);
        let (boxed, done) = (sim.profile().boxed_events, driver.completed());
        assert!(done > 0, "{}: warm-up completed nothing", chain.name);
        sim.run();
        let requests = driver.completed() - done;
        assert!(requests >= want, "{}: only {requests} requests", chain.name);
        assert_eq!(
            sim.profile().boxed_events - boxed,
            0,
            "{}: {requests} requests boxed events",
            chain.name
        );
    };
    run(
        ChainSpec::new("echo", tenant, vec![1, 2, 1]),
        &|c| {
            c.place(1, 0);
            c.place(2, 1);
        },
        |_| SimDuration::ZERO,
        8,
        64,
        1_000,
    );
    run(
        boutique::home_query(tenant),
        &|c| {
            for f in boutique::all_functions() {
                c.place(f, boutique::hotspot_placement(f));
            }
        },
        boutique::exec_cost,
        20,
        boutique::PAYLOAD_BYTES,
        100,
    );
}

/// Dropping a cluster frees it, with or without a control plane. Endpoint
/// closures hold their node's I/O library and engine, which hold the
/// closures; until `Cluster` cut those cycles on drop, every engine and every
/// tenant pool of a dropped cluster stayed resident (each `experiments` sweep
/// cell leaked its pools). The control plane sits in the cluster's hub and
/// holds the cluster weakly; while its handlers held it strongly, a cluster
/// with one was never dropped at all.
///
/// A pool's payload bytes are mapped, not allocated, so the counter sees
/// the pools' bookkeeping (which lives and dies with the mapping) and the
/// engines' tables: ~100 KB after the run, ~78 KB of it allocated by
/// provisioning the tenant before the first request. The floor is that
/// provisioning share rounded down; the run's own growth (event slab and
/// heap, histograms) is left out of it.
#[test]
fn a_dropped_cluster_gives_its_memory_back() {
    const KIB: isize = 1 << 10;
    let tenant = TenantId(1);
    for with_control in [false, true] {
        let before = live_bytes();
        let mut sim = Sim::new();
        let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
        cluster.add_tenant(&mut sim, tenant, 1).unwrap();
        cluster.place(1, 0);
        cluster.place(2, 1);
        let chain = ChainSpec::new("echo", tenant, vec![1, 2, 1]);
        let stop = sim.now() + SimDuration::from_millis(50);
        let driver = ClosedLoop::new(stop);
        cluster.register_chain(&chain, |_| SimDuration::ZERO, driver.completion());
        let cluster = Rc::new(cluster);
        let start = |sim: &mut Sim| ControlPlane::start(sim, &cluster, stop, None);
        let control = with_control.then(|| start(&mut sim));
        driver.start(&mut sim, &cluster, &chain, 8, 64);
        sim.run();
        assert!(driver.completed() >= 1_000, "got {}", driver.completed());
        let held = live_bytes() - before;
        assert!(held > 64 * KIB, "two engines and two pools hold {held} B?");

        let weak = Rc::downgrade(&cluster);
        drop((driver, control, cluster, sim));
        let freed = weak.upgrade().is_none();
        drop(weak);
        assert!(
            freed,
            "control plane {with_control}: the cluster outlived the drop"
        );
        let retained = live_bytes() - before;
        assert!(
            retained < 16 * KIB,
            "control plane {with_control}: {retained} of {held} bytes still allocated after the drop"
        );
    }
}
