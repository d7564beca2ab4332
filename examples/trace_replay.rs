//! Replaying a production-shaped invocation trace.
//!
//! Generates a deterministic synthetic trace — Zipf-skewed popularity over
//! four Online Boutique chains with diurnal rate modulation — and replays
//! it against a NADINO cluster, reporting per-chain latency.
//!
//! ```sh
//! cargo run --release --example trace_replay
//! ```

use membuf::tenant::TenantId;
use nadino::boutique;
use nadino::cluster::{Cluster, ClusterConfig};
use nadino::trace::{generate, replay, TraceConfig};
use simcore::{Sim, SimDuration};

fn main() {
    let tenant = TenantId(1);
    let mut sim = Sim::new();
    let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
    cluster.add_tenant(&mut sim, tenant, 1).unwrap();
    for f in boutique::all_functions() {
        cluster.place(f, boutique::hotspot_placement(f));
    }
    let cluster = std::rc::Rc::new(cluster);

    let chains = vec![
        boutique::home_query(tenant),
        boutique::product_query(tenant),
        boutique::add_to_cart(tenant),
        boutique::serve_ads(tenant),
    ];
    let cfg = TraceConfig {
        mean_rps: 4_000.0,
        duration: SimDuration::from_secs(1),
        chains: chains.len(),
        zipf_s: 1.0,
        diurnal: true,
        seed: 2026,
    };
    let trace = generate(&cfg);
    println!(
        "replaying {} invocations over {} chains (Zipf s={}, diurnal)",
        trace.len(),
        chains.len(),
        cfg.zipf_s
    );

    let outcomes = replay(
        &mut sim,
        &cluster,
        &chains,
        boutique::exec_cost,
        &trace,
        boutique::PAYLOAD_BYTES,
    );
    println!(
        "{:<16} {:>8} {:>10} {:>10}",
        "chain", "invoked", "mean_us", "p99_us"
    );
    for o in &outcomes {
        println!(
            "{:<16} {:>8} {:>10.0} {:>10.0}",
            o.chain, o.invocations, o.mean_us, o.p99_us
        );
        assert_eq!(o.completed, o.invocations, "every invocation completes");
    }
    let total: u64 = outcomes.iter().map(|o| o.invocations).sum();
    assert_eq!(total as usize, trace.len());
    println!("\nall {total} invocations completed; popularity follows the Zipf skew.");
}
