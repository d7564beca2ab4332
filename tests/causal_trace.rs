//! Causal cross-node tracing: end-to-end acceptance and property tests.
//!
//! The acceptance test runs a real two-node chain under the full trace
//! pipeline and checks the ISSUE's bar: a multi-hop request appears as one
//! connected flow across at least two nodes, the critical-path analyzer's
//! per-stage attribution sums exactly to the end-to-end latency, and the
//! Perfetto export carries matching cross-node flow events.
//!
//! The property test replays randomized interleavings of the tracer
//! operations N concurrent requests would issue (begin/end spans, context
//! carry, cross-node adopt, retry re-sends under the same trace id) and
//! asserts every interleaving rebuilds N well-formed trees with no orphan
//! spans.

use membuf::tenant::TenantId;
use nadino::cluster::{Cluster, ClusterConfig};
use nadino::workload::ClosedLoop;
use obs::{SpanRecord, Stage, TraceSummary, Tracer};
use runtime::ChainSpec;
use simcore::{Sim, SimDuration, SimTime};
use std::collections::{HashMap, HashSet};

/// Runs a two-node echo chain with the trace pipeline enabled and returns
/// the tail sampler's kept traces.
fn traced_chain_run() -> Vec<TraceSummary> {
    let mut sim = Sim::new();
    let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
    let tracer = Tracer::enabled();
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
    let stop = sim.now() + SimDuration::from_millis(1);
    let driver = ClosedLoop::new(stop);
    cluster.register_chain(&chain, |_| SimDuration::from_micros(3), driver.completion());
    let cluster = std::rc::Rc::new(cluster);
    driver.start(&mut sim, &cluster, &chain, 4, 128);
    sim.run();
    assert!(driver.completed() > 0, "no requests completed");
    cluster
        .with_trace_pipeline(|p| p.tail().kept().into_iter().cloned().collect())
        .expect("pipeline enabled")
}

/// Every span with a non-zero parent must reach the trace's root through
/// parent links (i.e. the spans form one well-formed tree, no orphans).
fn assert_well_formed_tree(spans: &[SpanRecord]) {
    assert!(!spans.is_empty());
    let ids: HashSet<u32> = spans.iter().map(|s| s.span_id).collect();
    assert_eq!(ids.len(), spans.len(), "span ids must be unique");
    let parent: HashMap<u32, u32> = spans.iter().map(|s| (s.span_id, s.parent_id)).collect();
    let roots: Vec<u32> = spans
        .iter()
        .filter(|s| s.parent_id == 0)
        .map(|s| s.span_id)
        .collect();
    assert_eq!(roots.len(), 1, "exactly one root span, got {roots:?}");
    for s in spans {
        assert!(
            s.parent_id == 0 || ids.contains(&s.parent_id),
            "span {} has orphan parent {} (trace {})",
            s.span_id,
            s.parent_id,
            s.req_id
        );
        // Walk to the root; a cycle would loop past the span count.
        let mut cur = s.span_id;
        let mut hops = 0;
        while cur != roots[0] {
            cur = parent[&cur];
            hops += 1;
            assert!(hops <= spans.len(), "parent cycle at span {}", s.span_id);
        }
    }
}

#[test]
fn multi_hop_trace_spans_two_nodes_and_critical_path_sums_exactly() {
    let kept = traced_chain_run();
    assert!(!kept.is_empty(), "tail sampler kept no traces");
    let multi = kept
        .iter()
        .find(|t| t.spans.iter().map(|s| s.node).collect::<HashSet<_>>().len() >= 2)
        .expect("at least one trace with spans on >= 2 nodes");
    assert_well_formed_tree(&multi.spans);

    // A cross-node parent edge must exist: the remote DNE adopted the
    // on-wire context, so some span's parent lives on a different node.
    let by_id: HashMap<u32, &SpanRecord> = multi.spans.iter().map(|s| (s.span_id, s)).collect();
    assert!(
        multi.spans.iter().any(|s| {
            s.parent_id != 0 && by_id.get(&s.parent_id).is_some_and(|p| p.node != s.node)
        }),
        "no cross-node parent edge in trace {}",
        multi.trace_id
    );

    // Critical-path attribution must account for every nanosecond of the
    // end-to-end window — the shares (including "untracked") sum exactly.
    let cp = obs::critical_path::analyze(&multi.spans).expect("non-empty trace");
    let sum: u64 = cp.stages.iter().map(|s| s.ns).sum();
    assert_eq!(sum, cp.total_ns(), "stage shares must sum to end-to-end");
    assert_eq!(cp.total_ns(), cp.end_ns - cp.start_ns);
    assert!(cp.stages.len() >= 2, "expected multiple attributed stages");
}

#[test]
fn perfetto_export_links_cross_node_spans_with_flow_events() {
    let kept = traced_chain_run();
    let multi = kept
        .iter()
        .find(|t| t.spans.iter().map(|s| s.node).collect::<HashSet<_>>().len() >= 2)
        .expect("multi-node trace");
    let doc = obs::chrome_trace(&multi.spans);
    let events = doc.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
    let phase = |e: &obs::JsonValue| e.get("ph").and_then(|p| p.as_str()).unwrap().to_string();
    let starts: Vec<&obs::JsonValue> = events.iter().filter(|e| phase(e) == "s").collect();
    let finishes: Vec<&obs::JsonValue> = events.iter().filter(|e| phase(e) == "f").collect();
    assert!(!starts.is_empty(), "no flow-start events");
    // Each flow start must have a matching finish with the same id on a
    // different pid (node) — one connected flow across the node boundary.
    for s in &starts {
        let id = s.get("id").and_then(|v| v.as_u64()).unwrap();
        let pid = s.get("pid").and_then(|v| v.as_u64()).unwrap();
        let f = finishes
            .iter()
            .find(|f| f.get("id").and_then(|v| v.as_u64()) == Some(id))
            .unwrap_or_else(|| panic!("flow {id} has no finish event"));
        assert_ne!(
            f.get("pid").and_then(|v| v.as_u64()).unwrap(),
            pid,
            "flow {id} does not cross a node boundary"
        );
    }
}

/// Deterministic LCG for interleaving choices (test-local; the sim's own
/// RNG is not involved).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// One scripted tracer operation of a synthetic request.
enum Op {
    /// Record a closed span on `node`.
    Span(u32, Stage),
    /// Capture the node's causal cursor into the request's carried context
    /// (what the DNE stamps into the payload before a send).
    Carry(u32),
    /// Install the carried context as the cursor on `node` (what the
    /// receive path does with the on-wire context).
    Adopt(u32),
}

/// The op sequence a multi-hop request issues: two fabric hops, with an
/// optional retry re-send under the same trace id between them (the PR 3
/// recovery path: the backoff span re-parents the downstream subtree).
fn script(retry: bool) -> Vec<Op> {
    let mut ops = vec![
        Op::Span(0, Stage::Gateway),
        Op::Span(0, Stage::DneTx),
        Op::Carry(0),
    ];
    if retry {
        // The retry parks, backs off, and re-stamps the context so the
        // remote side parents on the backoff span.
        ops.push(Op::Span(0, Stage::RetryBackoff));
        ops.push(Op::Carry(0));
    }
    ops.extend([
        Op::Adopt(1),
        Op::Span(1, Stage::RxCompletion),
        Op::Span(1, Stage::FnExec),
        Op::Carry(1),
        Op::Adopt(2),
        Op::Span(2, Stage::RxCompletion),
        Op::Span(2, Stage::FnExec),
    ]);
    ops
}

#[test]
fn any_interleaving_rebuilds_well_formed_trees() {
    const REQUESTS: u64 = 8;
    const SEEDS: u64 = 25;

    for seed in 0..SEEDS {
        let tracer = Tracer::enabled();
        let mut rng = Lcg(0x5eed ^ (seed.wrapping_mul(0x9e37_79b9)));
        // Per-request program counter and carried wire context.
        let mut progs: Vec<(u64, Vec<Op>, usize, u32)> = (0..REQUESTS)
            .map(|r| (1_000 + r, script(r % 2 == 1), 0, 0u32))
            .collect();
        let mut clock = 0u64;
        let mut live: Vec<usize> = (0..progs.len()).collect();
        while !live.is_empty() {
            let pick = live[(rng.next() % live.len() as u64) as usize];
            let (trace_id, ops, pc, carried) = &mut progs[pick];
            let tenant = (*trace_id % 3) as u16 + 1;
            match &ops[*pc] {
                Op::Span(node, stage) => {
                    let start = SimTime::from_nanos(clock);
                    let end = SimTime::from_nanos(clock + 5);
                    clock += 10;
                    tracer.span(*trace_id, tenant, *node, *stage, start, end);
                }
                Op::Carry(node) => *carried = tracer.cursor(*trace_id, *node),
                Op::Adopt(node) => tracer.adopt_parent(*trace_id, *node, *carried),
            }
            *pc += 1;
            if *pc == ops.len() {
                live.retain(|&i| i != pick);
            }
        }

        for (trace_id, ops, _, _) in &progs {
            let spans = tracer.take_trace(*trace_id);
            let expected = ops.iter().filter(|o| matches!(o, Op::Span(..))).count();
            assert_eq!(spans.len(), expected, "seed {seed} trace {trace_id}");
            assert_well_formed_tree(&spans);
            // The request visited three nodes; causality must connect them.
            let nodes: HashSet<u32> = spans.iter().map(|s| s.node).collect();
            assert_eq!(nodes.len(), 3, "seed {seed} trace {trace_id}");
            // On retried requests the remote receive parents on the
            // backoff span (the re-stamped context), not the original TX.
            if let Some(backoff) = spans.iter().find(|s| s.stage == Stage::RetryBackoff) {
                let rx1 = spans
                    .iter()
                    .find(|s| s.node == 1 && s.stage == Stage::RxCompletion)
                    .expect("node-1 receive span");
                assert_eq!(
                    rx1.parent_id, backoff.span_id,
                    "seed {seed}: retry re-send must re-parent the remote subtree"
                );
            }
        }
        assert!(tracer.is_empty(), "seed {seed}: traces left behind");
    }
}
