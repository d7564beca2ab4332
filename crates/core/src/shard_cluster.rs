//! A node-sharded cluster model on the parallel event core.
//!
//! This is the scale path the ROADMAP's parallel-DES item asks for: one
//! [`simcore::shard`] shard per simulated node, with every cross-node
//! interaction carried as a [`NetMsg`] through the conservative mailboxes
//! and priced by the fabric cost model ([`RdmaCosts`]). The lookahead is
//! the fabric's one-way latency floor ([`RdmaCosts::latency_floor`]) —
//! no RDMA message can land on a remote node faster, so every node may
//! safely simulate that far ahead of the global minimum.
//!
//! The model mirrors the shapes the figure reproductions sweep:
//!
//! - [`WorkloadKind::Echo`] — the fig06 shape: a closed-loop client node
//!   round-robins echo calls over the server nodes;
//! - [`WorkloadKind::Dag`] — the fig16 shape: each request fans out to
//!   every server node and fans back in (the Online Boutique style
//!   scatter/gather);
//! - an optional [`CrashWindow`] — the chaos shape: one node drops
//!   everything inside a window while client timeouts and bounded
//!   retries ride it out.
//!
//! The full-fidelity [`crate::cluster::Cluster`] (DNE descriptor
//! handling, Comch, admission, tracing) stays sequential and remains the
//! semantic oracle; this model trades its per-descriptor detail for
//! node-count scale. Confinement of the `Rc<RefCell<...>>` cluster state
//! (cluster, DNE, fabric, I/O library, obs hub) is enforced by the
//! compiler, not convention — none of it is `Send`, so it *cannot* reach
//! across shards; worker threads only ever receive `Send` factories and
//! build shard state locally:
//!
//! ```compile_fail
//! fn require_send<T: Send>() {}
//! // The full-fidelity cluster must never cross a shard boundary.
//! require_send::<nadino::cluster::Cluster>();
//! ```
//!
//! ```compile_fail
//! fn require_send<T: Send>() {}
//! // Neither must the DNE event loop.
//! require_send::<dne::Dne>();
//! ```
//!
//! Every statistic it produces is an integer
//! ([`NodeStats`]), so a report's [`determinism_digest`]
//! (`ShardClusterReport::determinism_digest`) is byte-stable and the
//! differential suites can assert sharded-vs-sequential identity across
//! worker counts with plain string equality.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use rdma_sim::cost::RdmaCosts;
use simcore::shard::{
    Envelope, Outbox, ShardBuildError, ShardEnv, ShardId, ShardProfile, ShardSetup, ShardedSim,
};
use simcore::{Histogram, Sim, SimDuration, SimTime, TimerHandle};

/// Per-message wire overhead added to the payload: descriptor + headers.
const WIRE_HEADER_BYTES: usize = 64;

/// Which request shape the cluster runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Closed-loop echo: each request is one call to one server node,
    /// round-robined — the fig06 shape.
    Echo,
    /// Scatter/gather: each request calls *every* server node and
    /// completes when all replies arrive — the fig16 shape.
    Dag,
}

/// One node dropping every incoming call inside a virtual-time window —
/// the chaos-suite crash shape (the node's event loop keeps running; its
/// service simply discards work, like a crashed DNE).
#[derive(Debug, Clone, Copy)]
pub struct CrashWindow {
    /// The node that crashes (must be a server node, i.e. `>= 1`).
    pub node: u32,
    /// First instant of the outage.
    pub from: SimTime,
    /// First instant *after* the outage.
    pub until: SimTime,
}

/// Configuration of a sharded cluster run.
#[derive(Debug, Clone)]
pub struct ShardClusterConfig {
    /// Total nodes; node 0 is the closed-loop client, the rest serve.
    pub nodes: usize,
    /// Concurrent outstanding requests on the client.
    pub clients: usize,
    /// Virtual time after which the client stops issuing new requests.
    pub horizon: SimDuration,
    /// Request payload bytes (replies echo the same size).
    pub payload: usize,
    /// Root seed; every shard derives its own streams from it.
    pub seed: u64,
    /// Fabric cost model; its latency floor becomes the lookahead.
    pub costs: RdmaCosts,
    /// Mean per-call service cost on a server core.
    pub exec_cost: SimDuration,
    /// Service cores per server node.
    pub host_cores: usize,
    /// Request shape.
    pub workload: WorkloadKind,
    /// Optional crash window on one server node.
    pub crash: Option<CrashWindow>,
    /// Client-side RPC timeout before a retry.
    pub rpc_timeout: SimDuration,
    /// Retries before the client gives a request up as failed.
    pub max_retries: u32,
}

impl Default for ShardClusterConfig {
    fn default() -> Self {
        ShardClusterConfig {
            nodes: 4,
            clients: 8,
            horizon: SimDuration::from_millis(5),
            payload: 1024,
            seed: 1,
            costs: RdmaCosts::default(),
            exec_cost: SimDuration::from_micros(10),
            host_cores: 4,
            workload: WorkloadKind::Echo,
            crash: None,
            rpc_timeout: SimDuration::from_micros(500),
            max_retries: 3,
        }
    }
}

/// The cross-shard message alphabet.
#[derive(Debug, Clone)]
pub enum NetMsg {
    /// A request leg from the client to one server.
    Call {
        /// Request id, unique per logical request.
        req_id: u64,
        /// Retry generation; replies to stale attempts are ignored.
        attempt: u32,
        /// Payload bytes.
        bytes: usize,
        /// The calling shard (where the reply goes).
        from: ShardId,
    },
    /// A server's answer to one call leg.
    Reply {
        /// Echoed request id.
        req_id: u64,
        /// Echoed retry generation.
        attempt: u32,
        /// Payload bytes.
        bytes: usize,
    },
}

/// Integer-only per-node statistics; `Debug` output is byte-stable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// The node this row describes.
    pub node: u32,
    /// Requests the client issued (client row only).
    pub issued: u64,
    /// Requests completed with all replies in hand.
    pub completed: u64,
    /// Requests abandoned after `max_retries` timeouts.
    pub failed: u64,
    /// Timeout-driven retransmissions.
    pub retries: u64,
    /// Calls a server executed to completion.
    pub served: u64,
    /// Calls a server discarded inside its crash window.
    pub dropped: u64,
    /// Sum of completed-request latencies, ns.
    pub latency_ns_sum: u64,
    /// Worst completed-request latency, ns.
    pub latency_ns_max: u64,
    /// Virtual ns of server-core busy time.
    pub busy_ns: u64,
}

/// How many of the slowest completed requests the client shard retains
/// as resolvable trace records for its latency exemplars.
const SLOW_TRACE_CAP: usize = 16;

/// A retained record of one slow completed request — the shard world's
/// equivalent of a flight-recorder trace. The client shard keeps the
/// [`SLOW_TRACE_CAP`] slowest completions so every latency exemplar in
/// the fleet report resolves to a concrete record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardTrace {
    /// Request id (doubles as the exemplar's trace id).
    pub req_id: u64,
    /// Virtual instant the request was first issued, ns.
    pub start_ns: u64,
    /// Virtual instant the final leg replied, ns.
    pub end_ns: u64,
    /// Timeout-driven retransmissions the request needed.
    pub retries: u32,
}

impl ShardTrace {
    /// Completed-request latency, ns.
    pub fn latency_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

obs::impl_to_json!(ShardTrace {
    req_id,
    start_ns,
    end_ns,
    retries
});

/// Client-side latency observability carried out of the shard world:
/// the request-latency histogram, its exemplars, and the retained
/// slowest-request records the exemplars resolve against.
#[derive(Debug, Clone, Default)]
pub struct ClientLatencyObs {
    /// Completed-request latency distribution.
    pub hist: Histogram,
    /// One exemplar slot per histogram bucket, keyed by request id.
    pub exemplars: obs::ExemplarSet,
    /// The [`SLOW_TRACE_CAP`] slowest completions, slowest first.
    pub slow_traces: Vec<ShardTrace>,
}

impl ClientLatencyObs {
    /// `true` when every exemplar's trace id is resolvable: either it
    /// appears in the retained slow-trace table, or its bucket is below
    /// every retained latency (fast buckets are summarized, not traced).
    pub fn exemplars_resolvable(&self) -> bool {
        let floor = self.slow_traces.last().map_or(u64::MAX, |t| t.latency_ns());
        self.exemplars.exemplars().all(|ex| {
            ex.value_ns <= floor || self.slow_traces.iter().any(|t| t.req_id == ex.trace_id)
        })
    }

    /// JSON form: quantiles, exemplars, and the slow-trace table.
    pub fn to_json(&self) -> obs::JsonValue {
        use obs::{JsonValue, ToJson};
        JsonValue::obj(vec![
            ("count", JsonValue::UInt(self.hist.count())),
            (
                "p50_ns",
                JsonValue::UInt(self.hist.percentile(50.0).as_nanos()),
            ),
            (
                "p99_ns",
                JsonValue::UInt(self.hist.percentile(99.0).as_nanos()),
            ),
            ("max_ns", JsonValue::UInt(self.hist.max().as_nanos())),
            ("exemplars", self.exemplars.to_json()),
            (
                "slow_traces",
                JsonValue::Arr(self.slow_traces.iter().map(|t| t.to_json()).collect()),
            ),
        ])
    }
}

/// The outcome of a sharded cluster run.
#[derive(Debug, Clone)]
pub struct ShardClusterReport {
    /// Per-node statistics, indexed by node id.
    pub stats: Vec<NodeStats>,
    /// Per-shard engine profiles, indexed by node id.
    pub profiles: Vec<ShardProfile>,
    /// Conservative windows executed.
    pub windows: u64,
    /// Final virtual instant, ns.
    pub now_ns: u64,
    /// Events executed across all shards.
    pub total_events: u64,
    /// Wall-clock duration of the run, ns (excluded from the digest).
    pub wall_ns: u64,
    /// Worker threads used (excluded from the digest).
    pub workers: usize,
    /// The lookahead the run synchronized on, ns.
    pub lookahead_ns: u64,
    /// Client request-latency histogram, exemplars, and slow-trace
    /// records (excluded from the digest: the histogram and exemplar
    /// content is fully determined by `stats`' deterministic inputs, and
    /// keeping the digest format fixed keeps committed baselines valid).
    pub latency: ClientLatencyObs,
}

impl ShardClusterReport {
    /// Requests the client completed.
    pub fn completed(&self) -> u64 {
        self.stats.first().map_or(0, |s| s.completed)
    }

    /// Aggregate wall-clock event throughput.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.total_events as f64 * 1e9 / self.wall_ns as f64
        }
    }

    /// A byte-stable digest of everything virtual-time-deterministic in
    /// the run: node statistics, shard profiles, window count, final
    /// clock, lookahead. Wall-clock and worker count are deliberately
    /// excluded — the digest must be identical for every `workers`
    /// value, and the differential suites assert exactly that.
    pub fn determinism_digest(&self) -> String {
        format!(
            "{:?}|{:?}|windows={}|now={}|events={}|lookahead={}",
            self.stats,
            self.profiles,
            self.windows,
            self.now_ns,
            self.total_events,
            self.lookahead_ns
        )
    }

    /// Exports the shard-health gauges through the standard metrics
    /// path, so lookahead-starved topologies show up in `--metrics-out`:
    /// `shard_barrier_stalls`, `shard_mailbox_depth` (peak single drain),
    /// `shard_window_ns` (mean conservative-window advance).
    pub fn export_metrics(&self, reg: &obs::MetricsRegistry) {
        for p in &self.profiles {
            let label = p.shard.to_string();
            let labels = [("shard", label.as_str())];
            reg.gauge("shard_barrier_stalls", &labels)
                .set(p.barrier_stalls as f64);
            reg.gauge("shard_mailbox_depth", &labels)
                .set(p.mailbox_depth_peak as f64);
            reg.gauge("shard_window_ns", &labels)
                .set(p.mean_window_ns());
        }
        reg.gauge("shard_windows_total", &[])
            .set(self.windows as f64);
        reg.gauge("shard_lookahead_ns", &[])
            .set(self.lookahead_ns as f64);
    }

    /// Per-shard wall-time attribution ({execute, barrier-stall,
    /// mailbox-drain, idle}) derived from the run's engine profiles.
    pub fn shard_split(&self) -> Vec<obs::ShardSplit> {
        obs::ShardSplit::from_profiles(&self.profiles)
    }
}

/// In-flight bookkeeping for one client request.
struct Pending {
    attempt: u32,
    outstanding: u32,
    retries: u32,
    issued_at: SimTime,
    timer: Option<TimerHandle>,
}

/// Client-shard state, confined to the client's worker thread.
struct ClientState {
    cfg: ShardClusterConfig,
    outbox: Outbox<NetMsg>,
    me: ShardId,
    next_req: u64,
    pending: HashMap<u64, Pending>,
    stats: NodeStats,
    horizon: SimTime,
    latency: ClientLatencyObs,
}

impl ClientState {
    /// Records one completed request into the latency histogram, offers
    /// an exemplar keyed by request id, and keeps the slow-trace table
    /// bounded at the [`SLOW_TRACE_CAP`] slowest completions.
    fn record_completion(&mut self, req_id: u64, issued_at: SimTime, now: SimTime, retries: u32) {
        let latency = (now - issued_at).as_nanos();
        self.latency.hist.record(now - issued_at);
        self.latency.exemplars.offer(latency, req_id, 0);
        let trace = ShardTrace {
            req_id,
            start_ns: issued_at.as_nanos(),
            end_ns: now.as_nanos(),
            retries,
        };
        let slow = &mut self.latency.slow_traces;
        slow.push(trace);
        slow.sort_by(|a, b| {
            b.latency_ns()
                .cmp(&a.latency_ns())
                .then(a.req_id.cmp(&b.req_id))
        });
        slow.truncate(SLOW_TRACE_CAP);
    }
}

impl ClientState {
    fn servers(&self) -> u32 {
        (self.cfg.nodes - 1) as u32
    }

    /// The server legs of request `req_id` under the configured shape.
    fn targets(&self, req_id: u64) -> Vec<ShardId> {
        match self.cfg.workload {
            WorkloadKind::Echo => vec![ShardId(1 + (req_id % self.servers() as u64) as u32)],
            WorkloadKind::Dag => (1..=self.servers()).map(ShardId).collect(),
        }
    }

    fn call_latency(&self) -> SimDuration {
        self.cfg.costs.one_way(self.cfg.payload + WIRE_HEADER_BYTES)
    }

    /// Sends (or resends) every leg of `req_id` at generation `attempt`.
    fn send_legs(&mut self, now: SimTime, req_id: u64, attempt: u32) {
        let latency = self.call_latency();
        for dst in self.targets(req_id) {
            self.outbox.send(
                now,
                dst,
                latency,
                NetMsg::Call {
                    req_id,
                    attempt,
                    bytes: self.cfg.payload,
                    from: self.me,
                },
            );
        }
    }
}

fn arm_timeout(state: &Rc<RefCell<ClientState>>, sim: &mut Sim, req_id: u64) -> TimerHandle {
    let deadline = sim.now() + state.borrow().cfg.rpc_timeout;
    let st = state.clone();
    sim.schedule_at(deadline, move |sim| on_timeout(&st, sim, req_id))
}

/// Issues a fresh request if the horizon has not passed.
fn issue_next(state: &Rc<RefCell<ClientState>>, sim: &mut Sim) {
    let now = sim.now();
    {
        let s = state.borrow();
        if now >= s.horizon {
            return;
        }
    }
    let req_id = {
        let mut s = state.borrow_mut();
        let id = s.next_req;
        s.next_req += 1;
        s.stats.issued += 1;
        let outstanding = s.targets(id).len() as u32;
        s.send_legs(now, id, 0);
        s.pending.insert(
            id,
            Pending {
                attempt: 0,
                outstanding,
                retries: 0,
                issued_at: now,
                timer: None,
            },
        );
        id
    };
    let timer = arm_timeout(state, sim, req_id);
    if let Some(p) = state.borrow_mut().pending.get_mut(&req_id) {
        p.timer = Some(timer);
    }
}

fn on_timeout(state: &Rc<RefCell<ClientState>>, sim: &mut Sim, req_id: u64) {
    enum Action {
        Gone,
        GiveUp,
        Retry,
    }
    let now = sim.now();
    let action = {
        let mut s = state.borrow_mut();
        let max_retries = s.cfg.max_retries;
        match s.pending.get_mut(&req_id) {
            None => Action::Gone, // Completed just before the timer fired.
            Some(p) if p.retries >= max_retries => Action::GiveUp,
            Some(p) => {
                p.retries += 1;
                p.attempt += 1;
                Action::Retry
            }
        }
    };
    match action {
        Action::Gone => {}
        Action::GiveUp => {
            let mut s = state.borrow_mut();
            s.pending.remove(&req_id);
            s.stats.failed += 1;
            drop(s);
            issue_next(state, sim);
        }
        Action::Retry => {
            {
                let mut s = state.borrow_mut();
                let attempt = s.pending[&req_id].attempt;
                let outstanding = s.targets(req_id).len() as u32;
                s.pending
                    .get_mut(&req_id)
                    .expect("still pending")
                    .outstanding = outstanding;
                s.stats.retries += 1;
                s.send_legs(now, req_id, attempt);
            }
            let timer = arm_timeout(state, sim, req_id);
            if let Some(p) = state.borrow_mut().pending.get_mut(&req_id) {
                p.timer = Some(timer);
            }
        }
    }
}

fn on_reply(state: &Rc<RefCell<ClientState>>, sim: &mut Sim, req_id: u64, attempt: u32) {
    let done = {
        let mut s = state.borrow_mut();
        let Some(p) = s.pending.get_mut(&req_id) else {
            return; // Duplicate reply after completion or give-up.
        };
        if p.attempt != attempt {
            return; // Stale generation: a pre-retry reply arriving late.
        }
        p.outstanding -= 1;
        p.outstanding == 0
    };
    if !done {
        return;
    }
    let timer = {
        let mut s = state.borrow_mut();
        let p = s.pending.remove(&req_id).expect("checked above");
        let latency = (sim.now() - p.issued_at).as_nanos();
        s.stats.completed += 1;
        s.stats.latency_ns_sum += latency;
        s.stats.latency_ns_max = s.stats.latency_ns_max.max(latency);
        s.record_completion(req_id, p.issued_at, sim.now(), p.retries);
        p.timer
    };
    if let Some(t) = timer {
        sim.cancel(t);
    }
    issue_next(state, sim);
}

/// Server-shard state, confined to its worker thread.
struct ServerState {
    node: u32,
    cfg: ShardClusterConfig,
    outbox: Outbox<NetMsg>,
    rng: simcore::SimRng,
    queue: std::collections::VecDeque<NetMsg>,
    free_cores: usize,
    stats: NodeStats,
}

impl ServerState {
    fn crashed(&self, now: SimTime) -> bool {
        match self.cfg.crash {
            Some(w) => w.node == self.node && now >= w.from && now < w.until,
            None => false,
        }
    }

    /// Service time for one call: configured cost plus ±25% jitter from
    /// this shard's private stream.
    fn service_time(&mut self) -> SimDuration {
        let base = self.cfg.exec_cost.as_nanos();
        let jitter = base / 2;
        let t = if jitter > 0 {
            base - jitter / 2 + self.rng.gen_range(jitter + 1)
        } else {
            base
        };
        SimDuration::from_nanos(t.max(1))
    }
}

fn server_pump(state: &Rc<RefCell<ServerState>>, sim: &mut Sim) {
    loop {
        let job = {
            let mut s = state.borrow_mut();
            if s.free_cores == 0 {
                return;
            }
            match s.queue.pop_front() {
                Some(j) => {
                    s.free_cores -= 1;
                    j
                }
                None => return,
            }
        };
        let NetMsg::Call {
            req_id,
            attempt,
            bytes,
            from,
        } = job
        else {
            unreachable!("servers only queue calls");
        };
        let service = state.borrow_mut().service_time();
        let st = state.clone();
        let done_at = sim.now() + service;
        sim.schedule_at(done_at, move |sim| {
            {
                let mut s = st.borrow_mut();
                s.free_cores += 1;
                s.stats.served += 1;
                s.stats.busy_ns += service.as_nanos();
                let lat = s.cfg.costs.one_way(bytes + WIRE_HEADER_BYTES);
                s.outbox.send(
                    sim.now(),
                    from,
                    lat,
                    NetMsg::Reply {
                        req_id,
                        attempt,
                        bytes,
                    },
                );
            }
            server_pump(&st, sim);
        });
    }
}

/// Builds the sharded cluster: one shard per node, client on shard 0.
///
/// Fails with [`ShardBuildError::ZeroLookahead`] when the cost model's
/// latency floor is zero — a zero-latency fabric admits no conservative
/// window.
pub fn build(cfg: ShardClusterConfig) -> Result<ShardedSim<NetMsg, NodeStats>, ShardBuildError> {
    build_inner(cfg, None)
}

/// [`build`], optionally threading a latency-observability sink into the
/// client shard. The sink is an `Arc<Mutex<..>>` because the client's
/// `finish` hook runs on a worker thread; its content is nonetheless
/// deterministic — it is written exactly once, from virtual-time state.
fn build_inner(
    cfg: ShardClusterConfig,
    latency_sink: Option<Arc<Mutex<ClientLatencyObs>>>,
) -> Result<ShardedSim<NetMsg, NodeStats>, ShardBuildError> {
    assert!(cfg.nodes >= 2, "need a client and at least one server");
    assert!(cfg.clients >= 1, "closed loop needs at least one client");
    assert!(cfg.host_cores >= 1, "servers need at least one core");
    let lookahead = cfg.costs.latency_floor();
    let mut b: simcore::shard::ShardedSimBuilder<NetMsg, NodeStats> =
        simcore::shard::ShardedSimBuilder::new(lookahead, cfg.seed);

    let client_cfg = cfg.clone();
    b.add_shard(move |env: &mut ShardEnv<'_, NetMsg>| {
        let horizon = SimTime::ZERO + client_cfg.horizon;
        let state = Rc::new(RefCell::new(ClientState {
            me: env.id(),
            outbox: env.outbox(),
            next_req: 0,
            pending: HashMap::new(),
            stats: NodeStats {
                node: env.id().0,
                ..NodeStats::default()
            },
            horizon,
            cfg: client_cfg,
            latency: ClientLatencyObs::default(),
        }));
        let clients = state.borrow().cfg.clients;
        for _ in 0..clients {
            let st = state.clone();
            env.sim.schedule_now(move |sim| issue_next(&st, sim));
        }
        let st = state.clone();
        let on_message = Box::new(move |sim: &mut Sim, env: Envelope<NetMsg>| {
            if let NetMsg::Reply {
                req_id, attempt, ..
            } = env.msg
            {
                on_reply(&st, sim, req_id, attempt);
            }
        });
        let sink = latency_sink.clone();
        let finish = Box::new(move |_: &mut Sim| {
            let s = state.borrow();
            if let Some(sink) = &sink {
                *sink.lock().expect("latency sink poisoned") = s.latency.clone();
            }
            s.stats
        });
        ShardSetup { on_message, finish }
    });

    for node in 1..cfg.nodes as u32 {
        let server_cfg = cfg.clone();
        b.add_shard(move |env: &mut ShardEnv<'_, NetMsg>| {
            let state = Rc::new(RefCell::new(ServerState {
                node,
                outbox: env.outbox(),
                rng: env.rng_stream(),
                queue: std::collections::VecDeque::new(),
                free_cores: server_cfg.host_cores,
                stats: NodeStats {
                    node,
                    ..NodeStats::default()
                },
                cfg: server_cfg,
            }));
            let st = state.clone();
            let on_message = Box::new(move |sim: &mut Sim, env: Envelope<NetMsg>| {
                if let NetMsg::Call { .. } = env.msg {
                    let crashed = st.borrow().crashed(sim.now());
                    if crashed {
                        st.borrow_mut().stats.dropped += 1;
                        return;
                    }
                    st.borrow_mut().queue.push_back(env.msg);
                    server_pump(&st, sim);
                }
            });
            let finish = Box::new(move |_: &mut Sim| state.borrow().stats);
            ShardSetup { on_message, finish }
        });
    }

    b.build()
}

/// Builds and runs the cluster on `workers` threads, folding the result
/// into a [`ShardClusterReport`].
pub fn run(cfg: ShardClusterConfig, workers: usize) -> ShardClusterReport {
    let lookahead = cfg.costs.latency_floor();
    let sink = Arc::new(Mutex::new(ClientLatencyObs::default()));
    let sharded =
        build_inner(cfg, Some(sink.clone())).expect("default cost model has a non-zero floor");
    let run = sharded.run(workers);
    let total_events = run.total_executed();
    let latency = std::mem::take(&mut *sink.lock().expect("latency sink poisoned"));
    ShardClusterReport {
        stats: run.outputs,
        profiles: run.profiles,
        windows: run.windows,
        now_ns: run.now.as_nanos(),
        total_events,
        wall_ns: run.wall_ns,
        workers: run.workers,
        lookahead_ns: lookahead.as_nanos(),
        latency,
    }
}

/// One row of the parallel-core benchmark: a workload run sequentially
/// (1 worker) and sharded (`workers` threads), with the determinism
/// check applied to the pair.
#[derive(Debug, Clone)]
pub struct ParallelRow {
    pub workload: String,
    pub nodes: usize,
    pub events: u64,
    pub seq_events_per_sec: f64,
    pub par_events_per_sec: f64,
    pub speedup: f64,
    pub byte_identical: bool,
    pub windows: u64,
    pub barrier_stalls: u64,
    pub mailbox_depth_peak: u64,
    pub completed: u64,
}

obs::impl_to_json!(ParallelRow {
    workload,
    nodes,
    events,
    seq_events_per_sec,
    par_events_per_sec,
    speedup,
    byte_identical,
    windows,
    barrier_stalls,
    mailbox_depth_peak,
    completed
});

/// The parallel-core benchmark (`results/BENCH_parallel.json`).
#[derive(Debug, Clone)]
pub struct ParallelReport {
    /// Worker threads the parallel runs used.
    pub workers: usize,
    /// Cores the machine actually has — interpret speedups against this:
    /// on a core-starved box the determinism columns are the signal and
    /// the speedup is just the measured ratio.
    pub host_cores: usize,
    pub rows: Vec<ParallelRow>,
    /// The per-workload sharded reports behind `rows`, kept (but not
    /// serialized into `BENCH_parallel.json`) so callers can export the
    /// shard-health gauges through the standard metrics path.
    pub shard_reports: Vec<(String, ShardClusterReport)>,
}

obs::impl_to_json!(ParallelReport {
    workers,
    host_cores,
    rows
});

impl ParallelReport {
    /// True when every row's sharded run matched its sequential digest.
    pub fn all_deterministic(&self) -> bool {
        self.rows.iter().all(|r| r.byte_identical)
    }

    /// Exports every workload's shard-health gauges, labelled by
    /// `(workload, shard)` so the cells don't clobber each other — this
    /// is what `experiments --shards N parallel --metrics-out m.json`
    /// writes into the metrics snapshot.
    pub fn export_metrics(&self, reg: &obs::MetricsRegistry) {
        for (workload, rep) in &self.shard_reports {
            for p in &rep.profiles {
                let shard = p.shard.to_string();
                let labels = [("workload", workload.as_str()), ("shard", shard.as_str())];
                reg.gauge("shard_barrier_stalls", &labels)
                    .set(p.barrier_stalls as f64);
                reg.gauge("shard_mailbox_depth", &labels)
                    .set(p.mailbox_depth_peak as f64);
                reg.gauge("shard_window_ns", &labels)
                    .set(p.mean_window_ns());
            }
            let wl = [("workload", workload.as_str())];
            reg.gauge("shard_windows_total", &wl)
                .set(rep.windows as f64);
            reg.gauge("shard_lookahead_ns", &wl)
                .set(rep.lookahead_ns as f64);
        }
    }

    /// Renders the benchmark as a text table.
    pub fn render(&self) -> String {
        use crate::report::{fmt_f64, render_table};
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.workload.clone(),
                    r.nodes.to_string(),
                    r.events.to_string(),
                    fmt_f64(r.seq_events_per_sec),
                    fmt_f64(r.par_events_per_sec),
                    fmt_f64(r.speedup),
                    r.byte_identical.to_string(),
                    r.windows.to_string(),
                    r.barrier_stalls.to_string(),
                ]
            })
            .collect();
        render_table(
            &format!(
                "Parallel event core - sharded vs sequential ({} workers, {} host cores)",
                self.workers, self.host_cores
            ),
            &[
                "workload",
                "nodes",
                "events",
                "seq_ev_per_s",
                "par_ev_per_s",
                "speedup",
                "byte_identical",
                "windows",
                "stalls",
            ],
            &rows,
        )
    }
}

/// The benchmark workload matrix: echo, scatter/gather DAG, and echo
/// through a crash window.
fn bench_cfg(workload: WorkloadKind, crash: bool, quick: bool) -> ShardClusterConfig {
    let horizon = if quick {
        SimDuration::from_millis(5)
    } else {
        SimDuration::from_millis(40)
    };
    ShardClusterConfig {
        nodes: 8,
        clients: 48,
        horizon,
        seed: 42,
        workload,
        crash: crash.then_some(CrashWindow {
            node: 2,
            from: SimTime::from_nanos(horizon.as_nanos() / 4),
            until: SimTime::from_nanos(horizon.as_nanos() / 2),
        }),
        ..ShardClusterConfig::default()
    }
}

/// Runs the sharded-vs-sequential benchmark: each workload once on one
/// worker (the oracle) and once on `workers` threads, asserting digest
/// equality and recording the measured throughput ratio.
pub fn bench_report(quick: bool, workers: usize) -> ParallelReport {
    let cells = [
        ("echo", WorkloadKind::Echo, false),
        ("dag", WorkloadKind::Dag, false),
        ("echo+crash", WorkloadKind::Echo, true),
    ];
    let mut rows = Vec::new();
    let mut shard_reports = Vec::new();
    for (name, workload, crash) in cells {
        let seq = run(bench_cfg(workload, crash, quick), 1);
        let par = run(bench_cfg(workload, crash, quick), workers);
        let byte_identical = seq.determinism_digest() == par.determinism_digest();
        rows.push(ParallelRow {
            workload: name.to_string(),
            nodes: 8,
            events: par.total_events,
            seq_events_per_sec: seq.events_per_sec(),
            par_events_per_sec: par.events_per_sec(),
            speedup: if seq.events_per_sec() > 0.0 {
                par.events_per_sec() / seq.events_per_sec()
            } else {
                0.0
            },
            byte_identical,
            windows: par.windows,
            barrier_stalls: par.profiles.iter().map(|p| p.barrier_stalls).sum(),
            mailbox_depth_peak: par
                .profiles
                .iter()
                .map(|p| p.mailbox_depth_peak as u64)
                .max()
                .unwrap_or(0),
            completed: par.completed(),
        });
        shard_reports.push((name.to_string(), par));
    }
    ParallelReport {
        workers,
        host_cores: crate::experiment::parallel::default_jobs(),
        rows,
        shard_reports,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(workload: WorkloadKind, seed: u64) -> ShardClusterConfig {
        ShardClusterConfig {
            nodes: 4,
            clients: 4,
            horizon: SimDuration::from_millis(1),
            seed,
            workload,
            ..ShardClusterConfig::default()
        }
    }

    #[test]
    fn echo_completes_requests_and_is_deterministic() {
        let a = run(quick_cfg(WorkloadKind::Echo, 42), 1);
        assert!(a.completed() > 10, "completed {}", a.completed());
        assert_eq!(a.stats[0].failed, 0, "no failures without faults");
        let b = run(quick_cfg(WorkloadKind::Echo, 42), 2);
        assert_eq!(a.determinism_digest(), b.determinism_digest());
    }

    #[test]
    fn dag_waits_for_every_leg() {
        let r = run(quick_cfg(WorkloadKind::Dag, 7), 1);
        assert!(r.completed() > 5);
        let served: u64 = r.stats.iter().map(|s| s.served).sum();
        // Every completed request touched all three servers.
        assert!(served >= r.completed() * 3, "served {served}");
    }

    #[test]
    fn crash_window_forces_retries_but_not_hangs() {
        let mut cfg = quick_cfg(WorkloadKind::Echo, 9001);
        cfg.crash = Some(CrashWindow {
            node: 1,
            from: SimTime::from_nanos(100_000),
            until: SimTime::from_nanos(400_000),
        });
        let r = run(cfg.clone(), 1);
        assert!(r.stats[0].retries > 0, "outage must force retries");
        assert!(r.stats[1].dropped > 0, "node 1 dropped traffic");
        assert!(r.completed() > 0, "traffic resumes after the window");
        let r2 = run(cfg, 2);
        assert_eq!(r.determinism_digest(), r2.determinism_digest());
    }

    #[test]
    fn latency_obs_matches_stats_and_exemplars_resolve() {
        let r = run(quick_cfg(WorkloadKind::Echo, 42), 2);
        assert_eq!(
            r.latency.hist.count(),
            r.completed(),
            "every completion lands in the histogram"
        );
        assert_eq!(
            r.latency.hist.max().as_nanos(),
            r.stats[0].latency_ns_max,
            "histogram max agrees with the integer stats"
        );
        assert!(!r.latency.exemplars.is_empty(), "exemplars were offered");
        assert!(!r.latency.slow_traces.is_empty());
        assert!(
            r.latency.slow_traces.len() <= SLOW_TRACE_CAP,
            "slow-trace table is bounded"
        );
        assert!(
            r.latency.exemplars_resolvable(),
            "every tail exemplar resolves to a retained slow trace"
        );
        // The slowest retained trace is the worst completion.
        assert_eq!(
            r.latency.slow_traces[0].latency_ns(),
            r.stats[0].latency_ns_max
        );
        // Latency obs is as deterministic as the digest.
        let r2 = run(quick_cfg(WorkloadKind::Echo, 42), 1);
        assert_eq!(
            r.latency.to_json().to_string_pretty(),
            r2.latency.to_json().to_string_pretty(),
            "latency obs must be byte-identical across worker counts"
        );
    }

    #[test]
    fn zero_latency_fabric_is_rejected() {
        let mut cfg = quick_cfg(WorkloadKind::Echo, 1);
        cfg.costs.rnic_tx_fixed = SimDuration::ZERO;
        cfg.costs.rnic_rx_fixed = SimDuration::ZERO;
        cfg.costs.propagation = SimDuration::ZERO;
        assert_eq!(build(cfg).err(), Some(ShardBuildError::ZeroLookahead));
    }

    #[test]
    fn bench_report_is_deterministic_and_renders() {
        let rep = bench_report(true, 2);
        assert_eq!(rep.rows.len(), 3);
        assert!(rep.all_deterministic(), "{}", rep.render());
        assert!(rep.render().contains("echo+crash"));
        assert!(rep.rows.iter().all(|r| r.events > 0 && r.completed > 0));
    }

    #[test]
    fn bench_report_exports_workload_labelled_gauges() {
        let rep = bench_report(true, 2);
        let reg = obs::MetricsRegistry::new();
        rep.export_metrics(&reg);
        let snap = reg.snapshot();
        for workload in ["echo", "dag", "echo+crash"] {
            assert!(snap
                .gauge(
                    "shard_barrier_stalls",
                    &[("workload", workload), ("shard", "0")]
                )
                .is_some());
            assert!(snap
                .gauge("shard_lookahead_ns", &[("workload", workload)])
                .is_some());
        }
    }

    #[test]
    fn metrics_export_surfaces_shard_health() {
        let r = run(quick_cfg(WorkloadKind::Echo, 1), 1);
        let reg = obs::MetricsRegistry::new();
        r.export_metrics(&reg);
        let snap = reg.snapshot();
        assert!(snap.gauge("shard_window_ns", &[("shard", "0")]).is_some());
        assert!(snap
            .gauge("shard_barrier_stalls", &[("shard", "1")])
            .is_some());
        assert_eq!(
            snap.gauge("shard_lookahead_ns", &[]),
            Some(r.lookahead_ns as f64)
        );
    }
}
