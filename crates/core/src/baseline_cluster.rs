//! Chain execution on the comparison systems.
//!
//! A [`BaselineCluster`] runs the same chains as the real NADINO cluster,
//! but over one engine core per node, a [`Server`] charged
//! [`baselines::systems::EngineCosts::service`] per message, parameterized by
//! the system's [`Modelled`] plane: kernel TCP hops for SPRIGHT,
//! one-sided-write-plus-copy hops for FUYAO, userspace TCP everywhere for
//! Junction, single-node shared memory for NightCore. Requests enter only
//! through [`BaselineCluster::serve_chain`], a door of the same shape as
//! [`crate::cluster::Cluster::serve_chain`].

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use baselines::systems::{EngineCores, Modelled};
use dpu_sim::soc::{Processor, ProcessorKind};
use ingress::gateway::{Reply, ReqCtx, Upstream};
use runtime::ChainSpec;
use simcore::{Driver, Machine, Server, Sim, SimDuration, SimTime, Sink};

use crate::cluster::HOST_CORES;

/// Worker nodes of a comparator cluster (one for a single-node design).
const WORKERS: usize = 2;

struct BNode {
    cpu: Processor,
    /// The node's network-engine core.
    engine: Server,
}

/// A comparator cluster's nodes and placement: a machine whose inputs are
/// its requests' legs.
struct Comparators {
    model: Modelled,
    nodes: RefCell<Vec<BNode>>,
    placement: RefCell<HashMap<u16, usize>>,
}

/// One request on its way through a chain.
struct Request {
    /// The chain's functions as each one's node and execution cost.
    hops: Rc<[(usize, SimDuration)]>,
    payload: usize,
    reply: Reply,
}

/// What comes due for a request, in the order its hops meet them.
enum Leg {
    /// The request reached the entry function's node, whose host cores
    /// terminate its TCP connection for `.0` (deferred conversion).
    Entered(SimDuration),
    /// Hop `.0`'s function starts on its node's host cores.
    Run(usize),
    /// Hop `.0`'s function finished: answer the request, or send it on.
    Ran(usize),
    /// The message to hop `.0` left its source engine, bound for node
    /// `.1`'s engine one transport latency away — or, with `None`, a local
    /// hop through the engine, one IPC latency away.
    Sent(usize, Option<usize>),
    /// The message to hop `.0` reached node `.1`'s engine.
    Arrived(usize, usize),
}

/// What a leg leads to: the request's next leg, or its answer.
enum Out {
    At(SimTime, Request, Leg),
    Answer(Request),
}

/// Every output applies at once: a step drops its borrow before it emits.
impl Machine for Comparators {
    type In = (Request, Leg);
    type Out = Out;
    type Answer = ();

    fn step(&self, now: SimTime, (req, leg): (Request, Leg), sink: &mut Sink<'_, Self>) {
        let (model, mut nodes) = (&self.model, self.nodes.borrow_mut());
        let node_of = |hop: usize| req.hops[hop].0;
        let (at, next) = match leg {
            Leg::Entered(cost) => (nodes[node_of(0)].cpu.run(now, cost), Leg::Run(0)),
            Leg::Run(hop) => {
                let (node, cost) = req.hops[hop];
                (nodes[node].cpu.run(now, cost), Leg::Ran(hop))
            }
            Leg::Ran(hop) if hop + 1 == req.hops.len() => {
                drop(nodes);
                return sink.put(Out::Answer(req));
            }
            Leg::Ran(hop) => {
                let next = hop + 1;
                let (src, dst) = (node_of(hop), node_of(next));
                if src != dst || model.intra_via_engine {
                    let service = model.engine.service(req.payload);
                    let sent = nodes[src].engine.admit(now, service);
                    (sent, Leg::Sent(next, (src != dst).then_some(dst)))
                } else {
                    // IPC on the host cores plus, for designs with separate
                    // pools, a memory-bound copy.
                    let intra = &model.intra;
                    let mut service = intra.cpu;
                    if let Some(rate) = intra.copy_rate {
                        service += SimDuration::from_secs_f64(req.payload as f64 / rate);
                    }
                    let done = nodes[src].cpu.run(now, service);
                    (done + intra.latency, Leg::Run(next))
                }
            }
            Leg::Sent(next, Some(dst)) => (now + model.engine.hop_latency, Leg::Arrived(next, dst)),
            Leg::Sent(next, None) => (now + model.intra.latency, Leg::Run(next)),
            Leg::Arrived(next, dst) => {
                let service = model.engine.service(req.payload);
                (nodes[dst].engine.admit(now, service), Leg::Run(next))
            }
        };
        drop(nodes);
        sink.put(Out::At(at, req, next));
    }

    fn apply(this: &Rc<Driver<Self>>, sim: &mut Sim, out: Out) -> Result<(), Out> {
        match out {
            Out::At(at, req, leg) => this.schedule(sim, at, (req, leg)),
            Out::Answer(req) => (req.reply)(sim, Ok(req.payload)),
        }
        Ok(())
    }

    fn settle(_: &Rc<Driver<Self>>, _: &mut Sim, _: Out) {}
}

/// A cluster running one of the §4.3 comparison systems.
#[derive(Clone)]
pub struct BaselineCluster {
    inner: Rc<Driver<Comparators>>,
}

impl BaselineCluster {
    /// Builds the nodes of `model`, `HOST_CORES` host cores each.
    pub fn new(model: Modelled) -> BaselineCluster {
        let workers = if model.single_node_only { 1 } else { WORKERS };
        let nodes = (0..workers)
            .map(|_| BNode {
                cpu: Processor::new(ProcessorKind::HostCpu, HOST_CORES),
                engine: Server::new(),
            })
            .collect();
        let (nodes, placement) = (RefCell::new(nodes), RefCell::default());
        BaselineCluster {
            inner: Driver::new(Comparators {
                model,
                nodes,
                placement,
            }),
        }
    }

    /// Places a function (clamped to node 0 for single-node systems).
    pub fn place(&self, fn_id: u16, node: usize) {
        let single = self.inner.model.single_node_only;
        let node = if single { 0 } else { node };
        assert!(node < self.inner.nodes.borrow().len());
        self.inner.placement.borrow_mut().insert(fn_id, node);
    }

    /// The front door for `chain`, for `Gateway::submit_tenant`: each
    /// request crosses `transport` to the entry function's node, whose host
    /// cores spend `worker_cost` terminating TCP, then runs the chain with
    /// `exec_cost` per function; the reply carries the request's bytes.
    ///
    /// # Panics
    ///
    /// Panics if a function of `chain` is not placed.
    pub fn serve_chain(
        &self,
        chain: &ChainSpec,
        exec_cost: impl Fn(u16) -> SimDuration,
        transport: SimDuration,
        worker_cost: SimDuration,
    ) -> Upstream {
        let placement = self.inner.placement.borrow();
        let hop = |&f: &u16| (*placement.get(&f).expect("function placed"), exec_cost(f));
        let hops: Rc<[(usize, SimDuration)]> = chain.hops.iter().map(hop).collect();
        let this = self.inner.clone();
        Rc::new(move |sim: &mut Sim, ctx: ReqCtx, reply: Reply| {
            let req = Request {
                hops: hops.clone(),
                payload: ctx.req_bytes,
                reply,
            };
            let entered = sim.now() + transport;
            this.schedule(sim, entered, (req, Leg::Entered(worker_cost)));
        })
    }

    /// Network-engine cores busy over `[a, b]`, summed across nodes: a
    /// polling engine's core counts in full on every node; otherwise each
    /// engine core's utilization, plus the cores the design dedicates
    /// regardless of load.
    pub fn engine_cores(&self, a: SimTime, b: SimTime) -> f64 {
        let (cores, nodes) = (self.inner.model.cores, self.inner.nodes.borrow());
        let busy: f64 = nodes
            .iter()
            .map(|n| match cores {
                EngineCores::Polls => 1.0,
                EngineCores::Dedicates(_) => n.engine.utilization(a, b),
            })
            .sum();
        busy + match cores {
            EngineCores::Polls => 0.0,
            EngineCores::Dedicates(per_node) => (per_node * nodes.len()) as f64,
        }
    }

    /// Host-core utilization across nodes.
    pub fn host_utilization(&self, a: SimTime, b: SimTime) -> f64 {
        let nodes = self.inner.nodes.borrow();
        nodes.iter().map(|n| n.cpu.utilization_cores(a, b)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boutique;
    use baselines::systems::Plane;
    use baselines::{SystemKind, SystemModel};
    use membuf::tenant::TenantId;
    use std::cell::Cell;

    fn modelled(kind: SystemKind) -> Modelled {
        match SystemModel::for_kind(kind).plane {
            Plane::Modelled(m) => m,
            Plane::Dne(_) => panic!("{kind:?} runs the real engine"),
        }
    }

    /// Sends one request of `bytes` through `door` at time zero and returns
    /// when its reply came back.
    fn answer_time(door: &Upstream, bytes: usize) -> SimDuration {
        let mut sim = Sim::new();
        let finish: Rc<Cell<Option<SimTime>>> = Rc::new(Cell::new(None));
        let sink = finish.clone();
        let ctx = ReqCtx {
            req_id: 1,
            tenant: 1,
            req_bytes: bytes,
            deadline_ns: 0,
            sampled: false,
        };
        let reply: Reply = Box::new(move |sim, outcome| {
            assert_eq!(outcome, Ok(bytes), "the reply carries the request's bytes");
            sink.set(Some(sim.now()));
        });
        door(&mut sim, ctx, reply);
        sim.run();
        finish.get().expect("request answered") - SimTime::ZERO
    }

    /// One Home Query through `kind`'s door behind an F-Ingress.
    fn home_query(kind: SystemKind) -> SimDuration {
        let bc = BaselineCluster::new(modelled(kind));
        for f in boutique::all_functions() {
            bc.place(f, boutique::hotspot_placement(f));
        }
        let chain = boutique::home_query(TenantId(1));
        let transport = SimDuration::from_micros(12);
        let door = bc.serve_chain(&chain, boutique::exec_cost, transport, SimDuration::ZERO);
        answer_time(&door, boutique::PAYLOAD_BYTES)
    }

    #[test]
    fn an_inter_node_hop_charges_both_engines_and_the_wire() {
        let model = modelled(SystemKind::Spright);
        let costs = model.engine.clone();
        let bc = BaselineCluster::new(model);
        bc.place(1, 0);
        bc.place(2, 1);
        let chain = ChainSpec::new("hop", TenantId(1), vec![1, 2]);
        let transport = SimDuration::from_micros(3);
        let worker_cost = SimDuration::from_micros(7);
        let door = bc.serve_chain(&chain, |_| SimDuration::ZERO, transport, worker_cost);
        let want =
            transport + worker_cost + costs.service(64) + costs.hop_latency + costs.service(64);
        assert_eq!(answer_time(&door, 64), want);
    }

    #[test]
    fn all_baseline_systems_complete_a_home_query() {
        for kind in [
            SystemKind::FuyaoF,
            SystemKind::FuyaoK,
            SystemKind::Junction,
            SystemKind::Spright,
            SystemKind::NightCore,
        ] {
            let ms = home_query(kind).as_millis_f64();
            assert!(
                (0.5..=5.0).contains(&ms),
                "{kind:?} Home Query latency = {ms}ms"
            );
        }
    }

    #[test]
    fn spright_slower_than_fuyao_f_at_light_load() {
        // Kernel inter-node hops dominate SPRIGHT's chain latency.
        let spright = home_query(SystemKind::Spright).as_millis_f64();
        let fuyao = home_query(SystemKind::FuyaoF).as_millis_f64();
        assert!(spright > fuyao, "SPRIGHT {spright}ms vs FUYAO-F {fuyao}ms");
    }

    #[test]
    fn nightcore_collapses_to_one_node() {
        let bc = BaselineCluster::new(modelled(SystemKind::NightCore));
        assert_eq!(bc.inner.nodes.borrow().len(), 1);
        bc.place(boutique::fns::CART, 1); // clamped
        assert_eq!(bc.inner.placement.borrow()[&boutique::fns::CART], 0);
    }

    #[test]
    fn engine_cores_count_polling_and_dedicated_cores() {
        let idle = |kind| {
            let bc = BaselineCluster::new(modelled(kind));
            bc.engine_cores(SimTime::ZERO, SimTime::from_nanos(1_000_000))
        };
        assert_eq!(idle(SystemKind::FuyaoF), 2.0, "a polling core per node");
        assert_eq!(idle(SystemKind::Junction), 2.0, "a scheduler core per node");
        assert_eq!(idle(SystemKind::Spright), 0.0);
        assert_eq!(idle(SystemKind::NightCore), 0.0);
    }
}
