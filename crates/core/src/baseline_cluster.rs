//! Chain execution on the comparison systems.
//!
//! A [`BaselineCluster`] runs the same chains as the real NADINO cluster,
//! but over a [`baselines::BaselineEngine`] per node parameterized by the
//! system's [`baselines::SystemModel`]: kernel TCP hops for SPRIGHT,
//! one-sided-write-plus-copy hops for FUYAO, userspace TCP everywhere for
//! Junction, single-node shared memory for NightCore.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use baselines::{BaselineEngine, SystemModel};
use dpu_sim::soc::{Processor, ProcessorKind};
use runtime::ChainSpec;
use simcore::{Sim, SimDuration, SimTime};

struct BNode {
    cpu: Processor,
    engine: BaselineEngine,
}

struct Inner {
    model: SystemModel,
    /// Transport latency of an inter-node hop (the engines' one value).
    hop_latency: SimDuration,
    nodes: Vec<BNode>,
    placement: HashMap<u16, usize>,
}

impl Inner {
    fn node_of(&self, fn_id: u16) -> usize {
        *self.placement.get(&fn_id).expect("function placed")
    }
}

/// One request on its way through a chain.
struct Request {
    chain: Rc<ChainSpec>,
    exec_cost: Rc<dyn Fn(u16) -> SimDuration>,
    payload: usize,
    done: Box<dyn FnOnce(&mut Sim)>,
}

/// What comes due for a request, in the order its hops meet them.
enum Leg {
    /// Hop `.0`'s function starts on its node's host cores.
    Run(usize),
    /// Hop `.0`'s function finished: complete the request, or send it on.
    Ran(usize),
    /// The message to hop `.0` left its source engine, bound for node
    /// `.1`'s engine one transport latency away — or, with `None`, a local
    /// hop through the engine, one IPC latency away.
    Sent(usize, Option<usize>),
    /// The message to hop `.0` reached node `.1`'s engine.
    Arrived(usize, usize),
}

/// A cluster running one of the §4.3 comparison systems.
#[derive(Clone)]
pub struct BaselineCluster {
    inner: Rc<RefCell<Inner>>,
}

impl BaselineCluster {
    /// Builds `workers` nodes with `host_cores` each for `model`.
    pub fn new(model: SystemModel, workers: usize, host_cores: usize) -> BaselineCluster {
        assert!(workers >= 1);
        let effective_workers = if model.single_node_only { 1 } else { workers };
        let engine_costs = model
            .engine
            .clone()
            .expect("baseline systems use the generic engine");
        let nodes = (0..effective_workers)
            .map(|_| BNode {
                cpu: Processor::new(ProcessorKind::HostCpu, host_cores),
                engine: BaselineEngine::new(engine_costs.clone()),
            })
            .collect();
        BaselineCluster {
            inner: Rc::new(RefCell::new(Inner {
                model,
                hop_latency: engine_costs.hop_latency,
                nodes,
                placement: HashMap::new(),
            })),
        }
    }

    /// Places a function (clamped to node 0 for single-node systems).
    pub fn place(&self, fn_id: u16, node: usize) {
        let mut inner = self.inner.borrow_mut();
        let node = if inner.model.single_node_only {
            0
        } else {
            node
        };
        assert!(node < inner.nodes.len());
        inner.placement.insert(fn_id, node);
    }

    /// Runs one request through `chain`, invoking `done` at completion.
    pub fn run_request(
        &self,
        sim: &mut Sim,
        chain: Rc<ChainSpec>,
        exec_cost: Rc<dyn Fn(u16) -> SimDuration>,
        payload: usize,
        done: Box<dyn FnOnce(&mut Sim)>,
    ) {
        let req = Request {
            chain,
            exec_cost,
            payload,
            done,
        };
        self.on(sim, req, Leg::Run(0));
    }

    /// Takes a request one leg on, scheduling the next.
    fn on(&self, sim: &mut Sim, req: Request, leg: Leg) {
        let now = sim.now();
        let mut guard = self.inner.borrow_mut();
        let inner = &mut *guard;
        let (at, next) = match leg {
            Leg::Run(hop) => {
                let f = req.chain.hops[hop];
                let node = inner.node_of(f);
                let ran = inner.nodes[node].cpu.run(now, (req.exec_cost)(f));
                (ran, Leg::Ran(hop))
            }
            Leg::Ran(hop) if hop + 1 == req.chain.hops.len() => {
                drop(guard);
                (req.done)(sim);
                return;
            }
            Leg::Ran(hop) => {
                let next = hop + 1;
                let src = inner.node_of(req.chain.hops[hop]);
                let dst = inner.node_of(req.chain.hops[next]);
                if src != dst || inner.model.intra_via_engine {
                    let sent = inner.nodes[src].engine.admit(now, req.payload);
                    (sent, Leg::Sent(next, (src != dst).then_some(dst)))
                } else {
                    // IPC on the host cores plus, for designs with separate
                    // pools, a memory-bound copy.
                    let intra = &inner.model.intra;
                    let mut service = intra.cpu;
                    if let Some(rate) = intra.copy_rate {
                        service += SimDuration::from_secs_f64(req.payload as f64 / rate);
                    }
                    let done = inner.nodes[src].cpu.run(now, service);
                    (done + intra.latency, Leg::Run(next))
                }
            }
            Leg::Sent(next, Some(dst)) => (now + inner.hop_latency, Leg::Arrived(next, dst)),
            Leg::Sent(next, None) => (now + inner.model.intra.latency, Leg::Run(next)),
            Leg::Arrived(next, dst) => {
                let arrived = inner.nodes[dst].engine.admit(now, req.payload);
                (arrived, Leg::Run(next))
            }
        };
        drop(guard);
        let this = self.clone();
        sim.schedule_at(at, move |sim| this.on(sim, req, next));
    }

    /// Charges `cost` on the host cores of the node hosting `fn_id` and
    /// returns the completion instant (used for worker-side TCP
    /// termination under deferred conversion).
    pub fn charge(&self, sim: &mut Sim, fn_id: u16, cost: SimDuration) -> SimTime {
        let mut inner = self.inner.borrow_mut();
        let node = inner.node_of(fn_id);
        inner.nodes[node].cpu.run(sim.now(), cost)
    }

    /// Whether the engines busy-poll (their cores count as saturated).
    pub fn engine_polls(&self) -> bool {
        self.inner
            .borrow()
            .model
            .engine
            .as_ref()
            .map(|e| e.polling)
            .unwrap_or(false)
    }

    /// Engine-core utilization across nodes (polling engines report 1.0
    /// per node, matching the paper's saturated-core observation).
    pub fn engine_utilization(&self, a: SimTime, b: SimTime) -> f64 {
        let inner = self.inner.borrow();
        inner.nodes.iter().map(|n| n.engine.utilization(a, b)).sum()
    }

    /// Host-core utilization across nodes.
    pub fn host_utilization(&self, a: SimTime, b: SimTime) -> f64 {
        let inner = self.inner.borrow();
        inner
            .nodes
            .iter()
            .map(|n| n.cpu.utilization_cores(a, b))
            .sum()
    }

    /// Cores burned regardless of load (polling receivers, schedulers).
    pub fn dedicated_cores(&self) -> usize {
        let inner = self.inner.borrow();
        inner.model.dedicated_cores_per_node * inner.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boutique;
    use baselines::SystemKind;
    use membuf::tenant::TenantId;
    use std::cell::Cell;

    fn run_one(kind: SystemKind) -> SimDuration {
        let model = SystemModel::for_kind(kind);
        let bc = BaselineCluster::new(model, 2, 32);
        for f in boutique::all_functions() {
            bc.place(f, boutique::hotspot_placement(f));
        }
        let chain = Rc::new(boutique::home_query(TenantId(1)));
        let mut sim = Sim::new();
        let finish: Rc<Cell<Option<SimTime>>> = Rc::new(Cell::new(None));
        let sink = finish.clone();
        bc.run_request(
            &mut sim,
            chain,
            Rc::new(boutique::exec_cost),
            boutique::PAYLOAD_BYTES,
            Box::new(move |sim| sink.set(Some(sim.now()))),
        );
        sim.run();
        finish.get().expect("request completed") - SimTime::ZERO
    }

    #[test]
    fn an_inter_node_hop_charges_both_engines_and_the_wire() {
        let model = SystemModel::for_kind(SystemKind::Spright);
        let costs = model.engine.clone().unwrap();
        let bc = BaselineCluster::new(model, 2, 32);
        bc.place(1, 0);
        bc.place(2, 1);
        let chain = Rc::new(ChainSpec::new("hop", TenantId(1), vec![1, 2]));
        let mut sim = Sim::new();
        let finish: Rc<Cell<Option<SimTime>>> = Rc::new(Cell::new(None));
        let sink = finish.clone();
        let free = Rc::new(|_| SimDuration::ZERO);
        bc.run_request(
            &mut sim,
            chain,
            free,
            64,
            Box::new(move |sim| sink.set(Some(sim.now()))),
        );
        sim.run();
        let want = costs.service(64) + costs.hop_latency + costs.service(64);
        assert_eq!(finish.get().unwrap() - SimTime::ZERO, want);
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
            let d = run_one(kind);
            let ms = d.as_millis_f64();
            assert!(
                (0.5..=5.0).contains(&ms),
                "{kind:?} Home Query latency = {ms}ms"
            );
        }
    }

    #[test]
    fn spright_slower_than_fuyao_f_at_light_load() {
        // Kernel inter-node hops dominate SPRIGHT's chain latency.
        let spright = run_one(SystemKind::Spright).as_millis_f64();
        let fuyao = run_one(SystemKind::FuyaoF).as_millis_f64();
        assert!(spright > fuyao, "SPRIGHT {spright}ms vs FUYAO-F {fuyao}ms");
    }

    #[test]
    fn nightcore_collapses_to_one_node() {
        let bc = BaselineCluster::new(SystemModel::for_kind(SystemKind::NightCore), 2, 32);
        assert_eq!(bc.inner.borrow().nodes.len(), 1);
        bc.place(boutique::fns::CART, 1); // clamped
        assert_eq!(
            *bc.inner
                .borrow()
                .placement
                .get(&boutique::fns::CART)
                .unwrap(),
            0
        );
    }

    #[test]
    fn dedicated_cores_reflect_polling_designs() {
        let fuyao = BaselineCluster::new(SystemModel::for_kind(SystemKind::FuyaoF), 2, 32);
        assert_eq!(fuyao.dedicated_cores(), 2);
        let spright = BaselineCluster::new(SystemModel::for_kind(SystemKind::Spright), 2, 32);
        assert_eq!(spright.dedicated_cores(), 0);
    }
}
