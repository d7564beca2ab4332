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
    cpu: Rc<RefCell<Processor>>,
    engine: BaselineEngine,
}

struct Inner {
    model: SystemModel,
    nodes: Vec<BNode>,
    placement: HashMap<u16, usize>,
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
                cpu: Rc::new(RefCell::new(Processor::new(
                    ProcessorKind::HostCpu,
                    host_cores,
                ))),
                engine: BaselineEngine::new(engine_costs.clone()),
            })
            .collect();
        BaselineCluster {
            inner: Rc::new(RefCell::new(Inner {
                model,
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
        self.step(sim, chain, exec_cost, payload, 0, done);
    }

    fn step(
        &self,
        sim: &mut Sim,
        chain: Rc<ChainSpec>,
        exec_cost: Rc<dyn Fn(u16) -> SimDuration>,
        payload: usize,
        hop: usize,
        done: Box<dyn FnOnce(&mut Sim)>,
    ) {
        let f = chain.hops[hop];
        // Execute the function's logic on its node's host cores.
        let exec_done = {
            let inner = self.inner.borrow();
            let node = *inner.placement.get(&f).expect("function placed");
            let cpu = inner.nodes[node].cpu.clone();
            drop(inner);
            let done = cpu.borrow_mut().run(sim.now(), exec_cost(f));
            done
        };
        let this = self.clone();
        sim.schedule_at(exec_done, move |sim| {
            let next = hop + 1;
            if next >= chain.hops.len() {
                done(sim);
                return;
            }
            let (same_node, src_engine, dst_engine, intra, via_engine, src_cpu) = {
                let inner = this.inner.borrow();
                let src = *inner.placement.get(&chain.hops[hop]).expect("placed");
                let dst = *inner.placement.get(&chain.hops[next]).expect("placed");
                (
                    src == dst,
                    inner.nodes[src].engine.clone(),
                    inner.nodes[dst].engine.clone(),
                    inner.model.intra.clone(),
                    inner.model.intra_via_engine,
                    inner.nodes[src].cpu.clone(),
                )
            };
            let this2 = this.clone();
            let cont: Box<dyn FnOnce(&mut Sim)> = Box::new(move |sim| {
                this2.step(sim, chain, exec_cost, payload, next, done);
            });
            if same_node {
                // Intra-node hop: IPC cost (on the node's engine for
                // designs whose engine mediates local messages, otherwise
                // on the host cores) plus, for designs with separate
                // pools, a memory-bound copy.
                let mut service = intra.cpu;
                if let Some(rate) = intra.copy_rate {
                    service += SimDuration::from_secs_f64(payload as f64 / rate);
                }
                let latency = intra.latency;
                if via_engine {
                    src_engine.process(
                        sim,
                        payload,
                        Box::new(move |sim| {
                            sim.schedule_after(latency, cont);
                        }),
                    );
                } else {
                    let cpu_done = src_cpu.borrow_mut().run(sim.now(), service);
                    sim.schedule_at(cpu_done + latency, cont);
                }
            } else {
                src_engine.send_to(sim, &dst_engine, payload, cont);
            }
        });
    }

    /// Charges `cost` on the host cores of the node hosting `fn_id` and
    /// returns the completion instant (used for worker-side TCP
    /// termination under deferred conversion).
    pub fn charge(&self, sim: &mut Sim, fn_id: u16, cost: SimDuration) -> simcore::SimTime {
        let inner = self.inner.borrow();
        let node = *inner.placement.get(&fn_id).expect("function placed");
        let cpu = inner.nodes[node].cpu.clone();
        drop(inner);
        let done = cpu.borrow_mut().run(sim.now(), cost);
        done
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
            .map(|n| n.cpu.borrow().utilization_cores(a, b))
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
