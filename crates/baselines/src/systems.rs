//! Descriptors of the comparison data planes of §4.3.
//!
//! Each [`SystemModel`] captures how a published system moves data, in the
//! dimensions Table 1 compares: which cluster ingress it uses, how
//! functions talk across nodes and within a node, and its [`Plane`]:
//! NADINO's real engine (the DNE/CNE variants) or, for a comparator, a
//! [`Modelled`] generic per-node engine — its [`EngineCosts`] and the cores
//! it burns on polling or scheduling regardless of load. The `nadino`
//! crate's end-to-end experiments assemble clusters from these
//! descriptors.

use dne::types::DneConfig;
use ingress::stack::GatewayKind;
use simcore::SimDuration;

/// The systems compared in Fig. 16 / Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// NADINO with the engine offloaded to the DPU.
    NadinoDne,
    /// NADINO with the engine on a host CPU core.
    NadinoCne,
    /// FUYAO (one-sided write + receiver copy) behind the F-stack ingress.
    FuyaoF,
    /// FUYAO behind the kernel ingress.
    FuyaoK,
    /// Junction: software kernel-bypass TCP for all inter-function traffic.
    Junction,
    /// SPRIGHT: shared memory locally, kernel networking across nodes.
    Spright,
    /// NightCore: single-node shared memory with its kernel-based ingress.
    NightCore,
}

impl SystemKind {
    /// All systems, in the paper's presentation order.
    pub fn all() -> [SystemKind; 7] {
        [
            SystemKind::NadinoDne,
            SystemKind::NadinoCne,
            SystemKind::FuyaoF,
            SystemKind::FuyaoK,
            SystemKind::Junction,
            SystemKind::Spright,
            SystemKind::NightCore,
        ]
    }
}

/// Cost parameters of a comparator's per-node network engine.
#[derive(Debug, Clone)]
pub struct EngineCosts {
    /// CPU time per message through the engine.
    pub per_msg: SimDuration,
    /// Transport latency per inter-node hop (wire + stack wakeups).
    pub hop_latency: SimDuration,
    /// Fixed cost of the receiver-side copy (zero when the design avoids
    /// copies).
    pub copy_fixed: SimDuration,
    /// Copy bandwidth in bytes/second (`None` = no copy).
    pub copy_rate: Option<f64>,
}

impl EngineCosts {
    /// Total engine CPU for one message of `bytes`.
    pub fn service(&self, bytes: usize) -> SimDuration {
        let copy = match self.copy_rate {
            Some(rate) => self.copy_fixed + SimDuration::from_secs_f64(bytes as f64 / rate),
            None => SimDuration::ZERO,
        };
        self.per_msg + copy
    }
}

/// The engine cores a comparator burns regardless of load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineCores {
    /// The engine busy-polls: its core counts in full on every node, idle
    /// or not (FUYAO's one-sided receiver).
    Polls,
    /// The engine's core counts what it serves, and this many more cores
    /// per node are dedicated to the design (Junction's scheduler core).
    Dedicates(usize),
}

/// Per-hop costs of a system's *intra-node* path.
#[derive(Debug, Clone)]
pub struct IntraNodeCosts {
    /// Descriptor/IPC latency between co-located functions.
    pub latency: SimDuration,
    /// CPU charged on the host per intra-node hop.
    pub cpu: SimDuration,
    /// Extra copy for designs with separate intra/inter pools (FUYAO).
    pub copy_rate: Option<f64>,
}

/// A comparator's data plane: one generic engine per node standing in for
/// the system's own proxy or engine component, and its intra-node path.
#[derive(Debug, Clone)]
pub struct Modelled {
    /// Costs of the per-node engine.
    pub engine: EngineCosts,
    /// What the engine burns regardless of load.
    pub cores: EngineCores,
    /// Intra-node hop costs.
    pub intra: IntraNodeCosts,
    /// Whether intra-node messages also pass through the node's engine
    /// (NightCore's engine is intra-node only; Junction's runtime
    /// processes every message).
    pub intra_via_engine: bool,
    /// NightCore cannot spread a chain across nodes.
    pub single_node_only: bool,
}

/// How a system moves data between functions.
#[derive(Debug, Clone)]
pub enum Plane {
    /// NADINO's real engine with this config (the DNE and CNE variants).
    Dne(DneConfig),
    /// A comparator's calibrated model.
    Modelled(Modelled),
}

/// A full system description.
#[derive(Debug, Clone)]
pub struct SystemModel {
    pub kind: SystemKind,
    /// Display name matching the paper's figures.
    pub name: &'static str,
    /// Which cluster ingress fronts the system.
    pub ingress: GatewayKind,
    /// The data plane behind the ingress.
    pub plane: Plane,
}

impl SystemModel {
    /// Returns the calibrated model for `kind`.
    pub fn for_kind(kind: SystemKind) -> SystemModel {
        // FUYAO-F and FUYAO-K differ only in their ingress.
        let fuyao = || {
            Plane::Modelled(Modelled {
                // One-sided write + receiver-side copy: the engine pays
                // poll detection, WQE management, separate-pool
                // ownership transfer and the copy on every inter-node
                // hop; the receiver polls continuously.
                engine: EngineCosts {
                    per_msg: SimDuration::from_nanos(7_500),
                    hop_latency: SimDuration::from_nanos(4_500),
                    copy_fixed: SimDuration::from_nanos(800),
                    copy_rate: Some(2_500_000_000.0),
                },
                cores: EngineCores::Polls,
                // Separate intra/inter memory pools force a copy
                // locally too.
                intra: IntraNodeCosts {
                    latency: SimDuration::from_nanos(1_600),
                    cpu: SimDuration::from_nanos(1_100),
                    copy_rate: Some(4_000_000_000.0),
                },
                intra_via_engine: false,
                single_node_only: false,
            })
        };
        let (name, ingress, plane) = match kind {
            SystemKind::NadinoDne => (
                "NADINO (DNE)",
                GatewayKind::Nadino,
                Plane::Dne(DneConfig::nadino_dne()),
            ),
            SystemKind::NadinoCne => (
                "NADINO (CNE)",
                GatewayKind::Nadino,
                Plane::Dne(DneConfig::nadino_cne()),
            ),
            SystemKind::FuyaoF => ("FUYAO-F", GatewayKind::FIngress, fuyao()),
            SystemKind::FuyaoK => ("FUYAO-K", GatewayKind::KIngress, fuyao()),
            SystemKind::Junction => (
                "Junction",
                GatewayKind::FIngress,
                Plane::Modelled(Modelled {
                    // Software kernel-bypass TCP on every hop: the per-node
                    // runtime processes each message in software.
                    engine: EngineCosts {
                        per_msg: SimDuration::from_nanos(8_000),
                        hop_latency: SimDuration::from_nanos(6_000),
                        copy_fixed: SimDuration::ZERO,
                        copy_rate: None,
                    },
                    cores: EngineCores::Dedicates(1),
                    intra: IntraNodeCosts {
                        latency: SimDuration::from_nanos(4_000),
                        cpu: SimDuration::from_nanos(8_000),
                        copy_rate: None,
                    },
                    intra_via_engine: true,
                    single_node_only: false,
                }),
            ),
            SystemKind::Spright => (
                "SPRIGHT",
                GatewayKind::FIngress,
                Plane::Modelled(Modelled {
                    // Kernel protocol stack between nodes.
                    engine: EngineCosts {
                        per_msg: SimDuration::from_nanos(11_000),
                        hop_latency: SimDuration::from_nanos(18_000),
                        copy_fixed: SimDuration::from_nanos(500),
                        copy_rate: Some(6_000_000_000.0),
                    },
                    cores: EngineCores::Dedicates(0),
                    // Shared memory between co-located functions.
                    intra: IntraNodeCosts {
                        latency: SimDuration::from_nanos(1_600),
                        cpu: SimDuration::from_nanos(850),
                        copy_rate: None,
                    },
                    intra_via_engine: false,
                    single_node_only: false,
                }),
            ),
            SystemKind::NightCore => (
                "NightCore",
                GatewayKind::KIngress,
                Plane::Modelled(Modelled {
                    engine: EngineCosts {
                        per_msg: SimDuration::from_nanos(1_800),
                        hop_latency: SimDuration::from_nanos(2_000),
                        copy_fixed: SimDuration::ZERO,
                        copy_rate: None,
                    },
                    cores: EngineCores::Dedicates(0),
                    intra: IntraNodeCosts {
                        latency: SimDuration::from_nanos(2_000),
                        cpu: SimDuration::from_nanos(1_800),
                        copy_rate: None,
                    },
                    intra_via_engine: true,
                    single_node_only: true,
                }),
            ),
        };
        SystemModel {
            kind,
            name,
            ingress,
            plane,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The comparator model of `kind`.
    fn modelled(kind: SystemKind) -> Modelled {
        match SystemModel::for_kind(kind).plane {
            Plane::Modelled(m) => m,
            Plane::Dne(_) => panic!("{kind:?} runs the real engine"),
        }
    }

    #[test]
    fn all_seven_systems_resolve() {
        for kind in SystemKind::all() {
            let m = SystemModel::for_kind(kind);
            assert_eq!(m.kind, kind);
            assert!(!m.name.is_empty());
            let nadino = matches!(kind, SystemKind::NadinoDne | SystemKind::NadinoCne);
            assert_eq!(matches!(m.plane, Plane::Dne(_)), nadino);
        }
    }

    #[test]
    fn copy_costs_scale_with_bytes() {
        let c = EngineCosts {
            per_msg: SimDuration::from_micros(2),
            hop_latency: SimDuration::from_micros(10),
            copy_fixed: SimDuration::from_micros(1),
            copy_rate: Some(1_000_000_000.0), // 1 GB/s
        };
        assert_eq!(c.service(0).as_nanos(), 3_000);
        assert_eq!(c.service(1000).as_nanos(), 4_000);
    }

    #[test]
    fn table1_properties_hold() {
        // NightCore: no distributed zero-copy (single node only).
        assert!(modelled(SystemKind::NightCore).single_node_only);
        // FUYAO uses DPU offloading in the paper's table but copies at the
        // receiver; our model encodes the copy.
        let fuyao = modelled(SystemKind::FuyaoF);
        assert!(fuyao.engine.copy_rate.is_some());
        assert!(
            fuyao.intra.copy_rate.is_some(),
            "separate pools copy locally"
        );
        // NADINO eliminates protocol processing within the cluster.
        assert_eq!(
            SystemModel::for_kind(SystemKind::NadinoDne).ingress,
            GatewayKind::Nadino
        );
    }

    #[test]
    fn fuyao_variants_differ_only_in_ingress() {
        let f = SystemModel::for_kind(SystemKind::FuyaoF);
        let k = SystemModel::for_kind(SystemKind::FuyaoK);
        assert_eq!(f.ingress, GatewayKind::FIngress);
        assert_eq!(k.ingress, GatewayKind::KIngress);
        assert_eq!(
            modelled(SystemKind::FuyaoF).engine.per_msg,
            modelled(SystemKind::FuyaoK).engine.per_msg
        );
    }

    #[test]
    fn polling_systems_burn_dedicated_cores() {
        assert_eq!(modelled(SystemKind::FuyaoF).cores, EngineCores::Polls);
        assert_eq!(
            modelled(SystemKind::Junction).cores,
            EngineCores::Dedicates(1)
        );
        assert_eq!(
            modelled(SystemKind::Spright).cores,
            EngineCores::Dedicates(0)
        );
    }

    #[test]
    fn spright_inter_node_is_kernel_priced() {
        let s = modelled(SystemKind::Spright).engine;
        let f = modelled(SystemKind::FuyaoF).engine;
        assert!(
            s.per_msg > f.per_msg,
            "kernel networking must cost more per message than one-sided RDMA"
        );
        assert!(
            s.hop_latency > f.hop_latency,
            "kernel hops must also be slower on the wire"
        );
    }
}
