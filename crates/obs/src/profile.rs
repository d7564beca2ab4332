//! Utilization attribution: where the SoC and host cores go.
//!
//! [`SocStageTable`] aggregates per-pipeline-stage busy core-time
//! reported by `dpu-sim`'s staged processors into "busy cores" over a
//! horizon, and [`CoresFreed`] derives the paper's headline **cores
//! freed** number: host cores a host-only baseline burns that the DNE
//! offload returns, net of what the wimpy SoC cores absorb.
//!
//! Everything here is pure arithmetic over integers already produced by
//! the simulators, so outputs are byte-stable for a fixed seed.

use crate::json::JsonValue;

/// Per-processor, per-pipeline-stage busy core-time over a horizon.
#[derive(Debug, Clone, Default)]
pub struct SocStageTable {
    horizon_ns: u64,
    /// `(processor, stage, busy core-ns)` in insertion order — callers
    /// push in a deterministic order.
    rows: Vec<(String, String, u128)>,
}

impl SocStageTable {
    /// Creates a table for utilization over `horizon_ns` of sim time.
    pub fn new(horizon_ns: u64) -> SocStageTable {
        SocStageTable {
            horizon_ns,
            rows: Vec::new(),
        }
    }

    /// Adds one `(processor, stage)` row of busy core-nanoseconds.
    pub fn push(&mut self, processor: &str, stage: &str, busy_core_ns: u128) {
        self.rows
            .push((processor.to_string(), stage.to_string(), busy_core_ns));
    }

    /// Mean busy cores for one row's core-time.
    fn cores(&self, busy_core_ns: u128) -> f64 {
        if self.horizon_ns == 0 {
            0.0
        } else {
            busy_core_ns as f64 / self.horizon_ns as f64
        }
    }

    /// Total mean busy cores for one processor across its stages.
    pub fn busy_cores(&self, processor: &str) -> f64 {
        let total: u128 = self
            .rows
            .iter()
            .filter(|(p, _, _)| p == processor)
            .map(|(_, _, ns)| *ns)
            .sum();
        self.cores(total)
    }

    /// `true` when no row has been pushed.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// JSON form: the per-stage rows plus per-processor totals.
    pub fn to_json(&self) -> JsonValue {
        let rows = self
            .rows
            .iter()
            .map(|(p, s, ns)| {
                JsonValue::obj(vec![
                    ("processor", JsonValue::Str(p.clone())),
                    ("stage", JsonValue::Str(s.clone())),
                    ("busy_core_ns", JsonValue::UInt(*ns as u64)),
                    ("busy_cores", JsonValue::Float(self.cores(*ns))),
                ])
            })
            .collect();
        let mut totals: Vec<(String, u128)> = Vec::new();
        for (p, _, ns) in &self.rows {
            match totals.iter_mut().find(|(name, _)| name == p) {
                Some((_, sum)) => *sum += ns,
                None => totals.push((p.clone(), *ns)),
            }
        }
        let totals = totals
            .into_iter()
            .map(|(p, ns)| {
                JsonValue::obj(vec![
                    ("processor", JsonValue::Str(p)),
                    ("busy_cores", JsonValue::Float(self.cores(ns))),
                ])
            })
            .collect();
        JsonValue::obj(vec![
            ("horizon_ns", JsonValue::UInt(self.horizon_ns)),
            ("stages", JsonValue::Arr(rows)),
            ("totals", JsonValue::Arr(totals)),
        ])
    }
}

/// The headline claim: host cores the offload returns to tenants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoresFreed {
    /// Mean busy host cores under the host-only (CNE) baseline.
    pub baseline_host_cores: f64,
    /// Mean busy host cores with the DNE offload in place.
    pub dne_host_cores: f64,
    /// Mean busy SoC cores the offload consumes instead.
    pub dne_soc_cores: f64,
}

impl CoresFreed {
    /// Host cores freed: baseline minus residual host load, floored at 0.
    pub fn freed(&self) -> f64 {
        (self.baseline_host_cores - self.dne_host_cores).max(0.0)
    }

    /// JSON form of the table row.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            (
                "baseline_host_cores",
                JsonValue::Float(self.baseline_host_cores),
            ),
            ("dne_host_cores", JsonValue::Float(self.dne_host_cores)),
            ("dne_soc_cores", JsonValue::Float(self.dne_soc_cores)),
            ("host_cores_freed", JsonValue::Float(self.freed())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_table_totals_and_cores_freed() {
        let mut t = SocStageTable::new(1_000_000);
        t.push("dpu_arm", "tx_post", 500_000);
        t.push("dpu_arm", "rx_complete", 1_500_000);
        t.push("host_cpu", "app", 250_000);
        assert!((t.busy_cores("dpu_arm") - 2.0).abs() < 1e-9);
        assert!((t.busy_cores("host_cpu") - 0.25).abs() < 1e-9);
        let json = t.to_json();
        let totals = json.get("totals").unwrap().as_arr().unwrap();
        assert_eq!(totals.len(), 2);

        let freed = CoresFreed {
            baseline_host_cores: 1.75,
            dne_host_cores: 0.25,
            dne_soc_cores: 2.0,
        };
        assert!((freed.freed() - 1.5).abs() < 1e-9);
        assert!(crate::json::parse(&freed.to_json().to_string_pretty()).is_ok());
    }
}
