//! One-screen summary: the paper's headline claims, measured.
//!
//! Gathers the key ratios from quick-budget runs of the underlying
//! experiments into a single table — the "abstract numbers" of the paper
//! (§1: 20.9× RPS, 21× latency, 7 CPU cores saved on two wimpy DPU cores).

use baselines::SystemKind;

use crate::experiment::{fig12, fig13, fig16};
use crate::report::{fmt_f64, render_table};

/// One headline claim.
#[derive(Debug, Clone)]
pub struct Claim {
    pub claim: String,
    pub paper: String,
    pub measured: f64,
}

obs::impl_to_json!(Claim {
    claim,
    paper,
    measured
});

/// The summary table.
#[derive(Debug, Clone)]
pub struct Summary {
    pub claims: Vec<Claim>,
}

obs::impl_to_json!(Summary { claims });

/// Runs the quick-budget summary.
pub fn run(millis: u64, requests: u64) -> Summary {
    let mut claims = Vec::new();

    let f12 = fig12::run(requests, 1);
    claims.push(Claim {
        claim: "two-sided echo RTT @64B (us)".into(),
        paper: "8.4".into(),
        measured: f12.mean_us("NADINO (two-sided)", 64).unwrap_or(0.0),
    });
    claims.push(Claim {
        claim: "two-sided echo RTT @4KiB (us)".into(),
        paper: "11.6".into(),
        measured: f12.mean_us("NADINO (two-sided)", 4096).unwrap_or(0.0),
    });
    claims.push(Claim {
        claim: "OWDL / two-sided latency @4KiB".into(),
        paper: "2.3x".into(),
        measured: f12.mean_us("OWDL", 4096).unwrap_or(0.0)
            / f12.mean_us("NADINO (two-sided)", 4096).unwrap_or(1.0),
    });

    let f13 = fig13::run(millis);
    let n = f13.get("NADINO", 16).map(|r| r.rps).unwrap_or(0.0);
    claims.push(Claim {
        claim: "ingress RPS vs K-Ingress".into(),
        paper: "11.4x".into(),
        measured: n / f13.get("K-Ingress", 16).map(|r| r.rps).unwrap_or(1.0),
    });
    claims.push(Claim {
        claim: "ingress RPS vs F-Ingress".into(),
        paper: "3.2x".into(),
        measured: n / f13.get("F-Ingress", 16).map(|r| r.rps).unwrap_or(1.0),
    });

    let f16 = fig16::run_filtered(
        millis,
        &[
            SystemKind::NadinoDne,
            SystemKind::NadinoCne,
            SystemKind::NightCore,
        ],
        &[80],
    );
    let dne = f16
        .get("NADINO (DNE)", "Home Query", 80)
        .map(|r| r.rps)
        .unwrap_or(0.0);
    claims.push(Claim {
        claim: "Boutique RPS: DNE vs CNE".into(),
        paper: "1.3-1.8x".into(),
        measured: dne
            / f16
                .get("NADINO (CNE)", "Home Query", 80)
                .map(|r| r.rps)
                .unwrap_or(1.0),
    });
    claims.push(Claim {
        claim: "Boutique RPS: DNE vs NightCore".into(),
        paper: "5.1-20.9x".into(),
        measured: dne
            / f16
                .get("NightCore", "Home Query", 80)
                .map(|r| r.rps)
                .unwrap_or(1.0),
    });
    claims.push(Claim {
        claim: "DPU cores used by the whole data plane".into(),
        paper: "2".into(),
        measured: f16
            .get("NADINO (DNE)", "Home Query", 80)
            .map(|r| r.engine_cores)
            .unwrap_or(0.0),
    });

    Summary { claims }
}

impl Summary {
    /// Renders the summary table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .claims
            .iter()
            .map(|c| vec![c.claim.clone(), c.paper.clone(), fmt_f64(c.measured)])
            .collect();
        render_table(
            "Summary - headline claims, paper vs measured",
            &["claim", "paper", "measured"],
            &rows,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_claims_land_in_paper_bands() {
        let s = run(100, 200);
        let get = |name: &str| {
            s.claims
                .iter()
                .find(|c| c.claim.starts_with(name))
                .map(|c| c.measured)
                .expect("claim present")
        };
        assert!((7.0..=10.0).contains(&get("two-sided echo RTT @64B")));
        assert!((8.0..=14.0).contains(&get("ingress RPS vs K-Ingress")));
        assert!((1.2..=2.0).contains(&get("Boutique RPS: DNE vs CNE")));
        assert!(get("DPU cores used") <= 2.05);
        assert!(s.render().contains("Summary"));
    }
}
