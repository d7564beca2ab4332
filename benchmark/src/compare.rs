//! `benchmark compare A B`: applies each end-to-end metric's bound to two
//! sets of results, one row per (workload, metric).
//!
//! Each side is one results file or a comma-separated list of them (one
//! per run). With one file a side's quartiles are those of its
//! repetitions; with several they are the quartiles of the runs' medians.
//! A metric whose run-to-run spread exceeds its bound is *unresolved*, not
//! *unchanged*. A gain is claimed only from at least ten pairs of runs, of
//! which B wins nine tenths (ties count for neither), with medians further
//! apart than A's own interquartile distance.

use obs::JsonValue;

use crate::spec::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartiles};

/// How much worse `b` is than `a` in the metric's direction, as a share of
/// `a` (negative when `b` is better).
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Pairs needed before a gain may be claimed.
const MIN_PAIRS: usize = 10;

struct Side {
    files: Vec<JsonValue>,
}

impl Side {
    fn load(list: &str) -> Result<Side, String> {
        let files = list
            .split(',')
            .map(|path| {
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                obs::parse(&text).map_err(|e| format!("{path}: {e}"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Side { files })
    }

    fn metric<'a>(file: &'a JsonValue, workload: &str, metric: &str) -> Option<&'a JsonValue> {
        file.get("workloads")?
            .get(workload)?
            .get("end_to_end")?
            .get(metric)
    }

    /// Per-run medians of one metric.
    fn medians(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.files
            .iter()
            .filter_map(|f| Side::metric(f, workload, metric)?.get("median")?.as_f64())
            .collect()
    }

    /// `(median, q1, q3)` of one metric on this side.
    fn summary(&self, workload: &str, metric: &str) -> Option<(f64, f64, f64)> {
        let meds = self.medians(workload, metric);
        match meds.len() {
            0 => None,
            1 => {
                let m = Side::metric(&self.files[0], workload, metric)?;
                Some((meds[0], m.get("q1")?.as_f64()?, m.get("q3")?.as_f64()?))
            }
            _ => {
                let (q1, q3) = quartiles(&meds);
                Some((median(&meds), q1, q3))
            }
        }
    }

    fn field(&self, workload: &str, key: &str) -> Option<String> {
        Some(
            self.files[0]
                .get("workloads")?
                .get(workload)?
                .get(key)?
                .to_string_compact(),
        )
    }
}

/// The verdict on one (workload, metric) row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Regressed,
    Unresolved,
    Gain,
}

/// Decides one row from both sides' summaries and the per-pair medians.
pub fn verdict(
    better: Better,
    bound: f64,
    a: (f64, f64, f64),
    b: (f64, f64, f64),
    pairs: &[(f64, f64)],
) -> Verdict {
    let spread = |(med, q1, q3): (f64, f64, f64)| {
        if med == 0.0 {
            0.0
        } else {
            (q3 - q1) / med.abs()
        }
    };
    if spread(a).max(spread(b)) > bound {
        return Verdict::Unresolved;
    }
    if worse_by(better, a.0, b.0) > bound {
        return Verdict::Regressed;
    }
    if pairs.len() >= MIN_PAIRS {
        let wins = pairs
            .iter()
            .filter(|&&(pa, pb)| worse_by(better, pa, pb) < 0.0)
            .count();
        let apart = (a.0 - b.0).abs() > (a.2 - a.1).abs();
        if wins * 10 >= pairs.len() * 9 && apart {
            return Verdict::Gain;
        }
    }
    Verdict::Within
}

/// Prints the comparison; returns how many rows regressed or stayed
/// unresolved.
pub fn run(a_list: &str, b_list: &str) -> Result<usize, String> {
    let (a, b) = (Side::load(a_list)?, Side::load(b_list)?);
    let pairs_n = a.files.len().min(b.files.len());
    println!(
        "A: {} run(s)   B: {} run(s)   gain claims need {MIN_PAIRS} pairs: {}",
        a.files.len(),
        b.files.len(),
        if pairs_n >= MIN_PAIRS {
            "enabled"
        } else {
            "not enough runs"
        }
    );
    let mut flagged = 0;
    for w in &WORKLOADS {
        println!("== {}", w.name);
        match (a.field(w.name, "sim_digest"), b.field(w.name, "sim_digest")) {
            (Some(x), Some(y)) if x == y => println!("   simulated results: byte-equal"),
            (Some(_), Some(_)) => println!("   simulated results: DIFFER (virtual time moved)"),
            _ => {
                println!("   missing on one side");
                continue;
            }
        }
        for m in &END_TO_END {
            let (Some(sa), Some(sb)) = (a.summary(w.name, m.name), b.summary(w.name, m.name))
            else {
                continue;
            };
            let (ma, mb) = (a.medians(w.name, m.name), b.medians(w.name, m.name));
            let pairs: Vec<(f64, f64)> = ma.into_iter().zip(mb).collect();
            let v = verdict(m.better, m.bound, sa, sb, &pairs);
            if matches!(v, Verdict::Regressed | Verdict::Unresolved) {
                flagged += 1;
            }
            println!(
                "   {:<24} A {:>14.4} [{:.4} .. {:.4}]  B {:>14.4} [{:.4} .. {:.4}]  {:>+8.3}% worse  bound {:>6.2}%  {}",
                m.name,
                sa.0,
                sa.1,
                sa.2,
                sb.0,
                sb.1,
                sb.2,
                worse_by(m.better, sa.0, sb.0) * 100.0,
                m.bound * 100.0,
                match v {
                    Verdict::Within => "within bound",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved (spread exceeds bound)",
                    Verdict::Gain => "GAIN",
                }
            );
        }
        // Count-type layer metrics repeat exactly for a seed; say so when
        // both sides ran traced.
        let layers = |s: &Side| {
            s.files[0]
                .get("workloads")?
                .get(w.name)?
                .get("per_layer")
                .cloned()
        };
        if let (Some(la), Some(lb)) = (layers(&a), layers(&b)) {
            let mut compared = 0;
            let mut differing = Vec::new();
            for pl in PER_LAYER
                .iter()
                .filter(|pl| !matches!(pl.unit, "ns" | "%" | "MB"))
            {
                if let (Some(x), Some(y)) = (la.get(pl.name), lb.get(pl.name)) {
                    compared += 1;
                    if x != y {
                        differing.push(pl.name);
                    }
                }
            }
            if compared > 0 && differing.is_empty() {
                println!("   {compared} count-type layer metrics: byte-equal");
            } else if compared > 0 {
                println!("   count-type layer metrics that differ: {differing:?}");
            }
        }
    }
    Ok(flagged)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_follows_the_bound_and_the_spread() {
        let tight = |m: f64| (m, m * 0.995, m * 1.005);
        // 5 % worse against a 10 % bound: within.
        assert_eq!(
            verdict(Better::Lower, 0.10, tight(100.0), tight(105.0), &[]),
            Verdict::Within
        );
        // 15 % worse: regressed. For "higher is better" the sign flips.
        assert_eq!(
            verdict(Better::Lower, 0.10, tight(100.0), tight(115.0), &[]),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(Better::Higher, 0.10, tight(100.0), tight(115.0), &[]),
            Verdict::Within
        );
        assert_eq!(
            verdict(Better::Higher, 0.10, tight(100.0), tight(85.0), &[]),
            Verdict::Regressed
        );
        // A side whose own quartiles are wider than the bound resolves
        // nothing, whatever the medians say.
        assert_eq!(
            verdict(Better::Lower, 0.10, (100.0, 90.0, 110.0), tight(100.0), &[]),
            Verdict::Unresolved
        );
    }

    #[test]
    fn gain_needs_ten_pairs_and_nine_tenths_wins() {
        let a = (100.0, 99.5, 100.5);
        let b = (90.0, 89.5, 90.5);
        let win = (100.0, 90.0);
        let loss = (100.0, 101.0);
        let nine = vec![win; 9];
        assert_eq!(verdict(Better::Lower, 0.10, a, b, &nine), Verdict::Within);
        let mut ten = vec![win; 9];
        ten.push(loss);
        assert_eq!(verdict(Better::Lower, 0.10, a, b, &ten), Verdict::Gain);
        let mut eight_of_ten = vec![win; 8];
        eight_of_ten.extend([loss, loss]);
        assert_eq!(
            verdict(Better::Lower, 0.10, a, b, &eight_of_ten),
            Verdict::Within
        );
        // Medians closer than A's own quartile distance: no claim.
        let near = (99.8, 99.3, 100.3);
        assert_eq!(
            verdict(Better::Lower, 0.10, a, near, &[(100.0, 99.8); 10]),
            Verdict::Within
        );
    }
}
