//! The table of experiments behind the `experiments` binary
//! (`cargo run -p bench --bin experiments`), the one writer of every
//! virtual-time file under `results/`: `experiments all && git diff
//! --exit-code -- results/` (`scripts/gates.sh results`) is the regression
//! gate, because same seed means same bytes. Its `report` experiment is the
//! binary's one instrumented run (sampler, tracer, trace pipeline →
//! `results/report.json`); the API walk-through that writes a Perfetto trace
//! is `examples/observability.rs`.
//!
//! Nothing here reads the host clock: wall time — per request, per layer
//! and the cost of tracing (`obs.trace_overhead_pct`) — is measured by the
//! frozen `benchmark/` package alone.

/// One experiment the `experiments` binary can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Experiment {
    /// Name on the command line.
    pub name: &'static str,
    /// `results/<stem>.json` is the file it writes.
    pub stem: &'static str,
}

const fn exp(name: &'static str, stem: &'static str) -> Experiment {
    Experiment { name, stem }
}

/// Every experiment, in `all`'s run order. All of them report virtual time
/// only, so every file they write is byte-identical run to run.
pub const EXPERIMENTS: [Experiment; 14] = [
    exp("fig06", "fig06"),
    exp("fig09", "fig09"),
    exp("fig11", "fig11"),
    exp("fig12", "fig12"),
    exp("fig13", "fig13"),
    exp("fig14", "fig14"),
    exp("fig15", "fig15"),
    exp("fig16", "fig16"),
    exp("fig17", "fig17"),
    exp("ablations", "ablations"),
    exp("summary", "summary"),
    exp("churn", "BENCH_churn"),
    exp("upgrade", "BENCH_upgrade"),
    exp("report", "report"),
];

/// The experiments `all` stands for: the whole table.
pub fn all() -> impl Iterator<Item = Experiment> {
    EXPERIMENTS.into_iter()
}

/// Resolves requested names to the experiments to run, in request order:
/// `all` expands to [`all`], `table2` is printed by `fig16`, and a second
/// request for the same output file is dropped so no file is computed or
/// written twice. An unknown name is returned as the error.
pub fn expand<S: AsRef<str>>(names: &[S]) -> Result<Vec<Experiment>, String> {
    let mut picked: Vec<Experiment> = Vec::new();
    for name in names {
        let name = name.as_ref();
        let requested: Vec<Experiment> = if name == "all" {
            all().collect()
        } else {
            let canonical = if name == "table2" { "fig16" } else { name };
            let found = EXPERIMENTS.iter().find(|e| e.name == canonical);
            vec![*found.ok_or_else(|| name.to_string())?]
        };
        for e in requested {
            if !picked.iter().any(|p| p.stem == e.stem) {
                picked.push(e);
            }
        }
    }
    Ok(picked)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(picked: &[Experiment]) -> Vec<&'static str> {
        picked.iter().map(|e| e.name).collect()
    }

    #[test]
    fn all_is_the_whole_table() {
        assert_eq!(expand(&["all"]).unwrap(), EXPERIMENTS);
    }

    #[test]
    fn names_that_share_an_output_file_run_once() {
        assert_eq!(names(&expand(&["fig16", "table2"]).unwrap()), ["fig16"]);
        assert_eq!(names(&expand(&["table2"]).unwrap()), ["fig16"]);
        assert_eq!(
            names(&expand(&["churn", "fig06", "churn", "all"]).unwrap())[..3],
            ["churn", "fig06", "fig09"]
        );
        assert_eq!(expand(&["fig13", "all"]).unwrap().len(), 14);
    }

    #[test]
    fn unknown_names_are_refused() {
        assert_eq!(expand(&["fig06", "fig99"]), Err("fig99".to_string()));
        assert_eq!(expand(&["regress"]), Err("regress".to_string()));
        assert_eq!(expand(&["parallel"]), Err("parallel".to_string()));
        assert_eq!(expand::<&str>(&[]), Ok(Vec::new()));
    }

    #[test]
    fn stems_are_unique() {
        for (i, a) in EXPERIMENTS.iter().enumerate() {
            assert!(EXPERIMENTS[i + 1..].iter().all(|b| a.stem != b.stem));
        }
    }
}
