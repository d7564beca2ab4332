//! Every committed `results/*.json` has exactly one writer and one check.
//!
//! A virtual-time file is written by `experiments all` and checked by
//! `git diff --exit-code -- results/` (same seed, same bytes). The only
//! other file allowed is the named wall-clock one, which no gate compares
//! byte-for-byte. A second copy of either kind (the old
//! `baselines` subdirectory) has no place.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Wall-clock result files: the `benchmark/` package's campaign, the one
/// door host time leaves through.
const WALL_CLOCK_FILES: [&str; 1] = ["BENCH_e2e"];

/// Paths under `results/` that git tracks; in an exported tree without a
/// repository, everything that is there.
fn tracked_results(root: &Path) -> Vec<PathBuf> {
    let listed = Command::new("git")
        .args(["ls-files", "--", "results"])
        .current_dir(root)
        .output()
        .ok()
        .filter(|out| out.status.success() && !out.stdout.is_empty());
    match listed {
        Some(out) => String::from_utf8_lossy(&out.stdout)
            .lines()
            .map(PathBuf::from)
            .collect(),
        None => std::fs::read_dir(root.join("results"))
            .expect("results/ exists")
            .map(|entry| Path::new("results").join(entry.expect("readable entry").file_name()))
            .collect(),
    }
}

#[test]
fn every_committed_result_has_one_writer() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    assert!(
        !root.join("results").join("baselines").exists(),
        "a baselines directory is a second copy; results/ itself is the baseline"
    );
    let all: Vec<&str> = bench::all().map(|e| e.stem).collect();
    let files = tracked_results(&root);
    for path in &files {
        assert_eq!(
            path.parent(),
            Some(Path::new("results")),
            "{} is nested: results/ is flat",
            path.display()
        );
        assert_eq!(
            path.extension().and_then(|e| e.to_str()),
            Some("json"),
            "{}",
            path.display()
        );
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .expect("utf-8 name");
        assert!(
            all.contains(&stem) || WALL_CLOCK_FILES.contains(&stem),
            "{} is written by neither `experiments all` nor a named wall-clock run",
            path.display()
        );
    }
    // And the other way round: nothing `all` writes is missing.
    for stem in all {
        let path = Path::new("results").join(format!("{stem}.json"));
        assert!(files.contains(&path), "{} is not committed", path.display());
    }
}
