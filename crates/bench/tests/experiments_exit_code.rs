//! The `experiments` binary's exit status tells the truth about its output
//! files: `scripts/gates.sh results` diffs `results/*.json` right after
//! running it, and a run that could not write must not let the gate pass on
//! the stale committed copy.

use std::path::Path;
use std::process::Command;

/// Runs the binary in `cwd`; returns its exit code and stderr.
fn experiments(cwd: &Path, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("experiments binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code(), stderr)
}

fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn an_unknown_name_exits_2_before_anything_runs() {
    let dir = scratch_dir("experiments_unknown_name");
    // `regress`, `parallel`, `--shards`, the four instrumented-run flags
    // and `--report-out` are retired; a flag is refused as the first name
    // that is not an experiment.
    for (args, unknown) in [
        (&["--quick", "fig13", "regress"][..], "regress"),
        (&["--quick", "fig13", "parallel"][..], "parallel"),
        (&["--shards", "4", "parallel"][..], "--shards"),
        (&["--trace-out", "x"][..], "--trace-out"),
        (&["--metrics-out", "x"][..], "--metrics-out"),
        (&["--tail-sample", "fig13"][..], "--tail-sample"),
        (&["--flight-out", "x"][..], "--flight-out"),
        (&["--report-out", "x", "report"][..], "--report-out"),
    ] {
        let (code, stderr) = experiments(&dir, args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown experiment {unknown:?}")),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains(">>> running"), "{args:?}: {stderr}");
        assert!(!dir.join("results").exists(), "{args:?} wrote something");
    }
}

#[test]
fn names_that_share_an_output_file_run_once() {
    let dir = scratch_dir("experiments_dedupe");
    let (code, stderr) = experiments(&dir, &["--quick", "fig16", "table2"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(stderr.matches(">>> running").count(), 1, "{stderr}");
    assert!(dir.join("results/fig16.json").is_file());
}

#[test]
fn a_result_that_cannot_be_written_fails_the_run() {
    let dir = scratch_dir("experiments_exit_code");
    // A regular file where the results directory should be.
    std::fs::write(dir.join("results"), b"").unwrap();

    let (code, stderr) = experiments(&dir, &["--quick", "fig13"]);
    assert!(
        stderr.contains("[failed to write results/fig13.json"),
        "{stderr}"
    );
    assert_eq!(code, Some(1), "fig13.json was not written");

    // The control: the same binary, a writable results directory.
    std::fs::remove_file(dir.join("results")).unwrap();
    let (code, stderr) = experiments(&dir, &["--quick", "fig13"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(dir.join("results/fig13.json").is_file());
}
