//! The `experiments` binary's exit status tells the truth about its output
//! files: CI gates (`obs-report`, `regress`, `upgrade-chaos`,
//! `parallel-sim`) read `results/*.json` right after running it, and a run
//! that could not write must not let them pass on the stale committed copy.

use std::path::Path;
use std::process::Command;

fn experiments(cwd: &Path, args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("experiments binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.success(), stderr)
}

#[test]
fn a_result_that_cannot_be_written_fails_the_run() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("experiments_exit_code");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // A regular file where the report's directory should be.
    std::fs::write(dir.join("blocker"), b"").unwrap();

    let (ok, stderr) = experiments(&dir, &["--quick", "--report-out", "blocker/report.json"]);
    assert!(
        stderr.contains("[failed to write blocker/report.json"),
        "{stderr}"
    );
    assert!(!ok, "exit 0 although the report was not written");

    // The control: the same binary, a writable results directory.
    let (ok, stderr) = experiments(&dir, &["--quick", "fig13"]);
    assert!(ok, "{stderr}");
    assert!(dir.join("results/fig13.json").is_file());
}
