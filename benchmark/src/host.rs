//! Host-side readings: resident-set sizes from `/proc/self/status` and the
//! facts recorded with every result file.

use std::process::Command;

fn status_kb(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0)
}

/// Current resident set, KiB (0 where `/proc` is unavailable).
pub fn rss_kb() -> u64 {
    status_kb("VmRSS:")
}

/// Resident-set high-water mark of this process, KiB.
pub fn peak_rss_kb() -> u64 {
    status_kb("VmHWM:")
}

fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// `rustc --version`, or `unknown`.
pub fn rustc_version() -> String {
    first_line("rustc", &["--version"])
}

/// The commit the benchmark ran on, or `unknown` outside a git checkout
/// (the driver's checkout is not a repository).
pub fn commit() -> String {
    first_line("git", &["rev-parse", "HEAD"])
}

/// Logical processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
