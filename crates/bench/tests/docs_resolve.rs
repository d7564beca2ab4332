//! Every repository path the docs name in backticks exists (ROADMAP 5(b)).
//!
//! A path is a backticked word starting with `crates/`, `tests/`,
//! `examples/` or `results/`; a trailing `:line` or `::item` is ignored and
//! `*` stands for any run of characters inside one path segment. A path
//! that `.gitignore` names is a generated output (the observability
//! example's traces, CI's run-A copies) and need not exist in a checkout.

use std::path::Path;

const DOCS: [&str; 4] = [
    "DESIGN.md",
    "README.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
];
const ROOTS: [&str; 4] = ["crates/", "tests/", "examples/", "results/"];

/// `*`-only glob over one path segment.
fn segment_matches(pattern: &str, name: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == name,
        Some((head, rest)) => name.strip_prefix(head).is_some_and(|tail| {
            (0..=tail.len()).any(|i| tail.is_char_boundary(i) && segment_matches(rest, &tail[i..]))
        }),
    }
}

/// Whether some file or directory under `dir` matches `segments`.
fn resolves(dir: &Path, segments: &[&str]) -> bool {
    let Some((first, rest)) = segments.split_first() else {
        return dir.exists();
    };
    if !first.contains('*') {
        return resolves(&dir.join(first), rest);
    }
    std::fs::read_dir(dir).is_ok_and(|entries| {
        entries.flatten().any(|e| {
            segment_matches(first, &e.file_name().to_string_lossy()) && resolves(&e.path(), rest)
        })
    })
}

fn segments(path: &str) -> Vec<&str> {
    path.split('/').filter(|s| !s.is_empty()).collect()
}

/// The backticked repository paths on one line of a doc.
fn named_paths(line: &str) -> Vec<&str> {
    line.split('`')
        .skip(1)
        .step_by(2)
        .flat_map(str::split_whitespace)
        .map(|word| word.trim_matches(|c: char| "(),;\"'".contains(c)))
        .filter(|word| ROOTS.iter().any(|root| word.starts_with(root)))
        .map(|word| word.split(':').next().expect("split yields one item"))
        .map(|path| path.trim_end_matches(['.', ',']))
        .collect()
}

#[test]
fn every_path_the_docs_name_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |file: &str| {
        std::fs::read_to_string(root.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"))
    };
    let gitignore = read(".gitignore");
    let generated: Vec<Vec<&str>> = gitignore
        .lines()
        .filter_map(|line| line.strip_prefix('/'))
        .map(segments)
        .collect();
    let is_generated = |path: &[&str]| {
        generated.iter().any(|pattern| {
            pattern.len() == path.len()
                && pattern.iter().zip(path).all(|(p, s)| segment_matches(p, s))
        })
    };
    let mut checked = 0;
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = read(doc);
        for (n, line) in text.lines().enumerate() {
            for path in named_paths(line) {
                checked += 1;
                let segs = segments(path);
                if !resolves(&root, &segs) && !is_generated(&segs) {
                    missing.push(format!("{doc}:{}: {path}", n + 1));
                }
            }
        }
    }
    assert!(
        checked > 20,
        "only {checked} paths found: the scan is broken"
    );
    assert!(
        missing.is_empty(),
        "docs name paths that do not exist:\n{}",
        missing.join("\n")
    );
}

#[test]
fn globs_and_suffixes_are_read_as_documented() {
    assert!(segment_matches("BENCH_*.json", "BENCH_churn.json"));
    assert!(segment_matches("*", "core"));
    assert!(!segment_matches("fig*.json", "summary.json"));
    assert_eq!(
        named_paths("see `crates/dne/src/core.rs:166`, (`tests/chaos.rs::x`) and `cargo test`."),
        ["crates/dne/src/core.rs", "tests/chaos.rs"]
    );
}
