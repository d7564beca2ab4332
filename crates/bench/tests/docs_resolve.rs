//! Every repository path the docs name in backticks exists (ROADMAP 5(b)).
//!
//! A path is a backticked word starting with `crates/`, `tests/`,
//! `examples/` or `results/`; a trailing `:line` or `::item` is ignored and
//! `*` stands for any run of characters inside one path segment. A path
//! that `.gitignore` names is a generated output (the observability
//! example's traces) and need not exist in a checkout.
//!
//! And every gate they name runs (ROADMAP 5(a)): a `scripts/gates.sh <name>`
//! in a doc is a subcommand the script defines, and the CI workflow is
//! nothing but those subcommands, one job each — so the workflow, which has
//! never executed, cannot drift from the script, which runs here.

use std::path::Path;

const DOCS: [&str; 4] = [
    "DESIGN.md",
    "README.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
];
const ROOTS: [&str; 4] = ["crates/", "tests/", "examples/", "results/"];
const GATES: &str = "scripts/gates.sh";
const WORKFLOW: &str = ".github/workflows/ci.yml";

fn read(file: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::fs::read_to_string(root.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"))
}

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

fn gate_name_char(c: char) -> bool {
    c.is_ascii_lowercase() || c == '-'
}

/// The subcommands `scripts/gates.sh` defines: the labels of its top-level
/// `case`, each alone on a line indented by two spaces.
fn gate_names(script: &str) -> Vec<&str> {
    fn label(line: &str) -> Option<&str> {
        line.strip_prefix("  ")?.strip_suffix(')')
    }
    let is_name = |label: &&str| !label.is_empty() && label.chars().all(gate_name_char);
    let cases = script
        .split_once("\ncase ")
        .and_then(|(_, rest)| rest.split_once("\nesac"));
    let (cases, _) = cases.expect("a top-level case ... esac");
    cases.lines().filter_map(label).filter(is_name).collect()
}

/// The word after every `scripts/gates.sh ` in `text`, with its line number;
/// a placeholder such as `<name>` is no word.
fn gates_called(text: &str) -> Vec<(usize, &str)> {
    let mut called = Vec::new();
    for (n, line) in text.lines().enumerate() {
        for (at, _) in line.match_indices(GATES) {
            let rest = &line[at + GATES.len()..];
            let Some(args) = rest.strip_prefix(' ') else {
                continue;
            };
            let end = args.find(|c| !gate_name_char(c));
            match &args[..end.unwrap_or(args.len())] {
                "" => {}
                word => called.push((n + 1, word)),
            }
        }
    }
    called
}

#[test]
fn the_workflow_is_one_gate_per_job() {
    let script = read(GATES);
    let gates = gate_names(&script);
    assert!(gates.contains(&"all") && gates.len() > 2, "{gates:?}");
    let workflow = read(WORKFLOW);
    for banned in ["\t", "python3", "matrix:", "_SEED"] {
        assert!(!workflow.contains(banned), "{WORKFLOW} holds {banned:?}");
    }
    assert!(
        workflow.lines().count() <= 110,
        "{WORKFLOW} grew past 110 lines"
    );

    let mut jobs_calling: Vec<&str> = Vec::new();
    for (n, line) in workflow.lines().enumerate() {
        let Some(command) = line.trim().strip_prefix("run:") else {
            continue;
        };
        let command = command.trim();
        if command.starts_with("rustup toolchain install ") {
            continue;
        }
        let gate = command.strip_prefix(GATES).map(str::trim);
        assert!(
            gate.is_some_and(|g| gates.contains(&g) && g != "all"),
            "{WORKFLOW}:{}: `{command}` is neither a toolchain install nor one \
             `{GATES} <name>` with <name> among {gates:?}",
            n + 1
        );
        jobs_calling.extend(gate);
    }
    for gate in gates.iter().filter(|g| **g != "all") {
        let jobs = jobs_calling.iter().filter(|called| *called == gate).count();
        assert_eq!(jobs, 1, "`{GATES} {gate}` is run by {jobs} CI jobs, want 1");
    }
    // `all` is every gate in one go; only miri, which needs a download, is out.
    let listed = script
        .lines()
        .find_map(|l| l.trim().strip_prefix("for name in "));
    let listed = listed
        .and_then(|l| l.split(';').next())
        .expect("all's loop");
    let offline = gates.iter().filter(|g| !["all", "miri"].contains(g));
    assert_eq!(
        listed.split_whitespace().collect::<Vec<_>>(),
        offline.copied().collect::<Vec<_>>()
    );
}

#[test]
fn every_gate_the_docs_name_is_a_subcommand() {
    let script = read(GATES);
    let gates = gate_names(&script);
    let mut checked = 0;
    for doc in DOCS.into_iter().chain([WORKFLOW, GATES]) {
        for (line, gate) in gates_called(&read(doc)) {
            checked += 1;
            assert!(
                gates.contains(&gate),
                "{doc}:{line}: `{GATES} {gate}` is not a subcommand ({gates:?})"
            );
        }
    }
    assert!(
        checked > 10,
        "only {checked} gates named: the scan is broken"
    );
}

#[test]
fn gate_names_and_calls_are_read_as_documented() {
    let script =
        "f() {\n  x=$(for f; do y;\n  done)\n}\ncase $1 in\n  lint)\n    x\n    ;;\n  obs-overhead)\n  '{\"a\":1,'*) ;;\n  *)\nesac\n";
    assert_eq!(gate_names(script), ["lint", "obs-overhead"]);
    assert_eq!(
        gates_called("run `scripts/gates.sh lint`, then scripts/gates.sh all; `scripts/gates.sh <name>` and `scripts/gates.sh`"),
        [(1, "lint"), (1, "all")]
    );
}
