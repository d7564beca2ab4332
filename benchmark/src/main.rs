//! The NADINO benchmark: four workloads on the full-fidelity cluster, two
//! clocks, ten end-to-end metrics and a per-layer ledger.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1     one workload, result line last
//! benchmark run [--seed N] [--seconds S] [--workload W]... [--traced] [--smoke] [--out DIR] [--label L]
//! benchmark compare A.json[,A2.json...] B.json[,B2.json...]
//! benchmark spec                                               prints BENCHMARK.json
//! benchmark metrics                                            prints the metric tables (markdown)
//! ```
//!
//! See `benchmark/README.md` for the metrics and how to read them.

mod alloc;
mod bench;
mod compare;
mod host;
mod layers;
mod rep;
mod spans;
mod spec;
mod stats;
mod trace;
mod world;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use obs::JsonValue;
use simcore::SimDuration;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Where runs leave their files unless told otherwise (git-ignored).
const DEFAULT_OUT: &str = "benchmark/out";
const DEFAULT_SEED: u64 = 1;
/// Wall budget per workload and mode of `benchmark run`.
const DEFAULT_SECONDS: f64 = 24.0;

/// `--key value` pairs and bare flags after the subcommand.
struct Args {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Args {
    fn parse(raw: &[String], flags: &[&str]) -> Result<Args, String> {
        let mut out = Args {
            pairs: Vec::new(),
            flags: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                if flags.contains(&key) {
                    out.flags.push(key.to_string());
                } else {
                    let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                    out.pairs.push((key.to_string(), v.clone()));
                }
            } else {
                return Err(format!("unexpected argument {a:?}"));
            }
        }
        Ok(out)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn all(&self, key: &str) -> Vec<&str> {
        self.pairs
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: cannot read {v:?}")),
        }
    }

    fn need<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let v = self
            .get(key)
            .ok_or_else(|| format!("--{key} is required"))?;
        v.parse().map_err(|_| format!("--{key}: cannot read {v:?}"))
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

fn write_file(dir: &Path, name: &str, text: String) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn write_json(dir: &Path, name: &str, value: &JsonValue) -> Result<PathBuf, String> {
    write_file(dir, name, value.to_string_pretty())
}

/// The span dump is thousands of small records; one line keeps it small.
fn write_spans(dir: &Path, workload: &str, spans: &JsonValue) -> Result<PathBuf, String> {
    write_file(
        dir,
        &format!("trace_{workload}.json"),
        spans.to_string_compact(),
    )
}

/// The facts recorded with every results file.
fn meta(seed: u64, seconds: f64, smoke: bool) -> JsonValue {
    JsonValue::obj(vec![
        ("seed", JsonValue::UInt(seed)),
        ("seconds_per_workload", JsonValue::Float(seconds)),
        ("smoke", JsonValue::Bool(smoke)),
        ("commit", JsonValue::Str(host::commit())),
        ("nproc", JsonValue::UInt(host::nproc() as u64)),
        ("rustc", JsonValue::Str(host::rustc_version())),
        (
            "load_generator",
            JsonValue::Str("single process, one simulation at a time".to_string()),
        ),
    ])
}

/// The paper anchors the model is calibrated against, read-only from the
/// repo's `results/summary.json` when the benchmark runs inside the repo.
fn paper_anchors() -> JsonValue {
    std::fs::read_to_string("results/summary.json")
        .ok()
        .and_then(|s| obs::parse(&s).ok())
        .and_then(|v| v.get("claims").cloned())
        .unwrap_or(JsonValue::Null)
}

fn print_anchors(anchors: &JsonValue) {
    let Some(claims) = anchors.as_arr() else {
        return;
    };
    println!("model vs paper (results/summary.json; calibrated, not validated on hardware):");
    for c in claims {
        let text = |k: &str| {
            c.get(k).map_or(String::new(), |v| match v.as_str() {
                Some(s) => s.to_string(),
                None => v.to_string_compact(),
            })
        };
        println!(
            "   {:<44} paper {:<10} model {}",
            text("claim"),
            text("paper"),
            text("measured")
        );
    }
}

/// Contract mode: one workload, one mode, result line last.
fn contract(raw: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(raw, &["smoke"])?;
    let opts = bench::Opts {
        workload: args.need("workload")?,
        seed: args.need("seed")?,
        seconds: args.need("seconds")?,
        traced: args.need::<u8>("trace")? != 0,
        smoke: args.flag("smoke"),
    };
    let out = bench::run(&opts)?;
    bench::print_outcome(&out);
    let dir = PathBuf::from(args.get("out").unwrap_or(DEFAULT_OUT));
    let mode = if opts.traced { "layers" } else { "end_to_end" };
    let record = JsonValue::obj(vec![
        ("meta", meta(opts.seed, opts.seconds, opts.smoke)),
        (
            "workloads",
            JsonValue::Obj(vec![(out.workload.clone(), bench::outcome_json(&out))]),
        ),
    ]);
    write_json(&dir, &format!("{}_{mode}.json", out.workload), &record)?;
    if opts.traced {
        write_spans(&dir, &out.workload, &out.spans)?;
    }
    println!("{}", bench::contract_line(&out));
    Ok(ExitCode::SUCCESS)
}

/// `run`: every (or the named) workload, timed and optionally traced, into
/// one results file. Non-zero exit when the correctness gate fails.
fn run_all(raw: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(raw, &["traced", "smoke"])?;
    let seed = args.num("seed", DEFAULT_SEED)?;
    let seconds = args.num("seconds", DEFAULT_SECONDS)?;
    let smoke = args.flag("smoke");
    let traced = args.flag("traced");
    let dir = PathBuf::from(args.get("out").unwrap_or(DEFAULT_OUT));
    let label = args.get("label").unwrap_or("run");
    let named = args.all("workload");
    let workloads: Vec<&str> = if named.is_empty() {
        spec::WORKLOADS.iter().map(|w| w.name).collect()
    } else {
        named
    };
    let mut records = Vec::new();
    let mut correct = true;
    for w in workloads {
        let mut opts = bench::Opts {
            workload: w.to_string(),
            seed,
            seconds,
            traced: false,
            smoke,
        };
        let mut out = bench::run(&opts)?;
        bench::print_outcome(&out);
        if traced {
            // Separate from, and after, the timed run; one record holds both.
            opts.traced = true;
            let layers = bench::run(&opts)?;
            bench::print_outcome(&layers);
            write_spans(&dir, w, &layers.spans)?;
            out.per_layer = layers.per_layer;
            out.failures.extend(layers.failures);
        }
        correct &= out.failures.is_empty();
        records.push((w.to_string(), bench::outcome_json(&out)));
        println!();
    }
    let anchors = paper_anchors();
    print_anchors(&anchors);
    let file = JsonValue::obj(vec![
        ("meta", meta(seed, seconds, smoke)),
        ("workloads", JsonValue::Obj(records)),
        ("paper_anchors", anchors),
    ]);
    let path = write_json(&dir, &format!("{label}.json"), &file)?;
    println!("wrote {}", path.display());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("correctness gate failed");
        ExitCode::FAILURE
    })
}

/// `child ...`: the work done in a fresh process on the parent's behalf.
fn child(raw: &[String], process_start: Instant) -> Result<ExitCode, String> {
    let (kind, rest) = raw.split_first().ok_or("child needs a kind")?;
    let args = Args::parse(rest, &[])?;
    let span = SimDuration::from_millis(args.num("span-ms", 100)?);
    let out = match kind.as_str() {
        "rep" => {
            let traced = args.need::<u8>("traced")? != 0;
            let mut spans = spans::Spans::new();
            let rep = rep::run(
                &args.need::<String>("workload")?,
                args.need("seed")?,
                span,
                traced,
                &mut spans,
                process_start,
            );
            let mut json = rep.to_json();
            if let JsonValue::Obj(fields) = &mut json {
                fields.push(("spans".to_string(), spans.to_json()));
            }
            json
        }
        "layers" => {
            let mut spans = spans::Spans::new();
            let params = layers::Params {
                payload: args.need("payload")?,
                tenants: args.need("tenants")?,
                pending: args.need("pending")?,
                slice: Duration::from_millis(args.need("slice-ms")?),
            };
            let ns = layers::run_all(&params, &mut spans);
            JsonValue::obj(vec![("ns", ns), ("spans", spans.to_json())])
        }
        "ladder" => rep::ladder(args.need("seed")?, span),
        "retained" => rep::retained(&args.need::<String>("workload")?, args.need("seed")?, span),
        other => return Err(format!("unknown child kind {other:?}")),
    };
    println!("{}", out.to_string_compact());
    Ok(ExitCode::SUCCESS)
}

/// `spec`: `BENCHMARK.json`, generated from the tables in `spec.rs`.
fn benchmark_json() -> JsonValue {
    let s = |x: &str| JsonValue::Str(x.to_string());
    JsonValue::obj(vec![
        (
            "command",
            JsonValue::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--offline",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .map(s)
                .to_vec(),
            ),
        ),
        ("paths", JsonValue::Arr(vec![s("benchmark")])),
        ("run_seconds", JsonValue::UInt(DEFAULT_SECONDS as u64)),
        (
            "workloads",
            JsonValue::Arr(
                spec::WORKLOADS
                    .iter()
                    .map(|w| JsonValue::obj(vec![("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            JsonValue::Arr(
                spec::END_TO_END
                    .iter()
                    .map(|m| {
                        JsonValue::obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.as_str())),
                            ("bound", JsonValue::Float(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            JsonValue::Arr(
                spec::PER_LAYER
                    .iter()
                    .map(|m| {
                        JsonValue::obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// `metrics`: every metric with its unit, direction, bound and the
/// prediction of what it moves, as the markdown tables of the README.
fn print_metric_tables() {
    println!("| end-to-end metric | unit | better | bound | what it is |");
    println!("|---|---|---|---|---|");
    for m in &spec::END_TO_END {
        println!(
            "| `{}` | {} | {} | {}% | {} |",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.what
        );
    }
    println!();
    println!("| per-layer metric | unit | better | should move |");
    println!("|---|---|---|---|");
    for m in &spec::PER_LAYER {
        println!(
            "| `{}` | {} | {} | {} |",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        );
    }
}

fn usage() -> String {
    "usage:\n  benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]\n  benchmark run [--seed N] [--seconds S] [--workload W]... [--traced] [--smoke] [--out DIR] [--label L]\n  benchmark compare A.json[,A2.json...] B.json[,B2.json...]\n  benchmark spec | metrics".to_string()
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = match raw.first().map(String::as_str) {
        Some("child") => child(&raw[1..], process_start),
        Some("run") => run_all(&raw[1..]),
        Some("compare") => match &raw[1..] {
            [a, b] => compare::run(a, b).map(|flagged| {
                if flagged == 0 {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }),
            _ => Err(usage()),
        },
        Some("spec") => {
            println!("{}", benchmark_json().to_string_pretty());
            Ok(ExitCode::SUCCESS)
        }
        Some("metrics") => {
            print_metric_tables();
            Ok(ExitCode::SUCCESS)
        }
        Some(a) if a.starts_with("--") => contract(&raw),
        _ => Err(usage()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repo root says what the binary says.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        let on_disk = obs::parse(&text).expect("valid JSON");
        assert_eq!(
            on_disk.to_string_pretty(),
            benchmark_json().to_string_pretty(),
            "regenerate with `benchmark spec > BENCHMARK.json`"
        );
        assert!(text.len() <= 64 * 1024);
        let keys: Vec<&str> = match &on_disk {
            JsonValue::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object"),
        };
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }

    /// The README documents every workload and metric by name.
    #[test]
    fn readme_names_every_workload_and_metric() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("README.md");
        let readme = std::fs::read_to_string(path).expect("benchmark/README.md");
        for name in spec::WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(spec::END_TO_END.iter().map(|m| m.name))
            .chain(spec::PER_LAYER.iter().map(|m| m.name))
        {
            assert!(readme.contains(name), "README does not mention {name}");
        }
    }

    #[test]
    fn args_parse_pairs_flags_and_repeats() {
        let raw: Vec<String> = [
            "--seed",
            "7",
            "--traced",
            "--workload",
            "a",
            "--workload",
            "b",
        ]
        .map(String::from)
        .to_vec();
        let args = Args::parse(&raw, &["traced"]).unwrap();
        assert_eq!(args.num("seed", 0u64).unwrap(), 7);
        assert!(args.flag("traced"));
        assert_eq!(args.all("workload"), ["a", "b"]);
        assert!(Args::parse(&["x".to_string()], &[]).is_err());
        assert!(args.need::<u64>("seconds").is_err());
        assert!(Args::parse(&["--seed".to_string()], &[]).is_err());
    }
}
