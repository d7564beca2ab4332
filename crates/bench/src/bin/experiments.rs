//! Regenerates the paper's tables and figures.
//!
//! ```text
//! experiments [name ...]      # fig06 fig09 fig11 fig12 fig13 fig14
//!                             # fig15 fig16 table2 fig17 ablations
//!                             # summary churn upgrade report, or "all"
//!                             # for exactly those: every virtual-time
//!                             # result, byte-identical run to run, so
//!                             # `git diff --exit-code -- results/` after
//!                             # `experiments all` is the regression gate
//!                             # (`scripts/gates.sh results`)
//! experiments --quick [name]  # shorter runs for smoke testing
//! experiments --jobs N        # fan figures and sweep points out over N
//!                             # threads (N=0 or omitted: available cores);
//!                             # output is byte-identical to --jobs 1
//! experiments report          # the one instrumented run: fleet
//!                             # observability report (windowed rollups of
//!                             # every sampled level, fleet totals,
//!                             # exemplars, burn rates, SoC profile, a
//!                             # flight dump) -> results/report.json.
//!                             # For a Perfetto trace and a raw metrics
//!                             # snapshot: cargo run --release --example
//!                             # observability
//! ```
//!
//! Each experiment prints its table(s) and writes a JSON twin under
//! `results/`; names that share an output file (`fig16 table2`) run once.
//! With `--jobs N` each requested figure runs on its own thread, and
//! fig06/fig09/fig11/fig12/churn — whose one `run(.., jobs)` takes the
//! fan-out — further split into one thread per independent sweep cell;
//! results are printed and written in request order, so the text and JSON
//! are byte-identical whatever `N` is. These two flags are everything a
//! run can set — it reads no environment variable, and every experiment
//! runs at its one seed (the seed matrix lives in the tests, which call the
//! seeded functions directly); what the library lets an experiment
//! configure is DESIGN.md §2.6 "What is configurable".

use std::path::PathBuf;

use bench::Experiment;
use nadino::experiment::parallel::{pmap, resolve_jobs};
use nadino::experiment::{
    ablations, churn, fig06, fig09, fig11, fig12, fig13, fig14, fig15, fig16, fig17, summary,
    upgrade,
};
use obs::ToJson;

#[derive(Clone, Copy)]
struct Budget {
    /// Virtual milliseconds per steady-state cell.
    millis: u64,
    /// Echo requests per microbenchmark cell.
    requests: u64,
    /// Timeline compression for the multi-tenant experiments.
    scale: f64,
    /// Virtual seconds for the autoscaling ramp.
    ramp_secs: u64,
    /// Whether this is the `--quick` budget (churn, upgrade and report
    /// size themselves from it).
    quick: bool,
}

impl Budget {
    fn full() -> Budget {
        Budget {
            millis: 400,
            requests: 2_000,
            scale: 0.1,
            ramp_secs: 48,
            quick: false,
        }
    }

    fn quick() -> Budget {
        Budget {
            millis: 60,
            requests: 300,
            scale: 0.04,
            ramp_secs: 16,
            quick: true,
        }
    }
}

/// One figure's finished output: the experiment (for its results-file
/// stem), rendered table text and pretty JSON. Produced on a worker
/// thread, emitted in request order by the main thread.
struct Output {
    exp: Experiment,
    text: String,
    json: String,
}

fn out<T: ToJson>(exp: Experiment, text: String, value: &T) -> Output {
    Output {
        exp,
        text,
        json: value.to_json().to_string_pretty(),
    }
}

/// Runs one experiment; `jobs` is the sweep-cell fan-out for the figures
/// that decompose into independent `Sim`s.
fn run_one(exp: Experiment, b: &Budget, jobs: usize) -> Output {
    match exp.name {
        "fig06" => {
            let fig = fig06::run(b.requests, b.millis, jobs);
            out(exp, fig.render(), &fig)
        }
        "fig09" => {
            let fig = fig09::run(b.requests, jobs);
            out(exp, fig.render(), &fig)
        }
        "fig11" => {
            let fig = fig11::run(b.millis, jobs);
            out(exp, fig.render(), &fig)
        }
        "fig12" => {
            let fig = fig12::run(b.requests, jobs);
            out(exp, fig.render(), &fig)
        }
        "fig13" => {
            let fig = fig13::run(b.millis);
            out(exp, fig.render(), &fig)
        }
        "fig14" => {
            let fig = fig14::run(b.ramp_secs);
            out(exp, fig.render(), &fig)
        }
        "fig15" => {
            let fig = fig15::run(b.scale);
            out(exp, fig.render(), &fig)
        }
        "fig16" => {
            let fig = fig16::run(b.millis);
            let mut text = fig.render();
            text.push('\n');
            text.push_str(&fig.render_table2());
            out(exp, text, &fig)
        }
        "fig17" => {
            let fig = fig17::run(b.scale);
            out(exp, fig.render(), &fig)
        }
        "ablations" => {
            let fig = ablations::run(b.millis, b.scale.min(0.05));
            out(exp, fig.render(), &fig)
        }
        "summary" => {
            let fig = summary::run(b.millis, b.requests);
            out(exp, fig.render(), &fig)
        }
        "churn" => {
            let rep = churn::run(b.quick, jobs);
            out(exp, rep.render(), &rep)
        }
        "upgrade" => {
            let rep = upgrade::run(b.quick);
            out(exp, rep.render(), &rep)
        }
        "report" => {
            // The fleet observability report. Budget-invariant apart from
            // `--quick`, which shrinks the boutique cell.
            let mut fleet_cfg = nadino::fleet::ReportConfig::default();
            if b.quick {
                fleet_cfg.horizon = simcore::SimDuration::from_millis(20);
                fleet_cfg.clients = 8;
            }
            let doc = nadino::fleet::build_report(&fleet_cfg);
            out(exp, nadino::fleet::render_summary(&doc), &doc)
        }
        other => unreachable!("experiment {other:?} has no runner"),
    }
}

/// Writes one output file, creating its directory. Says what happened and
/// returns whether it worked; `main` exits non-zero after the run if any
/// write failed, so a gate that reads the file next cannot pass on a stale
/// copy.
fn write_out(path: &std::path::Path, text: &str) -> bool {
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, text));
    match &written {
        Ok(()) => println!("[wrote {}]", path.display()),
        Err(e) => eprintln!("[failed to write {}: {e}]", path.display()),
    }
    written.is_ok()
}

fn emit(o: &Output) -> bool {
    println!("{}", o.text);
    let path = PathBuf::from(format!("results/{}.json", o.exp.stem));
    let ok = write_out(&path, &o.json);
    println!();
    ok
}

/// The value following `flag`. When it is missing or does not parse, says
/// "`flag` needs `what`" and exits 2.
fn value<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>, flag: &str, what: &str) -> T {
    it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("{flag} needs {what}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    // 0 means "auto"; resolved below via `resolve_jobs`.
    let mut jobs = 0usize;
    let mut names: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--jobs" => jobs = value(&mut it, &a, "an integer (0 = available cores)"),
            _ => names.push(a),
        }
    }
    let budget = if quick {
        Budget::quick()
    } else {
        Budget::full()
    };
    // `0` means "auto", resolved to available_parallelism() in one place
    // and announced up front so logs state the actual fan-out.
    let jobs = resolve_jobs(jobs);
    eprintln!(
        ">>> run header: jobs={jobs} budget={}",
        if quick { "quick" } else { "full" }
    );
    if names.is_empty() {
        names.push("all".to_string());
    }
    let experiments = bench::expand(&names).unwrap_or_else(|name| {
        eprintln!(
            "unknown experiment {name:?}; known: {:?}",
            bench::EXPERIMENTS.map(|e| e.name)
        );
        std::process::exit(2);
    });
    let run = move |exp: Experiment| {
        eprintln!(">>> running {}", exp.name);
        run_one(exp, &budget, jobs)
    };
    // Each figure runs on its own thread (and the sweep figures fan their
    // cells out further); outputs are emitted strictly in request order.
    let tasks: Vec<_> = experiments
        .into_iter()
        .map(|exp| move || run(exp))
        .collect();
    let mut all_written = true;
    for output in pmap(tasks, jobs) {
        all_written &= emit(&output);
    }
    if !all_written {
        std::process::exit(1);
    }
}
