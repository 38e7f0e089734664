//! The repo's single end-to-end benchmark. See `README.md` beside this
//! package and `BENCHMARK.json` at the repo root.
//!
//! ```text
//! pq-e2e-bench [--workload W|all] [--seed N] [--traffic-seed N] [--seconds S]
//!              [--trace 0|1 | --traced] [--quick] [--out DIR]
//! pq-e2e-bench compare PARENT_DIR CHANGE_DIR
//! pq-e2e-bench collect DIR OUT.json
//! ```
//!
//! A single-workload run prints every metric by name with its unit and
//! sample count, then — as the last line of stdout — one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. It exits nonzero when
//! the correctness gate fails.

mod compare;
mod contract;
mod layers;
mod report;
mod run;
mod spans;
mod stats;
mod sut;
mod workloads;

use report::{obj, s};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

/// Default `--seed` (victim sampling and query order) and default
/// `--traffic-seed` (the `pq-trace` generators). Traffic seed 13 is
/// reserved as the held-out seed: a claimed gain must also hold there, so
/// do not tune against it.
const DEFAULT_SEED: u64 = 12;
/// Default `--seconds`, equal to `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 14.0;
const QUICK_SECONDS: f64 = 1.0;

struct Cli {
    workload: String,
    seed: u64,
    traffic_seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: run.sh [--workload {}|all] [--seed N] [--traffic-seed N] [--seconds S] \
         [--trace 0|1 | --traced] [--quick] [--out DIR]\n       \
         run.sh compare PARENT_DIR CHANGE_DIR",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: "all".to_string(),
        seed: DEFAULT_SEED,
        traffic_seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = value()?,
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--traffic-seed" => {
                cli.traffic_seed = value()?
                    .parse()
                    .map_err(|e| format!("--traffic-seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                cli.seconds = Some(seconds);
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--traced" => cli.trace = true,
            "--quick" => cli.quick = true,
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            "-h" | "--help" => return Err(usage()),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    Ok(cli)
}

/// The benchmark's own directory: `PQ_BENCH_DIR` (set by `run.sh`), else
/// `bench` under the current directory.
fn bench_dir() -> PathBuf {
    std::env::var_os("PQ_BENCH_DIR").map_or_else(|| PathBuf::from("bench"), PathBuf::from)
}

fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
}

/// Run every workload, each in a fresh process of this executable, so
/// peak memory and cold-start cost are per workload.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = Vec::new();
    for w in &workloads::WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(args)
            .args(["--workload", w.name])
            .status();
        if !status.is_ok_and(|s| s.success()) {
            failed.push(w.name);
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAILED: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn run_one(cli: &Cli, workload: &'static workloads::Workload) -> std::io::Result<bool> {
    let started = unix_ms();
    let dir = bench_dir();
    let out_dir = dir.join("out");
    let args = run::RunArgs {
        workload,
        seed: cli.seed,
        traffic_seed: cli.traffic_seed,
        seconds: cli.seconds.unwrap_or(if cli.quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        }),
        trace: cli.trace,
        quick: cli.quick,
        out_dir: out_dir.clone(),
    };
    let mut outcome = run::run(&args)?;
    if let Err(mismatch) = contract::check(&outcome.metrics, cli.trace) {
        outcome.problems.push(mismatch);
    }
    let kind = if cli.trace { "layers" } else { "e2e" };

    report::print_metrics(
        &format!(
            "{} · seed {} · {} s · {}{}",
            workload.name,
            cli.seed,
            args.seconds,
            if cli.trace {
                "per-layer metrics (traced run)"
            } else {
                "end-to-end metrics (tracing off)"
            },
            if cli.quick { " · QUICK" } else { "" }
        ),
        &outcome.metrics,
    );
    println!(
        "  attempted {} failed {} fail_ratio {} answers_digest {:08x}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.answers_digest
    );
    for problem in &outcome.problems {
        println!("  PROBLEM: {problem}");
    }
    for note in &outcome.notes {
        println!("  NOTE: {note}");
    }
    if cli.trace {
        let path = run::trace_path(&out_dir, workload.name);
        std::fs::write(&path, spans::chrome_json(&outcome.spans, workload.name))?;
        println!(
            "  trace: {} ({} spans)",
            path.display(),
            outcome.spans.len()
        );
        for (name, t) in spans::totals_by_name(&outcome.spans) {
            println!(
                "    {:<28} n={:<7} total {:>12.3} ms  self {:>12.3} ms",
                name,
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    }

    let mut params = vec![
        ("traffic", s(workload.traffic.label())),
        ("time_windows", s(format!("{:?}", workload.ingest.tw))),
        ("d", Value::U64(workload.ingest.d)),
        ("route", s(workload.route.label())),
        ("mix", s(workload.mix.label())),
        ("seconds", Value::F64(args.seconds)),
        ("traffic_seed", Value::U64(cli.traffic_seed)),
    ];
    params.extend(outcome.params.iter().map(|(k, v)| (*k, Value::F64(*v))));
    let document = obj(vec![
        ("schema", s(report::SCHEMA)),
        ("workload", s(workload.name)),
        ("kind", s(kind)),
        (
            "provenance",
            report::provenance(sut::git_commit(), cli.seed, cli.quick, started),
        ),
        ("params", obj(params)),
        ("correct", Value::Bool(outcome.correct())),
        ("attempted", Value::U64(outcome.attempted)),
        ("failed", Value::U64(outcome.failed)),
        (
            "problems",
            Value::Array(outcome.problems.iter().map(s).collect()),
        ),
        ("notes", Value::Array(outcome.notes.iter().map(s).collect())),
        (
            "answers_digest",
            s(format!("{:08x}", outcome.answers_digest)),
        ),
        ("metrics", report::metrics_value(&outcome.metrics, true)),
        (
            "series",
            obj(outcome
                .series
                .iter()
                .map(|(name, values)| {
                    let values = values.iter().map(|v| Value::F64(*v)).collect();
                    (*name, Value::Array(values))
                })
                .collect()),
        ),
    ]);
    let path = match &cli.out {
        Some(dir) => dir.join(format!("{}.{kind}.{started}.json", workload.name)),
        None => out_dir.join(format!("{}.{kind}.json", workload.name)),
    };
    report::write_json(&path, &document)?;
    println!("  document: {}", path.display());

    let last_line = obj(vec![
        ("correct", Value::Bool(outcome.correct())),
        ("attempted", Value::U64(outcome.attempted)),
        ("failed", Value::U64(outcome.failed)),
        ("metrics", report::metrics_value(&outcome.metrics, false)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&last_line).map_err(std::io::Error::other)?
    );
    Ok(outcome.correct())
}

fn compare_command(args: &[String]) -> ExitCode {
    let [parent, change] = args else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    // `BENCHMARK.json` sits beside the benchmark's directory.
    let benchmark = bench_dir()
        .parent()
        .unwrap_or(Path::new("."))
        .join("BENCHMARK.json");
    match compare::compare(Path::new(parent), Path::new(change), &benchmark) {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => {
            eprintln!("at least one (metric, workload) row regressed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::from(2)
        }
    }
}

/// `collect DIR OUT`: gather every result document under `DIR` into one
/// trajectory file, in file-name order.
fn collect_command(args: &[String]) -> ExitCode {
    let [dir, out] = args else {
        eprintln!("usage: run.sh collect DIR OUT.json");
        return ExitCode::from(2);
    };
    let gather = || -> std::io::Result<usize> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        paths.sort();
        let documents = paths
            .iter()
            .map(|p| {
                serde_json::from_str::<Value>(&std::fs::read_to_string(p)?)
                    .map_err(|e| std::io::Error::other(format!("{}: {e}", p.display())))
            })
            .collect::<std::io::Result<Vec<Value>>>()?;
        let trajectory = obj(vec![
            ("schema", s(report::SCHEMA)),
            ("kind", s("trajectory")),
            ("documents", Value::Array(documents)),
        ]);
        report::write_json(Path::new(out), &trajectory)?;
        Ok(paths.len())
    };
    match gather() {
        Ok(n) => {
            println!("{n} documents → {out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("collect: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "compare") {
        return compare_command(&args[1..]);
    }
    if args.first().is_some_and(|a| a == "collect") {
        return collect_command(&args[1..]);
    }
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if cli.workload == "all" {
        return run_all(&args);
    }
    let Some(workload) = workloads::by_name(&cli.workload) else {
        eprintln!("unknown workload {}\n{}", cli.workload, usage());
        return ExitCode::from(2);
    };
    match run_one(&cli, workload) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("{}: correctness gate failed", workload.name);
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("{}: {e}", workload.name);
            ExitCode::FAILURE
        }
    }
}
