//! One output schema for every document the benchmark writes: a run's
//! result file, the committed trajectory entry, and what `compare` reads.

use serde::Value;
use std::path::Path;

pub const SCHEMA: &str = "pq-e2e-bench/1";

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// How many samples the value summarises (1 for exact counts).
    pub samples: u64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64, samples: u64) -> Metric {
    Metric {
        name,
        unit,
        value,
        samples,
    }
}

pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn s(text: impl Into<String>) -> Value {
    Value::Str(text.into())
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Where and how a document was produced. `git_commit` is `"unknown"`
/// outside a repository (the benchmark driver's checkout is one).
pub fn provenance(git_commit: String, seed: u64, quick: bool, started_unix_ms: u64) -> Value {
    obj(vec![
        ("git_commit", s(git_commit)),
        ("rustc", s(command_line("rustc", &["-V"]))),
        (
            "nproc",
            Value::U64(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("seed", Value::U64(seed)),
        (
            "argv",
            Value::Array(std::env::args().map(Value::Str).collect()),
        ),
        ("quick", Value::Bool(quick)),
        ("started_unix_ms", Value::U64(started_unix_ms)),
    ])
}

/// The metrics object of a document and of the final stdout line's
/// `metrics` key.
pub fn metrics_value(metrics: &[Metric], with_samples: bool) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                let mut fields = vec![("value", Value::F64(m.value)), ("unit", s(m.unit))];
                if with_samples {
                    fields.push(("samples", Value::U64(m.samples)));
                }
                (m.name.to_string(), obj(fields))
            })
            .collect(),
    )
}

pub fn write_json(path: &Path, value: &Value) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let text = serde_json::to_string_pretty(value).map_err(std::io::Error::other)?;
    std::fs::write(path, text + "\n")
}

/// A fixed-width table of metrics for people.
pub fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!(
            "  {:<40} {:>16} {:<8} n={}",
            m.name,
            format_value(m.value),
            m.unit,
            m.samples
        );
    }
}

pub fn format_value(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.1}")
    } else if v.abs() >= 1.0 {
        format!("{v:.4}")
    } else {
        format!("{v:.6}")
    }
}
