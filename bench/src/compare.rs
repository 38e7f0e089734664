//! `compare PARENT_DIR CHANGE_DIR`: the landing rule over two sets of
//! result documents.
//!
//! Each directory holds the `*.e2e.*.json` documents of one commit,
//! produced by alternating `run.sh --out DIR` between the two builds
//! (README "Comparing two commits"). Documents are grouped by workload
//! and paired in start-time order; every (metric, workload) row gets one
//! verdict — improved / within bound / regressed / unresolved — with the
//! parent's median and quartiles, the change's median, and the ratio
//! stated with its base.

use crate::report::{format_value, SCHEMA};
use crate::stats::{judge, Better, Verdict, MIN_PAIRS};
use serde::Value;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// One end-to-end metric's contract, from `BENCHMARK.json`.
struct Contract {
    name: String,
    better: Better,
    bound: f64,
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::F64(f) => Some(*f),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}

fn text(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

fn read_json(path: &Path) -> io::Result<Value> {
    serde_json::from_str(&std::fs::read_to_string(path)?)
        .map_err(|e| invalid(format!("{}: {e}", path.display())))
}

fn contracts(benchmark: &Path) -> io::Result<(Vec<Contract>, Vec<String>)> {
    let doc = read_json(benchmark)?;
    let bad = || invalid(format!("{}: not a BENCHMARK.json", benchmark.display()));
    let list = |key: &str| doc.get(key).and_then(Value::as_array).ok_or_else(bad);
    let contracts = list("end_to_end")?
        .iter()
        .map(|m| {
            Some(Contract {
                name: text(m.get("name")?)?.to_string(),
                better: Better::parse(text(m.get("better")?)?)?,
                bound: num(m.get("bound")?)?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(bad)?;
    let workloads = list("workloads")?
        .iter()
        .map(|w| Some(text(w.get("name")?)?.to_string()))
        .collect::<Option<Vec<_>>>()
        .ok_or_else(bad)?;
    Ok((contracts, workloads))
}

/// One side's usable documents of one workload, in start order.
struct Side {
    started_ms: Vec<u64>,
    /// metric name → one value per document.
    values: BTreeMap<String, Vec<f64>>,
    digests: Vec<String>,
}

/// Load every end-to-end document under `dir`, grouped by workload.
/// Quick documents, failed runs and foreign schemas are refused, not
/// skipped: a comparison over a partial set would look like a result.
fn load(dir: &Path) -> io::Result<BTreeMap<String, Side>> {
    let mut docs: Vec<(u64, String, Value)> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !name.ends_with(".json") || !name.contains(".e2e.") {
            continue;
        }
        let doc = read_json(&path)?;
        let refuse = |why: &str| invalid(format!("{}: {why}", path.display()));
        if doc.get("schema").and_then(text) != Some(SCHEMA) {
            return Err(refuse("unknown schema"));
        }
        let prov = doc
            .get("provenance")
            .ok_or_else(|| refuse("no provenance"))?;
        if prov.get("quick") != Some(&Value::Bool(false)) {
            return Err(refuse("a --quick run cannot be compared"));
        }
        if doc.get("correct") != Some(&Value::Bool(true)) {
            return Err(refuse("the run failed its correctness gate"));
        }
        let started = prov.get("started_unix_ms").and_then(num).unwrap_or(0.0) as u64;
        let workload = doc
            .get("workload")
            .and_then(text)
            .ok_or_else(|| refuse("no workload"))?
            .to_string();
        docs.push((started, workload, doc));
    }
    docs.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    let mut sides: BTreeMap<String, Side> = BTreeMap::new();
    for (started, workload, doc) in docs {
        let side = sides.entry(workload).or_insert_with(|| Side {
            started_ms: Vec::new(),
            values: BTreeMap::new(),
            digests: Vec::new(),
        });
        side.started_ms.push(started);
        side.digests.push(
            doc.get("answers_digest")
                .and_then(text)
                .unwrap_or("")
                .to_string(),
        );
        for (name, m) in doc.get("metrics").and_then(Value::as_object).unwrap_or(&[]) {
            if let Some(v) = m.get("value").and_then(num) {
                side.values.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(sides)
}

/// Run the comparison; returns whether any row regressed.
pub fn compare(parent_dir: &Path, change_dir: &Path, benchmark: &Path) -> io::Result<bool> {
    let (contracts, workloads) = contracts(benchmark)?;
    let parent = load(parent_dir)?;
    let change = load(change_dir)?;
    let mut regressed = false;
    println!(
        "{:<26} {:<12} {:<13} {:>14} {:>24} {:>14} {:>10} {:>7}",
        "metric",
        "workload",
        "verdict",
        "parent median",
        "parent [q1, q3]",
        "change median",
        "worse by",
        "w-l/n"
    );
    for workload in &workloads {
        let (Some(p), Some(c)) = (parent.get(workload), change.get(workload)) else {
            return Err(invalid(format!("no documents for workload {workload}")));
        };
        let pairs = p.started_ms.len().min(c.started_ms.len());
        if pairs < MIN_PAIRS {
            return Err(invalid(format!(
                "{workload}: {pairs} pairs, the landing rule needs {MIN_PAIRS}"
            )));
        }
        let parent_first = (0..pairs)
            .filter(|&i| p.started_ms[i] < c.started_ms[i])
            .count();
        for contract in &contracts {
            let (Some(pv), Some(cv)) = (p.values.get(&contract.name), c.values.get(&contract.name))
            else {
                return Err(invalid(format!("{workload}: no {} values", contract.name)));
            };
            let j = judge(pv, cv, contract.better, contract.bound)
                .ok_or_else(|| invalid(format!("{workload}: too few {} values", contract.name)))?;
            regressed |= j.verdict == Verdict::Regressed;
            println!(
                "{:<26} {:<12} {:<13} {:>14} {:>24} {:>14} {:>9.2}% {:>3}-{}/{}",
                contract.name,
                workload,
                j.verdict.label(),
                format_value(j.parent_median),
                format!(
                    "[{}, {}]",
                    format_value(j.parent_q1),
                    format_value(j.parent_q3)
                ),
                format_value(j.change_median),
                j.worse_by * 100.0,
                j.wins,
                j.losses,
                j.pairs,
            );
        }
        let same_answers = p.digests[..pairs] == c.digests[..pairs];
        println!(
            "  {workload}: {pairs} pairs, parent ran first in {parent_first}; \
             \"worse by\" is (change − parent) ÷ parent median in the worse direction \
             (better: see BENCHMARK.json); answers_digest {}",
            if same_answers {
                "equal on every pair"
            } else {
                "DIFFERS — the two commits do not answer alike"
            }
        );
    }
    Ok(regressed)
}
