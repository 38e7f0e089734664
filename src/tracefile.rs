//! Reading `--trace-out` spill files back for `pqsim trace --files`.
//!
//! Each non-blank line is one [`Trace`] as [`trace_to_json`] wrote it
//! (ids as zero-padded hex strings, times as JSON integers), parsed by the
//! workspace's one JSON reader, the vendored `serde_json`. Integers are
//! read as `u64`, so epoch-nanosecond timestamps come back exact.
//!
//! [`trace_to_json`]: pq_telemetry::trace_to_json

use pq_telemetry::{Trace, TraceSpan};
use serde::{Deserialize, Value};

/// Parse a JSON-lines spill, skipping blank and corrupt lines: a corrupt
/// line loses itself, nothing else.
pub fn traces_from_jsonl(text: &str) -> Vec<Trace> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| trace_from_value(&serde_json::from_str(l).ok()?))
        .collect()
}

fn trace_from_value(v: &Value) -> Option<Trace> {
    let spans = v.get("spans")?.as_array()?;
    Some(Trace {
        trace_id: hex(v.get("trace_id")?, 32)?,
        root_span: hex64(v.get("root_span")?)?,
        duration_ns: uint(v.get("duration_ns")?)?,
        slow: field(v, "slow")?,
        spans: spans
            .iter()
            .map(|s| {
                Some(TraceSpan {
                    span_id: hex64(s.get("span_id")?)?,
                    parent_span: hex64(s.get("parent_span")?)?,
                    name: field(s, "name")?,
                    process: field(s, "process")?,
                    tag: field(s, "tag")?,
                    start_ns: uint(s.get("start_ns")?)?,
                    end_ns: uint(s.get("end_ns")?)?,
                })
            })
            .collect::<Option<_>>()?,
    })
}

/// A hex id of 1 to `width` digits.
fn hex(v: &Value, width: usize) -> Option<u128> {
    match v {
        Value::Str(s) if !s.is_empty() && s.len() <= width => u128::from_str_radix(s, 16).ok(),
        _ => None,
    }
}

fn hex64(v: &Value) -> Option<u64> {
    u64::try_from(hex(v, 16)?).ok()
}

/// An integer exactly as written: `u64`'s own `Deserialize` also takes
/// a float, whose value may already be rounded.
fn uint(v: &Value) -> Option<u64> {
    match v {
        Value::U64(n) => Some(*n),
        _ => None,
    }
}

fn field<T: Deserialize>(v: &Value, key: &str) -> Option<T> {
    T::from_value(v.get(key)?).ok()
}
