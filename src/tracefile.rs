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
use std::io::{self, BufRead};

/// Parse a JSON-lines spill, skipping blank and corrupt lines: a corrupt
/// line loses itself, nothing else.
pub fn traces_from_jsonl(text: &str) -> Vec<Trace> {
    traces_from_reader(text.as_bytes()).expect("a byte slice reads without I/O errors")
}

/// [`traces_from_jsonl`] over a reader, one line in memory at a time; a
/// line that is not UTF-8 is corrupt like any other. Only an I/O error
/// fails the read.
pub fn traces_from_reader(mut r: impl BufRead) -> io::Result<Vec<Trace>> {
    let (mut traces, mut line) = (Vec::new(), Vec::new());
    while r.read_until(b'\n', &mut line)? > 0 {
        let value = std::str::from_utf8(&line)
            .ok()
            .and_then(|l| serde_json::from_str(l.trim()).ok());
        traces.extend(value.as_ref().and_then(trace_from_value));
        line.clear();
    }
    Ok(traces)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blank_corrupt_and_non_utf8_lines_lose_only_themselves() {
        let trace = |id| Trace {
            trace_id: id,
            root_span: 7,
            duration_ns: u64::MAX - id as u64,
            slow: id % 2 == 0,
            spans: Vec::new(),
        };
        let line = |id| pq_telemetry::trace_to_json(&trace(id));
        let text = format!("{}\n\n{{not json\n  {}\r\n{}", line(1), line(2), line(3));
        let mut bytes = text.clone().into_bytes();
        bytes.extend(b"\n\xff\xfe\n");
        bytes.extend(line(4).as_bytes());
        let want: Vec<Trace> = (1..=4).map(trace).collect();
        assert_eq!(traces_from_jsonl(&text), want[..3]);
        assert_eq!(traces_from_reader(bytes.as_slice()).unwrap(), want);
        assert!(traces_from_jsonl("").is_empty());
    }
}
