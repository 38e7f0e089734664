//! Chrome trace-event JSON export for recorded spans.
//!
//! Emits the JSON-array form of the trace-event format: one complete
//! (`"ph":"X"`) event per span, loadable directly in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`. The format wants
//! microsecond timestamps; the sim clock is nanoseconds, so `ts` and
//! `dur` are written as fractional microseconds with nanosecond precision
//! preserved (`1234 ns` → `1.234`). Each span's `track` becomes its `tid`,
//! laying per-port work out on separate rows.

use std::fmt::Write as _;

use crate::spans::SpanEvent;

/// Render spans as a Chrome trace-event JSON array, sorted by start time.
///
/// The output is valid JSON even for an empty span list (`[]`), and events
/// are emitted in non-decreasing `ts` order — viewers do not require this,
/// but it makes the file diff-stable and simple to assert on in tests.
pub fn to_chrome_trace(spans: &[SpanEvent]) -> String {
    let mut sorted: Vec<&SpanEvent> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.start, s.end, s.track));

    let mut out = String::from("[");
    for (i, span) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n  {{\"name\": \"{}\", \"cat\": \"pq\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": 1, \"tid\": {}}}",
            escape(span.name),
            micros(span.start),
            micros(span.duration()),
            span.track
        );
    }
    if !sorted.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out.push('\n');
    out
}

/// Stitch request traces — possibly collected from several processes —
/// into one Chrome trace-event JSON timeline.
///
/// Each distinct span `process` becomes a Chrome `pid` (with a
/// `process_name` metadata event so viewers label the row group), and
/// within a process, overlapping spans are laid out greedily on separate
/// `tid` lanes. Timestamps are the spans' Unix-epoch nanoseconds rebased
/// to the earliest span in the input, so the timeline starts at zero and
/// cross-process causality reads left to right.
pub fn traces_to_chrome(traces: &[crate::trace::Trace]) -> String {
    let mut spans: Vec<(u128, &crate::trace::TraceSpan)> = traces
        .iter()
        .flat_map(|t| t.spans.iter().map(move |s| (t.trace_id, s)))
        .collect();
    spans.sort_by(|(_, a), (_, b)| {
        (a.start_ns, a.end_ns, a.process.as_str(), a.span_id).cmp(&(
            b.start_ns,
            b.end_ns,
            b.process.as_str(),
            b.span_id,
        ))
    });
    let base = spans.first().map_or(0, |(_, s)| s.start_ns);

    let mut processes: Vec<&str> = spans.iter().map(|(_, s)| s.process.as_str()).collect();
    processes.sort_unstable();
    processes.dedup();
    let pid_of = |p: &str| processes.iter().position(|q| *q == p).unwrap_or(0) as u32 + 1;

    // Greedy lane assignment per process: a span takes the first lane
    // whose previous occupant has already ended.
    let mut lanes: std::collections::HashMap<&str, Vec<u64>> = std::collections::HashMap::new();

    let mut out = String::from("[");
    let mut first = true;
    for p in &processes {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "\n  {{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {}, \"tid\": 0, \"args\": {{\"name\": \"{}\"}}}}",
            pid_of(p),
            escape(p)
        );
    }
    for (trace_id, span) in &spans {
        let ends = lanes.entry(span.process.as_str()).or_default();
        let lane = match ends.iter().position(|&end| end <= span.start_ns) {
            Some(i) => {
                ends[i] = span.end_ns;
                i
            }
            None => {
                ends.push(span.end_ns);
                ends.len() - 1
            }
        };
        if !first {
            out.push(',');
        }
        first = false;
        let label = if span.tag.is_empty() {
            escape(&span.name)
        } else {
            format!("{} [{}]", escape(&span.name), escape(&span.tag))
        };
        let _ = write!(
            out,
            "\n  {{\"name\": \"{}\", \"cat\": \"pq-trace\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": {}, \"tid\": {}, \"args\": {{\"trace_id\": \"{:032x}\", \"span_id\": \"{:016x}\", \"parent_span\": \"{:016x}\"}}}}",
            label,
            micros(span.start_ns - base),
            micros(span.duration_ns()),
            pid_of(&span.process),
            lane + 1,
            trace_id,
            span.span_id,
            span.parent_span,
        );
    }
    if !first {
        out.push('\n');
    }
    out.push(']');
    out.push('\n');
    out
}

/// Nanoseconds as fractional microseconds, with trailing zeros trimmed so
/// whole-microsecond values print as integers.
fn micros(ns: u64) -> String {
    let whole = ns / 1_000;
    let frac = ns % 1_000;
    if frac == 0 {
        format!("{whole}")
    } else {
        let s = format!("{whole}.{frac:03}");
        s.trim_end_matches('0').to_string()
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    pq_prof::escape_into(&mut out, s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, track: u32) -> SpanEvent {
        SpanEvent {
            name,
            start,
            end,
            track,
        }
    }

    #[test]
    fn empty_trace_is_valid_json() {
        assert_eq!(to_chrome_trace(&[]).trim(), "[]");
    }

    #[test]
    fn events_are_sorted_and_in_microseconds() {
        let spans = vec![
            span("late", 5_000, 9_000, 1),
            span("early", 1_500, 2_000, 0),
        ];
        let text = to_chrome_trace(&spans);
        let early = text.find("early").unwrap();
        let late = text.find("late").unwrap();
        assert!(early < late);
        assert!(text.contains("\"ts\": 1.5"));
        assert!(text.contains("\"dur\": 0.5"));
        assert!(text.contains("\"ts\": 5"));
        assert!(text.contains("\"dur\": 4"));
        assert!(text.contains("\"tid\": 1"));
        assert!(text.contains("\"ph\": \"X\""));
    }

    #[test]
    fn output_parses_as_json() {
        let spans = vec![span("a", 0, 10, 0), span("b", 3, 7, 2)];
        let text = to_chrome_trace(&spans);
        let value = serde_json_parse_smoke(&text);
        assert!(value, "trace output must be parseable JSON: {text}");
    }

    // A tiny structural JSON validity check (balanced brackets/quotes and
    // no trailing garbage) — the full parser-based check lives in
    // tests/telemetry.rs where serde_json is available.
    fn serde_json_parse_smoke(text: &str) -> bool {
        let t = text.trim();
        t.starts_with('[') && t.ends_with(']') && t.matches('{').count() == t.matches('}').count()
    }

    #[test]
    fn stitched_traces_get_per_process_pids_and_lanes() {
        use crate::trace::{Trace, TraceSpan};
        let ts = |name: &str, process: &str, start: u64, end: u64| TraceSpan {
            span_id: start + 1,
            parent_span: 0,
            name: name.to_string(),
            process: process.to_string(),
            tag: String::new(),
            start_ns: start,
            end_ns: end,
        };
        let traces = vec![Trace {
            trace_id: 0xabc,
            root_span: 1,
            duration_ns: 100,
            slow: false,
            spans: vec![
                ts("route", "router", 1_000, 1_100),
                // Two overlapping serve spans: must land on distinct lanes.
                ts("worker_exec", "serve:a", 1_010, 1_090),
                ts("segment_decode", "serve:a", 1_020, 1_080),
            ],
        }];
        let text = traces_to_chrome(&traces);
        // Two processes → two process_name metadata events + pids 1 and 2.
        assert_eq!(text.matches("process_name").count(), 2);
        assert!(text.contains("\"name\": \"router\""));
        assert!(text.contains("\"name\": \"serve:a\""));
        // Overlap within serve:a forces lane 2.
        assert!(text.contains("\"tid\": 2"));
        // Timeline is rebased to the earliest span.
        assert!(text.contains("\"ts\": 0,"));
        // The trace id rides along for alert → trace linkage.
        assert!(text.contains(&format!("{:032x}", 0xabcu128)));
        assert!(serde_json_parse_smoke(&text));
    }

    #[test]
    fn stitching_no_traces_is_valid_json() {
        assert_eq!(traces_to_chrome(&[]).trim(), "[]");
    }

    #[test]
    fn micros_preserves_ns_precision() {
        assert_eq!(micros(0), "0");
        assert_eq!(micros(1_000), "1");
        assert_eq!(micros(1_234), "1.234");
        assert_eq!(micros(1_230), "1.23");
        assert_eq!(micros(999), "0.999");
    }
}
