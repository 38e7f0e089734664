//! Prometheus text exposition (version 0.0.4) for registry snapshots,
//! plus a small parser used by tests and the CI smoke step to verify the
//! exposition round-trips.
//!
//! Counters and gauges render as `name{labels} value`. Histograms render
//! in the standard cumulative form: one `name_bucket{le="..."}` series per
//! occupied log2 bucket plus `le="+Inf"`, then `name_sum` and
//! `name_count`. `# HELP` (from the [`crate::names`] schema) and `# TYPE`
//! comment lines are emitted once per metric name;
//! [`parse_exposition`] round-trips them alongside the samples.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::histogram::HistogramSnapshot;
use crate::names;
use crate::registry::{MetricValue, RegistrySnapshot};
use pq_prof::hist::bucket_upper_bound;

fn render_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{v}\"");
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{v}\"");
    }
    out.push('}');
}

fn render_histogram(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    h: &HistogramSnapshot,
) {
    let mut cumulative = 0u64;
    for (i, n) in h.occupied() {
        let i = usize::from(i);
        cumulative += n;
        let le = bucket_upper_bound(i).to_string();
        let _ = write!(out, "{name}_bucket");
        render_labels(out, labels, Some(("le", &le)));
        // OpenMetrics-style exemplar: the last trace that landed in this
        // bucket, linking an alert on the series to a concrete trace.
        match h.exemplar(i) {
            Some(e) => {
                let _ = writeln!(
                    out,
                    " {cumulative} # {{trace_id=\"{:032x}\"}} {}",
                    e.trace_id, e.value
                );
            }
            None => {
                let _ = writeln!(out, " {cumulative}");
            }
        }
    }
    let _ = write!(out, "{name}_bucket");
    render_labels(out, labels, Some(("le", "+Inf")));
    let _ = writeln!(out, " {}", h.count);
    let _ = write!(out, "{name}_sum");
    render_labels(out, labels, None);
    let _ = writeln!(out, " {}", h.sum);
    let _ = write!(out, "{name}_count");
    render_labels(out, labels, None);
    let _ = writeln!(out, " {}", h.count);
}

/// Render a snapshot as Prometheus text exposition.
pub fn to_prometheus(snapshot: &RegistrySnapshot) -> String {
    let mut out = String::new();
    let mut last_typed: Option<String> = None;
    for (key, value) in snapshot.iter() {
        // Keys iterate in name order, so one HELP/TYPE pair per name
        // suffices.
        if last_typed.as_deref() != Some(key.name.as_str()) {
            let kind = match value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram(_) => "histogram",
            };
            let _ = writeln!(out, "# HELP {} {}", key.name, names::help(&key.name));
            let _ = writeln!(out, "# TYPE {} {kind}", key.name);
            last_typed = Some(key.name.clone());
        }
        match value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                out.push_str(&key.name);
                render_labels(&mut out, &key.labels, None);
                let _ = writeln!(out, " {v}");
            }
            MetricValue::Histogram(h) => render_histogram(&mut out, &key.name, &key.labels, h),
        }
    }
    out
}

/// One sample line parsed back out of an exposition.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedMetric {
    /// Sample name as written (histogram series keep their `_bucket` /
    /// `_sum` / `_count` suffixes).
    pub name: String,
    /// Label pairs in written order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
    /// OpenMetrics-style exemplar suffix, if present: the exemplar's
    /// `trace_id` label and observed value.
    pub exemplar: Option<(String, f64)>,
}

/// Per-metric-name metadata parsed from `# HELP` / `# TYPE` lines.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricMeta {
    /// Declared kind (`counter`, `gauge`, `histogram`), empty if no
    /// `# TYPE` line was seen.
    pub kind: String,
    /// Declared help text, empty if no `# HELP` line was seen.
    pub help: String,
}

/// A fully parsed exposition: sample lines plus the HELP/TYPE metadata,
/// so tests can verify the comment lines round-trip, not just the values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParsedExposition {
    /// Sample lines in written order.
    pub samples: Vec<ParsedMetric>,
    /// Metadata keyed by base metric name.
    pub meta: BTreeMap<String, MetricMeta>,
}

/// Parse a Prometheus text exposition back into its sample lines.
///
/// Comment (`#`) and blank lines are skipped. Returns an error describing
/// the first malformed line, making this usable as a smoke check that
/// [`to_prometheus`] emitted something well-formed. Use
/// [`parse_exposition`] to also recover the `# HELP`/`# TYPE` metadata.
pub fn parse_prometheus(text: &str) -> Result<Vec<ParsedMetric>, String> {
    parse_exposition(text).map(|e| e.samples)
}

/// Parse an exposition including its `# HELP` and `# TYPE` comment lines.
///
/// A malformed `HELP`/`TYPE` line (missing metric name, unknown kind) is
/// an error — the whole point of round-tripping metadata is catching an
/// exporter that emits broken comments.
pub fn parse_exposition(text: &str) -> Result<ParsedExposition, String> {
    let mut out = ParsedExposition::default();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(spec) = rest.strip_prefix("HELP ") {
                let (name, help) = spec
                    .trim()
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| format!("line {}: HELP without text: {line:?}", lineno + 1))?;
                out.meta.entry(name.to_string()).or_default().help = help.trim().to_string();
            } else if let Some(spec) = rest.strip_prefix("TYPE ") {
                let (name, kind) = spec
                    .trim()
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| format!("line {}: TYPE without kind: {line:?}", lineno + 1))?;
                let kind = kind.trim();
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(format!("line {}: unknown TYPE {kind:?}", lineno + 1));
                }
                out.meta.entry(name.to_string()).or_default().kind = kind.to_string();
            }
            // Other comments are free text; skip.
            continue;
        }
        let parsed = parse_line(line).map_err(|e| format!("line {}: {e}: {line:?}", lineno + 1))?;
        out.samples.push(parsed);
    }
    Ok(out)
}

fn parse_line(line: &str) -> Result<ParsedMetric, String> {
    // Split off an OpenMetrics exemplar suffix (` # {labels} value`)
    // before looking for the label-set close brace, or the exemplar's own
    // brace would be mistaken for it.
    let (line, exemplar) = match line.find(" # ") {
        Some(at) => {
            let (head, tail) = line.split_at(at);
            (head.trim_end(), Some(parse_exemplar(tail[3..].trim())?))
        }
        None => (line, None),
    };
    let (series, value_str) = match line.rfind('}') {
        Some(close) => {
            let (series, rest) = line.split_at(close + 1);
            (series, rest.trim())
        }
        None => {
            let mut parts = line.splitn(2, char::is_whitespace);
            let name = parts.next().unwrap_or("");
            (name, parts.next().unwrap_or("").trim())
        }
    };
    let value: f64 = if value_str == "+Inf" {
        f64::INFINITY
    } else {
        value_str
            .parse()
            .map_err(|_| format!("bad value {value_str:?}"))?
    };

    let (name, labels) = match series.find('{') {
        None => (series.to_string(), Vec::new()),
        Some(open) => {
            let name = series[..open].to_string();
            let body = series[open + 1..]
                .strip_suffix('}')
                .ok_or("unterminated label set")?;
            let mut labels = Vec::new();
            for pair in body.split(',').filter(|p| !p.is_empty()) {
                let (k, v) = pair.split_once('=').ok_or("label without '='")?;
                let v = v
                    .strip_prefix('"')
                    .and_then(|v| v.strip_suffix('"'))
                    .ok_or("unquoted label value")?;
                labels.push((k.to_string(), v.to_string()));
            }
            (name, labels)
        }
    };
    if name.is_empty() {
        return Err("empty metric name".to_string());
    }
    Ok(ParsedMetric {
        name,
        labels,
        value,
        exemplar,
    })
}

/// Parse the `{trace_id="..."} value` tail of an exemplar suffix.
fn parse_exemplar(tail: &str) -> Result<(String, f64), String> {
    let body = tail.strip_prefix('{').ok_or("exemplar without label set")?;
    let (labels, value_str) = body.split_once('}').ok_or("unterminated exemplar labels")?;
    let (k, v) = labels.split_once('=').ok_or("exemplar label without '='")?;
    if k != "trace_id" {
        return Err(format!("unexpected exemplar label {k:?}"));
    }
    let v = v
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .ok_or("unquoted exemplar value")?;
    let value: f64 = value_str
        .trim()
        .parse()
        .map_err(|_| format!("bad exemplar value {value_str:?}"))?;
    Ok((v.to_string(), value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn counters_and_gauges_round_trip() {
        let reg = Registry::new();
        reg.counter("pq_test_hits_total", &[("port", "3")]).add(7);
        reg.gauge("pq_test_depth", &[]).set(12);
        let text = to_prometheus(&reg.snapshot());
        assert!(text.contains("# TYPE pq_test_depth gauge"));
        assert!(text.contains("# TYPE pq_test_hits_total counter"));
        assert!(text.contains("pq_test_hits_total{port=\"3\"} 7"));

        let parsed = parse_prometheus(&text).unwrap();
        let hit = parsed
            .iter()
            .find(|m| m.name == "pq_test_hits_total")
            .unwrap();
        assert_eq!(hit.labels, vec![("port".to_string(), "3".to_string())]);
        assert_eq!(hit.value, 7.0);
    }

    #[test]
    fn histogram_exposition_is_cumulative() {
        let reg = Registry::new();
        let h = reg.histogram("pq_test_ns", &[]);
        h.record(1);
        h.record(1);
        h.record(100);
        let text = to_prometheus(&reg.snapshot());
        assert!(text.contains("# TYPE pq_test_ns histogram"));
        assert!(text.contains("pq_test_ns_bucket{le=\"1\"} 2"));
        assert!(text.contains("pq_test_ns_bucket{le=\"127\"} 3"));
        assert!(text.contains("pq_test_ns_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("pq_test_ns_sum 102"));
        assert!(text.contains("pq_test_ns_count 3"));

        let parsed = parse_prometheus(&text).unwrap();
        let inf = parsed
            .iter()
            .find(|m| {
                m.name == "pq_test_ns_bucket"
                    && m.labels.iter().any(|(k, v)| k == "le" && v == "+Inf")
            })
            .unwrap();
        assert_eq!(inf.value, 3.0);
    }

    #[test]
    fn help_and_type_lines_round_trip() {
        use crate::names;
        let reg = Registry::new();
        reg.counter(names::SERVE_SHED, &[]).add(2);
        reg.gauge(names::SERVE_QUEUE_DEPTH, &[]).set(3);
        reg.histogram(names::SERVE_REQUEST_NS, &[]).record(100);
        let text = to_prometheus(&reg.snapshot());
        let parsed = parse_exposition(&text).unwrap();
        // Every emitted metric name carries both HELP and TYPE, and they
        // survive the parse intact.
        for (name, kind) in [
            (names::SERVE_SHED, "counter"),
            (names::SERVE_QUEUE_DEPTH, "gauge"),
            (names::SERVE_REQUEST_NS, "histogram"),
        ] {
            let meta = parsed
                .meta
                .get(name)
                .unwrap_or_else(|| panic!("no meta for {name}"));
            assert_eq!(meta.kind, kind, "{name}");
            assert_eq!(meta.help, names::help(name), "{name}");
            assert!(!meta.help.is_empty());
        }
        // The sample lines still parse identically through the old entry
        // point (HELP must not perturb value parsing).
        assert_eq!(parse_prometheus(&text).unwrap(), parsed.samples);
    }

    #[test]
    fn bucket_exemplars_render_and_parse() {
        let reg = Registry::new();
        let h = reg.histogram("pq_test_ns", &[]);
        h.record(1);
        h.record_exemplar(100, 0xabc);
        let text = to_prometheus(&reg.snapshot());
        let suffix = format!("# {{trace_id=\"{:032x}\"}} 100", 0xabcu128);
        assert!(text.contains(&suffix), "no exemplar in: {text}");

        let parsed = parse_prometheus(&text).unwrap();
        let with_ex = parsed
            .iter()
            .find(|m| m.name == "pq_test_ns_bucket" && m.exemplar.is_some())
            .expect("one bucket line carries the exemplar");
        let (trace_id, value) = with_ex.exemplar.clone().unwrap();
        assert_eq!(trace_id, format!("{:032x}", 0xabcu128));
        assert_eq!(value, 100.0);
        // The bucket without an exemplar parses with none.
        assert!(parsed
            .iter()
            .any(|m| m.name == "pq_test_ns_bucket" && m.exemplar.is_none()));
    }

    #[test]
    fn broken_metadata_lines_are_errors() {
        assert!(parse_exposition("# HELP lonely_name").is_err());
        assert!(parse_exposition("# TYPE x flute").is_err());
        // Free-text comments stay legal.
        assert!(parse_exposition("# a plain comment")
            .unwrap()
            .samples
            .is_empty());
    }

    #[test]
    fn malformed_lines_are_reported() {
        assert!(parse_prometheus("just_a_name_no_value").is_err());
        assert!(parse_prometheus("name{unclosed 3").is_err());
        assert!(parse_prometheus("name notanumber").is_err());
        assert!(parse_prometheus("# a comment\n\n").unwrap().is_empty());
    }
}
