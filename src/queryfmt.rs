//! Shared query building and result rendering for `pqsim`.
//!
//! Three paths produce diagnosis answers — `pqsim query` against live
//! register state, `pqsim replay-query` against an archive, and
//! `pqsim query --remote` against a running [`serve`](pq_serve) daemon —
//! and the acceptance bar for the service is that all three print
//! **byte-identical** output for the same data. That only holds if there
//! is exactly one formatter, so it lives here and every path calls it.
//!
//! Two renderings exist: the human text format (unchanged from the
//! original `replay-query` output) and a `--json` rendering whose field
//! order and float formatting are deterministic (flows in ranked order,
//! totals summed in that same order).

use pq_core::control::CoverageGap;
use pq_core::snapshot::FlowEstimates;
use pq_packet::FlowId;
use std::fmt::Write as _;

/// Which query a `pqsim query` invocation is asking for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// A §6.3 time-window query over live register state.
    TimeWindows,
    /// A §5 queue-monitor query (original culprits at an instant).
    Monitor,
    /// A time-window query replayed from a `.pqa` archive.
    Replay,
}

/// One fully-specified query, independent of where it will execute.
#[derive(Debug, Clone, Copy)]
pub struct QuerySpec {
    /// Egress port.
    pub port: u16,
    /// Interval start (ns). For monitor queries, the queried instant.
    pub from: u64,
    /// Interval end (ns); unused by monitor queries.
    pub to: u64,
    /// Per-packet transmission delay `d` for replay coefficients.
    pub d: u64,
    /// Which query to run.
    pub kind: QueryKind,
}

impl QuerySpec {
    /// The wire request this spec corresponds to.
    pub fn to_request(self) -> pq_serve::Request {
        match self.kind {
            QueryKind::TimeWindows => pq_serve::Request::TimeWindows {
                port: self.port,
                from: self.from,
                to: self.to,
            },
            QueryKind::Monitor => pq_serve::Request::QueueMonitor {
                port: self.port,
                at: self.from,
            },
            QueryKind::Replay => pq_serve::Request::Replay {
                port: self.port,
                from: self.from,
                to: self.to,
                d: self.d,
            },
        }
    }
}

/// The standard answer header: `query [from, to] over N checkpoints`.
pub fn interval_header(from: u64, to: u64, checkpoints: u64) -> String {
    format!("query [{from}, {to}] over {checkpoints} checkpoints")
}

/// Render a time-window answer in the standard text format (one string,
/// trailing newline included) — shared verbatim by local, replay, and
/// remote query paths.
pub fn result_text(
    header: &str,
    est: &FlowEstimates,
    gaps: &[CoverageGap],
    degraded: bool,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{header}: {} flows, ~{:.0} packets",
        est.counts.len(),
        est.total()
    );
    if degraded {
        let _ = writeln!(
            out,
            "degraded: {} coverage gap(s) overlap the interval:",
            gaps.len()
        );
        for g in gaps {
            let _ = writeln!(out, "  gap [{}, {}]", g.from, g.to);
        }
    }
    for (flow, n) in est.ranked().into_iter().take(10) {
        let _ = writeln!(out, "  {n:10.1}  {flow}");
    }
    out
}

/// Render a time-window answer as deterministic JSON: flows in ranked
/// order, the total summed in that same order (so it is reproducible
/// across runs, unlike a hash-map-order sum).
pub fn result_json(
    spec: &QuerySpec,
    checkpoints: u64,
    est: &FlowEstimates,
    gaps: &[CoverageGap],
    degraded: bool,
) -> String {
    let ranked = est.ranked();
    // From +0.0: `Iterator::sum` starts from -0.0, which an empty answer
    // would print as `-0`.
    let total = ranked.iter().fold(0.0, |sum, (_, n)| sum + n);
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"query\":{{\"kind\":\"{}\",\"port\":{},\"from\":{},\"to\":{},\"checkpoints\":{}}}",
        match spec.kind {
            QueryKind::TimeWindows => "time_windows",
            QueryKind::Monitor => "monitor",
            QueryKind::Replay => "replay",
        },
        spec.port,
        spec.from,
        spec.to,
        checkpoints
    );
    let _ = write!(out, ",\"degraded\":{degraded},\"gaps\":[");
    push_gaps(&mut out, gaps);
    let _ = write!(out, "],\"total_packets\":{},\"flows\":[", json_f64(total));
    for (i, (flow, n)) in ranked.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"flow\":{},\"packets\":{}}}", flow.0, json_f64(*n));
    }
    out.push_str("]}");
    out
}

/// Render a queue-monitor answer in the standard text format.
pub fn monitor_text(
    at: u64,
    frozen_at: u64,
    staleness: u64,
    counts: &[(FlowId, u64)],
    gaps: &[CoverageGap],
    degraded: bool,
) -> String {
    let total: u64 = counts.iter().map(|(_, n)| n).sum();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "queue monitor at {at}: snapshot frozen at {frozen_at} (staleness {staleness} ns), \
         {} culprit flow(s), {total} appearances",
        counts.len()
    );
    if degraded {
        let _ = writeln!(
            out,
            "degraded: {} coverage gap(s) contain the instant:",
            gaps.len()
        );
        for g in gaps {
            let _ = writeln!(out, "  gap [{}, {}]", g.from, g.to);
        }
    }
    for (flow, n) in counts.iter().take(10) {
        let _ = writeln!(out, "  {n:10}  {flow}");
    }
    out
}

/// Render a queue-monitor answer as deterministic JSON.
pub fn monitor_json(
    spec: &QuerySpec,
    frozen_at: u64,
    staleness: u64,
    counts: &[(FlowId, u64)],
    gaps: &[CoverageGap],
    degraded: bool,
) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"query\":{{\"kind\":\"monitor\",\"port\":{},\"at\":{}}},\"frozen_at\":{frozen_at},\
         \"staleness\":{staleness},\"degraded\":{degraded},\"gaps\":[",
        spec.port, spec.from
    );
    push_gaps(&mut out, gaps);
    out.push_str("],\"culprits\":[");
    for (i, (flow, n)) in counts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"flow\":{},\"appearances\":{n}}}", flow.0);
    }
    out.push_str("]}");
    out
}

fn push_gaps(out: &mut String, gaps: &[CoverageGap]) {
    for (i, g) in gaps.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"from\":{},\"to\":{}}}", g.from, g.to);
    }
}

/// `f64` as JSON: finite values print via Rust's shortest-round-trip
/// formatter (deterministic); non-finite values become `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est(pairs: &[(u32, f64)]) -> FlowEstimates {
        let mut e = FlowEstimates::default();
        for &(f, n) in pairs {
            e.counts.insert(FlowId(f), n);
        }
        e
    }

    #[test]
    fn text_matches_historical_format() {
        let text = result_text(
            &interval_header(5, 10, 3),
            &est(&[(1, 12.5), (2, 3.0)]),
            &[CoverageGap { from: 6, to: 7 }],
            true,
        );
        assert_eq!(
            text,
            "query [5, 10] over 3 checkpoints: 2 flows, ~16 packets\n\
             degraded: 1 coverage gap(s) overlap the interval:\n\
             \x20 gap [6, 7]\n\
             \x20       12.5  flow#1\n\
             \x20        3.0  flow#2\n"
        );
    }

    #[test]
    fn json_is_ranked_and_deterministic() {
        let spec = QuerySpec {
            port: 0,
            from: 5,
            to: 10,
            d: 110,
            kind: QueryKind::Replay,
        };
        let a = result_json(&spec, 3, &est(&[(2, 3.0), (1, 12.5)]), &[], false);
        let b = result_json(&spec, 3, &est(&[(1, 12.5), (2, 3.0)]), &[], false);
        assert_eq!(a, b, "insertion order must not matter");
        assert!(a.contains("\"flows\":[{\"flow\":1,\"packets\":12.5},{\"flow\":2,\"packets\":3}]"));
        assert!(a.starts_with(
            "{\"query\":{\"kind\":\"replay\",\"port\":0,\"from\":5,\"to\":10,\"checkpoints\":3}"
        ));
    }

    #[test]
    fn empty_answer_totals_positive_zero() {
        let spec = QuerySpec {
            port: 0,
            from: 5,
            to: 10,
            d: 110,
            kind: QueryKind::Replay,
        };
        let text = result_text(&interval_header(5, 10, 0), &est(&[]), &[], false);
        assert_eq!(
            text,
            "query [5, 10] over 0 checkpoints: 0 flows, ~0 packets\n"
        );
        let json = result_json(&spec, 0, &est(&[]), &[], false);
        assert!(
            json.ends_with(",\"total_packets\":0,\"flows\":[]}"),
            "{json}"
        );
    }

    #[test]
    fn monitor_renders_both_ways() {
        let spec = QuerySpec {
            port: 0,
            from: 42,
            to: 42,
            d: 110,
            kind: QueryKind::Monitor,
        };
        let counts = vec![(FlowId(7), 3u64), (FlowId(1), 1)];
        let text = monitor_text(42, 40, 2, &counts, &[], false);
        assert!(text.starts_with("queue monitor at 42: snapshot frozen at 40 (staleness 2 ns)"));
        let json = monitor_json(&spec, 40, 2, &counts, &[], false);
        assert!(json.contains("\"culprits\":[{\"flow\":7,\"appearances\":3}"));
    }
}
