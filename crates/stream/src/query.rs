//! The standing-query language: a typed AST and its text form.
//!
//! The grammar is a single clause chain, keyword-introduced so the
//! parser needs no lookahead:
//!
//! ```text
//! [port <n>|port *]
//! window tumbling <dur> | window sliding <dur> slide <dur>
//! [where <stat>(depth|rtt) <cmp> <number>]
//! [topk <n>]
//! [emit flows|depth]
//! [lateness <dur>]
//! ```
//!
//! Durations take `ns`/`us`/`ms`/`s` suffixes (a bare integer is
//! nanoseconds of sim time). `<stat>` is one of `max`, `min`, `avg`,
//! `last`, `count` — plus `p50`/`p90`/`p99`, which are histogram-backed
//! and therefore valid only over `rtt`; `<cmp>` one of `>`, `>=`, `<`,
//! `<=`. A bare stat name (no parenthesised target) means `(depth)`,
//! the historical form. RTT thresholds are in nanoseconds. Defaults:
//! every port, no predicate (every window fires), emit `flows`,
//! lateness 0.
//!
//! [`Query`]'s `Display` renders the canonical text — all defaults
//! explicit except the absent predicate — and `parse(q.to_string())`
//! is the identity, which lets servers echo the query they admitted
//! without keeping the client's original string around.

use crate::window::{DepthAgg, RttAgg};
use std::fmt;

/// Which ports a standing query watches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortSel {
    /// Every active port, each windowed independently.
    Any,
    /// A single egress port.
    One(u16),
}

/// Window shape. Sliding windows overlap; a record lands in every
/// window whose span contains it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowKind {
    Tumbling,
    Sliding {
        /// Distance between consecutive window starts; `0 < slide <=
        /// size` is enforced at parse time.
        slide_ns: u64,
    },
}

/// A per-window statistic over checkpoint queue depths or RTT samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stat {
    Max,
    Min,
    Avg,
    /// Value of the latest-timestamped record in the window.
    Last,
    /// Number of records that landed in the window.
    Count,
    /// Median — histogram-backed, so `rtt` only.
    P50,
    /// 90th percentile (`rtt` only).
    P90,
    /// 99th percentile (`rtt` only).
    P99,
}

impl Stat {
    fn name(self) -> &'static str {
        match self {
            Stat::Max => "max",
            Stat::Min => "min",
            Stat::Avg => "avg",
            Stat::Last => "last",
            Stat::Count => "count",
            Stat::P50 => "p50",
            Stat::P90 => "p90",
            Stat::P99 => "p99",
        }
    }

    /// Quantile stats need the bounded histogram only the RTT aggregate
    /// keeps; the depth aggregate is a handful of scalars.
    pub fn needs_histogram(self) -> bool {
        matches!(self, Stat::P50 | Stat::P90 | Stat::P99)
    }
}

/// What a `where` clause measures: checkpoint queue depths or the
/// window's passive RTT samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    Depth,
    Rtt,
}

impl Target {
    fn name(self) -> &'static str {
        match self {
            Target::Depth => "depth",
            Target::Rtt => "rtt",
        }
    }
}

/// Comparison operator in a `where` clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    Gt,
    Ge,
    Lt,
    Le,
}

impl Cmp {
    fn name(self) -> &'static str {
        match self {
            Cmp::Gt => ">",
            Cmp::Ge => ">=",
            Cmp::Lt => "<",
            Cmp::Le => "<=",
        }
    }

    /// Apply the comparison; used on aggregate stats at window close.
    pub fn eval(self, lhs: f64, rhs: f64) -> bool {
        match self {
            Cmp::Gt => lhs > rhs,
            Cmp::Ge => lhs >= rhs,
            Cmp::Lt => lhs < rhs,
            Cmp::Le => lhs <= rhs,
        }
    }
}

/// `where <stat>(depth|rtt) <cmp> <value>` — evaluated once per closed
/// window; a window "fires" when the predicate holds (or when the
/// query has no predicate at all). RTT thresholds are nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Predicate {
    pub stat: Stat,
    pub target: Target,
    pub cmp: Cmp,
    pub value: f64,
}

/// What a fired window carries: the ranked culprit flows (a
/// `query_time_windows` call over the closed span) or just the depth
/// aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Emit {
    Flows,
    Depth,
}

/// One parsed standing query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub port: PortSel,
    pub size_ns: u64,
    pub kind: WindowKind,
    pub predicate: Option<Predicate>,
    /// `topk n` trims the emitted flow ranking to `n`; `None` emits
    /// every flow the bounded summary retained.
    pub top_k: Option<u32>,
    pub emit: Emit,
    /// Allowed out-of-orderness: the watermark trails the maximum
    /// observed event time by this much.
    pub lateness_ns: u64,
}

impl Query {
    /// Does this query watch `port`?
    pub fn wants_port(&self, port: u16) -> bool {
        match self.port {
            PortSel::Any => true,
            PortSel::One(p) => p == port,
        }
    }

    /// Which single port the query pins, if any (used by servers to
    /// skip scanning unrelated ports).
    pub fn pinned_port(&self) -> Option<u16> {
        match self.port {
            PortSel::Any => None,
            PortSel::One(p) => Some(p),
        }
    }

    /// Does a window with these aggregates fire? The predicate reads the
    /// aggregate for its target; a query without one fires every window.
    pub fn fires(&self, agg: &DepthAgg, rtt: &RttAgg) -> bool {
        match &self.predicate {
            None => true,
            Some(p) => {
                let lhs = match p.target {
                    Target::Depth => agg.stat(p.stat),
                    Target::Rtt => rtt.stat(p.stat),
                };
                p.cmp.eval(lhs, p.value)
            }
        }
    }

    /// Flow weight cap for the bounded per-window top-k summary: the
    /// emitted `topk k` when present, else the subscription cap.
    pub fn summary_cap(&self, sub_cap: usize) -> usize {
        match (self.emit, self.top_k) {
            (Emit::Depth, _) => 1,
            (Emit::Flows, Some(k)) => (k as usize).min(sub_cap).max(1),
            (Emit::Flows, None) => sub_cap.max(1),
        }
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.port {
            PortSel::Any => write!(f, "port *")?,
            PortSel::One(p) => write!(f, "port {p}")?,
        }
        match self.kind {
            WindowKind::Tumbling => write!(f, " window tumbling {}", dur(self.size_ns))?,
            WindowKind::Sliding { slide_ns } => write!(
                f,
                " window sliding {} slide {}",
                dur(self.size_ns),
                dur(slide_ns)
            )?,
        }
        if let Some(p) = &self.predicate {
            write!(
                f,
                " where {}({}) {} {}",
                p.stat.name(),
                p.target.name(),
                p.cmp.name(),
                p.value
            )?;
        }
        if let Some(k) = self.top_k {
            write!(f, " topk {k}")?;
        }
        match self.emit {
            Emit::Flows => write!(f, " emit flows")?,
            Emit::Depth => write!(f, " emit depth")?,
        }
        if self.lateness_ns > 0 {
            write!(f, " lateness {}", dur(self.lateness_ns))?;
        }
        Ok(())
    }
}

/// Render a duration with the coarsest exact unit.
fn dur(ns: u64) -> String {
    if ns > 0 && ns.is_multiple_of(1_000_000_000) {
        format!("{}s", ns / 1_000_000_000)
    } else if ns > 0 && ns.is_multiple_of(1_000_000) {
        format!("{}ms", ns / 1_000_000)
    } else if ns > 0 && ns.is_multiple_of(1_000) {
        format!("{}us", ns / 1_000)
    } else {
        format!("{ns}ns")
    }
}

/// A parse or validation failure, with enough context to fix the query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad standing query: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError(msg.into()))
}

struct Tokens<'a> {
    toks: Vec<&'a str>,
    at: usize,
}

impl<'a> Tokens<'a> {
    fn peek(&self) -> Option<&'a str> {
        self.toks.get(self.at).copied()
    }

    fn next(&mut self, what: &str) -> Result<&'a str, ParseError> {
        match self.toks.get(self.at) {
            Some(t) => {
                self.at += 1;
                Ok(t)
            }
            None => err(format!("expected {what}, found end of query")),
        }
    }
}

fn parse_duration(tok: &str) -> Result<u64, ParseError> {
    let (digits, scale) = if let Some(d) = tok.strip_suffix("ns") {
        (d, 1)
    } else if let Some(d) = tok.strip_suffix("us") {
        (d, 1_000)
    } else if let Some(d) = tok.strip_suffix("ms") {
        (d, 1_000_000)
    } else if let Some(d) = tok.strip_suffix('s') {
        (d, 1_000_000_000)
    } else {
        (tok, 1)
    };
    let n: u64 = match digits.parse() {
        Ok(n) => n,
        Err(_) => return err(format!("bad duration {tok:?} (want e.g. 500us, 1ms, 2s)")),
    };
    n.checked_mul(scale)
        .map_or_else(|| err(format!("duration {tok:?} overflows")), Ok)
}

/// Split `max(depth)` / `p99(rtt)` style stat references. A bare stat
/// name (the historical form) targets depth.
fn parse_stat(tok: &str) -> Result<(Stat, Target), ParseError> {
    let (name, target) = if let Some(n) = tok.strip_suffix("(depth)") {
        (n, Target::Depth)
    } else if let Some(n) = tok.strip_suffix("(rtt)") {
        (n, Target::Rtt)
    } else {
        (tok, Target::Depth)
    };
    let stat = match name {
        "max" => Stat::Max,
        "min" => Stat::Min,
        "avg" => Stat::Avg,
        "last" => Stat::Last,
        "count" => Stat::Count,
        "p50" => Stat::P50,
        "p90" => Stat::P90,
        "p99" => Stat::P99,
        _ => {
            return err(format!(
                "unknown stat {tok:?} (want max/min/avg/last/count over depth or rtt, \
                 or p50/p90/p99 over rtt)"
            ))
        }
    };
    if stat.needs_histogram() && target != Target::Rtt {
        return err(format!(
            "{} needs a histogram and is only available over rtt, e.g. `{}(rtt)`",
            stat.name(),
            stat.name()
        ));
    }
    Ok((stat, target))
}

/// Parse the standing-query text form. See the module docs for the
/// grammar; errors name the offending token.
pub fn parse(text: &str) -> Result<Query, ParseError> {
    let mut t = Tokens {
        toks: text.split_whitespace().collect(),
        at: 0,
    };
    if t.toks.is_empty() {
        return err("empty query");
    }

    let mut port = PortSel::Any;
    if t.peek() == Some("port") {
        t.next("port")?;
        let tok = t.next("a port number or *")?;
        port = if tok == "*" {
            PortSel::Any
        } else {
            match tok.parse() {
                Ok(p) => PortSel::One(p),
                Err(_) => return err(format!("bad port {tok:?}")),
            }
        };
    }

    if t.next("the window clause")? != "window" {
        return err("expected `window <tumbling|sliding> <duration>`");
    }
    let shape = t.next("tumbling or sliding")?;
    let size_ns = parse_duration(t.next("a window size")?)?;
    if size_ns == 0 {
        return err("window size must be positive");
    }
    let kind = match shape {
        "tumbling" => WindowKind::Tumbling,
        "sliding" => {
            if t.next("slide")? != "slide" {
                return err("sliding windows need `slide <duration>`");
            }
            let slide_ns = parse_duration(t.next("a slide step")?)?;
            if slide_ns == 0 || slide_ns > size_ns {
                return err("slide must satisfy 0 < slide <= window size");
            }
            WindowKind::Sliding { slide_ns }
        }
        other => return err(format!("unknown window kind {other:?}")),
    };

    let mut predicate = None;
    let mut top_k = None;
    let mut emit = Emit::Flows;
    let mut lateness_ns = 0;
    while let Some(clause) = t.peek() {
        t.next("a clause")?;
        match clause {
            "where" => {
                if predicate.is_some() {
                    return err("duplicate where clause");
                }
                let (stat, target) = parse_stat(t.next("a stat like max(depth) or p99(rtt)")?)?;
                let cmp = match t.next("a comparison")? {
                    ">" => Cmp::Gt,
                    ">=" => Cmp::Ge,
                    "<" => Cmp::Lt,
                    "<=" => Cmp::Le,
                    other => return err(format!("unknown comparison {other:?}")),
                };
                let vtok = t.next("a threshold value")?;
                let value: f64 = match vtok.parse() {
                    Ok(v) if f64::is_finite(v) => v,
                    _ => return err(format!("bad threshold {vtok:?}")),
                };
                predicate = Some(Predicate {
                    stat,
                    target,
                    cmp,
                    value,
                });
            }
            "topk" => {
                let ktok = t.next("a top-k count")?;
                let k: u32 = match ktok.parse() {
                    Ok(k) if k > 0 => k,
                    _ => return err(format!("bad topk count {ktok:?}")),
                };
                top_k = Some(k);
            }
            "emit" => {
                emit = match t.next("flows or depth")? {
                    "flows" => Emit::Flows,
                    "depth" => Emit::Depth,
                    other => return err(format!("unknown emit target {other:?}")),
                };
            }
            "lateness" => {
                lateness_ns = parse_duration(t.next("a lateness bound")?)?;
            }
            other => return err(format!("unexpected token {other:?}")),
        }
    }

    Ok(Query {
        port,
        size_ns,
        kind,
        predicate,
        top_k,
        emit,
        lateness_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_grammar() {
        let q = parse(
            "port 3 window tumbling 1ms where max(depth) > 5 topk 8 emit flows lateness 10us",
        )
        .unwrap();
        assert_eq!(q.port, PortSel::One(3));
        assert_eq!(q.size_ns, 1_000_000);
        assert_eq!(q.kind, WindowKind::Tumbling);
        assert_eq!(
            q.predicate,
            Some(Predicate {
                stat: Stat::Max,
                target: Target::Depth,
                cmp: Cmp::Gt,
                value: 5.0
            })
        );
        assert_eq!(q.top_k, Some(8));
        assert_eq!(q.emit, Emit::Flows);
        assert_eq!(q.lateness_ns, 10_000);
    }

    #[test]
    fn defaults_are_any_port_emit_flows_no_lateness() {
        let q = parse("window tumbling 2s").unwrap();
        assert_eq!(q.port, PortSel::Any);
        assert_eq!(q.predicate, None);
        assert_eq!(q.top_k, None);
        assert_eq!(q.emit, Emit::Flows);
        assert_eq!(q.lateness_ns, 0);
    }

    #[test]
    fn sliding_requires_a_valid_slide() {
        let q = parse("window sliding 1ms slide 250us emit depth").unwrap();
        assert_eq!(q.kind, WindowKind::Sliding { slide_ns: 250_000 });
        assert!(parse("window sliding 1ms").is_err());
        assert!(parse("window sliding 1ms slide 2ms").is_err());
        assert!(parse("window sliding 1ms slide 0").is_err());
    }

    #[test]
    fn display_round_trips() {
        for text in [
            "port 3 window tumbling 1ms where max(depth) > 5 topk 8 emit flows",
            "port * window sliding 1s slide 250ms emit depth lateness 2us",
            "window tumbling 100ns where avg(depth) <= 1.5",
            "port 65535 window tumbling 3s where count(depth) >= 10 topk 1 emit depth",
            "port 2 window tumbling 1ms where p99(rtt) > 1000000 emit flows",
            "window sliding 2ms slide 1ms where avg(rtt) <= 500000 emit depth",
        ] {
            let q = parse(text).unwrap();
            let canon = q.to_string();
            assert_eq!(parse(&canon).unwrap(), q, "round-trip of {canon:?}");
        }
    }

    #[test]
    fn rejects_malformed_queries() {
        for bad in [
            "",
            "port",
            "port x window tumbling 1ms",
            "window",
            "window tumbling 0",
            "window tumbling 1ms where",
            "window tumbling 1ms where median(depth) > 1",
            "window tumbling 1ms where p99(depth) > 1",
            "window tumbling 1ms where p99 > 1",
            "window tumbling 1ms where max(latency) > 1",
            "window tumbling 1ms where max(depth) != 1",
            "window tumbling 1ms where max(depth) > nan",
            "window tumbling 1ms topk 0",
            "window tumbling 1ms emit everything",
            "window tumbling 1ms extra",
            "window tumbling 10zz",
            "window tumbling 99999999999999999999s",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn durations_scale() {
        assert_eq!(parse_duration("7").unwrap(), 7);
        assert_eq!(parse_duration("7ns").unwrap(), 7);
        assert_eq!(parse_duration("7us").unwrap(), 7_000);
        assert_eq!(parse_duration("7ms").unwrap(), 7_000_000);
        assert_eq!(parse_duration("7s").unwrap(), 7_000_000_000);
    }
}
