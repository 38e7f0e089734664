//! High-level diagnosis: one call from victim to a full congestion-regime
//! report.
//!
//! §3 of the paper positions PrintQueue "as a general framework for
//! higher-level queue diagnosis tasks" — operators trigger a query on a
//! complaint, the data plane triggers one on high queueing. This module is
//! that layer: given a victim's enqueue/dequeue timestamps, it runs all
//! three culprit queries (direct and indirect from the time windows,
//! original from the queue monitor), ranks the flows, and classifies the
//! congestion pattern heuristically (heavy hitter, synchronized burst,
//! many-flow convergence) the way §2's motivating examples do.

use crate::control::{AnalysisProgram, CoverageGap};
use crate::snapshot::{FlowEstimates, QueryInterval};
use pq_packet::{FlowId, Nanos};
use serde::Serialize;

/// A coarse classification of the congestion pattern, in the spirit of the
/// §2 examples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum CongestionPattern {
    /// One or two flows dominate the direct culprits — a heavy hitter (or
    /// a priority class) is crowding the victim out.
    HeavyHitter,
    /// Many flows with similar small contributions — convergence of a
    /// synchronized application (incast-like).
    Synchronized,
    /// A broad mix with no dominant structure.
    Mixed,
    /// Too little data to classify.
    Unknown,
}

/// The full report for one victim.
#[derive(Debug, Clone, Serialize)]
pub struct Diagnosis {
    /// The victim's queueing interval.
    pub interval: QueryInterval,
    /// Per-flow direct-culprit estimates (dequeued during the wait).
    pub direct: FlowEstimates,
    /// Per-flow indirect-culprit estimates (the earlier congestion regime),
    /// when a regime extent was supplied.
    pub indirect: Option<FlowEstimates>,
    /// Per-flow original-cause counts from the queue monitor.
    pub original: Vec<(FlowId, u64)>,
    /// Heuristic pattern classification of the direct culprits.
    pub pattern: CongestionPattern,
    /// True when any contributing query was answered over a control-plane
    /// coverage gap: the report is best-effort, not authoritative.
    pub degraded: bool,
    /// The coverage gaps that intersected the queries, if any.
    pub gaps: Vec<CoverageGap>,
}

impl Diagnosis {
    /// The top `n` direct culprits.
    pub fn top_direct(&self, n: usize) -> Vec<(FlowId, f64)> {
        self.direct.ranked().into_iter().take(n).collect()
    }

    /// Flows implicated as original causes but absent (or negligible, under
    /// one estimated packet) among the direct culprits — the "burst left
    /// long ago" signature of the §7.2 case study.
    pub fn historical_only(&self) -> Vec<FlowId> {
        self.original
            .iter()
            .filter(|(flow, _)| self.direct.counts.get(flow).copied().unwrap_or(0.0) < 1.0)
            .map(|(flow, _)| *flow)
            .collect()
    }
}

/// Classify the direct-culprit distribution.
fn classify(direct: &FlowEstimates) -> CongestionPattern {
    let total = direct.total();
    if total < 2.0 || direct.counts.is_empty() {
        return CongestionPattern::Unknown;
    }
    if direct.counts.len() == 1 {
        // A single flow occupying the whole interval is the degenerate
        // heavy hitter.
        return CongestionPattern::HeavyHitter;
    }
    let ranked = direct.ranked();
    let top_share = ranked[0].1 / total;
    let top2_share = (ranked[0].1 + ranked.get(1).map_or(0.0, |r| r.1)) / total;
    if top_share > 0.5 || top2_share > 0.7 {
        CongestionPattern::HeavyHitter
    } else if ranked.len() >= 8 {
        // Many flows each contributing a small, similar share: compare the
        // largest against the median contributor.
        let median = ranked[ranked.len() / 2].1;
        if median > 0.0 && ranked[0].1 / median < 4.0 {
            CongestionPattern::Synchronized
        } else {
            CongestionPattern::Mixed
        }
    } else {
        CongestionPattern::Mixed
    }
}

/// Run the full diagnosis for a victim on `port`.
///
/// `regime_start` (if known, e.g. from a depth series or the ground-truth
/// oracle in experiments) extends the report with indirect culprits over
/// `[regime_start, enqueue)`.
pub fn diagnose(
    analysis: &AnalysisProgram,
    port: u16,
    enq_timestamp: Nanos,
    deq_timestamp: Nanos,
    regime_start: Option<Nanos>,
) -> Diagnosis {
    let interval = QueryInterval::new(enq_timestamp, deq_timestamp);
    let direct_answer = analysis.query_time_windows(port, interval);
    let indirect_answer = regime_start.map(|start| {
        analysis.query_time_windows(
            port,
            QueryInterval::new(start, enq_timestamp.saturating_sub(1)),
        )
    });
    let mut degraded = direct_answer.degraded;
    let mut gaps = direct_answer.gaps.clone();
    if let Some(ind) = &indirect_answer {
        degraded |= ind.degraded;
        for g in &ind.gaps {
            if !gaps.contains(g) {
                gaps.push(*g);
            }
        }
    }
    let original = analysis
        .query_queue_monitor(port, deq_timestamp)
        .map(|answer| {
            degraded |= answer.degraded;
            for g in &answer.gaps {
                if !gaps.contains(g) {
                    gaps.push(*g);
                }
            }
            let mut counts: Vec<(FlowId, u64)> = answer.culprit_counts().into_iter().collect();
            counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            counts
        })
        .unwrap_or_default();
    let direct = direct_answer.estimates;
    let pattern = classify(&direct);
    Diagnosis {
        interval,
        direct,
        indirect: indirect_answer.map(|q| q.estimates),
        original,
        pattern,
        degraded,
        gaps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn estimates(pairs: &[(u32, f64)]) -> FlowEstimates {
        FlowEstimates {
            counts: pairs
                .iter()
                .map(|(f, n)| (FlowId(*f), *n))
                .collect::<HashMap<_, _>>(),
        }
    }

    #[test]
    fn dominant_flow_classifies_heavy_hitter() {
        let est = estimates(&[(1, 90.0), (2, 5.0), (3, 5.0)]);
        assert_eq!(classify(&est), CongestionPattern::HeavyHitter);
    }

    #[test]
    fn many_equal_flows_classify_synchronized() {
        let pairs: Vec<(u32, f64)> = (0..20).map(|f| (f, 10.0)).collect();
        let est = estimates(&pairs);
        assert_eq!(classify(&est), CongestionPattern::Synchronized);
    }

    #[test]
    fn skewed_multiflow_classifies_mixed() {
        let mut pairs: Vec<(u32, f64)> = (0..12).map(|f| (f, 2.0)).collect();
        pairs.push((99, 12.0)); // 12/36 = 33% top share, 10x median
        let est = estimates(&pairs);
        assert_eq!(classify(&est), CongestionPattern::Mixed);
    }

    #[test]
    fn tiny_evidence_is_unknown() {
        assert_eq!(
            classify(&estimates(&[(1, 0.5)])),
            CongestionPattern::Unknown
        );
        assert_eq!(classify(&estimates(&[])), CongestionPattern::Unknown);
    }

    #[test]
    fn historical_only_excludes_active_flows() {
        let diag = Diagnosis {
            interval: QueryInterval::new(0, 10),
            direct: estimates(&[(1, 50.0), (2, 0.2)]),
            indirect: None,
            original: vec![(FlowId(1), 10), (FlowId(2), 8), (FlowId(3), 6)],
            pattern: CongestionPattern::HeavyHitter,
            degraded: false,
            gaps: Vec::new(),
        };
        // Flow 1 is active (direct ≥ 1); flows 2 and 3 are historical-only.
        assert_eq!(diag.historical_only(), vec![FlowId(2), FlowId(3)]);
    }

    #[test]
    fn end_to_end_diagnose_smoke() {
        use crate::params::TimeWindowConfig;
        use crate::printqueue::{PrintQueue, PrintQueueConfig};
        use pq_packet::SimPacket;
        use pq_switch::{Arrival, QueueHooks, Switch, SwitchConfig};

        let tw = TimeWindowConfig::new(6, 1, 8, 3);
        let mut config = PrintQueueConfig::single_port(tw, 1200);
        config.control.poll_period = 100_000;
        let mut pq = PrintQueue::new(config);
        let mut sw = Switch::new(SwitchConfig::single_port(10.0, 32_768));
        // One heavy flow crowding out the rest.
        let arrivals: Vec<Arrival> = (0..500u64)
            .map(|i| {
                let flow = if i % 10 == 0 { 2 } else { 1 };
                Arrival::new(SimPacket::new(FlowId(flow), 1500, i * 700), 0)
            })
            .collect();
        {
            let mut hooks: Vec<&mut dyn QueueHooks> = vec![&mut pq];
            sw.run(arrivals, &mut hooks, 100_000);
        }
        // Diagnose a synthetic victim window late in the run.
        let diag = diagnose(pq.analysis(), 0, 250_000, 300_000, Some(0));
        assert!(diag.direct.total() > 10.0);
        assert_eq!(diag.pattern, CongestionPattern::HeavyHitter);
        assert!(diag.indirect.is_some());
        assert!(!diag.original.is_empty());
        assert_eq!(diag.top_direct(1)[0].0, FlowId(1));
    }
}
