//! Accuracy metrics — the §7.1 methodology.
//!
//! "We first compute, for every flow in the query period, the true positives
//! of PrintQueue. Precision is the sum of the true positives over
//! PrintQueue's cumulative packet count estimate. Recall is the sum of the
//! true positives over the ground truth's cumulative estimate." A flow's
//! true positives are `min(estimate, truth)`.

use pq_packet::FlowId;
use pq_telemetry::{names, Counter, Histogram, Telemetry};
use serde::Serialize;
use std::collections::HashMap;

/// Per-flow packet counts (either estimated or ground truth).
pub type FlowCounts = HashMap<FlowId, f64>;

/// A precision/recall pair.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct PrecisionRecall {
    pub precision: f64,
    pub recall: f64,
}

impl PrecisionRecall {
    /// F1 harmonic mean (not used by the paper, handy in tests).
    pub fn f1(&self) -> f64 {
        if self.precision + self.recall == 0.0 {
            0.0
        } else {
            2.0 * self.precision * self.recall / (self.precision + self.recall)
        }
    }
}

/// Control-plane health counters: how the analysis program's read loop is
/// faring under (possibly injected) faults. All counters are cumulative
/// since construction; with no fault injector only `polls_attempted` and
/// `checkpoints_stored` move (and stay equal).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ControlHealth {
    /// Freeze-and-read attempts issued (first tries and retries alike).
    pub polls_attempted: u64,
    /// Attempts that failed outright (injected read failure).
    pub polls_failed: u64,
    /// Attempts that were retries of earlier failures or deferrals.
    pub polls_retried: u64,
    /// Attempts rejected because the control plane was inside an injected
    /// stall window.
    pub polls_stalled: u64,
    /// Checkpoints successfully stored.
    pub checkpoints_stored: u64,
    /// Checkpoints read but lost before storage (injected drop).
    pub checkpoints_dropped: u64,
    /// Coverage gaps recorded (inter-checkpoint silence exceeded `t_set`).
    pub coverage_gaps: u64,
    /// Total nanoseconds covered by recorded gaps.
    pub gap_ns: u64,
    /// Failures whose backoff had already reached the policy ceiling.
    pub backoff_ceiling_hits: u64,
    /// Data-plane triggers rejected while a special read was outstanding.
    pub dp_triggers_rejected: u64,
    /// Checkpoint-spill sink writes that failed (the checkpoint stays in
    /// the in-RAM ring; on-disk history has a hole). Zero without a sink.
    pub spill_errors: u64,
}

impl ControlHealth {
    /// Accumulate another instance's counters (rollups across runs or switches).
    pub fn merge(&mut self, other: &ControlHealth) {
        self.polls_attempted += other.polls_attempted;
        self.polls_failed += other.polls_failed;
        self.polls_retried += other.polls_retried;
        self.polls_stalled += other.polls_stalled;
        self.checkpoints_stored += other.checkpoints_stored;
        self.checkpoints_dropped += other.checkpoints_dropped;
        self.coverage_gaps += other.coverage_gaps;
        self.gap_ns += other.gap_ns;
        self.backoff_ceiling_hits += other.backoff_ceiling_hits;
        self.dp_triggers_rejected += other.dp_triggers_rejected;
        self.spill_errors += other.spill_errors;
    }

    /// Fraction of read attempts that failed or stalled (0 when none ran).
    pub fn poll_failure_rate(&self) -> f64 {
        if self.polls_attempted == 0 {
            0.0
        } else {
            (self.polls_failed + self.polls_stalled) as f64 / self.polls_attempted as f64
        }
    }

    /// A healthy control plane has lost no coverage and dropped nothing.
    pub fn is_healthy(&self) -> bool {
        self.coverage_gaps == 0 && self.checkpoints_dropped == 0 && self.polls_failed == 0
    }
}

/// Pre-resolved registry handles for every control-plane counter.
///
/// The registry is the single source of truth for these numbers;
/// [`ControlHealth`] is assembled on demand as a back-compat *view* of the
/// same atomics ([`ControlCounters::health`]), so the struct an experiment
/// serializes and the exposition `pqsim --telemetry` emits can never
/// disagree. Handles are resolved once per telemetry plane (registration is
/// the cold path); incrementing them is a relaxed atomic add.
pub(crate) struct ControlCounters {
    pub polls_attempted: Counter,
    pub polls_failed: Counter,
    pub polls_retried: Counter,
    pub polls_stalled: Counter,
    pub checkpoints_stored: Counter,
    pub checkpoints_dropped: Counter,
    pub coverage_gaps: Counter,
    pub gap_ns: Counter,
    pub backoff_ceiling_hits: Counter,
    pub dp_triggers_rejected: Counter,
    pub spill_errors: Counter,
    pub ring_evictions: Counter,
    pub entries_read: Counter,
    pub bytes_read: Counter,
    pub read_ns: Histogram,
    pub qm_occupied_entries: Histogram,
    pub qm_captured_entries: Histogram,
    pub tw_captured_cells: Histogram,
    pub query_ns: Histogram,
}

impl ControlCounters {
    /// Resolve every handle against `plane`'s registry.
    pub fn resolve(plane: &Telemetry) -> ControlCounters {
        let reg = plane.registry();
        ControlCounters {
            polls_attempted: reg.counter(names::CONTROL_POLLS_ATTEMPTED, &[]),
            polls_failed: reg.counter(names::CONTROL_POLLS_FAILED, &[]),
            polls_retried: reg.counter(names::CONTROL_POLLS_RETRIED, &[]),
            polls_stalled: reg.counter(names::CONTROL_POLLS_STALLED, &[]),
            checkpoints_stored: reg.counter(names::CONTROL_CHECKPOINTS_STORED, &[]),
            checkpoints_dropped: reg.counter(names::CONTROL_CHECKPOINTS_DROPPED, &[]),
            coverage_gaps: reg.counter(names::CONTROL_COVERAGE_GAPS, &[]),
            gap_ns: reg.counter(names::CONTROL_GAP_NS, &[]),
            backoff_ceiling_hits: reg.counter(names::CONTROL_BACKOFF_CEILING, &[]),
            dp_triggers_rejected: reg.counter(names::CONTROL_DP_REJECTED, &[]),
            spill_errors: reg.counter(names::CONTROL_SPILL_ERRORS, &[]),
            ring_evictions: reg.counter(names::CONTROL_RING_EVICTIONS, &[]),
            entries_read: reg.counter(names::CONTROL_ENTRIES_READ, &[]),
            bytes_read: reg.counter(names::CONTROL_BYTES_READ, &[]),
            read_ns: reg.histogram(names::CONTROL_READ_NS, &[]),
            qm_occupied_entries: reg.histogram(names::CONTROL_QM_OCCUPIED_ENTRIES, &[]),
            qm_captured_entries: reg.histogram(names::CONTROL_QM_CAPTURED_ENTRIES, &[]),
            tw_captured_cells: reg.histogram(names::CONTROL_TW_CAPTURED_CELLS, &[]),
            query_ns: reg.histogram(names::CONTROL_QUERY_NS, &[]),
        }
    }

    /// Carry counts accumulated under a previous plane into this one, so
    /// attaching telemetry mid-run loses nothing.
    pub fn seed(&self, prev: &ControlCounters, entries_read: u64, bytes_read: u64) {
        let health = prev.health();
        self.polls_attempted.add(health.polls_attempted);
        self.polls_failed.add(health.polls_failed);
        self.polls_retried.add(health.polls_retried);
        self.polls_stalled.add(health.polls_stalled);
        self.checkpoints_stored.add(health.checkpoints_stored);
        self.checkpoints_dropped.add(health.checkpoints_dropped);
        self.coverage_gaps.add(health.coverage_gaps);
        self.gap_ns.add(health.gap_ns);
        self.backoff_ceiling_hits.add(health.backoff_ceiling_hits);
        self.dp_triggers_rejected.add(health.dp_triggers_rejected);
        self.spill_errors.add(health.spill_errors);
        self.ring_evictions.add(prev.ring_evictions.get());
        self.entries_read.add(entries_read);
        self.bytes_read.add(bytes_read);
    }

    /// The back-compat view: a [`ControlHealth`] read out of the registry.
    pub fn health(&self) -> ControlHealth {
        ControlHealth {
            polls_attempted: self.polls_attempted.get(),
            polls_failed: self.polls_failed.get(),
            polls_retried: self.polls_retried.get(),
            polls_stalled: self.polls_stalled.get(),
            checkpoints_stored: self.checkpoints_stored.get(),
            checkpoints_dropped: self.checkpoints_dropped.get(),
            coverage_gaps: self.coverage_gaps.get(),
            gap_ns: self.gap_ns.get(),
            backoff_ceiling_hits: self.backoff_ceiling_hits.get(),
            dp_triggers_rejected: self.dp_triggers_rejected.get(),
            spill_errors: self.spill_errors.get(),
        }
    }
}

/// Compute per-flow-weighted precision and recall of `estimate` against
/// `truth` (§7.1).
///
/// Conventions for the degenerate cases: an empty estimate has precision 1
/// (nothing claimed, nothing wrong) and an empty truth has recall 1.
pub fn precision_recall(estimate: &FlowCounts, truth: &FlowCounts) -> PrecisionRecall {
    let estimate = by_flow(estimate);
    let est_total: f64 = estimate.iter().map(|(_, est)| est).sum();
    let truth_total = sum_by_flow(truth);
    let tp: f64 = estimate
        .iter()
        .map(|(flow, est)| truth.get(flow).copied().unwrap_or(0.0).min(*est))
        .sum();
    PrecisionRecall {
        precision: if est_total == 0.0 {
            1.0
        } else {
            tp / est_total
        },
        recall: if truth_total == 0.0 {
            1.0
        } else {
            tp / truth_total
        },
    }
}

/// `counts` in `FlowId` order: the order every sum over a map takes, so
/// the sum's bits do not depend on the map's iteration order.
fn by_flow(counts: &FlowCounts) -> Vec<(FlowId, f64)> {
    let mut pairs: Vec<(FlowId, f64)> = counts.iter().map(|(f, n)| (*f, *n)).collect();
    pairs.sort_unstable_by_key(|&(flow, _)| flow);
    pairs
}

/// The sum of `counts`, added in `FlowId` order from `+0.0`
/// (`Iterator::sum` starts from `-0.0`, which an empty map would keep and
/// print as `-0`).
pub(crate) fn sum_by_flow(counts: &FlowCounts) -> f64 {
    by_flow(counts).iter().fold(0.0, |sum, (_, n)| sum + n)
}

/// Restrict `counts` to its `k` largest flows (ties broken by flow id for
/// determinism) — the Figure 12 Top-K metric.
pub fn top_k(counts: &FlowCounts, k: usize) -> FlowCounts {
    let mut ranked: Vec<(FlowId, f64)> = counts.iter().map(|(f, n)| (*f, *n)).collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    ranked.truncate(k);
    ranked.into_iter().collect()
}

/// Convert integer ground-truth counts to the float-valued [`FlowCounts`].
pub fn to_float_counts(counts: &HashMap<FlowId, u64>) -> FlowCounts {
    counts.iter().map(|(f, n)| (*f, *n as f64)).collect()
}

/// Median of a slice (averaging the middle pair for even lengths).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Mean of a slice (0 for empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Empirical CDF points `(value, fraction ≤ value)` for plotting
/// (Figure 10's precision/recall CDFs).
pub fn cdf_points(values: &[f64]) -> Vec<(f64, f64)> {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = sorted.len();
    sorted
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v, (i + 1) as f64 / n as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(pairs: &[(u32, f64)]) -> FlowCounts {
        pairs.iter().map(|(f, n)| (FlowId(*f), *n)).collect()
    }

    #[test]
    fn perfect_estimate_scores_one() {
        let truth = counts(&[(1, 10.0), (2, 5.0)]);
        let pr = precision_recall(&truth, &truth);
        assert_eq!(pr.precision, 1.0);
        assert_eq!(pr.recall, 1.0);
        assert_eq!(pr.f1(), 1.0);
    }

    #[test]
    fn overestimate_hurts_precision_only() {
        let truth = counts(&[(1, 10.0)]);
        let est = counts(&[(1, 20.0)]);
        let pr = precision_recall(&est, &truth);
        assert_eq!(pr.precision, 0.5);
        assert_eq!(pr.recall, 1.0);
    }

    #[test]
    fn underestimate_hurts_recall_only() {
        let truth = counts(&[(1, 10.0)]);
        let est = counts(&[(1, 5.0)]);
        let pr = precision_recall(&est, &truth);
        assert_eq!(pr.precision, 1.0);
        assert_eq!(pr.recall, 0.5);
    }

    #[test]
    fn phantom_flow_hurts_precision() {
        let truth = counts(&[(1, 10.0)]);
        let est = counts(&[(1, 10.0), (2, 10.0)]);
        let pr = precision_recall(&est, &truth);
        assert_eq!(pr.precision, 0.5);
        assert_eq!(pr.recall, 1.0);
    }

    #[test]
    fn empty_sum_is_positive_zero() {
        assert_eq!(sum_by_flow(&FlowCounts::new()).to_bits(), 0.0f64.to_bits());
        let total = crate::snapshot::FlowEstimates::default().total();
        assert_eq!(format!("{total:.0} {total}"), "0 0");
        // A non-empty sum keeps its bits.
        let some = counts(&[(2, 0.1), (1, 0.2), (3, -0.0)]);
        let summed: f64 = by_flow(&some).iter().map(|(_, n)| n).sum();
        assert_eq!(sum_by_flow(&some).to_bits(), summed.to_bits());
    }

    #[test]
    fn empty_cases() {
        let empty = FlowCounts::new();
        let truth = counts(&[(1, 1.0)]);
        let pr = precision_recall(&empty, &truth);
        assert_eq!(pr.precision, 1.0);
        assert_eq!(pr.recall, 0.0);
        let pr = precision_recall(&truth, &empty);
        assert_eq!(pr.precision, 0.0);
        assert_eq!(pr.recall, 1.0);
        assert_eq!(precision_recall(&empty, &empty).f1(), 1.0);
    }

    #[test]
    fn sums_do_not_depend_on_insertion_order() {
        use crate::snapshot::FlowEstimates;
        let pairs: Vec<(u32, f64)> = (0..200u32)
            .map(|f| (f * 7919 % 1000, 0.1 * f64::from(f + 1).powf(1.7)))
            .collect();
        let forward: f64 = pairs.iter().map(|p| p.1).sum();
        let backward: f64 = pairs.iter().rev().map(|p| p.1).sum();
        assert_ne!(forward.to_bits(), backward.to_bits(), "values too tame");
        let truth: Vec<(u32, f64)> = pairs.iter().map(|&(f, n)| (f, n * 0.75)).collect();
        let reversed = |v: &[(u32, f64)]| v.iter().rev().copied().collect::<Vec<_>>();
        let (est_a, est_b) = (counts(&pairs), counts(&reversed(&pairs)));
        let (truth_a, truth_b) = (counts(&truth), counts(&reversed(&truth)));
        let (a, b) = (
            precision_recall(&est_a, &truth_a),
            precision_recall(&est_b, &truth_b),
        );
        assert_eq!(a.precision.to_bits(), b.precision.to_bits());
        assert_eq!(a.recall.to_bits(), b.recall.to_bits());
        let total = |counts: FlowCounts| FlowEstimates { counts }.total().to_bits();
        assert_eq!(total(est_a), total(est_b));
    }

    #[test]
    fn top_k_selects_largest() {
        let c = counts(&[(1, 5.0), (2, 9.0), (3, 1.0)]);
        let top2 = top_k(&c, 2);
        assert_eq!(top2.len(), 2);
        assert!(top2.contains_key(&FlowId(1)));
        assert!(top2.contains_key(&FlowId(2)));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    fn cdf_is_monotone_ending_at_one() {
        let points = cdf_points(&[0.5, 0.1, 0.9, 0.1]);
        assert_eq!(points.len(), 4);
        assert!(points
            .windows(2)
            .all(|w| w[0].0 <= w[1].0 && w[0].1 < w[1].1));
        assert_eq!(points.last().unwrap().1, 1.0);
    }
}
