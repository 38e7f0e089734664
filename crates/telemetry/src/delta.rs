//! Snapshot deltas, reset-safe rate derivation, and a bounded
//! gauge-history ring.
//!
//! A live watcher sees a *sequence* of [`RegistrySnapshot`]s and wants to
//! answer "what changed, and how fast?". Two hazards make the naive
//! subtraction wrong:
//!
//! * **counter resets** — a restarted process re-registers its counters
//!   at zero, so `next - prev` underflows. [`counter_delta`] treats any
//!   decrease as a reset and counts the post-reset value, which is the
//!   standard Prometheus `rate()` convention: never negative, never a
//!   panic, at worst it under-counts the instant of the reset.
//! * **interval skew** — rates must be derived from the *observed*
//!   interval, not the nominal one; [`rate_per_sec`] takes the elapsed
//!   nanoseconds explicitly.
//!
//! [`delta`] applies the same discipline snapshot-wide (histograms
//! subtract bucket-wise when monotone and fall back to the new state on a
//! reset), and [`changed`] extracts the subset of series whose values
//! differ between two polls — what `pqsim watch` counts as moving.
//! Delta-then-merge equals merge-then-delta on monotone inputs
//! (property-tested in `tests/telemetry.rs`).

use std::collections::VecDeque;

use crate::histogram::HistogramSnapshot;
use crate::registry::{MetricValue, RegistrySnapshot};

/// Reset-safe counter difference: `next - prev`, or `next` when the
/// counter went backwards (process restart re-registered it at zero).
#[inline]
pub fn counter_delta(prev: u64, next: u64) -> u64 {
    if next >= prev {
        next - prev
    } else {
        next
    }
}

/// Reset-safe per-second rate of a counter over an observed interval.
/// Never negative; zero when no time has passed.
pub fn rate_per_sec(prev: u64, next: u64, elapsed_ns: u64) -> f64 {
    if elapsed_ns == 0 {
        return 0.0;
    }
    counter_delta(prev, next) as f64 * 1e9 / elapsed_ns as f64
}

fn histogram_delta(prev: &HistogramSnapshot, next: &HistogramSnapshot) -> HistogramSnapshot {
    let monotone = next.count >= prev.count
        && next.sum >= prev.sum
        && prev
            .buckets
            .iter()
            .zip(next.buckets.iter())
            .all(|(p, n)| n >= p);
    if !monotone {
        // Reset: the interval's activity is whatever the fresh histogram
        // accumulated since.
        return next.clone();
    }
    let mut out = next.clone();
    for (o, p) in out.hist.buckets.iter_mut().zip(prev.buckets.iter()) {
        *o -= p;
    }
    out.hist.count -= prev.count;
    out.hist.sum -= prev.sum;
    // min/max describe lifetime extremes, not the interval; keep next's.
    out
}

/// The activity between two snapshots of the same registry.
///
/// Counters become reset-safe differences, gauges take their latest
/// value, histograms subtract bucket-wise (falling back to `next`'s state
/// on a reset). Series absent from `prev` count from zero; series absent
/// from `next` are dropped (a registry never unregisters, so that only
/// happens across a restart).
pub fn delta(prev: &RegistrySnapshot, next: &RegistrySnapshot) -> RegistrySnapshot {
    let mut out = RegistrySnapshot::default();
    for (key, value) in next.iter() {
        let d = match (prev.get(key), value) {
            (Some(MetricValue::Counter(p)), MetricValue::Counter(n)) => {
                MetricValue::Counter(counter_delta(*p, *n))
            }
            (Some(MetricValue::Histogram(p)), MetricValue::Histogram(n)) => {
                MetricValue::Histogram(Box::new(histogram_delta(p, n)))
            }
            // Gauges, new series, and cross-kind conflicts: latest wins.
            _ => value.clone(),
        };
        out.insert(key.clone(), d);
    }
    out
}

/// The subset of `next`'s series whose value differs from `prev`'s (or
/// which `prev` lacks), carried as **absolute** values.
pub fn changed(prev: &RegistrySnapshot, next: &RegistrySnapshot) -> RegistrySnapshot {
    let mut out = RegistrySnapshot::default();
    for (key, value) in next.iter() {
        if prev.get(key) != Some(value) {
            out.insert(key.clone(), value.clone());
        }
    }
    out
}

/// A bounded ring of timestamped gauge samples — enough history to draw a
/// sparkline or answer "what was this five minutes ago", with a hard cap
/// so an immortal watcher never grows without bound.
#[derive(Debug, Clone)]
pub struct GaugeHistory {
    cap: usize,
    samples: VecDeque<(u64, f64)>,
}

impl GaugeHistory {
    /// A ring holding at most `cap` samples (minimum 1).
    pub fn new(cap: usize) -> GaugeHistory {
        GaugeHistory {
            cap: cap.max(1),
            samples: VecDeque::new(),
        }
    }

    /// Append a sample, evicting the oldest when full.
    pub fn push(&mut self, t_ns: u64, value: f64) {
        if self.samples.len() == self.cap {
            self.samples.pop_front();
        }
        self.samples.push_back((t_ns, value));
    }

    /// Samples oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.samples.iter().copied()
    }

    /// Number of samples held.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples have been pushed.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The most recent sample, if any.
    pub fn latest(&self) -> Option<(u64, f64)> {
        self.samples.back().copied()
    }

    /// Render the ring as a fixed-width sparkline (most recent sample
    /// rightmost), scaling against the ring's own maximum.
    pub fn sparkline(&self, width: usize) -> String {
        const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        if width == 0 || self.samples.is_empty() {
            return String::new();
        }
        let max = self.samples.iter().map(|&(_, v)| v).fold(0.0f64, f64::max);
        let tail: Vec<f64> = self
            .samples
            .iter()
            .rev()
            .take(width)
            .rev()
            .map(|&(_, v)| v)
            .collect();
        tail.iter()
            .map(|&v| {
                if max <= 0.0 || !v.is_finite() {
                    LEVELS[0]
                } else {
                    let idx = ((v / max) * (LEVELS.len() - 1) as f64).round() as usize;
                    LEVELS[idx.min(LEVELS.len() - 1)]
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn counter_delta_handles_resets() {
        assert_eq!(counter_delta(10, 15), 5);
        assert_eq!(counter_delta(10, 10), 0);
        // Reset: went backwards, count the post-reset value.
        assert_eq!(counter_delta(10, 3), 3);
    }

    #[test]
    fn rate_is_never_negative_and_interval_scaled() {
        assert_eq!(rate_per_sec(0, 10, 1_000_000_000), 10.0);
        assert_eq!(rate_per_sec(0, 10, 2_000_000_000), 5.0);
        assert_eq!(rate_per_sec(10, 3, 1_000_000_000), 3.0);
        assert_eq!(rate_per_sec(5, 9, 0), 0.0);
    }

    #[test]
    fn delta_subtracts_counters_and_keeps_latest_gauge() {
        let reg = Registry::new();
        let c = reg.counter("c", &[]);
        let g = reg.gauge("g", &[]);
        let h = reg.histogram("h", &[]);
        c.add(5);
        g.set(7);
        h.record(100);
        let prev = reg.snapshot();
        c.add(3);
        g.set(2);
        h.record(100);
        h.record(3);
        let next = reg.snapshot();
        let d = delta(&prev, &next);
        assert_eq!(d.counter("c", &[]), Some(3));
        assert_eq!(d.gauge("g", &[]), Some(2));
        let hd = d.histogram("h", &[]).unwrap();
        assert_eq!(hd.count, 2);
        assert_eq!(hd.sum, 103);
    }

    #[test]
    fn histogram_reset_falls_back_to_next() {
        let a = Registry::new();
        a.histogram("h", &[]).record(50);
        a.histogram("h", &[]).record(60);
        let prev = a.snapshot();
        let b = Registry::new();
        b.histogram("h", &[]).record(9);
        let next = b.snapshot();
        let d = delta(&prev, &next);
        let hd = d.histogram("h", &[]).unwrap();
        assert_eq!(hd.count, 1);
        assert_eq!(hd.sum, 9);
    }

    #[test]
    fn changed_extracts_only_differing_series() {
        let reg = Registry::new();
        let a = reg.counter("a", &[]);
        reg.counter("b", &[]).add(4);
        let prev = reg.snapshot();
        a.inc();
        let next = reg.snapshot();
        let ch = changed(&prev, &next);
        assert_eq!(ch.len(), 1);
        assert_eq!(ch.counter("a", &[]), Some(1));
        // Every series of the new snapshot is either in the changed set
        // or unchanged since the old one.
        for (key, value) in next.iter() {
            assert!(ch.get(key) == Some(value) || prev.get(key) == Some(value));
        }
    }

    #[test]
    fn gauge_history_is_bounded_and_ordered() {
        let mut h = GaugeHistory::new(3);
        for i in 0..5u64 {
            h.push(i, i as f64);
        }
        assert_eq!(h.len(), 3);
        let got: Vec<u64> = h.iter().map(|(t, _)| t).collect();
        assert_eq!(got, vec![2, 3, 4]);
        assert_eq!(h.latest(), Some((4, 4.0)));
        assert_eq!(h.sparkline(3).chars().count(), 3);
    }
}
