//! The workspace's one log2 histogram (DESIGN.md "Histograms"): bucket
//! scheme, recorder, snapshot, merge, quantile estimator, sparse form and
//! consistency rule, below every crate that keeps one — the telemetry
//! registry, the lock profiler here, pq-rtt's flow table.
//!
//! Values are `u64` in any unit. Bucket 0 holds exactly 0 and bucket
//! `i ≥ 1` holds `[2^(i-1), 2^i - 1]`: 65 fixed buckets tile `u64`, the
//! trade in-pipeline monitors make because a fixed array fits registers.
//! Exact `count`, `sum`, `min` and `max` ride along, so the mean is exact
//! and a quantile is off by at most one bucket.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 buckets: one for zero plus one per bit of `u64`.
pub const NUM_BUCKETS: usize = 65;

/// The bucket a value lands in: 0 for 0, otherwise `floor(log2(v)) + 1`
/// — the position of its highest set bit, counting from 1.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    64 - v.leading_zeros() as usize
}

/// The smallest value bucket `i` can hold.
pub fn bucket_lower_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        n => 1u64 << (n - 1),
    }
}

/// The largest value bucket `i` can hold (`u64::MAX` for the last bucket).
pub fn bucket_upper_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        64.. => u64::MAX,
        n => (1u64 << n) - 1,
    }
}

/// Lock-free recording histogram: recording is five relaxed atomic
/// operations, snapshotting a relaxed sweep that a concurrent recorder
/// can tear (see [`HistSnapshot::is_consistent`]).
pub struct Hist {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Hist {
    /// Record one sample. Lock-free, alloc-free, thread-safe.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Plain-data copy of the current state.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Zero every cell (tests and benches only; concurrent recorders may
    /// interleave, which is fine for those callers).
    pub fn reset(&self) {
        let zeroed = [&self.count, &self.sum, &self.max];
        for cell in self.buckets.iter().chain(zeroed) {
            cell.store(0, Ordering::Relaxed);
        }
        self.min.store(u64::MAX, Ordering::Relaxed);
    }
}

/// Plain-data histogram state. Decoders build it from a peer's bytes, so
/// every method is a total function of arbitrary field values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket sample counts (see [`bucket_index`] for the mapping).
    pub buckets: [u64; NUM_BUCKETS],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (`u64::MAX` when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            buckets: [0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl HistSnapshot {
    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Record one sample (the single-owner counterpart of [`Hist::record`]).
    pub fn record(&mut self, v: u64) {
        let bucket = &mut self.buckets[bucket_index(v)];
        *bucket = bucket.saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold another snapshot in: saturating element-wise sums and min/max
    /// extremes — associative and commutative with the empty snapshot as
    /// identity, so rollups fold in any order and grouping.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Mean sample value (0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        match self.count {
            0 => 0.0,
            n => self.sum as f64 / n as f64,
        }
    }

    /// Estimate the `q`-quantile (`0.0 ≤ q ≤ 1.0`; 0 when empty): walk to
    /// the bucket holding the sample of rank `ceil(q · count)` and
    /// interpolate linearly by that rank's position among the bucket's
    /// samples. Clamped to `[min, max]`, so q = 0 and q = 1 are exact and
    /// interior quantiles within one bucket of the true order statistic;
    /// on an inconsistent snapshot, some value `≤ max`, never a panic.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        if target >= self.count {
            return self.max;
        }
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n > 0 && cumulative.saturating_add(n) >= target {
                // The last bucket's upper bound, `u64::MAX`, is far from
                // any plausible sample: pin to its lower bound instead.
                let last = i + 1 == NUM_BUCKETS;
                let lo = bucket_lower_bound(i);
                let width = if last { 0 } else { bucket_upper_bound(i) - lo };
                let into = (target - cumulative - 1) as f64; // 0-based
                let frac = if n > 1 { into / (n - 1) as f64 } else { 0.0 };
                let est = (lo as f64 + frac * width as f64) as u64;
                // Not `clamp`, which panics on `min > max`.
                return est.max(self.min).min(self.max);
            }
            cumulative = cumulative.saturating_add(n);
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// The sparse form every codec writes after the four moments: the
    /// occupied buckets as `(index, count)`, index-ascending.
    pub fn occupied(&self) -> impl Iterator<Item = (u8, u64)> + Clone + '_ {
        let pairs = self.buckets.iter().enumerate();
        pairs.filter(|(_, &n)| n != 0).map(|(i, &n)| (i as u8, n))
    }

    /// Rebuild a snapshot from its moments and sparse form, rejecting what
    /// [`occupied`](Self::occupied) cannot produce: an index past the last
    /// bucket, indices not strictly ascending, a zero count.
    pub fn from_occupied(
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
        pairs: impl IntoIterator<Item = (u8, u64)>,
    ) -> Result<HistSnapshot, &'static str> {
        let mut h = HistSnapshot::default();
        (h.count, h.sum, h.min, h.max) = (count, sum, min, max);
        let mut next = 0;
        for (i, n) in pairs {
            let i = usize::from(i);
            if i < next || i >= NUM_BUCKETS || n == 0 {
                return Err("histogram buckets not ascending, occupied and in range");
            }
            h.buckets[i] = n;
            next = i + 1;
        }
        Ok(h)
    }

    /// The one spelling of internal consistency: bucket counts sum to
    /// `count`, an empty histogram has the default moments, otherwise
    /// `min ≤ max`. The report decoders reject what fails it; a live
    /// [`Hist::snapshot`] may fail it transiently (the sweep is not atomic),
    /// so the metrics stream does not ask and `quantile` does not need it.
    pub fn is_consistent(&self) -> bool {
        let total = self.buckets.iter().fold(0u64, |a, &b| a.saturating_add(b));
        if self.count == 0 {
            return *self == HistSnapshot::default();
        }
        total == self.count && self.min <= self.max
    }
}
