//! Registry histograms: the workspace's one log2 histogram
//! ([`pq_prof::hist`]: bucket scheme, lock-free recorder, quantile
//! estimator, merge) plus per-bucket trace exemplars, which only
//! [`Histogram::record_exemplar`] locks for.

use std::ops::Deref;
use std::sync::Mutex;

use pq_prof::hist::{bucket_index, Hist, HistSnapshot, NUM_BUCKETS};

/// An OpenMetrics-style exemplar: the last traced sample observed in one
/// bucket, so an alert on a histogram links straight to a representative
/// request trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketExemplar {
    /// Bucket index (see [`bucket_index`]).
    pub bucket: u8,
    /// Trace id of the request that recorded the sample (never 0).
    pub trace_id: u128,
    /// The observed sample value.
    pub value: u64,
}

pub(crate) struct HistogramCore {
    hist: Hist,
    /// The last traced sample per bucket. Behind a mutex, but only touched
    /// by [`Histogram::record_exemplar`] — the per-sampled-trace path, far
    /// rarer than [`Histogram::record`], which stays lock-free.
    exemplars: Mutex<Box<[Option<BucketExemplar>; NUM_BUCKETS]>>,
}

/// A recording handle to a registry histogram. Cloning shares storage.
#[derive(Clone)]
pub struct Histogram(pub(crate) std::sync::Arc<HistogramCore>);

impl Histogram {
    pub(crate) fn new() -> Histogram {
        Histogram(std::sync::Arc::new(HistogramCore {
            hist: Hist::default(),
            exemplars: Mutex::new(Box::new([None; NUM_BUCKETS])),
        }))
    }

    /// Record one sample. Lock-free, alloc-free, thread-safe.
    #[inline]
    pub fn record(&self, v: u64) {
        self.0.hist.record(v);
    }

    /// [`record`](Self::record) a sample and stamp its bucket's exemplar
    /// with the trace id of the request that produced it. A `trace_id` of
    /// 0 (the "no trace" sentinel) records the sample without an exemplar.
    pub fn record_exemplar(&self, value: u64, trace_id: u128) {
        self.record(value);
        if trace_id == 0 {
            return;
        }
        let bucket = bucket_index(value);
        self.0.exemplars.lock().unwrap()[bucket] = Some(BucketExemplar {
            bucket: bucket as u8,
            trace_id,
            value,
        });
    }

    /// A plain-data copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let stamped = self.0.exemplars.lock().unwrap();
        HistogramSnapshot {
            hist: self.0.hist.snapshot(),
            exemplars: stamped.iter().flatten().copied().collect(),
        }
    }
}

/// Plain-data histogram state: the shared [`HistSnapshot`] — to which
/// this derefs, so `count`, `buckets`, `quantile`, `p99`, `mean` and the
/// rest read straight off a registry histogram — plus the exemplar list.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Bucket counts and moments.
    pub hist: HistSnapshot,
    /// Per-bucket exemplars (sparse, ascending bucket order): the last
    /// traced sample seen in each occupied bucket.
    pub exemplars: Vec<BucketExemplar>,
}

impl Deref for HistogramSnapshot {
    type Target = HistSnapshot;
    fn deref(&self) -> &HistSnapshot {
        &self.hist
    }
}

impl HistogramSnapshot {
    /// Accumulate another snapshot ([`HistSnapshot::merge`] — associative
    /// and commutative, so fleet rollups can fold in any order).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.hist.merge(&other.hist);
        // Exemplars are representatives, not measures: per bucket the
        // incoming side wins (any representative is as good as another,
        // and "latest snapshot folded in" matches operator expectation).
        for ex in &other.exemplars {
            match self
                .exemplars
                .binary_search_by_key(&ex.bucket, |e| e.bucket)
            {
                Ok(i) => self.exemplars[i] = *ex,
                Err(i) => self.exemplars.insert(i, *ex),
            }
        }
    }

    /// The exemplar stamped on bucket `bucket`, if any.
    pub fn exemplar(&self, bucket: usize) -> Option<BucketExemplar> {
        self.exemplars
            .iter()
            .find(|e| usize::from(e.bucket) == bucket)
            .copied()
    }

    /// The exemplar of the highest occupied bucket — the natural "show me
    /// a slow one" pick for alert → trace linkage.
    pub fn worst_exemplar(&self) -> Option<BucketExemplar> {
        self.exemplars.last().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exemplars_stamp_last_trace_per_bucket() {
        let h = Histogram::new();
        h.record(100); // untraced: no exemplar
        h.record_exemplar(5, 0xaa);
        h.record_exemplar(6, 0xbb); // same bucket [4,7]: overwrites
        h.record_exemplar(1000, 0xcc);
        let snap = h.snapshot();
        assert_eq!(snap.count, 4);
        let ex = snap.exemplar(bucket_index(5)).unwrap();
        assert_eq!((ex.trace_id, ex.value), (0xbb, 6));
        assert!(snap.exemplar(bucket_index(100)).is_none());
        let worst = snap.worst_exemplar().unwrap();
        assert_eq!(worst.trace_id, 0xcc);
        // Zero trace id is the "no trace" sentinel: counted, not stamped.
        h.record_exemplar(7, 0);
        assert_eq!(
            h.snapshot().exemplar(bucket_index(7)).unwrap().trace_id,
            0xbb
        );
    }

    #[test]
    fn merge_folds_samples_and_prefers_incoming_exemplars() {
        let a = Histogram::new();
        a.record_exemplar(5, 0x1);
        a.record_exemplar(1000, 0x2);
        let b = Histogram::new();
        b.record_exemplar(5, 0x3);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!((m.count, m.sum, m.min, m.max), (3, 1010, 5, 1000));
        assert_eq!(m.buckets[bucket_index(5)], 2);
        assert_eq!(m.exemplar(bucket_index(5)).unwrap().trace_id, 0x3);
        assert_eq!(m.exemplar(bucket_index(1000)).unwrap().trace_id, 0x2);
    }
}
