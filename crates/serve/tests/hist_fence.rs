//! The fence around `pq_stream::RttAgg`.
//!
//! pq-stream is dependency-free, and giving it an edge to pq-prof would
//! change the crate graph (and so the benchmark's lock file), so `RttAgg`
//! restates the workspace histogram's bucket scheme and quantile rule
//! instead of importing them. pq-serve sees both crates: for any samples
//! an RTT table can record, the restatement must agree with
//! `pq_prof::hist::HistSnapshot` bucket for bucket, moment for moment and
//! quantile for quantile — so a standing `p99(rtt)` and a `pqsim rtt`
//! report say the same thing.

use pq_prof::hist::HistSnapshot;
use pq_stream::{rtt_bucket_of, RttAgg, RTT_BUCKETS};
use proptest::prelude::*;

/// Samples spread over every octave below 2^62, not just the top ones a
/// uniform draw would give.
fn arb_samples() -> impl Strategy<Value = Vec<u64>> {
    let sample = (0u32..62, any::<u64>()).prop_map(|(bits, v)| v >> (64 - bits).min(63));
    proptest::collection::vec(sample, 0..60)
}

proptest! {
    #[test]
    fn rtt_agg_is_the_shared_histogram(samples in arb_samples(), q in 0.0f64..=1.0) {
        let (mut agg, mut hist) = (RttAgg::default(), HistSnapshot::default());
        for (t, &v) in samples.iter().enumerate() {
            agg.offer(t as u64, v);
            hist.record(v);
            prop_assert_eq!(rtt_bucket_of(v), pq_prof::bucket_index(v));
        }
        prop_assert_eq!(&agg.buckets[..], &hist.buckets[..RTT_BUCKETS]);
        prop_assert_eq!(hist.buckets[RTT_BUCKETS], 0);
        prop_assert_eq!(
            (agg.count, agg.sum, agg.min, agg.max),
            (hist.count, hist.sum, hist.min, hist.max)
        );
        for q in [q, 0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!((q, agg.quantile(q)), (q, hist.quantile(q)));
        }
        // Merging halves is the same fold in both.
        let (left, right) = samples.split_at(samples.len() / 2);
        let part = |vs: &[u64]| {
            let (mut a, mut h) = (RttAgg::default(), HistSnapshot::default());
            vs.iter().for_each(|&v| {
                a.offer(0, v);
                h.record(v)
            });
            (a, h)
        };
        let ((mut a, mut h), (a2, h2)) = (part(left), part(right));
        a.merge(&a2);
        h.merge(&h2);
        prop_assert_eq!(&a.buckets[..], &h.buckets[..RTT_BUCKETS]);
        prop_assert_eq!(a.quantile(q), h.quantile(q));
    }
}
