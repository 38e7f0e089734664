//! Property tests for the workspace's one histogram and for the profile
//! codec and merge algebra built on it.
//!
//! The histogram suite is the only one: pq-telemetry's registry
//! histograms, pq-rtt's `RttHist` and the lock histograms here are all
//! [`HistSnapshot`], so bucket tiling, the quantile error contract, the
//! merge algebra, the sparse form and the consistency rule are checked
//! once, against that type.
//!
//! The router's scatter-gather leans on two laws: `decode(encode(r)) ==
//! r` for canonical reports, and merge being associative and
//! commutative — so a routed dump folded in any backend order encodes
//! to the same bytes a client folding the same dumps produces.

use pq_prof::hist::{
    bucket_index, bucket_lower_bound, bucket_upper_bound, Hist, HistSnapshot, NUM_BUCKETS,
};
use pq_prof::{LockSnapshot, ProfileReport, ScopeEntry, StackEntry};
use proptest::prelude::*;

/// A histogram built the way recording builds one.
fn recorded(samples: &[u64]) -> HistSnapshot {
    let mut h = HistSnapshot::default();
    samples.iter().for_each(|&v| h.record(v));
    h
}

/// Any field values at all — what a peer's bytes or a torn sweep can
/// produce, consistent or not.
fn arb_fields() -> impl Strategy<Value = HistSnapshot> {
    let pairs = proptest::collection::vec((0..NUM_BUCKETS, any::<u64>()), 0..6);
    let moment = any::<u64>;
    (moment(), moment(), moment(), moment(), pairs).prop_map(|(count, sum, min, max, pairs)| {
        let mut h = HistSnapshot {
            count,
            sum,
            min,
            max,
            ..HistSnapshot::default()
        };
        pairs.into_iter().for_each(|(i, n)| h.buckets[i] = n);
        h
    })
}

/// Short lowercase names like the real scope/lock literals.
fn arb_name() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u8..27, 1..16).prop_map(|bytes| {
        bytes
            .into_iter()
            .map(|b| if b == 26 { '/' } else { (b'a' + b) as char })
            .collect()
    })
}

fn arb_hist() -> impl Strategy<Value = HistSnapshot> {
    proptest::collection::vec(0u64..1_000_000, 0..8).prop_map(|samples| recorded(&samples))
}

fn arb_scope() -> impl Strategy<Value = ScopeEntry> {
    (
        arb_name(),
        0u64..10_000,
        0u64..1_000_000_000,
        0u64..1_000_000_000,
        0u64..10_000,
        0u64..1_000_000,
    )
        .prop_map(
            |(name, calls, total_ns, child_ns, allocs, alloc_bytes)| ScopeEntry {
                name,
                calls,
                total_ns,
                child_ns,
                allocs,
                alloc_bytes,
            },
        )
}

fn arb_lock() -> impl Strategy<Value = LockSnapshot> {
    (
        arb_name(),
        0u64..10_000,
        0u64..100,
        0u64..3,
        arb_hist(),
        arb_hist(),
    )
        .prop_map(
            |(name, acquisitions, contended, poisoned, wait, hold)| LockSnapshot {
                name,
                acquisitions,
                contended,
                poisoned,
                wait,
                hold,
            },
        )
}

fn arb_stack() -> impl Strategy<Value = StackEntry> {
    (proptest::collection::vec(arb_name(), 1..5), 1u64..100_000)
        .prop_map(|(frames, count)| StackEntry { frames, count })
}

/// A canonical report: sections sorted and deduped by key, the form
/// `capture()` and `merge()` always produce.
fn arb_report() -> impl Strategy<Value = ProfileReport> {
    (
        0u64..1_000_000,
        0u64..1_000,
        proptest::collection::vec(arb_scope(), 0..10),
        proptest::collection::vec(arb_lock(), 0..5),
        proptest::collection::vec(arb_stack(), 0..10),
    )
        .prop_map(
            |(samples_total, samples_dropped, mut scopes, mut locks, mut stacks)| {
                scopes.sort_by(|a, b| a.name.cmp(&b.name));
                scopes.dedup_by(|a, b| a.name == b.name);
                locks.sort_by(|a, b| a.name.cmp(&b.name));
                locks.dedup_by(|a, b| a.name == b.name);
                stacks.sort_by(|a, b| a.frames.cmp(&b.frames));
                stacks.dedup_by(|a, b| a.frames == b.frames);
                ProfileReport {
                    samples_total,
                    samples_dropped,
                    scopes,
                    locks,
                    stacks,
                }
            },
        )
}

proptest! {
    /// Quantile estimates land in the true order statistic's bucket or an
    /// adjacent one (bucket counts are exact, so the only error is
    /// intra-bucket interpolation), never leave the observed range, and
    /// are exact at q = 0 and q = 1.
    #[test]
    fn quantiles_within_one_bucket(
        samples in proptest::collection::vec(any::<u64>(), 1..200),
        q in 0.0f64..=1.0,
    ) {
        let h = recorded(&samples);
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let (min, max) = (sorted[0], sorted[sorted.len() - 1]);
        // The rank convention: the smallest value with cumulative rank
        // >= ceil(q * n), at least the first.
        let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
        let truth = sorted[rank.min(sorted.len()) - 1];
        let est = h.quantile(q);
        prop_assert!(
            bucket_index(est).abs_diff(bucket_index(truth)) <= 1,
            "q={q}: estimate {est} vs true {truth}"
        );
        prop_assert!(min <= est && est <= max);
        prop_assert_eq!((h.quantile(0.0), h.quantile(1.0)), (min, max));
    }

    /// Every query is a total function of the fields: a peer's bytes and a
    /// torn live sweep both produce snapshots no recorder would.
    #[test]
    fn queries_never_panic_on_arbitrary_fields(h in arb_fields(), bits in any::<u64>()) {
        // Every f64 there is, NaNs and infinities included.
        for q in [f64::from_bits(bits), f64::NAN, f64::INFINITY, -1.0, 0.0, 0.5, 1.0] {
            prop_assert!(h.quantile(q) <= h.max);
        }
        let _ = (h.p50(), h.p90(), h.p99(), h.mean(), h.is_consistent());
        let mut folded = h.clone();
        folded.merge(&h);
        folded.record(bits);
    }

    /// Merge is associative and commutative with the empty snapshot as
    /// identity — saturation included, hence arbitrary fields — and folds
    /// recorded samples exactly as recording them into one would.
    #[test]
    fn merge_is_a_commutative_monoid(
        a in arb_fields(), b in arb_fields(), c in arb_fields(),
        samples in proptest::collection::vec(any::<u64>(), 0..40),
        cut in 0usize..40,
    ) {
        let fold = |x: &HistSnapshot, y: &HistSnapshot| {
            let mut m = x.clone();
            m.merge(y);
            m
        };
        prop_assert_eq!(fold(&a, &b), fold(&b, &a));
        prop_assert_eq!(fold(&fold(&a, &b), &c), fold(&a, &fold(&b, &c)));
        // `min`/`max` of the identity are the extremes of `u64`.
        prop_assert_eq!(fold(&a, &HistSnapshot::default()), a);
        let (left, right) = samples.split_at(cut.min(samples.len()));
        prop_assert_eq!(fold(&recorded(left), &recorded(right)), recorded(&samples));
    }

    /// The sparse form round-trips every snapshot, and the atomic recorder
    /// and the plain one agree sample for sample.
    #[test]
    fn sparse_form_and_recorders_round_trip(
        h in arb_fields(),
        samples in proptest::collection::vec(any::<u64>(), 0..40),
    ) {
        let back = HistSnapshot::from_occupied(h.count, h.sum, h.min, h.max, h.occupied());
        prop_assert_eq!(back, Ok(h));
        let plain = recorded(&samples);
        prop_assert!(plain.is_consistent());
        let live = Hist::default();
        samples.iter().for_each(|&v| live.record(v));
        // The atomic sum wraps where the plain one saturates.
        let sum = samples.iter().fold(0u64, |a, &v| a.wrapping_add(v));
        prop_assert_eq!(live.snapshot(), HistSnapshot { sum, ..plain });
        live.reset();
        prop_assert_eq!(live.snapshot(), HistSnapshot::default());
    }

    #[test]
    fn encode_decode_round_trips(r in arb_report()) {
        let bytes = r.encode();
        let back = ProfileReport::decode(&bytes).unwrap();
        prop_assert_eq!(&back, &r);
        prop_assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn truncation_never_decodes(r in arb_report(), cut in 1usize..64) {
        let bytes = r.encode();
        if cut < bytes.len() {
            prop_assert!(ProfileReport::decode(&bytes[..bytes.len() - cut]).is_err());
        }
    }

    #[test]
    fn merge_commutes(a in arb_report(), b in arb_report()) {
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(ab.encode(), ba.encode());
    }

    #[test]
    fn merge_is_associative(a in arb_report(), b in arb_report(), c in arb_report()) {
        // (a + b) + c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a + (b + c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);
        prop_assert_eq!(left.encode(), right.encode());
    }

    #[test]
    fn merge_with_empty_is_identity(a in arb_report()) {
        let mut merged = a.clone();
        merged.merge(&ProfileReport::default());
        prop_assert_eq!(&merged, &a);
        let mut other = ProfileReport::default();
        other.merge(&a);
        prop_assert_eq!(&other, &a);
    }

    #[test]
    fn random_bytes_never_panic_decode(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = ProfileReport::decode(&bytes);
    }
}

#[test]
fn bucket_bounds_tile_u64() {
    assert_eq!((bucket_lower_bound(0), bucket_upper_bound(0)), (0, 0));
    assert_eq!(bucket_upper_bound(NUM_BUCKETS - 1), u64::MAX);
    for i in 0..NUM_BUCKETS {
        let (lo, hi) = (bucket_lower_bound(i), bucket_upper_bound(i));
        assert!(lo <= hi);
        assert_eq!((bucket_index(lo), bucket_index(hi)), (i, i));
        if i + 1 < NUM_BUCKETS {
            assert_eq!(hi + 1, bucket_lower_bound(i + 1));
        }
    }
    // Powers of two open a bucket; [4, 7] and [512, 1023] are buckets.
    assert_eq!([1, 2, 3, 4, 7, 8].map(bucket_index), [1, 2, 2, 3, 3, 4]);
    assert_eq!((bucket_index(1023), bucket_index(1024)), (10, 11));
}

#[test]
fn quantile_edge_cases() {
    let empty = HistSnapshot::default();
    assert!(empty.is_empty() && empty.is_consistent());
    assert_eq!((empty.quantile(0.5), empty.mean()), (0, 0.0));
    let one = recorded(&[42]);
    assert_eq!((one.p50(), one.p99(), one.mean()), (42, 42, 42.0));
    // All samples in the overflow bucket [2^63, u64::MAX]: interpolating
    // toward its upper bound would report ~1.8e19 for a p99 whose true
    // value is 2^63, so the estimate pins to the bucket's lower bound.
    let mut top = recorded(&[1 << 63; 99]);
    top.record(u64::MAX);
    assert_eq!((top.p50(), top.p99()), (1 << 63, 1 << 63));
    assert_eq!((top.quantile(0.0), top.quantile(1.0)), (1 << 63, u64::MAX));
    // The interpolation rule, pinned: rank 3 of 4 samples in [64, 127]
    // sits (3 - 1) / (4 - 1) of the way through the bucket.
    assert_eq!(recorded(&[64, 70, 80, 127, 5_000]).p50(), 64 + 2 * 63 / 3);
    // `min > max` with one of two claimed samples bucketed: a peer's
    // `MetricsChunk` can carry it, and `clamp(min, max)` panicked on it.
    let mut torn = HistSnapshot::default();
    (torn.count, torn.sum, torn.min, torn.max) = (2, 300, 200, 100);
    torn.buckets[7] = 1;
    assert_eq!(torn.quantile(0.5), 100);
}

/// The one consistency rule and the one sparse form, shape by shape, and
/// the PQPF decoder's use of both.
#[test]
fn inconsistent_histograms_are_rejected() {
    let good = recorded(&[5, 6, 900]);
    assert!(good.is_consistent());
    let lock_report = |wait: &HistSnapshot| {
        let mut r = ProfileReport::default();
        r.locks.push(LockSnapshot {
            name: "x".into(),
            acquisitions: 1,
            contended: 0,
            poisoned: 0,
            wait: wait.clone(),
            hold: HistSnapshot::default(),
        });
        r.encode()
    };
    let bytes = lock_report(&good);
    assert!(ProfileReport::decode(&bytes).is_ok());

    let mut short = good.clone();
    short.count = 2; // Σ buckets ≠ count
    let mut inverted = good.clone();
    (inverted.min, inverted.max) = (900, 5); // min > max
    let ghost = HistSnapshot {
        sum: 1, // empty, with a moment set
        ..HistSnapshot::default()
    };
    for bad in [short, inverted, ghost] {
        assert!(!bad.is_consistent(), "{bad:?}");
        assert!(
            ProfileReport::decode(&lock_report(&bad)).is_err(),
            "{bad:?}"
        );
    }

    // Non-canonical sparse forms, which no encoder writes: the pairs sit
    // at the end of the wait histogram, 9 bytes each, before the empty
    // hold histogram's 33.
    let pairs: Vec<(u8, u64)> = good.occupied().collect();
    assert_eq!(pairs, [(3, 2), (10, 1)]);
    let at = bytes.len() - 4 - 33 - 2 * 9; // stacks count, hold, pairs
    assert_eq!((bytes[at], bytes[at + 9]), (3, 10));
    let from =
        |pairs: &[(u8, u64)]| HistSnapshot::from_occupied(3, 911, 5, 900, pairs.iter().copied());
    assert_eq!(from(&pairs), Ok(good));
    let patched = |edit: &dyn Fn(&mut [u8])| {
        let mut b = bytes.clone();
        edit(&mut b[at..at + 18]);
        ProfileReport::decode(&b)
    };
    // Descending (and repeated) indices.
    assert!(from(&[(10, 1), (3, 2)]).is_err() && from(&[(3, 2), (3, 1)]).is_err());
    assert!(patched(&|p| p.swap(0, 9)).is_err());
    // A zero-count bucket.
    assert!(from(&[(3, 3), (10, 0)]).is_err());
    assert!(patched(&|p| p[10..18].fill(0)).is_err());
    // An index past the last bucket.
    assert!(from(&[(3, 2), (NUM_BUCKETS as u8, 1)]).is_err());
    assert!(patched(&|p| p[9] = NUM_BUCKETS as u8).is_err());
}
