//! Property tests for the observability plane: registry merge
//! associativity (the fleet-rollup invariant), reset-safe deltas, and
//! Chrome trace-event export validity. The histogram's own properties —
//! quantile error bound, merge algebra — are checked once, against the
//! one type, in `crates/prof/tests/properties.rs` (bridged into tier-1 by
//! `tests/crate_props.rs`).

use printqueue::telemetry::registry::Registry;
use printqueue::telemetry::spans::SpanTracer;
use printqueue::telemetry::{to_chrome_trace, SpanEvent};
use proptest::prelude::*;
use serde::Value;

proptest! {
    /// Snapshot merge is associative — so a fleet rollup folded in any
    /// grouping (per-switch, per-rack, all-at-once) yields one answer.
    #[test]
    fn merge_is_associative(
        a in prop::collection::vec((0usize..4, 0u64..1000), 0..12),
        b in prop::collection::vec((0usize..4, 0u64..1000), 0..12),
        c in prop::collection::vec((0usize..4, 0u64..1000), 0..12),
    ) {
        let names = ["n0", "n1", "n2", "n3"];
        let build = |entries: &[(usize, u64)]| {
            let reg = Registry::new();
            for &(i, v) in entries {
                // Exercise all three kinds under distinct namespaces.
                reg.counter(names[i], &[]).add(v);
                reg.gauge(&format!("g_{}", names[i]), &[]).set_max(v);
                reg.histogram(&format!("h_{}", names[i]), &[]).record(v);
            }
            reg.snapshot()
        };
        let (sa, sb, sc) = (build(&a), build(&b), build(&c));

        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);

        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);

        prop_assert_eq!(left, right);
    }

    /// Counter totals across a merge equal the sum of the parts (the
    /// invariant `Fleet::metrics` relies on).
    #[test]
    fn merged_counters_add(
        a in prop::collection::vec(0u64..1000, 1..8),
        b in prop::collection::vec(0u64..1000, 1..8),
    ) {
        let build = |vals: &[u64]| {
            let reg = Registry::new();
            for (i, &v) in vals.iter().enumerate() {
                reg.counter("pkts", &[("port", &i.to_string())]).add(v);
            }
            reg.snapshot()
        };
        let sa = build(&a);
        let sb = build(&b);
        let mut merged = sa.clone();
        merged.merge(&sb);
        let total: u64 = a.iter().sum::<u64>() + b.iter().sum::<u64>();
        prop_assert_eq!(merged.counter_sum("pkts"), total);
    }

    /// Reset-safe rates: no pair of counter readings — monotone or
    /// reset-riddled — over any elapsed interval may yield a negative or
    /// non-finite rate. This is the invariant the watch dashboard and the
    /// alert engine's `rate` predicate lean on.
    #[test]
    fn rates_are_never_negative(
        values in prop::collection::vec(any::<u64>(), 2..50),
        elapsed in prop::collection::vec(0u64..10_000_000_000, 1..8),
    ) {
        use printqueue::telemetry::{counter_delta, rate_per_sec};
        for (w, &e) in values.windows(2).zip(elapsed.iter().cycle()) {
            let r = rate_per_sec(w[0], w[1], e);
            prop_assert!(r >= 0.0 && r.is_finite(), "rate {r} from {w:?} over {e} ns");
        }
        // On monotone sequences the delta is the plain difference, and
        // the rate still never dips below zero.
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            prop_assert_eq!(counter_delta(w[0], w[1]), w[1] - w[0]);
            prop_assert!(rate_per_sec(w[0], w[1], 1_000_000_000) >= 0.0);
        }
    }

    /// Delta-then-merge equals merge-then-delta on monotone (no-reset)
    /// inputs: summing per-shard activity gives the same answer as
    /// diffing the fleet rollups. Registries only ever add/record, so
    /// phased snapshots of live registries are monotone by construction.
    #[test]
    fn delta_commutes_with_merge_on_monotone_inputs(
        a1 in prop::collection::vec((0usize..4, 0u64..1000), 0..12),
        a2 in prop::collection::vec((0usize..4, 0u64..1000), 0..12),
        b1 in prop::collection::vec((0usize..4, 0u64..1000), 0..12),
        b2 in prop::collection::vec((0usize..4, 0u64..1000), 0..12),
    ) {
        use printqueue::telemetry::delta;
        let phased = |p1: &[(usize, u64)], p2: &[(usize, u64)]| {
            let names = ["m0", "m1", "m2", "m3"];
            let reg = Registry::new();
            let record = |entries: &[(usize, u64)]| {
                for &(i, v) in entries {
                    reg.counter(names[i], &[]).add(v);
                    reg.gauge(&format!("g_{}", names[i]), &[]).set_max(v);
                    reg.histogram(&format!("h_{}", names[i]), &[]).record(v);
                }
            };
            record(p1);
            let prev = reg.snapshot();
            record(p2);
            (prev, reg.snapshot())
        };
        let (ap, an) = phased(&a1, &a2);
        let (bp, bn) = phased(&b1, &b2);

        // delta then merge...
        let mut left = delta(&ap, &an);
        left.merge(&delta(&bp, &bn));
        // ...vs merge then delta.
        let mut mp = ap.clone();
        mp.merge(&bp);
        let mut mn = an.clone();
        mn.merge(&bn);
        let right = delta(&mp, &mn);

        prop_assert_eq!(left, right);
    }

    /// Chrome trace export is valid JSON, every event carries the
    /// required keys, and start timestamps are monotone (sorted output),
    /// regardless of the order spans were recorded in.
    #[test]
    fn chrome_trace_is_valid_and_monotone(
        raw in prop::collection::vec((0u64..1_000_000, 0u64..1_000, 0u32..8), 0..64),
    ) {
        let tracer = SpanTracer::default();
        tracer.set_enabled(true);
        for &(start, len, track) in &raw {
            tracer.record("span", start, start + len, track);
        }
        let spans: Vec<SpanEvent> = tracer.snapshot();
        let json = to_chrome_trace(&spans);
        let value: Value = serde_json::from_str(&json).expect("export must be valid JSON");
        let Value::Array(events) = value else {
            return Err(TestCaseError::fail("top level must be an array"));
        };
        prop_assert_eq!(events.len(), raw.len());
        let mut last_ts = f64::NEG_INFINITY;
        for ev in &events {
            let fields = ev.as_object().expect("event must be an object");
            for key in ["name", "cat", "ph", "ts", "dur", "pid", "tid"] {
                prop_assert!(
                    fields.iter().any(|(k, _)| k == key),
                    "missing key {key}"
                );
            }
            let ts = match fields.iter().find(|(k, _)| k == "ts").map(|(_, v)| v) {
                Some(Value::F64(x)) => *x,
                Some(Value::U64(x)) => *x as f64,
                other => return Err(TestCaseError::fail(format!("bad ts: {other:?}"))),
            };
            prop_assert!(ts >= last_ts, "timestamps must be monotone");
            last_ts = ts;
        }
    }
}

#[test]
fn empty_trace_exports_as_empty_array() {
    let json = to_chrome_trace(&[]);
    let value: Value = serde_json::from_str(&json).unwrap();
    assert_eq!(value, Value::Array(Vec::new()));
}
