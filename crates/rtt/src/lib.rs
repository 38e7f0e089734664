//! # pq-rtt — passive RTT diagnosis in the data plane
//!
//! PrintQueue attributes latency to *queues*; this crate attributes it to
//! *paths*. Two measurement engines run inside the switch pipeline next to
//! the time-window registers:
//!
//! * **Per-flow RTT histograms** (the P4TG RTT-monitoring enhancement):
//!   hash-indexed flow slots pair SYN/ACK and data/ACK timestamps by
//!   sequence match and accumulate log-scale histograms under a fixed
//!   memory budget, with collisions and evictions accounted rather than
//!   hidden.
//! * **QUIC spin-bit edge detection** (Kunze et al., Tofino): a passive
//!   observer times the spin-bit flips of QUIC-like flows, rejecting
//!   reordered packets by packet number so samples are never negative.
//!
//! Everything the engines measure leaves the data plane as an
//! [`RttReport`] — canonical, byte-encodable, and associatively mergeable,
//! so archived segments, live tables, and routed shards all compose into
//! one answer. The [`quic`] module generates the ground-truth workload
//! (configurable RTT, jitter, loss, reordering) that the
//! `ext_rtt_precision` experiment grades the engines against.

pub mod hook;
pub mod obs;
pub mod quic;
pub mod report;
pub mod table;

pub use hook::RttHook;
pub use obs::{Dir, ObsKind, RttObs};
pub use quic::{FlowTruth, RttGrade, RttTrace, RttWorkload};
pub use report::{CodecError, FlowRtt, RttReport, MERGE_SAMPLE_CAP, REPORT_VERSION};
pub use table::{FlowRttTable, RttSample, TableConfig, TableCounters};

/// A log2 histogram of RTT samples in nanoseconds: the workspace's one
/// histogram (DESIGN.md "Histograms"). Exact moments make the per-flow
/// mean (`sum / count`, what the precision experiment grades) exact;
/// buckets answer quantiles within one octave — P4TG's trade on hardware,
/// where per-flow sample lists are unaffordable.
pub type RttHist = pq_telemetry::HistSnapshot;

/// Largest RTT sample a table records (longer ones are clamped to it), so
/// the histogram's last bucket, `[2^63, u64::MAX]`, stays empty: the
/// version-1 report codec, written for 64 buckets, cannot carry it.
pub const MAX_RTT_NS: u64 = (1 << 63) - 1;

/// The `.pqa` segment kind RTT report bodies are spilled under.
pub const RTT_SEGMENT_KIND: u64 = 1;

#[cfg(test)]
mod proptests {
    use crate::obs::{Dir, ObsKind, RttObs};
    use crate::report::{FlowRtt, RttReport};
    use crate::table::{FlowRttTable, RttSample, TableConfig};
    use crate::RttHist;
    use proptest::prelude::*;

    fn arb_hist() -> impl Strategy<Value = RttHist> {
        prop::collection::vec(0u64..3_000_000, 1..40).prop_map(|vs| {
            let mut h = RttHist::default();
            for v in vs {
                h.record(v);
            }
            h
        })
    }

    fn arb_report(port: u16) -> impl Strategy<Value = RttReport> {
        (
            prop::collection::vec((0u32..12, arb_hist()), 0..6),
            prop::collection::vec((0u64..1_000_000, 0u32..12, 0u64..3_000_000), 0..30),
            0u64..4,
            0u64..4,
        )
            .prop_map(move |(flows, raw_samples, collisions, evictions)| {
                let mut agg = RttHist::default();
                // Canonicalize: sorted by flow id, duplicates merged.
                let mut sorted = flows;
                sorted.sort_by_key(|(flow, _)| *flow);
                let mut flows: Vec<FlowRtt> = Vec::new();
                for (flow, hist) in sorted {
                    agg.merge(&hist);
                    match flows.last_mut() {
                        Some(last) if last.flow == flow => last.hist.merge(&hist),
                        _ => flows.push(FlowRtt { flow, hist }),
                    }
                }
                let mut samples: Vec<RttSample> = raw_samples
                    .into_iter()
                    .map(|(t_ns, flow, rtt_ns)| RttSample { t_ns, flow, rtt_ns })
                    .collect();
                samples.sort_unstable();
                let mut r = RttReport::empty(port);
                r.min_t = 0;
                r.max_t = 1_000_000;
                r.agg = agg;
                r.flows = flows;
                r.counters.collisions = collisions;
                r.counters.evictions = evictions;
                r.samples = samples;
                r
            })
    }

    proptest! {
        /// Merge is commutative over canonical reports.
        #[test]
        fn merge_is_commutative(a in arb_report(4), b in arb_report(4)) {
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            prop_assert_eq!(&ab, &ba);
            // …and bit-identical once encoded.
            prop_assert_eq!(ab.encode(), ba.encode());
        }

        /// Merge is associative over canonical reports.
        #[test]
        fn merge_is_associative(a in arb_report(4), b in arb_report(4), c in arb_report(4)) {
            let mut left = a.clone();
            left.merge(&b);
            left.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut right = a.clone();
            right.merge(&bc);
            prop_assert_eq!(&left, &right);
            prop_assert_eq!(left.encode(), right.encode());
        }

        /// Any canonical report survives an encode/decode round trip
        /// bit-identically.
        #[test]
        fn report_codec_round_trips(r in arb_report(2)) {
            let bytes = r.encode();
            let back = RttReport::decode(&bytes).unwrap();
            prop_assert_eq!(&back, &r);
            prop_assert_eq!(back.encode(), bytes);
        }

        /// Spin-bit edge detection never emits a negative (wrapped) RTT
        /// sample, no matter how packet numbers and spin values are
        /// reordered within a bounded window.
        #[test]
        fn spin_samples_never_negative(
            // (pkt_num, spin) pairs delivered with bounded displacement.
            pkts in prop::collection::vec((0u64..64, any::<bool>()), 1..200),
            base_gap in 1_000u64..100_000,
        ) {
            let mut t = FlowRttTable::new(TableConfig::default());
            for (i, (pkt_num, spin)) in pkts.iter().enumerate() {
                // Monotone observation clock; arbitrary pkt_num order
                // models arbitrary reordering severity.
                let now = i as u64 * base_gap;
                t.observe(
                    &RttObs { flow: 1, dir: Dir::ToServer, kind: ObsKind::Spin { pkt_num: *pkt_num, spin: *spin } },
                    now,
                );
            }
            // All samples must be plausible forward durations: bounded by
            // the total observed time span. A wrapped negative would be
            // astronomically larger.
            let span = pkts.len() as u64 * base_gap;
            for s in t.samples() {
                prop_assert!(s.rtt_ns <= span, "sample {} exceeds span {}", s.rtt_ns, span);
            }
        }

        /// Sequence-match samples are exactly the send→ack gap even under
        /// interleaving across flows.
        #[test]
        fn seq_samples_match_gaps(
            gaps in prop::collection::vec((0u32..8, 1_000u64..500_000), 1..50),
        ) {
            let mut t = FlowRttTable::new(TableConfig::default());
            let mut now = 0u64;
            let mut expected: Vec<(u32, u64)> = Vec::new();
            for (i, (flow, gap)) in gaps.iter().enumerate() {
                let seq = i as u64 + 1;
                t.observe(
                    &RttObs { flow: *flow, dir: Dir::ToServer, kind: ObsKind::Data { expect_ack: seq } },
                    now,
                );
                t.observe(
                    &RttObs { flow: *flow, dir: Dir::ToClient, kind: ObsKind::Ack { ack: seq } },
                    now + gap,
                );
                expected.push((*flow, *gap));
                now += 600_000; // past any gap, so pendings never collide
            }
            let got: Vec<(u32, u64)> =
                t.samples().iter().map(|s| (s.flow, s.rtt_ns)).collect();
            prop_assert_eq!(got, expected);
        }
    }
}
