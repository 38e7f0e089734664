//! Mergeable, wire-encodable RTT reports.
//!
//! A report is the unit that leaves the data plane: everything one port's
//! RTT table measured over `[min_t, max_t]` — per-flow histograms, the
//! port-wide aggregate, degradation counters, and a bounded list of
//! timestamped samples for standing queries.
//!
//! **Canonical form.** Flows are sorted by id and unique; samples are
//! sorted by `(t_ns, flow, rtt_ns)` and clipped to the *first*
//! [`MERGE_SAMPLE_CAP`] in that order. Keeping the smallest-`cap` elements
//! of a sorted union is associative and commutative (an element beyond the
//! cap of a sub-merge is beyond the cap of any super-merge), which is what
//! makes routed scatter-gather answers bit-identical to a single-daemon
//! oracle regardless of merge order. Clipping sets a `clipped` flag that
//! ORs across merges, so degradation is never silent.
//!
//! The byte layout here is used both as the `.pqa` RTT-segment body
//! (segment kind 1) and inside serve's wire frames; its varints, cursor
//! and count guard are the workspace's one codec (`pq_prof::codec`).

use crate::table::{FlowRttTable, RttSample, TableCounters};
use crate::RttHist;
use pq_packet::Nanos;
use pq_telemetry::codec::{self, put_varint};

/// Decode failure with a static reason: the shared codec's error.
pub use pq_telemetry::codec::Malformed as CodecError;

/// Samples a report retains after merge; beyond this, clipped (flagged).
pub const MERGE_SAMPLE_CAP: usize = 65_536;

/// Codec version for encoded reports.
pub const REPORT_VERSION: u8 = 1;

/// Hard decode ceilings so a hostile body cannot force huge allocations.
const MAX_FLOWS_DECODE: u64 = 1 << 20;
const MAX_SAMPLES_DECODE: u64 = MERGE_SAMPLE_CAP as u64;

/// Buckets a version-1 report carries: samples stop at `MAX_RTT_NS`, so
/// a body naming the shared histogram's last bucket is malformed.
const REPORT_BUCKETS: usize = pq_telemetry::NUM_BUCKETS - 1;

/// One flow's merged RTT histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlowRtt {
    /// Interned flow id.
    pub flow: u32,
    /// The flow's RTT histogram.
    pub hist: RttHist,
}

/// Everything one port's RTT table measured over a time span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RttReport {
    /// Egress port the measurements belong to.
    pub port: u16,
    /// Earliest sim time covered.
    pub min_t: Nanos,
    /// Latest sim time covered.
    pub max_t: Nanos,
    /// Port-wide histogram over all samples.
    pub agg: RttHist,
    /// Per-flow histograms, sorted by flow id, unique.
    pub flows: Vec<FlowRtt>,
    /// Degradation counters from the data-plane table.
    pub counters: TableCounters,
    /// True when the sample list was clipped by a merge.
    pub clipped: bool,
    /// Timestamped samples, sorted by `(t_ns, flow, rtt_ns)`.
    pub samples: Vec<RttSample>,
}

impl RttReport {
    /// An empty report for `port`.
    pub fn empty(port: u16) -> RttReport {
        RttReport {
            port,
            min_t: Nanos::MAX,
            max_t: 0,
            agg: RttHist::default(),
            flows: Vec::new(),
            counters: TableCounters::default(),
            clipped: false,
            samples: Vec::new(),
        }
    }

    /// Snapshot a table into a report covering `[min_t, max_t]`.
    pub fn from_table(port: u16, min_t: Nanos, max_t: Nanos, table: &FlowRttTable) -> RttReport {
        let mut agg = RttHist::default();
        let flows: Vec<FlowRtt> = table
            .flow_hists()
            .into_iter()
            .map(|(flow, hist)| {
                agg.merge(&hist);
                FlowRtt { flow, hist }
            })
            .collect();
        let mut samples = table.samples().to_vec();
        samples.sort_unstable();
        let clipped = samples.len() > MERGE_SAMPLE_CAP;
        samples.truncate(MERGE_SAMPLE_CAP);
        RttReport {
            port,
            min_t,
            max_t,
            agg,
            flows,
            counters: *table.counters(),
            clipped,
            samples,
        }
    }

    /// Total samples across the report.
    pub fn sample_count(&self) -> u64 {
        self.agg.count
    }

    /// True when any bounded-memory loss occurred anywhere in the lineage.
    pub fn degraded(&self) -> bool {
        self.counters.degraded() || self.clipped
    }

    /// Keep only the `max` slowest flows (by mean RTT, ties broken by
    /// flow id ascending), returning how many were dropped. `max == 0`
    /// keeps everything. The survivors stay sorted by flow id, so the
    /// result is still canonical; the port-wide aggregate and sample
    /// list are untouched — truncation caps the per-flow listing, not
    /// the measurement. This is a terminal, presentation-layer step:
    /// whoever answers the client applies it *after* every merge, which
    /// is what keeps routed scatter-gather answers bit-identical to a
    /// single daemon's.
    pub fn truncate_flows(&mut self, max: usize) -> usize {
        if max == 0 || self.flows.len() <= max {
            return 0;
        }
        let dropped = self.flows.len() - max;
        // Exact mean comparison via cross-multiplication — no float
        // rounding, so the selection is deterministic everywhere.
        self.flows.sort_by(|a, b| {
            let lhs = u128::from(b.hist.sum) * u128::from(a.hist.count.max(1));
            let rhs = u128::from(a.hist.sum) * u128::from(b.hist.count.max(1));
            lhs.cmp(&rhs).then(a.flow.cmp(&b.flow))
        });
        self.flows.truncate(max);
        self.flows.sort_by_key(|f| f.flow);
        dropped
    }

    /// Fold `other` in. Associative and commutative over canonical-form
    /// reports; the port must match.
    pub fn merge(&mut self, other: &RttReport) {
        debug_assert_eq!(self.port, other.port, "merging reports across ports");
        self.min_t = self.min_t.min(other.min_t);
        self.max_t = self.max_t.max(other.max_t);
        self.agg.merge(&other.agg);
        // Merge-join the sorted flow lists.
        let mut merged = Vec::with_capacity(self.flows.len() + other.flows.len());
        let (mut i, mut j) = (0, 0);
        while i < self.flows.len() || j < other.flows.len() {
            let take_self = match (self.flows.get(i), other.flows.get(j)) {
                (Some(a), Some(b)) => {
                    if a.flow == b.flow {
                        let mut hist = a.hist.clone();
                        hist.merge(&b.hist);
                        merged.push(FlowRtt { flow: a.flow, hist });
                        i += 1;
                        j += 1;
                        continue;
                    }
                    a.flow < b.flow
                }
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if take_self {
                merged.push(self.flows[i].clone());
                i += 1;
            } else {
                merged.push(other.flows[j].clone());
                j += 1;
            }
        }
        self.flows = merged;
        self.counters.seq_samples += other.counters.seq_samples;
        self.counters.spin_edges += other.counters.spin_edges;
        self.counters.collisions += other.counters.collisions;
        self.counters.evictions += other.counters.evictions;
        self.counters.sample_drops += other.counters.sample_drops;
        self.clipped |= other.clipped;
        let mut samples = Vec::with_capacity(self.samples.len() + other.samples.len());
        samples.extend_from_slice(&self.samples);
        samples.extend_from_slice(&other.samples);
        samples.sort_unstable();
        if samples.len() > MERGE_SAMPLE_CAP {
            samples.truncate(MERGE_SAMPLE_CAP);
            self.clipped = true;
        }
        self.samples = samples;
    }

    /// Encode to the canonical byte form (segment body / wire payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.flows.len() * 32 + self.samples.len() * 6);
        out.push(REPORT_VERSION);
        put_varint(&mut out, self.port as u64);
        put_varint(&mut out, self.min_t);
        put_varint(&mut out, self.max_t);
        put_varint(&mut out, self.counters.seq_samples);
        put_varint(&mut out, self.counters.spin_edges);
        put_varint(&mut out, self.counters.collisions);
        put_varint(&mut out, self.counters.evictions);
        put_varint(&mut out, self.counters.sample_drops);
        out.push(self.clipped as u8);
        put_hist(&mut out, &self.agg);
        put_varint(&mut out, self.flows.len() as u64);
        for f in &self.flows {
            put_varint(&mut out, f.flow as u64);
            put_hist(&mut out, &f.hist);
        }
        put_varint(&mut out, self.samples.len() as u64);
        let mut prev_t = 0u64;
        for s in &self.samples {
            put_varint(&mut out, s.t_ns - prev_t);
            put_varint(&mut out, s.flow as u64);
            put_varint(&mut out, s.rtt_ns);
            prev_t = s.t_ns;
        }
        out
    }

    /// Decode a canonical byte form, rejecting malformed or hostile input.
    pub fn decode(bytes: &[u8]) -> Result<RttReport, CodecError> {
        let cur = &mut &bytes[..];
        if codec::u8(cur)? != REPORT_VERSION {
            return Err(CodecError("unsupported rtt report version"));
        }
        let port =
            u16::try_from(codec::varint(cur)?).map_err(|_| CodecError("port out of range"))?;
        let min_t = codec::varint(cur)?;
        let max_t = codec::varint(cur)?;
        let counters = TableCounters {
            seq_samples: codec::varint(cur)?,
            spin_edges: codec::varint(cur)?,
            collisions: codec::varint(cur)?,
            evictions: codec::varint(cur)?,
            sample_drops: codec::varint(cur)?,
        };
        let flags = codec::u8(cur)?;
        if flags > 1 {
            return Err(CodecError("unknown rtt report flags"));
        }
        let agg = get_hist(cur)?;
        // A flow is at least its id and an empty histogram's zero count.
        let n_flows = count(cur, MAX_FLOWS_DECODE, 2)?;
        let mut flows: Vec<FlowRtt> = Vec::with_capacity(n_flows);
        for _ in 0..n_flows {
            let flow = flow_id(cur, "flow id out of range")?;
            if flows.last().is_some_and(|p| flow <= p.flow) {
                return Err(CodecError("rtt flows not sorted unique"));
            }
            flows.push(FlowRtt {
                flow,
                hist: get_hist(cur)?,
            });
        }
        // A sample is at least three one-byte varints.
        let n_samples = count(cur, MAX_SAMPLES_DECODE, 3)?;
        let mut samples: Vec<RttSample> = Vec::with_capacity(n_samples);
        let mut prev_t = 0u64;
        for _ in 0..n_samples {
            let t_ns = prev_t
                .checked_add(codec::varint(cur)?)
                .ok_or(CodecError("sample time overflow"))?;
            let sample = RttSample {
                t_ns,
                flow: flow_id(cur, "sample flow id out of range")?,
                rtt_ns: codec::varint(cur)?,
            };
            // Delta-coded times only rise; at equal times the order of
            // `(flow, rtt_ns)` is the canonical form's to keep.
            if samples.last().is_some_and(|p| *p > sample) {
                return Err(CodecError("rtt samples not in canonical order"));
            }
            samples.push(sample);
            prev_t = t_ns;
        }
        if !cur.is_empty() {
            return Err(CodecError("trailing bytes after rtt report"));
        }
        Ok(RttReport {
            port,
            min_t,
            max_t,
            agg,
            flows,
            counters,
            clipped: flags == 1,
            samples,
        })
    }
}

/// A varint element count, admitted by the shared guard (clamped first,
/// so a count past the cap stays past it on any word size).
fn count(cur: &mut &[u8], cap: u64, min_elem: usize) -> Result<usize, CodecError> {
    let n = codec::varint(cur)?.min(cap + 1) as usize;
    codec::count(cur, n, cap as usize, min_elem)
}

fn flow_id(cur: &mut &[u8], out_of_range: &'static str) -> Result<u32, CodecError> {
    u32::try_from(codec::varint(cur)?).map_err(|_| CodecError(out_of_range))
}

/// Encode a histogram: moments, then only the non-empty buckets.
fn put_hist(out: &mut Vec<u8>, h: &RttHist) {
    put_varint(out, h.count);
    if h.count == 0 {
        return;
    }
    for v in [h.sum, h.min, h.max] {
        put_varint(out, v);
    }
    put_varint(out, h.occupied().count() as u64);
    for (idx, n) in h.occupied() {
        out.push(idx);
        put_varint(out, n);
    }
}

/// Decode a histogram, validating internal consistency.
fn get_hist(cur: &mut &[u8]) -> Result<RttHist, CodecError> {
    let count = codec::varint(cur)?;
    if count == 0 {
        return Ok(RttHist::default());
    }
    let (sum, min, max) = (
        codec::varint(cur)?,
        codec::varint(cur)?,
        codec::varint(cur)?,
    );
    let nonzero = codec::len(cur, REPORT_BUCKETS)?;
    let mut pairs = Vec::with_capacity(nonzero);
    for _ in 0..nonzero {
        pairs.push((codec::u8(cur)?, codec::varint(cur)?));
    }
    let h = RttHist::from_occupied(count, sum, min, max, pairs).map_err(CodecError)?;
    if h.buckets[REPORT_BUCKETS] != 0 || !h.is_consistent() {
        return Err(CodecError("hist inconsistent or past the rtt range"));
    }
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{Dir, ObsKind, RttObs};
    use crate::table::{FlowRttTable, TableConfig};
    use crate::MAX_RTT_NS;

    fn sample_report(port: u16, seed: u64) -> RttReport {
        let mut t = FlowRttTable::new(TableConfig::default());
        for i in 0..20u64 {
            let flow = ((seed + i) % 5) as u32;
            let send = seed * 1000 + i * 100;
            t.observe(
                &RttObs {
                    flow,
                    dir: Dir::ToServer,
                    kind: ObsKind::Data { expect_ack: i },
                },
                send,
            );
            t.observe(
                &RttObs {
                    flow,
                    dir: Dir::ToClient,
                    kind: ObsKind::Ack { ack: i },
                },
                send + 50 + seed * 7 + i,
            );
        }
        RttReport::from_table(port, seed * 1000, seed * 1000 + 3000, &t)
    }

    #[test]
    fn encode_decode_round_trips() {
        let r = sample_report(3, 2);
        let bytes = r.encode();
        let back = RttReport::decode(&bytes).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn empty_report_round_trips() {
        let r = RttReport::empty(9);
        let back = RttReport::decode(&r.encode()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn decode_rejects_truncation_at_every_cut() {
        let bytes = sample_report(1, 5).encode();
        for cut in 0..bytes.len() {
            assert!(
                RttReport::decode(&bytes[..cut]).is_err(),
                "decode accepted truncation at {cut}"
            );
        }
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let mut bytes = sample_report(1, 5).encode();
        bytes.push(0);
        assert!(RttReport::decode(&bytes).is_err());
    }

    #[test]
    fn decode_rejects_inflated_counts() {
        let r = sample_report(1, 5);
        let mut bytes = Vec::new();
        bytes.push(REPORT_VERSION);
        put_varint(&mut bytes, r.port as u64);
        put_varint(&mut bytes, r.min_t);
        put_varint(&mut bytes, r.max_t);
        for _ in 0..5 {
            put_varint(&mut bytes, 0);
        }
        bytes.push(0);
        put_hist(&mut bytes, &r.agg);
        put_varint(&mut bytes, MAX_FLOWS_DECODE + 1); // hostile flow count
        assert!(RttReport::decode(&bytes).is_err());
    }

    /// At equal `t_ns` the delta coding cannot order samples, so the
    /// decoder does: a body listing `(flow, rtt_ns)` out of order would
    /// be served as decoded by one daemon and re-sorted by a routed merge.
    #[test]
    fn decode_rejects_samples_out_of_canonical_order() {
        let sample = |t_ns, flow, rtt_ns| RttSample { t_ns, flow, rtt_ns };
        let mut r = RttReport::empty(2);
        r.samples = vec![sample(5, 1, 10), sample(9, 4, 30), sample(9, 4, 30)];
        assert_eq!(RttReport::decode(&r.encode()).unwrap(), r);
        for (what, samples) in [
            ("flows descending", [sample(9, 4, 30), sample(9, 3, 30)]),
            ("rtts descending", [sample(9, 4, 30), sample(9, 4, 20)]),
        ] {
            r.samples = samples.to_vec();
            assert_eq!(
                RttReport::decode(&r.encode()),
                Err(CodecError("rtt samples not in canonical order")),
                "{what}"
            );
        }
    }

    /// The shared sparse form and consistency rule, through this codec:
    /// each shape no encoder writes is refused, alone in an otherwise
    /// well-formed report.
    #[test]
    fn decode_rejects_inconsistent_histograms() {
        let report = |agg: &[u64]| {
            let mut bytes = vec![REPORT_VERSION, 1, 0, 0, 0, 0, 0, 0, 0, 0];
            agg.iter().for_each(|&v| put_varint(&mut bytes, v));
            bytes.extend([0, 0]); // no flows, no samples
            RttReport::decode(&bytes)
        };
        // count, sum, min, max, occupied, then (index, count) pairs.
        let good = [3, 911, 5, 900, 2, 3, 2, 10, 1];
        assert_eq!(report(&good).unwrap().agg.buckets[10], 1);
        for (what, bad) in [
            ("bucket sum != count", [4, 911, 5, 900, 2, 3, 2, 10, 1]),
            ("min > max", [3, 911, 900, 5, 2, 3, 2, 10, 1]),
            ("descending indices", [3, 911, 5, 900, 2, 10, 1, 3, 2]),
            ("repeated index", [3, 911, 5, 900, 2, 3, 2, 3, 1]),
            ("zero-count bucket", [3, 911, 5, 900, 2, 3, 3, 10, 0]),
            (
                "bucket past the rtt range",
                [3, 911, 5, 900, 2, 3, 2, 64, 1],
            ),
            (
                "bucket past the histogram",
                [3, 911, 5, 900, 2, 3, 2, 65, 1],
            ),
        ] {
            assert!(report(&bad).is_err(), "decode accepted {what}");
        }
    }

    /// No sample reaches the shared histogram's last bucket, which this
    /// codec refuses, so every report a table produces decodes.
    #[test]
    fn absurd_samples_are_clamped_into_the_codec_s_range() {
        let mut t = FlowRttTable::new(TableConfig::default());
        let obs = |dir, kind| RttObs { flow: 1, dir, kind };
        t.observe(&obs(Dir::ToServer, ObsKind::Data { expect_ack: 1 }), 0);
        t.observe(&obs(Dir::ToClient, ObsKind::Ack { ack: 1 }), u64::MAX);
        let r = RttReport::from_table(0, 0, u64::MAX, &t);
        assert_eq!((r.agg.max, r.samples[0].rtt_ns), (MAX_RTT_NS, MAX_RTT_NS));
        assert_eq!(RttReport::decode(&r.encode()).unwrap(), r);
    }

    #[test]
    fn merge_combines_flows_and_counters() {
        let mut a = sample_report(2, 1);
        let b = sample_report(2, 9);
        let n = a.sample_count() + b.sample_count();
        a.merge(&b);
        assert_eq!(a.sample_count(), n);
        assert!(a.flows.windows(2).all(|w| w[0].flow < w[1].flow));
        assert!(a.samples.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(a.min_t, 1000);
        assert_eq!(a.max_t, 12_000);
    }

    #[test]
    fn truncate_keeps_slowest_flows_in_canonical_order() {
        let mut r = RttReport::empty(7);
        // Means: flow 1 → 100, flow 2 → 900, flow 3 → 500, flow 4 → 900
        // (tie with flow 2, broken toward the lower flow id).
        for (flow, rtts) in [
            (1u32, vec![100u64]),
            (2, vec![800, 1000]),
            (3, vec![500]),
            (4, vec![900]),
        ] {
            let mut hist = RttHist::default();
            for v in rtts {
                hist.record(v);
            }
            r.flows.push(FlowRtt { flow, hist });
        }
        assert_eq!(r.clone().truncate_flows(0), 0);
        assert_eq!(r.clone().truncate_flows(4), 0);
        let dropped = r.truncate_flows(2);
        assert_eq!(dropped, 2);
        assert_eq!(
            r.flows.iter().map(|f| f.flow).collect::<Vec<_>>(),
            vec![2, 4]
        );
    }

    #[test]
    fn merge_identity_is_empty() {
        let mut a = sample_report(4, 3);
        let before = a.clone();
        a.merge(&RttReport::empty(4));
        assert_eq!(a, before);
    }
}
