//! Ground-truth culprit taxonomy (§2 of the paper), computed exactly from
//! telemetry records.
//!
//! For a victim packet enqueued at `t1` and dequeued at `t2`:
//!
//! * **direct culprits** — packets dequeued during `[t1, t2]`: the switch
//!   chose to send them instead of the victim (scheduling-policy agnostic);
//! * **indirect culprits** — packets dequeued before `t1` while the queue
//!   was continuously non-empty back from `t1`: the rest of the congestion
//!   regime;
//! * **original culprits** — the subset of packets whose arrival raised the
//!   queue, level by level, to its height at `t1` and whose contribution
//!   was never drained away — the monotone chain the queue monitor tracks.
//!
//! These are the evaluation's reference values ("we examine the logged
//! telemetry headers to compute the ground truth", §7.1).

use pq_packet::{FlowId, Nanos};
use pq_switch::TelemetryRecord;
use serde::Serialize;
use std::collections::HashMap;

/// Per-flow ground-truth packet counts for one victim's congestion regime.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct CulpritReport {
    /// Packets dequeued within the victim's queueing interval, per flow.
    pub direct: HashMap<FlowId, u64>,
    /// Packets of the congestion regime dequeued before the victim
    /// enqueued, per flow.
    pub indirect: HashMap<FlowId, u64>,
    /// The original causes of the congestion, per flow.
    pub original: HashMap<FlowId, u64>,
    /// When the congestion regime began (first instant the queue became
    /// non-empty before the victim's enqueue).
    pub regime_start: Nanos,
}

impl CulpritReport {
    /// Total direct culprit packets.
    pub fn direct_total(&self) -> u64 {
        self.direct.values().sum()
    }

    /// Total indirect culprit packets.
    pub fn indirect_total(&self) -> u64 {
        self.indirect.values().sum()
    }

    /// Total original-cause packets.
    pub fn original_total(&self) -> u64 {
        self.original.values().sum()
    }
}

/// Ground-truth oracle for one egress port, built from its telemetry
/// records (the simulator's stand-in for the paper's DPDK receiver logs).
#[derive(Debug)]
pub struct GroundTruth {
    /// Records sorted by dequeue timestamp.
    by_deq: Vec<TelemetryRecord>,
    /// Queue events sorted by time: (time, signed cell delta, record index
    /// into `by_deq`, is_enqueue).
    events: Vec<QueueEventRec>,
    /// Buffer cell size, to convert packet lengths to cells.
    cell_bytes: u32,
}

#[derive(Debug, Clone, Copy)]
struct QueueEventRec {
    at: Nanos,
    /// +cells on enqueue, −cells on dequeue.
    delta: i64,
    /// Index into `by_deq`.
    record: usize,
    is_enqueue: bool,
}

impl GroundTruth {
    /// Build the oracle from one port's telemetry records.
    pub fn new(records: &[TelemetryRecord], cell_bytes: u32) -> GroundTruth {
        let mut by_deq: Vec<TelemetryRecord> = records.to_vec();
        by_deq.sort_by_key(|r| (r.deq_timestamp(), r.seqno));
        let mut events = Vec::with_capacity(by_deq.len() * 2);
        for (i, r) in by_deq.iter().enumerate() {
            let cells = i64::from(r.len.div_ceil(cell_bytes));
            events.push(QueueEventRec {
                at: r.meta.enq_timestamp,
                delta: cells,
                record: i,
                is_enqueue: true,
            });
            events.push(QueueEventRec {
                at: r.deq_timestamp(),
                delta: -cells,
                record: i,
                is_enqueue: false,
            });
        }
        // Ordering at identical instants mirrors the hardware: departures
        // of *earlier* packets free their slots before a new arrival is
        // admitted — but a packet that sails through an idle port both
        // enqueues and dequeues at the same nanosecond, and its own
        // enqueue must come first. Rank: dequeues of earlier enqueues (0),
        // then enqueues (1), then zero-delay dequeues (2).
        events.sort_by_key(|e| {
            let rank = if e.is_enqueue {
                1u8
            } else if by_deq[e.record].meta.enq_timestamp < e.at {
                0
            } else {
                2
            };
            (e.at, rank, e.record)
        });
        GroundTruth {
            by_deq,
            events,
            cell_bytes,
        }
    }

    /// Records dequeued in `[from, to]` (the direct-culprit window),
    /// excluding the victim itself by sequence number.
    pub fn direct_culprits(
        &self,
        from: Nanos,
        to: Nanos,
        victim_seqno: u64,
    ) -> HashMap<FlowId, u64> {
        let mut counts = HashMap::new();
        for r in &self.by_deq {
            let d = r.deq_timestamp();
            if d > to {
                break;
            }
            if d >= from && r.seqno != victim_seqno {
                *counts.entry(r.flow).or_insert(0) += 1;
            }
        }
        counts
    }

    /// The start of the congestion regime containing time `at`: the latest
    /// instant ≤ `at` when the queue was empty (0 if it never was).
    pub fn regime_start(&self, at: Nanos) -> Nanos {
        let mut depth: i64 = 0;
        let mut start: Nanos = 0;
        for e in &self.events {
            if e.at > at {
                break;
            }
            depth += e.delta;
            debug_assert!(depth >= 0, "ground-truth depth went negative");
            if depth == 0 {
                start = e.at;
            }
        }
        start
    }

    /// Full per-victim report: direct, indirect, and original culprits.
    ///
    /// `victim` must be one of the port's records.
    pub fn report(&self, victim: &TelemetryRecord) -> CulpritReport {
        let t1 = victim.meta.enq_timestamp;
        let t2 = victim.deq_timestamp();
        let regime_start = self.regime_start(t1);
        let direct = self.direct_culprits(t1, t2, victim.seqno);

        // Indirect (§2): dequeue time t2' before the victim's enqueue t1
        // with the queue non-empty over [t2', t1]. A packet dequeuing at
        // the exact instant the queue last hit empty is *before* the
        // regime, hence strictly-greater — unless the regime reaches back
        // to time zero (the queue was never empty).
        let mut indirect = HashMap::new();
        for r in &self.by_deq {
            let d = r.deq_timestamp();
            if d >= t1 {
                break;
            }
            let in_regime = d > regime_start || regime_start == 0;
            if in_regime && r.seqno != victim.seqno {
                *indirect.entry(r.flow).or_insert(0) += 1;
            }
        }

        // Original: replay events up to t1 maintaining the monotone chain
        // of arrivals that raised the queue to its level at t1. This is the
        // idealized (event-granular) version of what the queue monitor
        // computes: a stack of (level-after-enqueue, record); dequeues pop
        // every entry whose level exceeds the new depth.
        let mut stack: Vec<(i64, usize)> = Vec::new();
        let mut depth: i64 = 0;
        for e in &self.events {
            if e.at > t1 {
                break;
            }
            // Do not let the victim's own enqueue implicate itself.
            if e.is_enqueue && self.by_deq[e.record].seqno == victim.seqno {
                depth += e.delta;
                continue;
            }
            depth += e.delta;
            if e.is_enqueue {
                stack.push((depth, e.record));
            } else {
                while matches!(stack.last(), Some((lvl, _)) if *lvl > depth) {
                    stack.pop();
                }
            }
        }
        let mut original = HashMap::new();
        for (_, rec) in stack {
            *original.entry(self.by_deq[rec].flow).or_insert(0) += 1;
        }

        CulpritReport {
            direct,
            indirect,
            original,
            regime_start,
        }
    }

    /// Queue depth (cells) immediately after time `at`.
    pub fn depth_at(&self, at: Nanos) -> u32 {
        let mut depth: i64 = 0;
        for e in &self.events {
            if e.at > at {
                break;
            }
            depth += e.delta;
        }
        depth.max(0) as u32
    }

    /// Depth time series sampled every `step` ns over `[from, to]` — used
    /// to regenerate Figure 16(a).
    pub fn depth_series(&self, from: Nanos, to: Nanos, step: Nanos) -> Vec<(Nanos, u32)> {
        assert!(step > 0);
        let mut out = Vec::new();
        let mut depth: i64 = 0;
        let mut next_sample = from;
        for e in &self.events {
            while next_sample <= to && e.at > next_sample {
                out.push((next_sample, depth.max(0) as u32));
                next_sample += step;
            }
            if e.at > to {
                break;
            }
            depth += e.delta;
        }
        while next_sample <= to {
            out.push((next_sample, depth.max(0) as u32));
            next_sample += step;
        }
        out
    }

    /// The records, sorted by dequeue time.
    pub fn records(&self) -> &[TelemetryRecord] {
        &self.by_deq
    }

    /// Buffer cell size used for depth accounting.
    pub fn cell_bytes(&self) -> u32 {
        self.cell_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_packet::PacketMeta;

    /// Build a record with 1-cell packets for easy depth math.
    fn rec(seqno: u64, flow: u32, enq: Nanos, deq: Nanos) -> TelemetryRecord {
        TelemetryRecord {
            flow: FlowId(flow),
            port: 0,
            len: 80,
            seqno,
            meta: PacketMeta {
                egress_port: 0,
                enq_timestamp: enq,
                deq_timedelta: (deq - enq) as u32,
                enq_qdepth: 0,
                queue: 0,
            },
        }
    }

    /// Three packets back-to-back: A[0,10), B[2,20), victim V[5,30).
    fn simple() -> Vec<TelemetryRecord> {
        vec![rec(0, 1, 0, 10), rec(1, 2, 2, 20), rec(2, 9, 5, 30)]
    }

    #[test]
    fn direct_culprits_are_interval_dequeues() {
        let gt = GroundTruth::new(&simple(), 80);
        let victim = rec(2, 9, 5, 30);
        let report = gt.report(&victim);
        // A dequeued at 10 and B at 20, both within [5, 30].
        assert_eq!(report.direct[&FlowId(1)], 1);
        assert_eq!(report.direct[&FlowId(2)], 1);
        assert_eq!(report.direct_total(), 2);
    }

    #[test]
    fn victim_not_its_own_culprit() {
        let gt = GroundTruth::new(&simple(), 80);
        let victim = rec(2, 9, 5, 30);
        let report = gt.report(&victim);
        assert!(!report.direct.contains_key(&FlowId(9)));
        assert!(!report.original.contains_key(&FlowId(9)));
    }

    #[test]
    fn regime_start_found_at_empty_queue() {
        // Packet at [0,10); queue empty in (10, 20); packet at [20, 30);
        // victim at [22, 40).
        let records = vec![rec(0, 1, 0, 10), rec(1, 2, 20, 30), rec(2, 9, 22, 40)];
        let gt = GroundTruth::new(&records, 80);
        assert_eq!(gt.regime_start(22), 10);
        let report = gt.report(&rec(2, 9, 22, 40));
        // Flow 1's packet left before the regime started → not indirect.
        assert!(!report.indirect.contains_key(&FlowId(1)));
        assert_eq!(report.regime_start, 10);
    }

    #[test]
    fn indirect_culprits_span_regime() {
        // Continuous occupancy: A [0,10), B [1, 20), victim [15, 30).
        // B dequeues at 20 ≥ t1=15 → direct. A dequeues at 10 < 15 with
        // queue non-empty over [10, 15] (B present) → indirect.
        let records = vec![rec(0, 1, 0, 10), rec(1, 2, 1, 20), rec(2, 9, 15, 30)];
        let gt = GroundTruth::new(&records, 80);
        let report = gt.report(&rec(2, 9, 15, 30));
        assert_eq!(report.indirect[&FlowId(1)], 1);
        assert_eq!(report.direct[&FlowId(2)], 1);
    }

    #[test]
    fn original_culprits_form_monotone_chain() {
        // Build: A enq 0 (depth 1), B enq 1 (depth 2), C enq 2 (depth 3);
        // A deq at 10 (depth 2), D enq 11 (depth 3); victim enq 12.
        // At t1=12 depth is 3 (B, C, D queued). The monotone chain: B at
        // level... after A's dequeue the stack pops entries with level > 2:
        // C (level 3) is popped, leaving A(1), B(2) — but A was dequeued...
        // The stack tracks *arrival* events that raised depth; A's own
        // arrival (level 1) survives only until depth drops below 1.
        // Here depth after A's dequeue is 2 ≥ 1, so A's entry survives —
        // matching the paper: the queue has never drained below 1 since A
        // arrived, so the regime still stands on A's shoulders... but A
        // has left; its *slot* was refilled by later arrivals. The queue
        // monitor's register would have been overwritten at level 1 only
        // if some arrival raised depth to exactly 1 again. Ground truth
        // mirrors the stack semantics.
        let records = vec![
            rec(0, 1, 0, 10),  // A
            rec(1, 2, 1, 20),  // B
            rec(2, 3, 2, 30),  // C
            rec(3, 4, 11, 40), // D
            rec(4, 9, 12, 50), // victim
        ];
        let gt = GroundTruth::new(&records, 80);
        let report = gt.report(&rec(4, 9, 12, 50));
        // Stack after replay to t=12: A(1), B(2), D(3). C was popped when
        // depth fell to 2 at A's dequeue; D re-raised to 3.
        assert_eq!(report.original[&FlowId(1)], 1);
        assert_eq!(report.original[&FlowId(2)], 1);
        assert_eq!(report.original[&FlowId(4)], 1);
        assert!(!report.original.contains_key(&FlowId(3)));
        assert_eq!(report.original_total(), 3);
    }

    #[test]
    fn depth_series_tracks_events() {
        let records = vec![rec(0, 1, 0, 10), rec(1, 2, 2, 20)];
        let gt = GroundTruth::new(&records, 80);
        let series = gt.depth_series(0, 25, 5);
        assert_eq!(series[0], (0, 1)); // A in queue
        assert_eq!(series[1], (5, 2)); // A + B
        assert_eq!(series[2], (10, 1)); // A left
        assert_eq!(series[4], (20, 0)); // both gone
    }

    #[test]
    fn depth_at_counts_cells_not_packets() {
        // A 800-byte packet at 80 B cells = 10 cells.
        let mut r = rec(0, 1, 0, 10);
        r.len = 800;
        let gt = GroundTruth::new(&[r], 80);
        assert_eq!(gt.depth_at(5), 10);
        assert_eq!(gt.depth_at(15), 0);
    }
}
