//! The queue monitor — §5 of the paper.
//!
//! A sparse stack tracking the *original causes* of the current congestion
//! regime: conceptually a register array indexed by queue depth, plus a
//! 'stack top' pointer holding the latest depth. Whenever a packet changes
//! the depth `l1 → l2`, its flow ID and a monotonically increasing sequence
//! number are written to entry `l2` — into the entry's *upper half* for
//! increases (enqueues) and *lower half* for decreases (dequeues).
//!
//! Entries under the top pointer may be stale (left over from an earlier,
//! higher peak — Figure 7). The filter walks the array bottom-up tracking
//! the largest sequence number seen so far and keeps only increase entries
//! newer than everything below them: exactly the monotone chain of packets
//! that raised the queue to its current level.
//!
//! On the Tofino both halves are written from the egress pipeline (each
//! packet carries its `enq_qdepth` and observes the post-dequeue depth);
//! the simulator delivers the same information at the actual enqueue and
//! dequeue instants, which is where the transitions semantically happen.

use pq_packet::{FlowId, Nanos};
use pq_switch::RegisterArray;
use serde::Serialize;
use std::sync::Arc;

/// One half of a depth entry: who moved the depth here, and when (sequence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Half {
    /// Flow of the packet that caused the transition.
    pub flow: FlowId,
    /// Monotonic sequence number; 0 = never written.
    pub seq: u64,
}

impl Half {
    const EMPTY: Half = Half {
        flow: FlowId::NONE,
        seq: 0,
    };

    /// True when this half has never been written.
    pub fn is_empty(&self) -> bool {
        self.seq == 0
    }
}

impl Default for Half {
    fn default() -> Self {
        Half::EMPTY
    }
}

/// A depth entry: increase (upper) and decrease (lower) halves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Entry {
    /// Written when an enqueue raises the depth to this level.
    pub inc: Half,
    /// Written when a dequeue lowers the depth to this level.
    pub dec: Half,
}

/// An original-culprit record recovered by the filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct OriginalCulprit {
    /// Depth level (in entry granularity) the packet raised the queue to.
    pub level: u32,
    /// The culprit's flow.
    pub flow: FlowId,
    /// Sequence number of the recording.
    pub seq: u64,
}

/// The queue monitor for one egress queue.
#[derive(Debug, Clone)]
pub struct QueueMonitor {
    entries: RegisterArray<Entry>,
    /// One bit per entry, set by every data-plane write since the last
    /// `freeze()` or `clear()`: the levels a freeze has to read.
    written: Vec<u64>,
    /// The occupied rows as of the last freeze, in snapshot chunks.
    /// Together with `written` this is every level written since the last
    /// `clear()`, so a snapshot never scans the array.
    frozen: Vec<Option<Arc<[Row]>>>,
    /// Buffer cells per entry ("buffer allocation granularity", §5).
    cells_per_entry: u32,
    /// Stack-top pointer: entry index of the latest observed depth.
    top: u32,
    /// Next sequence number (1-based; 0 means empty).
    next_seq: u64,
}

impl QueueMonitor {
    /// Create a monitor able to track depths up to
    /// `entries * cells_per_entry` buffer cells.
    pub fn new(entries: usize, cells_per_entry: u32) -> QueueMonitor {
        assert!(entries > 0 && cells_per_entry > 0);
        QueueMonitor {
            entries: RegisterArray::new(entries),
            written: vec![0; entries.div_ceil(64)],
            frozen: vec![None; entries.div_ceil(CHUNK_LEVELS)],
            cells_per_entry,
            top: 0,
            next_seq: 1,
        }
    }

    /// Number of depth entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the monitor has no entries (never: `new` asserts).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Current stack-top entry index.
    pub fn top(&self) -> u32 {
        self.top
    }

    fn level_for(&self, depth_cells: u32) -> u32 {
        // The granularity is fixed at construction and a power of two in
        // practice (1 in every shipped configuration): a shift, not a
        // hardware divide per update.
        let cells = self.cells_per_entry;
        let level = if cells.is_power_of_two() {
            depth_cells >> cells.trailing_zeros()
        } else {
            depth_cells / cells
        };
        level.min(self.entries.len() as u32 - 1)
    }

    /// One data-plane update: stamp a half of the entry at `depth_cells`
    /// with the next sequence number, mark it written, move the stack top.
    fn update(&mut self, depth_cells: u32, write: impl FnOnce(&mut Entry, u64)) {
        let level = self.level_for(depth_cells);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.begin_packet();
        self.entries.rmw(level as usize, |e| write(e, seq));
        // Test before setting: in steady state the bit is already set, and
        // a load alone neither dirties the line nor chains consecutive
        // updates of neighbouring levels through store-to-load forwarding.
        let (word, bit) = (level as usize / 64, 1u64 << (level % 64));
        if self.written[word] & bit == 0 {
            self.written[word] |= bit;
        }
        self.top = level;
    }

    /// A packet of `flow` enqueued, raising the depth to `depth_cells`
    /// (inclusive of the packet).
    pub fn on_enqueue(&mut self, flow: FlowId, depth_cells: u32, _now: Nanos) {
        self.update(depth_cells, |e, seq| e.inc = Half { flow, seq });
    }

    /// A packet of `flow` dequeued, lowering the depth to `depth_cells`.
    pub fn on_dequeue(&mut self, flow: FlowId, depth_cells: u32, _now: Nanos) {
        self.update(depth_cells, |e, seq| e.dec = Half { flow, seq });
    }

    /// The occupied rows now, chunk by chunk. A chunk no packet has
    /// written since the last freeze is the allocation that freeze made;
    /// any other is rebuilt from the registers at the levels the last
    /// freeze held plus the ones written since.
    fn capture(&self) -> Vec<Option<Arc<[Row]>>> {
        let cells = self.entries.as_slice();
        let chunks = self.written.chunks(CHUNK_LEVELS / 64).zip(&self.frozen);
        chunks
            .enumerate()
            .map(|(c, (written, frozen))| {
                if written.iter().all(|&word| word == 0) {
                    return frozen.clone();
                }
                let mut levels = [0u64; CHUNK_LEVELS / 64];
                levels[..written.len()].copy_from_slice(written);
                for row in frozen.iter().flat_map(|rows| rows.iter()) {
                    let at = row.level as usize % CHUNK_LEVELS;
                    levels[at / 64] |= 1 << (at % 64);
                }
                let mut rows =
                    Vec::with_capacity(levels.iter().map(|w| w.count_ones() as usize).sum());
                for (w, &word) in levels.iter().enumerate() {
                    let first = c * CHUNK_LEVELS + w * 64;
                    rows.extend(
                        set_bits(word)
                            .map(|bit| Row::new((first + bit) as u32, cells[first + bit])),
                    );
                }
                Some(rows.into())
            })
            .collect()
    }

    /// Control-plane snapshot of the register state: the entries written
    /// since the last `clear()`, found without scanning the array.
    pub fn snapshot(&self) -> QueueMonitorSnapshot {
        QueueMonitorSnapshot {
            len: self.entries.len(),
            chunks: self.capture(),
            top: self.top,
        }
    }

    /// [`QueueMonitor::snapshot`], remembered: the next snapshot or freeze
    /// shares every chunk no packet writes in between, so polling a
    /// standing queue costs the chunks that changed, not the occupied rows.
    pub fn freeze(&mut self) -> QueueMonitorSnapshot {
        self.freeze_counted().0
    }

    /// [`QueueMonitor::freeze`], and how many occupied rows it rebuilt
    /// rather than shared with the previous freeze.
    pub(crate) fn freeze_counted(&mut self) -> (QueueMonitorSnapshot, usize) {
        let frozen = self.snapshot();
        let rebuilt = frozen.rows_not_in(&self.frozen);
        self.frozen.clone_from(&frozen.chunks);
        self.written.fill(0);
        (frozen, rebuilt)
    }

    /// Control-plane reset.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.written.fill(0);
        self.frozen.fill(None);
        self.top = 0;
        // The sequence counter is *not* reset: monotonicity across reads is
        // what lets the filter discard pre-clear stragglers.
    }
}

/// One occupied depth entry of a snapshot: its level and both halves,
/// laid out in 32 bytes so a fully written monitor is never larger frozen
/// than the register array it came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    level: u32,
    inc_flow: FlowId,
    dec_flow: FlowId,
    inc_seq: u64,
    dec_seq: u64,
}

const _: () = assert!(std::mem::size_of::<Row>() <= std::mem::size_of::<Entry>());

impl Row {
    /// Pack `entry` at `level`.
    pub fn new(level: u32, entry: Entry) -> Row {
        Row {
            level,
            inc_flow: entry.inc.flow,
            dec_flow: entry.dec.flow,
            inc_seq: entry.inc.seq,
            dec_seq: entry.dec.seq,
        }
    }

    /// Depth level (entry index) of this row.
    pub fn level(&self) -> u32 {
        self.level
    }

    /// The entry's two halves.
    pub fn entry(&self) -> Entry {
        let half = |flow, seq| Half { flow, seq };
        Entry {
            inc: half(self.inc_flow, self.inc_seq),
            dec: half(self.dec_flow, self.dec_seq),
        }
    }
}

/// Depth levels per snapshot chunk: the unit two consecutive freezes share
/// and the store's encoder memoises; a multiple of the written-bitmap's
/// word. A dense poll of a standing 32 Ki-level queue dirties one or two
/// chunks, so a freeze-and-encode costs about 60 ns a slot plus 25 ns a row
/// of those chunks; measured over DM and WS traffic that is flat from 256 to
/// 1024 levels (≈ 3.5 µs a freeze) and doubles with every doubling past it.
/// Public because the `.pqa` format's monitor slot is pinned to it.
pub const CHUNK_LEVELS: usize = 1024;

const _: () = assert!(CHUNK_LEVELS.is_multiple_of(64));

/// Indices of the set bits of `word`, ascending.
fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            bit
        })
    })
}

/// A frozen copy of queue-monitor register state, as read by the analysis
/// program. Held sparse — the array length plus the entries that differ
/// from [`Entry::default`], ascending by level — because a congestion
/// regime touches a few thousand of the array's levels, and in chunks of
/// `CHUNK_LEVELS` levels behind `Arc`s, because consecutive freezes of a
/// standing queue differ in a handful of them: an unchanged chunk is the
/// same allocation in both snapshots ([`QueueMonitor::freeze`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueMonitorSnapshot {
    len: usize,
    /// Slot `c` holds the occupied rows of levels
    /// `c * CHUNK_LEVELS..(c + 1) * CHUNK_LEVELS`; `None` when there are
    /// none (never an empty chunk, so equality is equality of content).
    chunks: Vec<Option<Arc<[Row]>>>,
    /// Stack-top pointer at freeze time.
    pub top: u32,
}

impl QueueMonitorSnapshot {
    /// Build from a dense register image (one entry per level).
    pub fn from_dense(entries: &[Entry], top: u32) -> QueueMonitorSnapshot {
        assert!(entries.len() <= u32::MAX as usize, "levels are u32");
        let mut rows = Vec::with_capacity(CHUNK_LEVELS);
        let chunks = entries
            .chunks(CHUNK_LEVELS)
            .enumerate()
            .map(|(c, span)| {
                rows.clear();
                rows.extend(
                    span.iter()
                        .enumerate()
                        .filter(|(_, e)| **e != Entry::default())
                        .map(|(i, e)| Row::new((c * CHUNK_LEVELS + i) as u32, *e)),
                );
                (!rows.is_empty()).then(|| rows.as_slice().into())
            })
            .collect();
        QueueMonitorSnapshot {
            len: entries.len(),
            chunks,
            top,
        }
    }

    /// Assemble from chunks built elsewhere (the store's decoder): slot `c`
    /// holds the occupied rows of levels `c * CHUNK_LEVELS..`, ascending,
    /// `None` where there are none. The caller upholds what
    /// [`QueueMonitorSnapshot::chunks`] promises: one slot per
    /// `CHUNK_LEVELS` levels of `len`, no empty chunk, no default row, and
    /// every level inside its slot and below `len`.
    pub fn from_chunks(
        len: usize,
        chunks: Vec<Option<Arc<[Row]>>>,
        top: u32,
    ) -> QueueMonitorSnapshot {
        debug_assert_eq!(
            chunks.len(),
            len.div_ceil(CHUNK_LEVELS),
            "one slot per span"
        );
        debug_assert!(chunks.iter().enumerate().all(|(c, slot)| {
            let span = (c * CHUNK_LEVELS) as u64..((c + 1) * CHUNK_LEVELS).min(len) as u64;
            slot.as_ref().is_none_or(|rows| {
                !rows.is_empty()
                    && rows.windows(2).all(|w| w[0].level < w[1].level)
                    && rows.iter().all(|r| {
                        span.contains(&u64::from(r.level)) && r.entry() != Entry::default()
                    })
            })
        }));
        QueueMonitorSnapshot { len, chunks, top }
    }

    /// The dense register image: `len()` entries, default where unoccupied.
    pub fn to_dense(&self) -> Vec<Entry> {
        let mut entries = vec![Entry::default(); self.len];
        for row in self.occupied() {
            entries[row.level as usize] = row.entry();
        }
        entries
    }

    /// Number of depth entries in the frozen array (occupied or not).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the frozen array has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The occupied entries in chunks: one slot per fixed span of levels,
    /// ascending, `None` where the span has no occupied entry (a `Some`
    /// chunk is never empty).
    pub fn chunks(&self) -> &[Option<Arc<[Row]>>] {
        &self.chunks
    }

    /// The occupied entries, ascending by level.
    pub fn occupied(&self) -> impl Iterator<Item = &Row> + Clone {
        self.chunks.iter().flatten().flat_map(|chunk| chunk.iter())
    }

    /// How many entries are occupied.
    pub fn occupied_len(&self) -> usize {
        self.chunks.iter().flatten().map(|chunk| chunk.len()).sum()
    }

    /// How many occupied entries sit in chunks this snapshot does not
    /// share with `base` (all of them without one): what the freeze that
    /// followed `base` rebuilt, and what the store will encode afresh.
    pub fn rows_not_shared_with(&self, base: Option<&QueueMonitorSnapshot>) -> usize {
        self.rows_not_in(base.map_or(&[], |b| &b.chunks))
    }

    /// How many occupied entries sit in chunks that are not the ones at
    /// the same positions of `base`.
    fn rows_not_in(&self, base: &[Option<Arc<[Row]>>]) -> usize {
        let shared = |c: usize, chunk: &Arc<[Row]>| {
            let old = base.get(c).and_then(Option::as_ref);
            old.is_some_and(|old| Arc::ptr_eq(old, chunk))
        };
        self.chunks
            .iter()
            .enumerate()
            .filter_map(|(c, slot)| slot.as_ref().filter(|chunk| !shared(c, chunk)))
            .map(|chunk| chunk.len())
            .sum()
    }

    /// Filter stale entries and return the original culprits, bottom-up.
    ///
    /// Walks the occupied entries up to `top`, tracking the largest
    /// sequence number seen in *either* half so far; an increase entry is
    /// kept only if it is newer than everything below it. The surviving
    /// entries are precisely the packets whose arrival raised the queue,
    /// level by level, to its current height (§5's correction procedure
    /// for Figure 7). Unoccupied levels carry sequence 0 and change nothing.
    pub fn original_culprits(&self) -> Vec<OriginalCulprit> {
        let mut culprits = Vec::new();
        let mut max_seq = 0u64;
        for row in self.occupied().take_while(|r| r.level <= self.top) {
            if row.inc_seq > max_seq {
                culprits.push(OriginalCulprit {
                    level: row.level,
                    flow: row.inc_flow,
                    seq: row.inc_seq,
                });
            }
            max_seq = max_seq.max(row.inc_seq).max(row.dec_seq);
        }
        culprits
    }

    /// Per-flow counts of original culprits.
    pub fn culprit_counts(&self) -> std::collections::HashMap<FlowId, u64> {
        let mut counts = std::collections::HashMap::new();
        for c in self.original_culprits() {
            *counts.entry(c.flow).or_insert(0) += 1;
        }
        counts
    }

    /// The buildup timeline: the surviving chain ordered by *arrival*
    /// (sequence number) rather than by level — who raised the queue first,
    /// who piled on later. For Figure 16's narrative this distinguishes a
    /// burst that founded the congestion from traffic that merely kept the
    /// top churning.
    pub fn buildup_timeline(&self) -> Vec<OriginalCulprit> {
        let mut chain = self.original_culprits();
        chain.sort_by_key(|c| c.seq);
        chain
    }

    /// Per-flow summary of the buildup: for each flow in the chain, the
    /// lowest and highest level it contributed — "this flow built the queue
    /// from X to Y".
    pub fn buildup_ranges(&self) -> std::collections::HashMap<FlowId, (u32, u32)> {
        let mut ranges: std::collections::HashMap<FlowId, (u32, u32)> =
            std::collections::HashMap::new();
        for c in self.original_culprits() {
            ranges
                .entry(c.flow)
                .and_modify(|(lo, hi)| {
                    *lo = (*lo).min(c.level);
                    *hi = (*hi).max(c.level);
                })
                .or_insert((c.level, c.level));
        }
        ranges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: FlowId = FlowId(1);
    const B: FlowId = FlowId(2);
    const C: FlowId = FlowId(3);
    const D: FlowId = FlowId(4);

    /// Figure 7's storyline: B raises the queue 2→5, it drains to 2, then D
    /// raises it to 7. The stale B entry at 5 must be filtered out.
    #[test]
    fn figure7_stale_peak_filtered() {
        let mut qm = QueueMonitor::new(16, 1);
        // Build up to 2 with A (levels 1, 2).
        qm.on_enqueue(A, 1, 0);
        qm.on_enqueue(A, 2, 0);
        // t=1: B brings 2 → 5.
        qm.on_enqueue(B, 5, 1);
        // t=2: drains back to 2 (dequeues land at 4, 3, 2).
        qm.on_dequeue(A, 4, 2);
        qm.on_dequeue(A, 3, 2);
        qm.on_dequeue(B, 2, 2);
        // t=3: D brings 2 → 7.
        qm.on_enqueue(D, 7, 3);

        let snap = qm.snapshot();
        assert_eq!(snap.top, 7);
        let culprits = snap.original_culprits();
        let flows: Vec<(u32, FlowId)> = culprits.iter().map(|c| (c.level, c.flow)).collect();
        // A's buildup to 1 and 2 is still the base; B's entry at 5 is stale
        // (the drain to 2 wrote newer sequence numbers below it); D at 7 is
        // fresh.
        assert!(flows.contains(&(1, A)));
        assert!(flows.contains(&(7, D)));
        assert!(
            !flows.iter().any(|(l, f)| *l == 5 && *f == B),
            "stale B entry survived: {flows:?}"
        );
    }

    #[test]
    fn monotone_buildup_keeps_everything() {
        let mut qm = QueueMonitor::new(16, 1);
        for (i, flow) in [A, B, C, D].iter().enumerate() {
            qm.on_enqueue(*flow, i as u32 + 1, 0);
        }
        let culprits = qm.snapshot().original_culprits();
        assert_eq!(culprits.len(), 4);
        assert_eq!(culprits[0].flow, A);
        assert_eq!(culprits[3].flow, D);
    }

    #[test]
    fn oscillation_band_keeps_latest_writer() {
        let mut qm = QueueMonitor::new(16, 1);
        // Build to 5 with A.
        for d in 1..=5 {
            qm.on_enqueue(A, d, 0);
        }
        // Oscillate 5→4→5 with B replacing the top.
        qm.on_dequeue(A, 4, 1);
        qm.on_enqueue(B, 5, 2);
        let culprits = qm.snapshot().original_culprits();
        // Levels 1..4 belong to A; level 5's latest increase is B.
        let at5: Vec<FlowId> = culprits
            .iter()
            .filter(|c| c.level == 5)
            .map(|c| c.flow)
            .collect();
        assert_eq!(at5, vec![B]);
        assert_eq!(culprits.iter().filter(|c| c.flow == A).count(), 4);
    }

    #[test]
    fn granularity_buckets_depths() {
        let mut qm = QueueMonitor::new(8, 100); // entries cover 100 cells each
        qm.on_enqueue(A, 250, 0); // level 2
        assert_eq!(qm.top(), 2);
        qm.on_enqueue(B, 799, 0); // level 7
        assert_eq!(qm.top(), 7);
    }

    #[test]
    fn depth_beyond_range_clamps_to_last_entry() {
        let mut qm = QueueMonitor::new(4, 1);
        qm.on_enqueue(A, 100, 0);
        assert_eq!(qm.top(), 3);
        let culprits = qm.snapshot().original_culprits();
        assert_eq!(culprits.len(), 1);
        assert_eq!(culprits[0].level, 3);
    }

    #[test]
    fn empty_monitor_reports_nothing() {
        let qm = QueueMonitor::new(8, 1);
        assert!(qm.snapshot().original_culprits().is_empty());
    }

    #[test]
    fn counts_aggregate_by_flow() {
        let mut qm = QueueMonitor::new(16, 1);
        qm.on_enqueue(A, 1, 0);
        qm.on_enqueue(A, 2, 0);
        qm.on_enqueue(B, 3, 0);
        let counts = qm.snapshot().culprit_counts();
        assert_eq!(counts[&A], 2);
        assert_eq!(counts[&B], 1);
    }

    #[test]
    fn clear_keeps_sequence_monotonic() {
        let mut qm = QueueMonitor::new(8, 1);
        qm.on_enqueue(A, 1, 0);
        qm.clear();
        assert!(qm.snapshot().original_culprits().is_empty());
        qm.on_enqueue(B, 1, 0);
        let culprits = qm.snapshot().original_culprits();
        assert_eq!(culprits.len(), 1);
        assert_eq!(culprits[0].flow, B);
        assert!(culprits[0].seq > 1, "sequence numbers must keep rising");
    }
}

#[cfg(test)]
mod buildup_tests {
    use super::*;

    #[test]
    fn timeline_orders_by_arrival_not_level() {
        let mut qm = QueueMonitor::new(16, 1);
        // B arrives first raising to 3 (a multi-cell packet), then A fills
        // in levels 4 and 5 later.
        qm.on_enqueue(FlowId(2), 3, 0);
        qm.on_enqueue(FlowId(1), 4, 1);
        qm.on_enqueue(FlowId(1), 5, 2);
        let timeline = qm.snapshot().buildup_timeline();
        assert_eq!(timeline.len(), 3);
        assert_eq!(timeline[0].flow, FlowId(2), "founder first");
        assert!(timeline.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn ranges_give_per_flow_level_bands() {
        let mut qm = QueueMonitor::new(32, 1);
        for d in 1..=10 {
            qm.on_enqueue(FlowId(7), d, 0);
        }
        for d in 11..=12 {
            qm.on_enqueue(FlowId(8), d, 0);
        }
        let ranges = qm.snapshot().buildup_ranges();
        assert_eq!(ranges[&FlowId(7)], (1, 10));
        assert_eq!(ranges[&FlowId(8)], (11, 12));
    }
}

/// The sparse snapshot against the dense register image it replaced.
#[cfg(test)]
mod sparse_equivalence {
    use super::*;
    use proptest::prelude::*;

    /// The filter as it ran over the dense array: every level `0..=top`,
    /// occupied or not.
    fn dense_culprits(entries: &[Entry], top: u32) -> Vec<OriginalCulprit> {
        let mut culprits = Vec::new();
        let mut max_seq = 0u64;
        for (level, entry) in entries.iter().enumerate().take(top as usize + 1) {
            if !entry.inc.is_empty() && entry.inc.seq > max_seq {
                culprits.push(OriginalCulprit {
                    level: level as u32,
                    flow: entry.inc.flow,
                    seq: entry.inc.seq,
                });
            }
            max_seq = max_seq.max(entry.inc.seq).max(entry.dec.seq);
        }
        culprits
    }

    proptest! {
        /// Ops: enqueue, dequeue, freeze (one in eight) and clear (one in
        /// sixteen); the array is two chunks and a bit, and depths run past
        /// it so the clamp is exercised too. A snapshot and a freeze are
        /// both the dense register image, whatever was frozen before.
        #[test]
        fn snapshot_matches_dense_register_image(
            ops in prop::collection::vec((0u8..16, 0u32..40, 0usize..2 * CHUNK_LEVELS + 120), 0..400),
        ) {
            let mut qm = QueueMonitor::new(2 * CHUNK_LEVELS + 96, 1);
            for (op, flow, depth) in &ops {
                let frozen = match op {
                    0..=6 => {
                        qm.on_enqueue(FlowId(*flow), *depth as u32, 0);
                        None
                    }
                    7..=12 => {
                        qm.on_dequeue(FlowId(*flow), *depth as u32, 0);
                        None
                    }
                    13..=14 => Some(qm.freeze()),
                    _ => {
                        qm.clear();
                        None
                    }
                };
                let snap = qm.snapshot();
                let dense = qm.entries.as_slice();
                prop_assert_eq!(&snap, &QueueMonitorSnapshot::from_dense(dense, qm.top()));
                if let Some(frozen) = frozen {
                    prop_assert_eq!(&frozen, &snap);
                    prop_assert_eq!(snap.rows_not_shared_with(Some(&frozen)), 0);
                }
                prop_assert_eq!(snap.len(), dense.len());
                prop_assert_eq!(snap.to_dense(), dense.to_vec());
                prop_assert_eq!(
                    &QueueMonitorSnapshot::from_dense(&snap.to_dense(), snap.top),
                    &snap
                );
                let reference = dense_culprits(dense, qm.top());
                prop_assert_eq!(snap.original_culprits(), reference.clone());
                let mut timeline = reference;
                timeline.sort_by_key(|c| c.seq);
                prop_assert_eq!(snap.buildup_timeline(), timeline);
            }
        }

        /// Between two freezes, a chunk is the same allocation exactly when
        /// no packet wrote one of its levels (and the monitor was not
        /// cleared): sharing really happens, and only where nothing changed.
        #[test]
        fn freezes_share_exactly_the_untouched_chunks(
            periods in prop::collection::vec(
                (prop::collection::vec((any::<bool>(), 0u32..40, 0usize..4 * CHUNK_LEVELS), 0..6), 0u8..10),
                1..20,
            ),
        ) {
            let mut qm = QueueMonitor::new(4 * CHUNK_LEVELS, 1);
            let mut last = qm.freeze();
            for (writes, clear) in &periods {
                let mut touched = [false; 4];
                if *clear == 0 {
                    qm.clear();
                    touched = [true; 4];
                }
                for (enqueue, flow, depth) in writes {
                    match enqueue {
                        true => qm.on_enqueue(FlowId(*flow), *depth as u32, 0),
                        false => qm.on_dequeue(FlowId(*flow), *depth as u32, 0),
                    }
                    touched[depth / CHUNK_LEVELS] = true;
                }
                let next = qm.freeze();
                prop_assert_eq!(&next, &QueueMonitorSnapshot::from_dense(qm.entries.as_slice(), qm.top()));
                let mut rebuilt = 0;
                for (c, (old, new)) in last.chunks().iter().zip(next.chunks()).enumerate() {
                    match (old, new) {
                        (Some(old), Some(new)) => prop_assert_eq!(Arc::ptr_eq(old, new), !touched[c]),
                        (None, None) => {}
                        _ => prop_assert!(touched[c]),
                    }
                    if touched[c] {
                        rebuilt += new.as_ref().map_or(0, |rows| rows.len());
                    }
                }
                prop_assert_eq!(next.rows_not_shared_with(Some(&last)), rebuilt);
                prop_assert_eq!(next.rows_not_shared_with(None), next.occupied_len());
                last = next;
            }
        }

        /// Arbitrary dense images — including halves no monitor writes,
        /// such as a flow with sequence 0 — survive the sparse form, and a
        /// `top` below stale rows hides them exactly as the dense walk did.
        #[test]
        fn arbitrary_dense_images_round_trip(
            cells in prop::collection::vec((0usize..48, 0u32..5, 0u64..4, 0u32..5, 0u64..4), 0..40),
            top in 0u32..48,
        ) {
            let mut dense = vec![Entry::default(); 48];
            for (level, inc_flow, inc_seq, dec_flow, dec_seq) in &cells {
                dense[*level] = Entry {
                    inc: Half { flow: FlowId(*inc_flow), seq: *inc_seq },
                    dec: Half { flow: FlowId(*dec_flow), seq: *dec_seq },
                };
            }
            let snap = QueueMonitorSnapshot::from_dense(&dense, top);
            prop_assert_eq!(snap.to_dense(), dense.clone());
            let rows: Vec<&Row> = snap.occupied().collect();
            prop_assert_eq!(rows.len(), snap.occupied_len());
            prop_assert!(rows.windows(2).all(|w| w[0].level() < w[1].level()));
            prop_assert!(rows.iter().all(|r| r.entry() != Entry::default()));
            prop_assert!(snap.chunks().iter().flatten().all(|chunk| !chunk.is_empty()));
            prop_assert_eq!(snap.original_culprits(), dense_culprits(&dense, top));
        }
    }
}
