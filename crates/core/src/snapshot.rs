//! Frozen time-window state, the stale-cell filter (Algorithm 3), and query
//! execution over arbitrary intervals (§6.3).
//!
//! The analysis program reads raw register contents; because the windows are
//! ring buffers, cells from older laps linger until overwritten. The filter
//! keeps, per window, only the cells belonging to the most recent window
//! period (same cycle as the latest cell, or the previous cycle at a higher
//! index). After filtering, window `i`'s surviving cells cover exactly one
//! window-`i` period, and consecutive windows tile disjoint, contiguous
//! spans going back in time — which is what lets a query split its interval
//! across windows without double counting.

use crate::coefficient::Coefficients;
use crate::params::TimeWindowConfig;
use crate::time_windows::{Cell, TimeWindowSet};
use crate::tts::Tts;
use pq_packet::{FlowId, Nanos};
use serde::Serialize;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::{Arc, OnceLock};

/// Windows whose cycle bound a snapshot keeps for [`TimeWindowSnapshot::query`]
/// to skip by; deeper windows, in configurations that have them, are never
/// skipped.
const BOUNDED_WINDOWS: usize = 8;

/// A closed time interval `[from, to]` in nanoseconds — usually a victim
/// packet's `[enq_timestamp, deq_timestamp]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct QueryInterval {
    pub from: Nanos,
    pub to: Nanos,
}

impl QueryInterval {
    /// Construct, normalizing a reversed pair.
    pub fn new(from: Nanos, to: Nanos) -> QueryInterval {
        if from <= to {
            QueryInterval { from, to }
        } else {
            QueryInterval { from: to, to: from }
        }
    }

    /// Length of the interval.
    pub fn len(&self) -> Nanos {
        self.to - self.from
    }

    /// True for a degenerate (single-instant) interval.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Does `[start, end)` overlap this closed interval?
    fn overlaps_span(&self, start: Nanos, end: Nanos) -> bool {
        start <= self.to && end > self.from
    }
}

/// A frozen, filterable copy of one port's time windows.
#[derive(Debug, Clone)]
pub struct TimeWindowSnapshot {
    config: TimeWindowConfig,
    /// Raw (or filtered) cells, one allocation per window, shared with
    /// every other snapshot frozen while the window stood still.
    windows: Vec<Arc<[Cell]>>,
    /// Whether [`TimeWindowSnapshot::filter`] has run.
    filtered: bool,
    /// Per window, [`TimeWindowSnapshot::cycle_bound`] once a query has
    /// asked for it. Derived from `windows`, so never serialized.
    cycle_bounds: [OnceLock<u64>; BOUNDED_WINDOWS],
}

/// Equal configuration, cells and filtered flag: the cycle bounds are a
/// cache derived from the cells.
impl PartialEq for TimeWindowSnapshot {
    fn eq(&self, other: &Self) -> bool {
        (self.config, &self.windows, self.filtered)
            == (other.config, &other.windows, other.filtered)
    }
}

impl TimeWindowSnapshot {
    /// Capture the registers of a live set (the control plane's bulk
    /// read), copying every window; [`TimeWindowSet::freeze`] shares the
    /// windows that did not change since its last freeze.
    pub fn capture(set: &TimeWindowSet) -> TimeWindowSnapshot {
        let windows = (0..set.config().t).map(|i| Arc::from(set.window(i)));
        TimeWindowSnapshot::from_shared(*set.config(), windows.collect(), false)
    }

    /// Reassemble a snapshot from decoded parts. `windows` must hold
    /// exactly `config.t` vectors of `config.cells()` cells each.
    pub fn from_parts(
        config: TimeWindowConfig,
        windows: Vec<Vec<Cell>>,
        filtered: bool,
    ) -> TimeWindowSnapshot {
        let windows = windows.into_iter().map(Arc::from).collect();
        TimeWindowSnapshot::from_shared(config, windows, filtered)
    }

    /// [`TimeWindowSnapshot::from_parts`] over windows already in their
    /// shared allocations (a freeze's, or the binary store decoder's).
    pub fn from_shared(
        config: TimeWindowConfig,
        windows: Vec<Arc<[Cell]>>,
        filtered: bool,
    ) -> TimeWindowSnapshot {
        let snap = TimeWindowSnapshot {
            config,
            windows,
            filtered,
            cycle_bounds: Default::default(),
        };
        assert!(snap.is_well_formed(), "window shape");
        snap
    }

    /// Whether this snapshot holds exactly `config.t` windows of
    /// `config.cells()` cells each — the shape every method here indexes
    /// by. Never panics, whatever the config; for checking snapshots read
    /// from untrusted input.
    pub fn is_well_formed(&self) -> bool {
        let cells = 1usize.checked_shl(u32::from(self.config.k));
        self.windows.len() == usize::from(self.config.t)
            && self.windows.iter().all(|w| Some(w.len()) == cells)
    }

    /// Free the cell arrays of a snapshot the checkpoint ring has evicted
    /// and nothing will read again.
    pub(crate) fn release(&mut self) {
        self.windows = Vec::new();
    }

    /// Whether [`TimeWindowSnapshot::filter`] has already run.
    pub fn is_filtered(&self) -> bool {
        self.filtered
    }

    /// The configuration this snapshot was captured under.
    pub fn config(&self) -> &TimeWindowConfig {
        &self.config
    }

    /// Cells of window `i` (possibly filtered).
    pub fn window(&self, i: u8) -> &[Cell] {
        &self.windows[usize::from(i)]
    }

    /// Window `i`'s allocation: the same one (`Arc::ptr_eq`) as every
    /// other snapshot's that shares the window.
    pub fn shared_window(&self, i: u8) -> &Arc<[Cell]> {
        &self.windows[usize::from(i)]
    }

    /// Algorithm 3: blank every cell not belonging to its window's most
    /// recent window period. Idempotent.
    ///
    /// The paper's pseudocode derives each deeper window's anchor from
    /// window 0's latest cell via `TTS = (TTS − 2^k) >> α` — a steady-state
    /// lag of exactly one window period per hop. Measured pass timing
    /// varies with the freeze's phase against each window's cycle grid
    /// (§4.2's passing happens *throughout* the following period), so a
    /// chain-derived anchor can sit a full cycle behind the data actually
    /// present, silently discarding a whole window period. We therefore
    /// anchor every window on its **own** latest occupied cell, which
    /// implements the invariant the paper states for the filter — retain
    /// cells "within one window period of the most recent cell" — robustly
    /// at any freeze phase. (The control plane reads all cells anyway, so
    /// per-window maxima cost nothing extra.)
    ///
    /// A window shared with other snapshots is copied before it is
    /// written, so filtering one checkpoint leaves its sharers' cells as
    /// they were.
    pub fn filter(&mut self) {
        for w in 0..usize::from(self.config.t) {
            let latest = self.windows[w]
                .iter()
                .enumerate()
                .filter(|(_, c)| !c.is_empty())
                .map(|(index, c)| Tts {
                    cycle: c.cycle,
                    index,
                })
                .max();
            let Some(latest) = latest else { continue };
            for (j, cell) in Arc::make_mut(&mut self.windows[w]).iter_mut().enumerate() {
                if cell.is_empty() {
                    continue;
                }
                let keep = if j <= latest.index {
                    cell.cycle == latest.cycle
                } else {
                    cell.cycle + 1 == latest.cycle
                };
                if !keep {
                    *cell = Cell::EMPTY;
                }
            }
        }
        self.filtered = true;
    }

    /// Time span `[start, end)` covered by window `w`'s surviving cells:
    /// the window period ending at the latest retained instant.
    ///
    /// Returns `None` when the snapshot is empty.
    pub fn window_span(&self, w: u8) -> Option<(Nanos, Nanos)> {
        let wi = usize::from(w);
        let latest = self.windows[wi]
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.is_empty())
            .map(|(index, c)| Tts {
                cycle: c.cycle,
                index,
            })
            .max()?;
        let end = latest.span_end(&self.config, w);
        Some((end.saturating_sub(self.config.window_period(w)), end))
    }

    /// An upper bound on the cycle of window `w`'s occupied cells: their
    /// largest cycle (0 when there are none) at the first call, kept for
    /// the snapshot's life. [`TimeWindowSnapshot::filter`] only blanks
    /// cells, so a bound taken before it still bounds. `u64::MAX` for
    /// windows past the eighth, which keep no bound.
    pub fn cycle_bound(&self, w: u8) -> u64 {
        let wi = usize::from(w);
        let Some(bound) = self.cycle_bounds.get(wi) else {
            return u64::MAX;
        };
        *bound.get_or_init(|| {
            self.windows[wi]
                .iter()
                .filter(|c| !c.is_empty())
                .map(|c| c.cycle)
                .max()
                .unwrap_or(0)
        })
    }

    /// §6.3 time-window query: estimate per-flow packet counts over
    /// `interval`, recovering true counts with the coefficients.
    ///
    /// Conceptually this follows the paper — split the interval into
    /// disjoint pieces, answer each piece from the window holding it, and
    /// divide per-window counts by `coefficient[w]` (Theorem 2's
    /// proportional property). The disjointness is enforced at *cell*
    /// granularity rather than by the Algorithm-3 anchor chain: every
    /// occupied cell's time span (unique, thanks to full-width cycle IDs)
    /// is counted only for the part not already covered by a shallower
    /// window's cells, weighted by the uncovered fraction.
    ///
    /// Why: passing spreads a span's surviving packets across adjacent
    /// windows (laggards stay shallow while early migrants sit deep), and
    /// in traffic lulls shallow rings retain many periods of history. The
    /// steady-state one-period tiling assumed by the anchor chain breaks in
    /// both regimes, whereas coverage-deduplication stays unbiased: if a
    /// fraction q of a span's cells still sits in window w, the deeper
    /// window's contribution is clipped by exactly q, and
    /// `q·N + (1−q)·N = N`.
    ///
    /// *Read set.* Per window, only cells whose raw TTS `cycle·2^k + index`
    /// lies in `[lo, hi]` — the first and last TTS the interval touches —
    /// can count. When that range is narrower than the ring, each index in
    /// it has exactly one valid cycle and the query reads just those cells
    /// (at most two runs, the second when the range wraps); otherwise it
    /// reads every cell and keeps those whose cycle is in range. Cells are
    /// visited in ascending index order either way, so each flow's `f64`
    /// sum is added in the same order as a full scan's. A cell whose span
    /// would end past `u64` nanoseconds (only a corrupt or crafted cycle
    /// gets there) never counts.
    ///
    /// *Work that cannot count.* A window whose range is at least as wide
    /// as the ring is skipped outright when its
    /// [`cycle_bound`](TimeWindowSnapshot::cycle_bound) is below `lo`'s
    /// cycle, since no cell of it can reach `lo`. The deepest window left
    /// records no coverage, and the coverage shallower windows record is
    /// sorted and merged only when a deeper window has a cell to test
    /// against it. Neither changes a term: a skipped window has no cell in
    /// range, and the merged union is the same however late it is built.
    pub fn query(&self, interval: QueryInterval, coeffs: &Coefficients) -> FlowEstimates {
        let q_start = interval.from;
        let q_end = interval.to.saturating_add(1); // half-open
        let mut acc: HashMap<FlowId, f64, FlowHash> = HashMap::with_hasher(FlowHash::new());
        // Spans (within the query) already covered by shallower windows,
        // and the current window's, which join them when it is done.
        let mut covered = Coverage::default();
        let mut new_spans: Vec<(Nanos, Nanos)> = Vec::new();
        let k = self.config.k;
        let n = self.config.cells();
        // Window `w`'s raw TTS range `[lo, hi]`, or `None` when no cell of
        // it can count.
        let read_range = |w: u8| {
            let shift = self.config.shift(w);
            let lo = q_start >> shift;
            // The last cell whose span ends inside u64 ns caps `hi`; an
            // interval past it (or `[u64::MAX, u64::MAX]`) reads nothing.
            let hi = ((q_end - 1) >> shift).min((u64::MAX >> shift) - 1);
            if hi < lo || (hi - lo + 1 >= n as u64 && self.cycle_bound(w) < lo >> k) {
                None
            } else {
                Some((lo, hi))
            }
        };
        // Spans of the deepest window that can count would cover nothing
        // anyone tests.
        let Some(deepest) = (0..self.config.t).rev().find(|&w| read_range(w).is_some()) else {
            return FlowEstimates::default();
        };
        for w in 0..=deepest {
            let Some((lo, hi)) = read_range(w) else {
                continue;
            };
            let shift = self.config.shift(w);
            let (lo_c, lo_i) = (lo >> k, (lo as usize) & (n - 1));
            let (hi_c, hi_i) = (hi >> k, (hi as usize) & (n - 1));
            let weight = 1.0 / coeffs.coefficient[usize::from(w)];
            let cell_period = self.config.cell_period(w) as f64;
            let cells = &self.windows[usize::from(w)];
            // `cycle·2^k + index` is in `[lo, hi]`, so nothing here overflows.
            let mut count = |index: usize, cell: &Cell| {
                let raw = (cell.cycle << k) | index as u64;
                let start = (raw << shift).max(q_start);
                let end = ((raw + 1) << shift).min(q_end);
                let uncovered = covered.uncovered_len(start, end);
                if uncovered > 0 {
                    *acc.entry(cell.flow).or_insert(0.0) += weight * uncovered as f64 / cell_period;
                }
                if w == deepest {
                    return;
                }
                // Abutting spans arrive in order; merging would join them
                // anyway, so join them here instead of sorting them.
                match new_spans.last_mut() {
                    Some(last) if last.1 == start => last.1 = end,
                    _ => new_spans.push((start, end)),
                }
            };
            if hi - lo + 1 < n as u64 {
                let mut run = |from: usize, to: usize, cycle: u64| {
                    for (index, cell) in cells[from..=to].iter().enumerate() {
                        if cell.cycle == cycle && !cell.is_empty() {
                            count(from + index, cell);
                        }
                    }
                };
                if lo_c == hi_c {
                    run(lo_i, hi_i, lo_c);
                } else {
                    run(0, hi_i, hi_c);
                    run(lo_i, n - 1, lo_c);
                }
            } else {
                for (index, cell) in cells.iter().enumerate() {
                    if !cell.is_empty()
                        && cell.cycle >= lo_c + u64::from(index < lo_i)
                        && cell.cycle.saturating_add(u64::from(index > hi_i)) <= hi_c
                    {
                        count(index, cell);
                    }
                }
            }
            covered.add_all(&mut new_spans);
        }
        FlowEstimates {
            counts: acc.into_iter().collect(),
        }
    }

    /// Query a *single* window `w` over `interval` (Figure 12's per-window
    /// accuracy analysis). Filters first if needed.
    pub fn query_window(
        &mut self,
        w: u8,
        interval: QueryInterval,
        coeffs: &Coefficients,
    ) -> FlowEstimates {
        if !self.filtered {
            self.filter();
        }
        let mut counts: HashMap<FlowId, f64> = HashMap::new();
        let weight = 1.0 / coeffs.coefficient[usize::from(w)];
        let shift = self.config.shift(w);
        let k = self.config.k;
        for (index, cell) in self.windows[usize::from(w)].iter().enumerate() {
            if cell.is_empty() {
                continue;
            }
            // A span past u64 ns never counts, as in `query`.
            let Some(end) = cell
                .cycle
                .checked_mul(1 << k)
                .and_then(|c| (c | index as u64).checked_add(1))
                .and_then(|r| r.checked_mul(1 << shift))
            else {
                continue;
            };
            let start = end - (1 << shift);
            if interval.overlaps_span(start, end) {
                *counts.entry(cell.flow).or_insert(0.0) += weight;
            }
        }
        FlowEstimates { counts }
    }

    /// Count of non-empty cells (diagnostics / tests).
    pub fn occupancy(&self, w: u8) -> usize {
        self.windows[usize::from(w)]
            .iter()
            .filter(|c| !c.is_empty())
            .count()
    }

    /// Per-window occupancy summary (diagnostics and the error-bound
    /// tooling): how full each window is and what span its content covers.
    pub fn occupancy_profile(&self) -> Vec<WindowOccupancy> {
        (0..self.config.t)
            .map(|w| {
                let total = self.windows[usize::from(w)].len();
                let occupied = self.occupancy(w);
                WindowOccupancy {
                    window: w,
                    occupied,
                    cells: total,
                    fill: occupied as f64 / total.max(1) as f64,
                    span: self.window_span(w),
                }
            })
            .collect()
    }
}

/// Summary of one window within a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct WindowOccupancy {
    /// Window index.
    pub window: u8,
    /// Occupied cells.
    pub occupied: usize,
    /// Total cells.
    pub cells: usize,
    /// Fraction occupied.
    pub fill: f64,
    /// `[start, end)` of the latest retained window period, if any data.
    pub span: Option<(Nanos, Nanos)>,
}

/// A set of half-open `[start, end)` spans, used by the query path to
/// deduplicate coverage across windows. Spans are merged on the first
/// lookup after they are added, so a query whose deeper windows have
/// nothing to test never sorts them.
#[derive(Debug, Default)]
struct Coverage {
    /// Sorted, pairwise-disjoint spans.
    spans: Vec<(Nanos, Nanos)>,
    /// Spans added since the last merge, in no particular order.
    pending: Vec<(Nanos, Nanos)>,
}

impl Coverage {
    /// Total length of `[start, end)` not covered by any stored span.
    fn uncovered_len(&mut self, start: Nanos, end: Nanos) -> Nanos {
        if end <= start {
            return 0;
        }
        if !self.pending.is_empty() {
            self.merge();
        }
        // First span that could overlap: the one before the first span
        // starting at or after `start`.
        let mut idx = self.spans.partition_point(|s| s.0 < start);
        idx = idx.saturating_sub(1);
        let mut covered = 0;
        for &(s, e) in &self.spans[idx..] {
            if s >= end {
                break;
            }
            let lo = s.max(start);
            let hi = e.min(end);
            if hi > lo {
                covered += hi - lo;
            }
        }
        (end - start) - covered
    }

    /// Take a batch of spans (leaving `new_spans` empty); they are merged
    /// when next looked up.
    fn add_all(&mut self, new_spans: &mut Vec<(Nanos, Nanos)>) {
        self.pending.append(new_spans);
    }

    /// Fold the pending spans into the sorted, disjoint set.
    fn merge(&mut self) {
        self.pending.append(&mut self.spans);
        self.pending.sort_unstable();
        self.pending.dedup_by(|next, last| {
            let joins = next.0 <= last.1;
            if joins {
                last.1 = last.1.max(next.1);
            }
            joins
        });
        std::mem::swap(&mut self.spans, &mut self.pending);
    }
}

/// The hasher of [`TimeWindowSnapshot::query`]'s per-cell accumulator: one
/// folded multiply per flow id where SipHash spends rounds. Keyed per map
/// from `RandomState`, because flow ids read from an archive are outside
/// input and must not be able to pick their own collisions.
#[derive(Clone, Copy)]
struct FlowHash(u64);

impl FlowHash {
    fn new() -> FlowHash {
        FlowHash(RandomState::new().build_hasher().finish())
    }
}

impl BuildHasher for FlowHash {
    type Hasher = FlowHash;

    fn build_hasher(&self) -> FlowHash {
        *self
    }
}

impl Hasher for FlowHash {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let p = u128::from(self.0 ^ n) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Per-flow estimated packet counts returned by a query.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct FlowEstimates {
    /// Estimated packets per flow over the query interval.
    pub counts: HashMap<FlowId, f64>,
}

impl FlowEstimates {
    /// Merge another estimate into this one (for interval splits across
    /// snapshots).
    pub fn merge(&mut self, other: &FlowEstimates) {
        for (flow, n) in &other.counts {
            *self.counts.entry(*flow).or_insert(0.0) += n;
        }
    }

    /// Total estimated packets, summed in `FlowId` order so the bits do
    /// not depend on the map's iteration order.
    pub fn total(&self) -> f64 {
        crate::metrics::sum_by_flow(&self.counts)
    }

    /// Flows ranked by estimated count, descending.
    pub fn ranked(&self) -> Vec<(FlowId, f64)> {
        let mut v: Vec<(FlowId, f64)> = self.counts.iter().map(|(f, n)| (*f, *n)).collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time_windows::TimeWindowSet;

    fn tiny() -> TimeWindowConfig {
        // m0=0 so timestamps are TTS directly; k=2 (4 cells), T=3, alpha=1.
        TimeWindowConfig::new(0, 1, 2, 3)
    }

    fn unit_coeffs(t: u8) -> Coefficients {
        Coefficients {
            coefficient: vec![1.0; usize::from(t)],
            z: vec![1.0; usize::from(t)],
        }
    }

    #[test]
    fn interval_normalizes() {
        let q = QueryInterval::new(10, 5);
        assert_eq!((q.from, q.to), (5, 10));
        assert_eq!(q.len(), 5);
    }

    #[test]
    fn filter_keeps_current_cycle_only() {
        let mut set = TimeWindowSet::new(tiny());
        set.record(FlowId(1), 0b0001); // cycle 0, idx 1 — stale after later laps
        set.record(FlowId(2), 0b0100); // cycle 1, idx 0
        set.record(FlowId(3), 0b0110); // cycle 1, idx 2 (latest)
        let mut snap = TimeWindowSnapshot::capture(&set);
        snap.filter();
        // Latest = cycle 1, idx 2. For j ≤ 2 keep cycle 1; j = 3 keeps cycle 0.
        assert_eq!(snap.occupancy(0), 2, "flow1 at idx1/cycle0 must be dropped");
        let kept: Vec<u32> = snap
            .window(0)
            .iter()
            .filter(|c| !c.is_empty())
            .map(|c| c.flow.0)
            .collect();
        assert_eq!(kept, vec![2, 3]);
    }

    #[test]
    fn filter_keeps_previous_cycle_above_latest_index() {
        let mut set = TimeWindowSet::new(tiny());
        set.record(FlowId(1), 0b0011); // cycle 0, idx 3
        set.record(FlowId(2), 0b0101); // cycle 1, idx 1 (latest)
        let mut snap = TimeWindowSnapshot::capture(&set);
        snap.filter();
        // idx 3 > latest idx 1 and cycle 0 + 1 == 1: kept.
        assert_eq!(snap.occupancy(0), 2);
    }

    #[test]
    fn filtering_a_shared_window_leaves_its_sharers_untouched() {
        let mut set = TimeWindowSet::new(tiny());
        set.record(FlowId(1), 0b0001); // stale once the next two land
        set.record(FlowId(2), 0b0100);
        set.record(FlowId(3), 0b0110);
        let first = set.freeze();
        let mut second = set.freeze();
        assert!(Arc::ptr_eq(first.shared_window(0), second.shared_window(0)));
        second.filter();
        assert_eq!(second.occupancy(0), 2);
        assert_eq!(first.occupancy(0), 3);
        assert_eq!(first, TimeWindowSnapshot::capture(&set));
        assert_eq!(set.freeze(), first, "the set's remembered windows too");
    }

    #[test]
    fn empty_snapshot_filters_to_empty() {
        let set = TimeWindowSet::new(tiny());
        let mut snap = TimeWindowSnapshot::capture(&set);
        snap.filter();
        for w in 0..3 {
            assert_eq!(snap.occupancy(w), 0);
            assert_eq!(snap.window_span(w), None);
        }
    }

    #[test]
    fn query_counts_overlapping_cells() {
        let config = TimeWindowConfig::new(0, 1, 4, 1); // 16 cells, 1 window
        let mut set = TimeWindowSet::new(config);
        for i in 0..8u64 {
            set.record(FlowId((i % 2) as u32), i);
        }
        let snap = TimeWindowSnapshot::capture(&set);
        let est = snap.query(QueryInterval::new(2, 5), &unit_coeffs(1));
        // Cells 2..=5: flows 0,1,0,1.
        assert_eq!(est.counts[&FlowId(0)], 2.0);
        assert_eq!(est.counts[&FlowId(1)], 2.0);
        assert_eq!(est.total(), 4.0);
    }

    #[test]
    fn query_applies_coefficients() {
        let config = TimeWindowConfig::new(0, 1, 2, 2);
        let mut set = TimeWindowSet::new(config);
        // Two packets: one lands in w0 cycle1, the older passes to w1.
        set.record(FlowId(9), 0b0000);
        set.record(FlowId(8), 0b0100);
        let coeffs = Coefficients {
            coefficient: vec![1.0, 0.25],
            z: vec![1.0, 1.0],
        };
        let snap = TimeWindowSnapshot::capture(&set);
        // Flow 9's packet covered t=0 (cell period 1 ns in w0, merged into
        // 2 ns cells in w1). Query the whole past.
        let est = snap.query(QueryInterval::new(0, 10), &coeffs);
        assert_eq!(est.counts[&FlowId(8)], 1.0); // window 0, weight 1
        assert_eq!(est.counts[&FlowId(9)], 4.0); // window 1, weight 1/0.25
    }

    #[test]
    fn windows_tile_disjoint_spans() {
        // Fill enough traffic that all three windows hold data, then check
        // the spans are contiguous and non-overlapping.
        let config = TimeWindowConfig::new(0, 1, 3, 3); // 8 cells
        let mut set = TimeWindowSet::new(config);
        for t in 0..64u64 {
            set.record(FlowId((t % 5) as u32), t);
        }
        let mut snap = TimeWindowSnapshot::capture(&set);
        snap.filter();
        let s0 = snap.window_span(0).expect("w0 has data");
        let s1 = snap.window_span(1).expect("w1 has data");
        assert!(
            s1.1 <= s0.0 + config.cell_period(1), // allow cell-granularity seam
            "w1 {s1:?} must precede w0 {s0:?}"
        );
        assert!(s1.0 < s0.0);
    }

    #[test]
    fn query_outside_coverage_returns_nothing() {
        let config = TimeWindowConfig::new(0, 1, 4, 1);
        let mut set = TimeWindowSet::new(config);
        set.record(FlowId(1), 5);
        let snap = TimeWindowSnapshot::capture(&set);
        let est = snap.query(QueryInterval::new(100, 200), &unit_coeffs(1));
        assert!(est.counts.is_empty());
    }

    #[test]
    fn estimates_merge_and_rank() {
        let mut a = FlowEstimates::default();
        a.counts.insert(FlowId(1), 3.0);
        a.counts.insert(FlowId(2), 1.0);
        let mut b = FlowEstimates::default();
        b.counts.insert(FlowId(2), 4.0);
        a.merge(&b);
        let ranked = a.ranked();
        assert_eq!(ranked[0], (FlowId(2), 5.0));
        assert_eq!(ranked[1], (FlowId(1), 3.0));
    }
}

#[cfg(test)]
mod occupancy_tests {
    use super::*;
    use crate::time_windows::TimeWindowSet;

    #[test]
    fn profile_reports_fill_and_span() {
        let config = TimeWindowConfig::new(0, 1, 4, 2);
        let mut set = TimeWindowSet::new(config);
        for i in 0..8u64 {
            set.record(FlowId(i as u32), i);
        }
        let snap = TimeWindowSnapshot::capture(&set);
        let profile = snap.occupancy_profile();
        assert_eq!(profile.len(), 2);
        assert_eq!(profile[0].occupied, 8);
        assert_eq!(profile[0].cells, 16);
        assert!((profile[0].fill - 0.5).abs() < 1e-12);
        assert!(profile[0].span.is_some());
        assert_eq!(profile[1].occupied, 0);
        assert_eq!(profile[1].span, None);
    }
}
