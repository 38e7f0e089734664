//! The time-windows data structure (§4 of the paper, Algorithm 1).
//!
//! `T` ring buffers of `2^k` cells each. Every dequeued packet is written
//! into window 0 at the cell indexed by the low bits of its trimmed dequeue
//! timestamp. A collision evicts the older occupant, which is *passed* to
//! the next window only if its cycle ID is exactly one less than the
//! incoming packet's (the "one shot" passing rule) — otherwise it is
//! dropped. Deeper windows therefore hold exponentially older, exponentially
//! more compressed history in linear space (Figure 2).

use crate::params::TimeWindowConfig;
use crate::snapshot::TimeWindowSnapshot;
use crate::tts::Tts;
use pq_packet::{FlowId, Nanos};
use pq_switch::RegisterArray;
use serde::Serialize;
use std::sync::Arc;

/// One register cell: a single packet's flow ID and cycle ID (Figure 4).
///
/// On the Tofino this is a paired 32-bit register entry; 8 bytes per cell is
/// the figure the SRAM model uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Cell {
    /// Flow occupying the cell ([`FlowId::NONE`] when empty).
    pub flow: FlowId,
    /// Cycle ID of the stored packet's TTS.
    pub cycle: u64,
}

impl Cell {
    /// The empty cell.
    pub const EMPTY: Cell = Cell {
        flow: FlowId::NONE,
        cycle: u64::MAX,
    };

    /// True when no packet occupies the cell.
    pub fn is_empty(&self) -> bool {
        self.flow.is_none()
    }
}

impl Default for Cell {
    fn default() -> Self {
        Cell::EMPTY
    }
}

/// Statistics of the per-packet update path, useful for the ablation bench.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct TimeWindowStats {
    /// Packets recorded into window 0.
    pub recorded: u64,
    /// Evictions passed to a deeper window.
    pub passed: u64,
    /// Evictions dropped by the passing rule.
    pub dropped: u64,
}

/// A set of `T` time windows for one egress port.
#[derive(Debug, Clone, Serialize)]
pub struct TimeWindowSet {
    config: TimeWindowConfig,
    windows: Vec<RegisterArray<Cell>>,
    /// When false, evicted packets are always dropped instead of passed —
    /// the ablation of the Algorithm-1 passing rule.
    passing_enabled: bool,
    stats: TimeWindowStats,
    /// Each window's cells as of the last freeze (none before the first
    /// freeze or after a `clear()`).
    #[serde(skip)]
    frozen: Vec<Arc<[Cell]>>,
    /// `stats` at the last freeze. Window 0 is written only when
    /// `recorded` moves and deeper windows only when `passed` does, so the
    /// counters `record` keeps anyway tell a freeze what it may share.
    #[serde(skip)]
    frozen_stats: TimeWindowStats,
}

impl TimeWindowSet {
    /// Allocate the windows for `config`.
    pub fn new(config: TimeWindowConfig) -> TimeWindowSet {
        config.validate();
        TimeWindowSet {
            windows: (0..config.t)
                .map(|_| RegisterArray::new(config.cells()))
                .collect(),
            config,
            passing_enabled: true,
            stats: TimeWindowStats::default(),
            frozen: Vec::new(),
            frozen_stats: TimeWindowStats::default(),
        }
    }

    /// Disable the passing rule (ablation: every eviction becomes a drop).
    pub fn without_passing(mut self) -> TimeWindowSet {
        self.passing_enabled = false;
        self
    }

    /// The configuration.
    pub fn config(&self) -> &TimeWindowConfig {
        &self.config
    }

    /// Update-path statistics.
    pub fn stats(&self) -> TimeWindowStats {
        self.stats
    }

    /// Record a dequeued packet — Algorithm 1.
    ///
    /// `deq_ts` is `enq_timestamp + deq_timedelta` (§4.2). Runs one
    /// read-modify-write per window, exactly the per-stage budget the
    /// hardware implementation has ("two additional stages for each time
    /// window", §7).
    pub fn record(&mut self, flow: FlowId, deq_ts: Nanos) {
        self.stats.recorded += 1;
        let k = self.config.k;
        // Window 0 TTS.
        let mut tts = deq_ts >> self.config.m0;
        let mut incoming_flow = flow;
        for i in 0..usize::from(self.config.t) {
            let index = (tts & ((1u64 << k) - 1)) as usize;
            let cycle = tts >> k;
            let reg = &mut self.windows[i];
            reg.begin_packet();
            let evicted = reg.rmw(index, |cell| {
                let old = *cell;
                *cell = Cell {
                    flow: incoming_flow,
                    cycle,
                };
                old
            });
            // Passing rule: pass only a packet from exactly the previous
            // cycle of this cell.
            let pass = self.passing_enabled
                && !evicted.is_empty()
                && cycle.wrapping_sub(evicted.cycle) == 1;
            if !pass {
                if !evicted.is_empty() {
                    self.stats.dropped += 1;
                }
                break;
            }
            if i + 1 == usize::from(self.config.t) {
                // Evicted from the deepest window: gone for good.
                self.stats.dropped += 1;
                break;
            }
            self.stats.passed += 1;
            // Reconstruct the evicted packet's TTS in this window, then
            // shift into the next window's TTS space.
            let evicted_tts = (evicted.cycle << k) | index as u64;
            tts = evicted_tts >> self.config.alpha;
            incoming_flow = evicted.flow;
        }
    }

    /// Control-plane bulk read of window `i` (PCIe poll).
    pub fn window(&self, i: u8) -> &[Cell] {
        self.windows[usize::from(i)].as_slice()
    }

    /// Control-plane freeze: what [`TimeWindowSnapshot::capture`] reads,
    /// remembered, so the next freeze shares every window no packet writes
    /// in between instead of copying it. Polling a quiet port costs the
    /// windows that changed, not `T` copies.
    pub fn freeze(&mut self) -> TimeWindowSnapshot {
        self.freeze_counted().0
    }

    /// [`TimeWindowSet::freeze`], and how many cells it copied rather
    /// than shared.
    pub(crate) fn freeze_counted(&mut self) -> (TimeWindowSnapshot, usize) {
        let mut copied = 0;
        let (now, then) = (self.stats, self.frozen_stats);
        let windows: Vec<Arc<[Cell]>> = (0..self.windows.len())
            .map(|i| {
                let written = match i {
                    0 => now.recorded != then.recorded,
                    _ => now.passed != then.passed,
                };
                match self.frozen.get(i) {
                    Some(old) if !written => Arc::clone(old),
                    _ => {
                        copied += self.config.cells();
                        Arc::from(self.windows[i].as_slice())
                    }
                }
            })
            .collect();
        self.frozen.clone_from(&windows);
        self.frozen_stats = now;
        (
            TimeWindowSnapshot::from_shared(self.config, windows, false),
            copied,
        )
    }

    /// Control-plane reset of all windows.
    pub fn clear(&mut self) {
        for w in &mut self.windows {
            w.clear();
        }
        self.frozen.clear();
    }

    /// The latest (maximum-TTS) occupied cell of window 0, if any —
    /// `LatestCell()` of Algorithm 3.
    pub fn latest_cell(&self) -> Option<Tts> {
        self.windows[0]
            .as_slice()
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.is_empty())
            .map(|(index, c)| Tts {
                cycle: c.cycle,
                index,
            })
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A tiny configuration mirroring the Figure 6 walk-through:
    /// k = 2 (4 cells), T = 3, α = 1, and m0 = 0 so timestamps are TTS
    /// values directly.
    fn tiny() -> TimeWindowConfig {
        TimeWindowConfig::new(0, 1, 2, 3)
    }

    fn cell(set: &TimeWindowSet, w: u8, idx: usize) -> Cell {
        set.window(w)[idx]
    }

    #[test]
    fn empty_cells_start_empty() {
        let set = TimeWindowSet::new(tiny());
        for w in 0..3 {
            for idx in 0..4 {
                assert!(cell(&set, w, idx).is_empty());
            }
        }
        assert_eq!(set.latest_cell(), None);
    }

    #[test]
    fn single_packet_lands_in_window0() {
        let mut set = TimeWindowSet::new(tiny());
        // TTS 0b000_01 → cycle 0, index 1.
        set.record(FlowId(7), 0b0001);
        let c = cell(&set, 0, 1);
        assert_eq!(c.flow, FlowId(7));
        assert_eq!(c.cycle, 0);
        assert_eq!(set.stats().recorded, 1);
    }

    #[test]
    fn same_cycle_collision_drops_older() {
        // Figure 6, time step 1: A then B in the same cell and cycle — A is
        // dropped, not passed.
        let mut set = TimeWindowSet::new(tiny());
        set.record(FlowId(0xA), 0b0000); // cycle 0, index 0
        set.record(FlowId(0xB), 0b0000); // same cell, same cycle
        assert_eq!(cell(&set, 0, 0).flow, FlowId(0xB));
        assert!(cell(&set, 1, 0).is_empty(), "A must not be passed");
        assert_eq!(set.stats().dropped, 1);
    }

    #[test]
    fn next_cycle_collision_passes_older() {
        let mut set = TimeWindowSet::new(tiny());
        set.record(FlowId(0xB), 0b0000); // cycle 0, index 0
        set.record(FlowId(0xA), 0b0100); // cycle 1, index 0 → evicts B, passes it
        assert_eq!(cell(&set, 0, 0).flow, FlowId(0xA));
        // B's window-0 TTS was 0b000; window-1 TTS = 0b000 >> 1 = 0, so
        // cycle 0, index 0 of window 1.
        let passed = cell(&set, 1, 0);
        assert_eq!(passed.flow, FlowId(0xB));
        assert_eq!(passed.cycle, 0);
        assert_eq!(set.stats().passed, 1);
    }

    #[test]
    fn stale_cycle_collision_drops() {
        // Figure 6, time step 2: D's packet evicted by a packet two cycles
        // later is dropped ("its cycle ID is too far in the past").
        let mut set = TimeWindowSet::new(tiny());
        set.record(FlowId(0xD), 0b0011); // cycle 0, index 3
        set.record(FlowId(0xA), 0b1011); // cycle 2, index 3
        assert_eq!(cell(&set, 0, 3).flow, FlowId(0xA));
        assert!(cell(&set, 1, 1).is_empty());
        assert_eq!(set.stats().dropped, 1);
    }

    #[test]
    fn recursive_pass_through_windows() {
        // Figure 6, time step 3: a window-1 occupant whose cycle is exactly
        // one behind the newly passed packet gets pushed to window 2.
        let mut set = TimeWindowSet::new(tiny());
        // Packet X at TTS 0b00_00 (cycle 0) — lands w0[0].
        set.record(FlowId(1), 0b0000);
        // Packet Y at TTS 0b01_00 (cycle 1) — evicts X to w1 (TTS 0, cycle 0).
        set.record(FlowId(2), 0b0100);
        // Packet Z at TTS 0b10_00 (cycle 2) — evicts Y to w1 (TTS 0b10, cycle 0,
        // index 2)... w1 cell 2 is empty so it stops there.
        set.record(FlowId(3), 0b1000);
        assert_eq!(cell(&set, 1, 0).flow, FlowId(1));
        assert_eq!(cell(&set, 1, 2).flow, FlowId(2));
        // Packet W at TTS 0b11_00 (cycle 3) — evicts Z to w1 TTS 0b110>>...
        // Z's w0 TTS = 0b1000; w1 TTS = 0b100 → cycle 1, index 0: evicts X
        // (cycle 0) which passes to w2: X w1 TTS 0 >> 1 = 0, cycle 0, idx 0.
        set.record(FlowId(4), 0b1100);
        assert_eq!(cell(&set, 1, 0).flow, FlowId(3));
        assert_eq!(cell(&set, 2, 0).flow, FlowId(1));
        // Four passes total: flows 1, 2, 3 each passed w0→w1 once, and
        // flow 1 passed w1→w2.
        assert_eq!(set.stats().passed, 4);
    }

    #[test]
    fn eviction_from_deepest_window_is_dropped() {
        let config = TimeWindowConfig::new(0, 1, 1, 1); // single window, 2 cells
        let mut set = TimeWindowSet::new(config);
        set.record(FlowId(1), 0b00); // cycle 0 idx 0
        set.record(FlowId(2), 0b10); // cycle 1 idx 0 → evict, but no deeper window
        assert_eq!(set.stats().dropped, 1);
        assert_eq!(set.stats().passed, 0);
    }

    #[test]
    fn without_passing_always_drops() {
        let mut set = TimeWindowSet::new(tiny()).without_passing();
        set.record(FlowId(1), 0b0000);
        set.record(FlowId(2), 0b0100); // would pass under Algorithm 1
        assert!(cell(&set, 1, 0).is_empty());
        assert_eq!(set.stats().dropped, 1);
    }

    #[test]
    fn latest_cell_tracks_max_tts() {
        let mut set = TimeWindowSet::new(tiny());
        set.record(FlowId(1), 0b0001);
        set.record(FlowId(2), 0b0111); // cycle 1, index 3
        set.record(FlowId(3), 0b0110); // cycle 1, index 2
        let latest = set.latest_cell().unwrap();
        assert_eq!(latest.cycle, 1);
        assert_eq!(latest.index, 3);
    }

    #[test]
    fn clear_resets_everything() {
        let mut set = TimeWindowSet::new(tiny());
        set.record(FlowId(1), 0b0001);
        set.clear();
        assert_eq!(set.latest_cell(), None);
    }

    /// One step of a freeze run: record a packet at a timestamp, clear,
    /// or freeze.
    #[derive(Debug, Clone)]
    enum Op {
        Record(u32, Nanos),
        Clear,
        Freeze,
    }

    /// Records twelve in seventeen, freezes four, clears one.
    fn arb_op() -> impl Strategy<Value = Op> {
        (0u8..17, 0u32..4, 0u64..48).prop_map(|(pick, flow, ts)| match pick {
            0 => Op::Clear,
            1..=4 => Op::Freeze,
            _ => Op::Record(flow, ts),
        })
    }

    proptest! {
        /// A freeze reads what the unshared capture reads, cell for cell,
        /// and hands back the previous freeze's allocation only for a
        /// window that has not moved since — every window when nothing
        /// happened in between.
        #[test]
        fn freezes_equal_the_unshared_capture(
            passing in any::<bool>(),
            ops in prop::collection::vec(arb_op(), 0..80),
        ) {
            let config = TimeWindowConfig::new(0, 1, 2, 3);
            let mut set = TimeWindowSet::new(config);
            if !passing {
                set = set.without_passing();
            }
            let (mut last, mut idle, mut cleared): (Option<TimeWindowSnapshot>, bool, bool) =
                (None, true, false);
            for op in ops.iter().chain([&Op::Freeze]) {
                match op {
                    Op::Record(flow, ts) => {
                        set.record(FlowId(*flow), *ts);
                        idle = false;
                    }
                    Op::Clear => {
                        set.clear();
                        cleared = true;
                    }
                    Op::Freeze => {
                        let unshared = TimeWindowSnapshot::capture(&set);
                        let (next, copied) = set.freeze_counted();
                        prop_assert_eq!(&next, &unshared);
                        let mut not_shared = 0;
                        for w in 0..config.t {
                            let new = next.shared_window(w);
                            match last.as_ref().map(|l| l.shared_window(w)) {
                                Some(old) if Arc::ptr_eq(old, new) => {
                                    prop_assert!(!cleared, "a clear forgets every window");
                                    prop_assert_eq!(&old[..], unshared.window(w));
                                }
                                _ => not_shared += config.cells(),
                            }
                        }
                        prop_assert_eq!(copied, not_shared);
                        if last.is_some() && idle && !cleared {
                            prop_assert_eq!(copied, 0);
                        }
                        (last, idle, cleared) = (Some(next), true, false);
                    }
                }
            }
        }
    }

    #[test]
    fn packet_level_precision_in_window0_without_collisions() {
        // §4.1: with a cell period below the min packet tx delay, window 0
        // has at most one packet per cell per cycle — every packet of a
        // window period is tracked precisely.
        let config = TimeWindowConfig::new(6, 1, 8, 2); // 256 cells, 64 ns cells
        let mut set = TimeWindowSet::new(config);
        // 256 packets, one per 64 ns slot, all within one window period.
        for i in 0..256u64 {
            set.record(FlowId(i as u32), i * 64);
        }
        let occupied = set.window(0).iter().filter(|c| !c.is_empty()).count();
        assert_eq!(occupied, 256);
        assert_eq!(set.stats().dropped + set.stats().passed, 0);
    }
}
