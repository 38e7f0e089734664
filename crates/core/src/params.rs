//! Time-window configuration and derived periods (§4.1 of the paper).
//!
//! A set of `T` time windows, each with `2^k` cells. Window 0's cell period
//! is `2^m0` nanoseconds; each deeper window's cell (and window) period is
//! `2^alpha` times larger. The whole set covers the *set period*
//! `Σ_{i<T} 2^{m0 + αi + k} = (2^{αT} − 1)/(2^α − 1) · 2^{m0+k}` ns.

use pq_packet::Nanos;
use serde::Serialize;

/// Configuration of a set of time windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TimeWindowConfig {
    /// `m0`: log2 of window 0's cell period in nanoseconds. Chosen as
    /// `⌊log2(min packet transmission delay)⌋` so window 0 never sees two
    /// packets in one cell period (§4.1; m0 = 6 for 64 B at ~10 Gbps,
    /// m0 = 10 for MTU packets).
    pub m0: u8,
    /// `α`: compression factor between consecutive windows.
    pub alpha: u8,
    /// `k`: log2 of the number of cells per window (typically 12 → 4096).
    pub k: u8,
    /// `T`: number of windows.
    pub t: u8,
}

impl TimeWindowConfig {
    /// The paper's UW-trace configuration (§7.1).
    pub const UW: TimeWindowConfig = TimeWindowConfig {
        m0: 6,
        alpha: 2,
        k: 12,
        t: 4,
    };

    /// The paper's WS/DM-trace configuration (§7.1).
    pub const WS_DM: TimeWindowConfig = TimeWindowConfig {
        m0: 10,
        alpha: 1,
        k: 12,
        t: 4,
    };

    /// Construct, validating the shift arithmetic stays in 64 bits.
    pub fn new(m0: u8, alpha: u8, k: u8, t: u8) -> TimeWindowConfig {
        let config = TimeWindowConfig { m0, alpha, k, t };
        config.validate();
        config
    }

    /// Panics when the parameters are structurally invalid.
    pub fn validate(&self) {
        assert!(self.t >= 1, "need at least one window");
        assert!(self.alpha >= 1, "alpha must be at least 1");
        assert!(self.k >= 1 && self.k <= 24, "k out of range");
        let max_shift = u32::from(self.m0)
            + u32::from(self.alpha) * (u32::from(self.t) - 1)
            + u32::from(self.k);
        assert!(max_shift < 63, "periods overflow u64 nanoseconds");
    }

    /// Cells per window (`2^k`).
    pub fn cells(&self) -> usize {
        1usize << self.k
    }

    /// Cell period of window `i` in nanoseconds (`2^{m0 + αi}`).
    pub fn cell_period(&self, i: u8) -> Nanos {
        debug_assert!(i < self.t);
        1u64 << (self.m0 + self.alpha * i)
    }

    /// Window period of window `i` in nanoseconds (`2^{m0 + αi + k}`).
    pub fn window_period(&self, i: u8) -> Nanos {
        self.cell_period(i) << self.k
    }

    /// The set period: total contiguous span covered by all `T` windows.
    pub fn set_period(&self) -> Nanos {
        (0..self.t).map(|i| self.window_period(i)).sum()
    }

    /// Total right-shift applied to the raw timestamp for window `i`
    /// (`m0 + αi`).
    pub fn shift(&self, i: u8) -> u32 {
        u32::from(self.m0) + u32::from(self.alpha) * u32::from(i)
    }

    /// Short label used in experiment output, e.g. `1_12_4` for
    /// α=1, k=12, T=4 (the naming of Figure 13).
    pub fn label(&self) -> String {
        format!("{}_{}_{}", self.alpha, self.k, self.t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_uw_periods() {
        let c = TimeWindowConfig::UW; // m0=6, alpha=2, k=12, T=4
        assert_eq!(c.cells(), 4096);
        assert_eq!(c.cell_period(0), 64);
        assert_eq!(c.cell_period(1), 256);
        assert_eq!(c.cell_period(2), 1024);
        assert_eq!(c.cell_period(3), 4096);
        // Window period 0 = 64 ns * 4096 = 262.144 µs — "more than 100 µs"
        // as §4.1 promises for microburst coverage.
        assert_eq!(c.window_period(0), 262_144);
        // Set period = (2^8 - 1) / (2^2 - 1) * 2^18 = 85 * 262144.
        assert_eq!(c.set_period(), 85 * 262_144);
    }

    #[test]
    fn alpha3_cell_periods_match_paper_example() {
        // §7.1: "With α = 3, T = 4, the cell periods of the four windows are
        // 64 ns, 512 ns, 4 µs, and 32 µs."
        let c = TimeWindowConfig::new(6, 3, 12, 4);
        assert_eq!(c.cell_period(0), 64);
        assert_eq!(c.cell_period(1), 512);
        assert_eq!(c.cell_period(2), 4_096);
        assert_eq!(c.cell_period(3), 32_768);
    }

    #[test]
    fn set_period_closed_form() {
        for (m0, alpha, k, t) in [(6, 2, 12, 4), (10, 1, 12, 5), (6, 3, 10, 3)] {
            let c = TimeWindowConfig::new(m0, alpha, k, t);
            let closed = ((1u64 << (alpha * t)) - 1) / ((1u64 << alpha) - 1) * (1u64 << (m0 + k));
            assert_eq!(c.set_period(), closed, "config {c:?}");
        }
    }

    #[test]
    fn label_format() {
        assert_eq!(TimeWindowConfig::UW.label(), "2_12_4");
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn rejects_overflowing_shifts() {
        TimeWindowConfig::new(40, 4, 20, 4);
    }
}
