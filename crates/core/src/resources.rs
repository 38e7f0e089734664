//! SRAM and control-plane bandwidth models (Figures 13, 14, 15 and the §7.2
//! queue-monitor SRAM figure).
//!
//! Absolute constants are calibrated to the ballpark the paper reports —
//! e.g. the total register SRAM budget is set so a single-port queue
//! monitor lands near the paper's 12.81% utilisation — and every formula is
//! pure arithmetic on the configuration, so relative comparisons (the shape
//! of every figure) are exact.

use crate::params::TimeWindowConfig;
use pq_packet::Nanos;
use serde::Serialize;

/// Bytes per time-window cell: a 32-bit flow signature plus a 32-bit
/// cycle-ID register pair.
pub const TW_CELL_BYTES: u64 = 8;

/// Bytes per queue-monitor entry: increase and decrease halves of
/// (32-bit flow, 32-bit sequence).
pub const QM_ENTRY_BYTES: u64 = 16;

/// Register copies kept per structure for freeze-and-read (Figure 8: two
/// polling copies plus the special set).
pub const REGISTER_COPIES: u64 = 3;

/// SRAM available to register allocation in the model, in bytes.
///
/// Calibrated so the single-port queue monitor of the case-study setup
/// (32 Ki entries × 16 B × 3 copies = 1.5 MiB) sits at ≈ 12.8% — the
/// utilisation the paper reports in §7.2.
pub const SRAM_BUDGET_BYTES: u64 = 12 * 1024 * 1024;

/// Analysis-program read ceiling in MB/s (PCIe polling + Python front end
/// in the paper; Figure 13's "data exchange limit"). All configurations the
/// paper actually uses sit below this line.
pub const READ_LIMIT_MBPS: f64 = 50.0;

/// Round `ports` up to the next power of two — the paper's `r(#ports)`
/// register partitioning (§6.1).
pub fn r_ports(ports: u32) -> u32 {
    ports.max(1).next_power_of_two()
}

/// Resource summary for one configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ResourceModel {
    /// Time-window SRAM in bytes (all copies, all port partitions).
    pub tw_sram_bytes: u64,
    /// Queue-monitor SRAM in bytes.
    pub qm_sram_bytes: u64,
    /// Control-plane read rate required for gap-free coverage, MB/s.
    pub control_mbps: f64,
    /// The set period the read rate is computed against.
    pub set_period: Nanos,
}

impl ResourceModel {
    /// Compute the model for `tw` activated on `ports` ports with a queue
    /// monitor of `qm_entries` entries per port.
    pub fn new(tw: &TimeWindowConfig, ports: u32, qm_entries: u64) -> ResourceModel {
        let partitions = u64::from(r_ports(ports));
        let tw_bytes_one = u64::from(tw.t) * tw.cells() as u64 * TW_CELL_BYTES;
        let qm_bytes_one = qm_entries * QM_ENTRY_BYTES;
        let tw_sram_bytes = tw_bytes_one * partitions * REGISTER_COPIES;
        let qm_sram_bytes = qm_bytes_one * partitions * REGISTER_COPIES;
        // Per set period the control plane reads one copy of everything on
        // every *active* port (not the rounded partition count).
        let set_period = tw.set_period();
        let read_bytes = (tw_bytes_one + qm_bytes_one) * u64::from(ports.max(1));
        let control_mbps = read_bytes as f64 / (set_period as f64 / 1e9) / 1e6;
        ResourceModel {
            tw_sram_bytes,
            qm_sram_bytes,
            control_mbps,
            set_period,
        }
    }

    /// Total SRAM bytes.
    pub fn total_sram(&self) -> u64 {
        self.tw_sram_bytes + self.qm_sram_bytes
    }

    /// Utilisation of the modelled SRAM budget, in percent.
    pub fn sram_utilization_pct(&self) -> f64 {
        self.total_sram() as f64 / SRAM_BUDGET_BYTES as f64 * 100.0
    }

    /// Is the control-plane read rate within the feasibility ceiling?
    pub fn control_feasible(&self) -> bool {
        self.control_mbps <= READ_LIMIT_MBPS
    }
}

/// Storage a *linear* (per-packet) approach needs over `duration` at
/// `pps` packets/sec with `record_bytes` per packet — NetSight/BurstRadar-
/// style logging for Figure 14(a).
pub fn linear_storage_bytes(duration: Nanos, pps: f64, record_bytes: u64) -> f64 {
    pps * (duration as f64 / 1e9) * record_bytes as f64
}

/// Storage PrintQueue's time windows need to *cover* `duration`: the cells
/// of every window whose cumulative span is required, ~independent of
/// packet rate.
///
/// The window count needed is the smallest `T' ≤ T` whose set period
/// reaches `duration`; beyond the configured maximum the duration is simply
/// not coverable and the full size is returned.
pub fn exponential_storage_bytes(tw: &TimeWindowConfig, duration: Nanos) -> f64 {
    let mut covered: Nanos = 0;
    let mut bytes: u64 = 0;
    for i in 0..tw.t {
        if covered >= duration {
            break;
        }
        covered += tw.window_period(i);
        bytes += tw.cells() as u64 * TW_CELL_BYTES;
    }
    bytes as f64
}

/// The window index holding data of age `age` (how far in the past), or the
/// deepest window when the age exceeds the set period.
pub fn window_at_age(tw: &TimeWindowConfig, age: Nanos) -> u8 {
    let mut covered: Nanos = 0;
    for i in 0..tw.t {
        covered += tw.window_period(i);
        if age < covered {
            return i;
        }
    }
    tw.t - 1
}

/// Storage PrintQueue dedicates to representing a span of `duration` whose
/// data has aged `duration` into the structure — Figure 14(a)'s
/// denominator. By then the span's packets live in the window at that age,
/// where one cell covers a whole cell period; a linear system still holds
/// every packet record for the same span (the numerator via
/// [`linear_storage_bytes`]). Larger α pushes age-`duration` data into
/// coarser windows, which is why the ratio curves of Figure 14(a) fan out
/// with α.
pub fn exponential_aged_bytes(tw: &TimeWindowConfig, duration: Nanos) -> f64 {
    let w = window_at_age(tw, duration);
    let cells = (duration / tw.cell_period(w)).clamp(1, tw.cells() as u64);
    (cells * TW_CELL_BYTES) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn r_ports_rounds_to_power_of_two() {
        assert_eq!(r_ports(1), 1);
        assert_eq!(r_ports(2), 2);
        assert_eq!(r_ports(3), 4);
        assert_eq!(r_ports(10), 16);
        assert_eq!(r_ports(0), 1);
    }

    #[test]
    fn case_study_qm_utilisation_near_paper() {
        // 32 Ki entries × 16 B × 3 copies = 1.5 MiB of 12 MiB = 12.5%,
        // near the paper's 12.81%.
        let m = ResourceModel::new(&TimeWindowConfig::WS_DM, 1, 32 * 1024);
        let qm_pct = m.qm_sram_bytes as f64 / SRAM_BUDGET_BYTES as f64 * 100.0;
        assert!(
            (11.0..14.5).contains(&qm_pct),
            "queue-monitor utilisation {qm_pct:.2}%"
        );
    }

    #[test]
    fn sram_grows_with_k_and_t() {
        let small = ResourceModel::new(&TimeWindowConfig::new(6, 1, 10, 3), 1, 0);
        let big = ResourceModel::new(&TimeWindowConfig::new(6, 1, 12, 5), 1, 0);
        assert!(big.tw_sram_bytes > small.tw_sram_bytes);
        // k: ×4 cells; T: ×5/3 windows.
        assert_eq!(big.tw_sram_bytes, small.tw_sram_bytes * 4 * 5 / 3);
    }

    #[test]
    fn alpha_does_not_change_sram() {
        // §7.2: "α does not affect resource consumption."
        let a1 = ResourceModel::new(&TimeWindowConfig::new(6, 1, 12, 4), 1, 0);
        let a3 = ResourceModel::new(&TimeWindowConfig::new(6, 3, 12, 4), 1, 0);
        assert_eq!(a1.tw_sram_bytes, a3.tw_sram_bytes);
    }

    #[test]
    fn alpha_reduces_control_bandwidth() {
        // Larger α → longer set period → fewer reads per second.
        let a1 = ResourceModel::new(&TimeWindowConfig::new(6, 1, 12, 4), 1, 0);
        let a2 = ResourceModel::new(&TimeWindowConfig::new(6, 2, 12, 4), 1, 0);
        assert!(a2.control_mbps < a1.control_mbps);
    }

    #[test]
    fn k_does_not_change_control_bandwidth() {
        // §7.2: "The parameter k does not influence parameter feasibility,
        // as the set period and the number of registers are multiplied by
        // the same factor." (Holds for the time-window share.)
        let k11 = ResourceModel::new(&TimeWindowConfig::new(6, 2, 11, 4), 1, 0);
        let k12 = ResourceModel::new(&TimeWindowConfig::new(6, 2, 12, 4), 1, 0);
        assert!((k11.control_mbps - k12.control_mbps).abs() < 1e-9);
    }

    #[test]
    fn paper_configs_are_feasible() {
        for tw in [TimeWindowConfig::UW, TimeWindowConfig::WS_DM] {
            let m = ResourceModel::new(&tw, 1, 32 * 1024);
            assert!(
                m.control_feasible(),
                "{} needs {:.1} MB/s",
                tw.label(),
                m.control_mbps
            );
        }
    }

    #[test]
    fn linear_vs_exponential_grows_with_duration() {
        // Figure 14(a): the advantage ratio grows with the covered
        // duration, reaching orders of magnitude.
        let tw = TimeWindowConfig::new(6, 2, 12, 5);
        let pps = 9.1e6; // UW
        let record = 16u64; // per-packet telemetry record
        let r_short =
            linear_storage_bytes(1 << 19, pps, record) / exponential_storage_bytes(&tw, 1 << 19);
        let r_long =
            linear_storage_bytes(1 << 23, pps, record) / exponential_storage_bytes(&tw, 1 << 23);
        assert!(r_long > r_short, "ratio must grow: {r_short} vs {r_long}");
    }

    #[test]
    fn window_at_age_walks_coverage() {
        let tw = TimeWindowConfig::new(6, 1, 12, 4); // periods 2^18..2^21
        assert_eq!(window_at_age(&tw, 0), 0);
        assert_eq!(window_at_age(&tw, (1 << 18) - 1), 0);
        assert_eq!(window_at_age(&tw, 1 << 18), 1);
        assert_eq!(window_at_age(&tw, (1 << 18) + (1 << 19)), 2);
        assert_eq!(window_at_age(&tw, u64::MAX >> 1), 3);
    }

    #[test]
    fn aged_storage_advantage_fans_out_with_alpha() {
        // The same aged duration costs fewer cells under larger α: the
        // data has been compressed into a coarser window.
        let d = 1u64 << 22;
        let a1 = exponential_aged_bytes(&TimeWindowConfig::new(6, 1, 12, 5), d);
        let a3 = exponential_aged_bytes(&TimeWindowConfig::new(6, 3, 12, 5), d);
        assert!(a3 < a1, "alpha=3 should compress more: {a3} vs {a1}");
        // And the linear:exponential ratio at 2^22 should reach well into
        // the hundreds for α=3 with NetSight-sized (~40 B) postcards
        // (the paper: up to three orders of magnitude).
        let ratio = linear_storage_bytes(d, 9.1e6, 40) / a3;
        assert!(ratio > 100.0, "ratio only {ratio}");
    }

    #[test]
    fn ten_ports_with_small_k_fit() {
        // Figure 15: with α=2 and shrunken k, 10 ports fit the budget.
        let m = ResourceModel::new(&TimeWindowConfig::new(10, 2, 10, 4), 10, 4096);
        assert!(
            m.sram_utilization_pct() < 100.0,
            "10-port config uses {:.1}%",
            m.sram_utilization_pct()
        );
    }
}
