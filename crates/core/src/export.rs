//! Checkpoint export: one port's collected state, as the `.pqa` store
//! writes and reads it back (`pq-store`).
//!
//! The paper's artifact ships "experiment data collected from our testing
//! and script to reproduce the paper results"; the analogous capability
//! here is persisting an [`AnalysisProgram`]'s checkpoint store so a long
//! run's registers can be archived and re-queried later without
//! re-simulating. `Deserialize` remains for one purpose: importing the
//! JSON archives earlier versions wrote.

use crate::control::{AnalysisProgram, Checkpoint, CoverageGap};
use crate::metrics::ControlHealth;
use crate::params::TimeWindowConfig;
use serde::Deserialize;

/// One port's checkpoints, gaps and control-plane health.
#[derive(Debug, PartialEq, Deserialize)]
pub struct CheckpointArchive {
    /// Format version of an imported JSON archive (always 1).
    pub version: u32,
    /// The time-window configuration the checkpoints were captured under.
    pub tw_config: TimeWindowConfig,
    /// The port the checkpoints belong to.
    pub port: u16,
    /// The checkpoints, oldest first.
    pub checkpoints: Vec<Checkpoint>,
    /// Coverage gaps recorded for the port (empty for archives captured
    /// before fault tracking, via the serde default).
    #[serde(default)]
    pub gaps: Vec<CoverageGap>,
    /// Control-plane health counters at capture time (all-zero for old
    /// archives, via the serde default).
    #[serde(default)]
    pub health: ControlHealth,
}

impl CheckpointArchive {
    /// Capture an archive from a live analysis program.
    pub fn capture(analysis: &AnalysisProgram, port: u16) -> CheckpointArchive {
        CheckpointArchive {
            version: 1,
            tw_config: *analysis.tw_config(),
            port,
            checkpoints: analysis.checkpoints(port).to_vec(),
            gaps: analysis.coverage_gaps(port).to_vec(),
            health: analysis.health(),
        }
    }
}
