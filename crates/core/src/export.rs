//! Checkpoint export: persist the analysis program's collected state for
//! offline analysis.
//!
//! The paper's artifact ships "experiment data collected from our testing
//! and script to reproduce the paper results"; the analogous capability
//! here is serializing an [`AnalysisProgram`]'s checkpoint store to JSON
//! (human-inspectable, diffable) so a long run's registers can be archived
//! and re-queried later without re-simulating.

use crate::control::{query_slices, AnalysisProgram, Checkpoint, CoverageGap};
use crate::metrics::ControlHealth;
use crate::params::TimeWindowConfig;
use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};

/// A serializable archive of one port's checkpoints.
#[derive(Debug, Serialize, Deserialize)]
pub struct CheckpointArchive {
    /// Format version.
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

    /// Serialize as JSON.
    pub fn write_json<W: Write>(&self, w: W) -> io::Result<()> {
        serde_json::to_writer(w, self).map_err(io::Error::other)
    }

    /// Deserialize from JSON, validating the version.
    pub fn read_json<R: Read>(r: R) -> io::Result<CheckpointArchive> {
        let archive: CheckpointArchive = serde_json::from_reader(r).map_err(io::Error::other)?;
        if archive.version != 1 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "unsupported archive version",
            ));
        }
        Ok(archive)
    }

    /// Re-run a time-window query against the archived checkpoints, exactly
    /// as the live analysis program would (§6.3 semantics, including the
    /// per-checkpoint slice clamping).
    pub fn query(
        &self,
        interval: crate::snapshot::QueryInterval,
        coeffs: &crate::coefficient::Coefficients,
    ) -> crate::snapshot::FlowEstimates {
        self.query_result(interval, coeffs).estimates
    }

    /// [`CheckpointArchive::query`] with the live program's coverage
    /// annotations: recorded gaps overlapping the interval, plus the
    /// open-ended gap when the interval reaches more than `t_set` past the
    /// last archived periodic checkpoint.
    pub fn query_result(
        &self,
        interval: crate::snapshot::QueryInterval,
        coeffs: &crate::coefficient::Coefficients,
    ) -> crate::control::QueryResult {
        let mut result = crate::snapshot::FlowEstimates::default();
        let last_periodic = query_slices(&self.checkpoints, interval, coeffs, None, &mut result);
        let mut gaps: Vec<CoverageGap> = self
            .gaps
            .iter()
            .filter(|g| g.overlaps(interval))
            .copied()
            .collect();
        let t_set = self.tw_config.set_period();
        let last = last_periodic.unwrap_or(0);
        if interval.to > last.saturating_add(t_set) {
            gaps.push(CoverageGap {
                from: last,
                to: interval.to,
            });
        }
        crate::control::QueryResult {
            degraded: !gaps.is_empty(),
            estimates: result,
            gaps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coefficient::Coefficients;
    use crate::control::ControlConfig;
    use crate::snapshot::QueryInterval;
    use pq_packet::FlowId;

    fn program_with_data() -> AnalysisProgram {
        let tw = TimeWindowConfig::new(0, 1, 6, 2);
        let mut ap = AnalysisProgram::new(
            tw,
            ControlConfig {
                poll_period: 64,
                max_snapshots: 16,
            },
            &[0],
            32,
            1,
            1,
        );
        for t in 0..48u64 {
            ap.record_dequeue(0, FlowId((t % 3) as u32), t);
        }
        ap.qm_enqueue(0, 0, FlowId(7), 5, 10);
        ap.on_tick(64);
        ap
    }

    #[test]
    fn archive_roundtrips_through_json() {
        let ap = program_with_data();
        let archive = CheckpointArchive::capture(&ap, 0);
        let mut buf = Vec::new();
        archive.write_json(&mut buf).unwrap();
        let back = CheckpointArchive::read_json(buf.as_slice()).unwrap();
        assert_eq!(back.checkpoints.len(), archive.checkpoints.len());
        assert_eq!(back.tw_config, archive.tw_config);
        assert_eq!(
            back.checkpoints[0].frozen_at,
            archive.checkpoints[0].frozen_at
        );
    }

    #[test]
    fn archived_queries_match_live_queries() {
        let ap = program_with_data();
        let interval = QueryInterval::new(0, 47);
        let live = ap.query_time_windows(0, interval);

        let archive = CheckpointArchive::capture(&ap, 0);
        let mut buf = Vec::new();
        archive.write_json(&mut buf).unwrap();
        let back = CheckpointArchive::read_json(buf.as_slice()).unwrap();
        let coeffs = Coefficients::compute(&back.tw_config, 1);
        let offline = back.query(interval, &coeffs);

        assert_eq!(live.counts.len(), offline.counts.len());
        for (flow, n) in &live.counts {
            assert!((offline.counts[flow] - n).abs() < 1e-9);
        }
    }

    #[test]
    fn queue_monitor_state_survives_archiving() {
        let ap = program_with_data();
        let archive = CheckpointArchive::capture(&ap, 0);
        let mut buf = Vec::new();
        archive.write_json(&mut buf).unwrap();
        let back = CheckpointArchive::read_json(buf.as_slice()).unwrap();
        let culprits = back.checkpoints[0]
            .queue_monitor()
            .expect("archived checkpoint has a monitor")
            .original_culprits();
        assert_eq!(culprits.len(), 1);
        assert_eq!(culprits[0].flow, FlowId(7));
    }

    #[test]
    fn version_mismatch_rejected() {
        let ap = program_with_data();
        let mut archive = CheckpointArchive::capture(&ap, 0);
        archive.version = 99;
        let mut buf = Vec::new();
        archive.write_json(&mut buf).unwrap();
        assert!(CheckpointArchive::read_json(buf.as_slice()).is_err());
    }
}
