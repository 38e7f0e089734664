//! Archive replication: seal-and-ship a `.pqa` file to a replica peer.
//!
//! The scale-out query tier (`pq-router`) assumes every owner of a shard
//! holds the *same* data, so any single owner can answer a query
//! bit-identically and a killed backend costs availability, never
//! answers. This module is the shipping half of that contract: a backend
//! seals its archive locally (the `StoreWriter` already guarantees a
//! crash-consistent file) and ships it to its replica peer with every
//! segment CRC-verified en route — a replica is published only after the
//! full file has decoded cleanly, and the publish itself is atomic
//! (write-to-temp, then rename), so a reader never observes a torn
//! replica.
//!
//! [`verify_replica`] is the audit half: it compares two archives at the
//! segment level (window geometry, per-segment port/count/CRC/time
//! bounds) and reports the first divergence, so a fleet check can prove
//! replica equivalence without decoding checkpoint bodies.

use crate::archive::publish;
use crate::format::SegmentMeta;
use crate::reader::StoreReader;
use std::fs;
use std::io::{self, Cursor, Write};
use std::path::Path;

/// What [`ship_archive`] moved, for logs and telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShipReport {
    /// Segments carried by the shipped archive.
    pub segments: usize,
    /// Ports represented in the shipped archive.
    pub ports: usize,
    /// Total bytes written to the replica.
    pub bytes: u64,
    /// Checkpoints decoded (and therefore CRC-verified) during the ship.
    pub checkpoints: u64,
}

/// Ship `src` to `dst`, verifying every segment before publishing.
///
/// The source is fully decoded first, one segment at a time — every
/// segment's body CRC is checked by the decode path — and only then
/// written to `dst` via a temporary file and an atomic rename. A failed
/// ship removes the temporary file; a crash mid-ship leaves either the old
/// replica or a `.tmp` leftover, never a half-written `.pqa`.
pub fn ship_archive(src: &Path, dst: &Path) -> io::Result<ShipReport> {
    let bytes = fs::read(src)?;
    let mut reader = StoreReader::open(Cursor::new(bytes.as_slice()))?;
    if reader.tail_torn() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "refusing to ship an archive with a torn tail",
        ));
    }
    let mut checkpoints = 0u64;
    let ports = reader.ports();
    for &port in &ports {
        // CRC-verified decode of every segment, one at a time: holding the
        // whole port decoded (as `read_port` would) is the largest
        // allocation of a replica's life for a count. A corrupt segment
        // decodes to nothing instead of failing, so compare the decoded
        // count against what the index claims: any shortfall means
        // corruption, and a corrupt source must not ship.
        let expect = reader.checkpoint_count(port);
        let decoded = reader.decodable_checkpoints(port);
        if decoded < expect {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("port {port}: decoded {decoded} of {expect} indexed checkpoints"),
            ));
        }
        checkpoints += decoded;
    }
    // Raw (non-checkpoint) segments aren't touched by that; verify
    // their body CRCs explicitly so an RTT spill can't ship corrupted.
    let raw: Vec<SegmentMeta> = reader
        .segments()
        .iter()
        .filter(|s| s.kind != crate::format::KIND_CHECKPOINTS)
        .copied()
        .collect();
    for m in &raw {
        reader.read_raw_body(m).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "port {} kind-{} segment failed verification: {e}",
                    m.port, m.kind
                ),
            )
        })?;
    }
    let report = ShipReport {
        segments: reader.segments().len(),
        ports: ports.len(),
        bytes: bytes.len() as u64,
        checkpoints,
    };
    publish(dst, |mut file| file.write_all(&bytes))?;
    Ok(report)
}

/// Why two archives are not equivalent replicas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplicaDivergence {
    /// The window geometries differ; queries would use different
    /// coefficients.
    Config,
    /// Different segment counts.
    SegmentCount { left: usize, right: usize },
    /// A segment pair differs (port, count, body CRC, or time bounds);
    /// the index is into the offset-ordered segment list.
    Segment { index: usize },
}

impl std::fmt::Display for ReplicaDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicaDivergence::Config => write!(f, "time-window configs differ"),
            ReplicaDivergence::SegmentCount { left, right } => {
                write!(f, "segment counts differ: {left} vs {right}")
            }
            ReplicaDivergence::Segment { index } => {
                write!(f, "segment {index} differs (port/kind/count/crc/bounds)")
            }
        }
    }
}

/// Compare two archives at the segment level: same window geometry and,
/// segment by segment in offset order, the same port, checkpoint count,
/// body CRC, and time bounds. Returns `Ok(None)` for equivalent replicas
/// or the first divergence found. Checkpoint bodies are not decoded —
/// the CRCs already bind them.
pub fn verify_replica(a: &Path, b: &Path) -> io::Result<Option<ReplicaDivergence>> {
    let left = StoreReader::open(Cursor::new(fs::read(a)?))?;
    let right = StoreReader::open(Cursor::new(fs::read(b)?))?;
    if left.tw_config() != right.tw_config() {
        return Ok(Some(ReplicaDivergence::Config));
    }
    let (ls, rs) = (left.segments(), right.segments());
    if ls.len() != rs.len() {
        return Ok(Some(ReplicaDivergence::SegmentCount {
            left: ls.len(),
            right: rs.len(),
        }));
    }
    let key = |s: &SegmentMeta| (s.port, s.kind, s.count, s.body_crc, s.min_t, s.max_t);
    for (index, (l, r)) in ls.iter().zip(rs.iter()).enumerate() {
        if key(l) != key(r) {
            return Ok(Some(ReplicaDivergence::Segment { index }));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{SegmentPolicy, StoreWriter};
    use pq_core::control::Checkpoint;
    use pq_core::params::TimeWindowConfig;
    use pq_core::snapshot::TimeWindowSnapshot;
    use pq_core::time_windows::Cell;
    use pq_packet::FlowId;

    fn cp(tw: &TimeWindowConfig, frozen_at: u64) -> Checkpoint {
        let mut windows = vec![vec![Cell::EMPTY; tw.cells()]; usize::from(tw.t)];
        windows[0][0] = Cell {
            flow: FlowId(frozen_at as u32),
            cycle: frozen_at,
        };
        Checkpoint {
            frozen_at,
            on_demand: false,
            trigger: None,
            windows: TimeWindowSnapshot::from_parts(*tw, windows, false),
            queue_monitors: Vec::new(),
        }
    }

    fn tiny_archive() -> Vec<u8> {
        let tw = TimeWindowConfig::new(0, 1, 6, 2);
        let mut w = StoreWriter::new(Vec::new(), tw, SegmentPolicy::default()).unwrap();
        for t in 1..=8u64 {
            w.push(3, &cp(&tw, t * 100)).unwrap();
        }
        w.finish().unwrap()
    }

    fn temp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("pq-repl-{}-{name}", std::process::id()))
    }

    #[test]
    fn ship_then_verify_round_trips() {
        let bytes = tiny_archive();
        let src = temp("src.pqa");
        let dst = temp("dst.pqa");
        fs::write(&src, &bytes).unwrap();
        let report = ship_archive(&src, &dst).unwrap();
        assert_eq!(report.bytes, bytes.len() as u64);
        assert_eq!(report.checkpoints, 8);
        assert_eq!(report.ports, 1);
        assert_eq!(verify_replica(&src, &dst).unwrap(), None);
        fs::remove_file(&src).ok();
        fs::remove_file(&dst).ok();
    }

    #[test]
    fn corrupt_source_refuses_to_ship() {
        let mut bytes = tiny_archive();
        // Flip a byte inside the first segment body (past header magic
        // and segment framing) so the body CRC no longer matches.
        let at = bytes.len() / 2;
        bytes[at] ^= 0xFF;
        let src = temp("bad.pqa");
        let dst = temp("bad-out.pqa");
        fs::write(&src, &bytes).unwrap();
        let shipped = ship_archive(&src, &dst);
        assert!(shipped.is_err(), "corrupt archive must not ship");
        assert!(!dst.exists(), "no replica may be published on failure");
        fs::remove_file(&src).ok();
    }

    #[test]
    fn decodable_count_is_the_length_read_port_would_return() {
        let tw = TimeWindowConfig::new(0, 1, 6, 2);
        let policy = SegmentPolicy {
            checkpoints_per_segment: 3,
            ..SegmentPolicy::default()
        };
        let mut w = StoreWriter::new(Vec::new(), tw, policy).unwrap();
        for t in 1..=8u64 {
            w.push((t % 2) as u16, &cp(&tw, t * 100)).unwrap();
        }
        let mut bytes = w.finish().unwrap();
        for corrupt in [false, true] {
            if corrupt {
                // Inside the first segment's body: that segment is lost.
                bytes[30] ^= 0xFF;
            }
            let mut reader = StoreReader::open(Cursor::new(bytes.as_slice())).unwrap();
            for port in [0, 1, 9] {
                let held = reader.read_port(port).unwrap().checkpoints.len() as u64;
                assert_eq!(reader.decodable_checkpoints(port), held, "port {port}");
            }
            let lost = if corrupt { 3 } else { 0 };
            assert_eq!(
                reader.decodable_checkpoints(0) + reader.decodable_checkpoints(1),
                8 - lost
            );
        }
    }

    #[test]
    fn divergent_replicas_are_detected() {
        let a = temp("va.pqa");
        let b = temp("vb.pqa");
        fs::write(&a, tiny_archive()).unwrap();
        let tw = TimeWindowConfig::new(0, 1, 6, 2);
        let mut w = StoreWriter::new(Vec::new(), tw, SegmentPolicy::default()).unwrap();
        w.push(3, &cp(&tw, 100)).unwrap();
        fs::write(&b, w.finish().unwrap()).unwrap();
        assert!(verify_replica(&a, &b).unwrap().is_some());
        fs::remove_file(&a).ok();
        fs::remove_file(&b).ok();
    }
}
