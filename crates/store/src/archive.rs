//! One port's archived state in RAM, and whole archives to and from disk.
//!
//! `.pqa` is the only archive format: [`read_archives`] decodes a file of
//! any format version, and [`write_archives`] writes the current one.

use crate::reader::StoreReader;
use crate::writer::{SegmentPolicy, StoreWriter};
use pq_core::control::{AnalysisProgram, Checkpoint, CoverageGap};
use pq_core::metrics::ControlHealth;
use pq_core::params::TimeWindowConfig;
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

/// One port's checkpoints, gaps and control-plane health.
#[derive(Debug, PartialEq)]
pub struct CheckpointArchive {
    /// The time-window configuration the checkpoints were captured under.
    pub tw_config: TimeWindowConfig,
    /// The port the checkpoints belong to.
    pub port: u16,
    /// The checkpoints, oldest first.
    pub checkpoints: Vec<Checkpoint>,
    /// Coverage gaps recorded for the port.
    pub gaps: Vec<CoverageGap>,
    /// Control-plane health counters at capture time.
    pub health: ControlHealth,
}

impl CheckpointArchive {
    /// Capture an archive from a live analysis program.
    pub fn capture(analysis: &AnalysisProgram, port: u16) -> CheckpointArchive {
        CheckpointArchive {
            tw_config: *analysis.tw_config(),
            port,
            checkpoints: analysis.checkpoints(port).to_vec(),
            gaps: analysis.coverage_gaps(port).to_vec(),
            health: analysis.health(),
        }
    }
}

/// Write archives as a `.pqa` store. All archives must share one window
/// configuration (a store holds a single register geometry).
pub fn archives_to_pqa<W: Write>(
    out: W,
    archives: &[CheckpointArchive],
    policy: SegmentPolicy,
) -> io::Result<W> {
    let Some(first) = archives.first() else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "no archives to write",
        ));
    };
    let mut writer = StoreWriter::new(out, first.tw_config, policy)?;
    for archive in archives {
        if archive.tw_config != first.tw_config {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "archives disagree on window configuration",
            ));
        }
        for cp in &archive.checkpoints {
            writer.push(archive.port, cp)?;
        }
        for gap in &archive.gaps {
            writer.push_gap(archive.port, *gap);
        }
        writer.set_health(archive.port, archive.health);
    }
    writer.finish()
}

/// Load every port's archive from the `.pqa` store at `path`.
pub fn read_archives(path: &Path) -> io::Result<Vec<CheckpointArchive>> {
    StoreReader::open(BufReader::new(File::open(path)?))?.read_all()
}

/// Write archives to `path` as a `.pqa` store. The file appears only once
/// it is complete: a refused or failed write leaves no file behind, and
/// leaves an existing `path` untouched.
pub fn write_archives(
    path: &Path,
    archives: &[CheckpointArchive],
    policy: SegmentPolicy,
) -> io::Result<()> {
    publish(path, |file| {
        archives_to_pqa(BufWriter::new(file), archives, policy)?.flush()
    })
}

/// Create `path` only once it is complete: `write` fills a sibling
/// `<path>.tmp`, which is renamed over `path` on success and removed on
/// failure. A refused or failed write leaves nothing a reader could mistake
/// for an archive, and leaves an existing `path` untouched.
pub(crate) fn publish(path: &Path, write: impl FnOnce(File) -> io::Result<()>) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let published = File::create(&tmp)
        .and_then(write)
        .and_then(|()| fs::rename(&tmp, path));
    if published.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    published
}
