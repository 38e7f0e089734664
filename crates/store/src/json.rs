//! Format detection and the one-way JSON import.
//!
//! `.pqa` is the only format anything writes. Archives written by earlier
//! versions are JSON (`CheckpointArchive` from `pq-core`), either a single
//! object (one port) or an array (multi-port); readers sniff the leading
//! bytes — `"PQAR"` for binary, `{`/`[` for JSON — and import JSON into
//! `.pqa` ([`archives_to_pqa`]) before answering anything from it.

use crate::format::{check_tw_config, invalid, FILE_MAGIC};
use crate::reader::StoreReader;
use crate::writer::{SegmentPolicy, StoreWriter};
use pq_core::export::CheckpointArchive;
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// The two archive encodings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArchiveFormat {
    /// `CheckpointArchive` JSON (object or array).
    Json,
    /// Segmented binary `.pqa`.
    Pqa,
}

impl ArchiveFormat {
    /// Sniff a format from leading bytes.
    pub fn sniff(head: &[u8]) -> io::Result<ArchiveFormat> {
        if head.starts_with(&FILE_MAGIC) {
            return Ok(ArchiveFormat::Pqa);
        }
        match head.iter().find(|b| !b.is_ascii_whitespace()) {
            Some(b'{') | Some(b'[') => Ok(ArchiveFormat::Json),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "unrecognized archive format (neither PQAR magic nor JSON)",
            )),
        }
    }

    /// Sniff a file on disk.
    pub fn detect(path: &Path) -> io::Result<ArchiveFormat> {
        let mut head = [0u8; 16];
        let mut file = File::open(path)?;
        let n = file.read(&mut head)?;
        ArchiveFormat::sniff(&head[..n])
    }
}

/// Parse JSON archive text: a single object (historical single-port
/// format) or an array of archives. Refuses, with `InvalidData`, any
/// archive whose window configuration the store would refuse, or holding a
/// checkpoint whose windows are not that configuration's `t` windows of
/// `cells()` cells — shapes a query or an encoder would index out of.
pub fn archives_from_json(text: &str) -> io::Result<Vec<CheckpointArchive>> {
    let archives: Vec<CheckpointArchive> = if text.trim_start().starts_with('[') {
        serde_json::from_str(text).map_err(io::Error::other)?
    } else {
        vec![serde_json::from_str(text).map_err(io::Error::other)?]
    };
    for a in &archives {
        if a.version != 1 {
            return Err(invalid("unsupported archive version"));
        }
        check_tw_config(&a.tw_config)?;
        for (i, cp) in a.checkpoints.iter().enumerate() {
            if *cp.windows.config() != a.tw_config || !cp.windows.is_well_formed() {
                return Err(invalid(format!(
                    "port {} checkpoint {i}: time windows do not match the archive's \
                     configuration {:?}",
                    a.port, a.tw_config
                )));
            }
        }
    }
    Ok(archives)
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

/// Load archives from `path` in either format, auto-detected.
pub fn read_archives(path: &Path) -> io::Result<Vec<CheckpointArchive>> {
    match ArchiveFormat::detect(path)? {
        ArchiveFormat::Json => {
            let mut text = String::new();
            File::open(path)?.read_to_string(&mut text)?;
            archives_from_json(&text)
        }
        ArchiveFormat::Pqa => {
            let mut reader = StoreReader::open(BufReader::new(File::open(path)?))?;
            reader.read_all()
        }
    }
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
