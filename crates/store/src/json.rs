//! Format detection and JSON ⇄ `.pqa` migration.
//!
//! Pre-existing archives are JSON (`CheckpointArchive` from `pq-core`),
//! either a single object (one port, the historical format) or an array
//! (multi-port). Everything here sniffs the leading bytes — `"PQAR"` for
//! binary, `{`/`[` for JSON — so tools never need a format flag to
//! *read*, only to *write*.

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

/// Serialize archives as JSON: a bare object for one port (byte-compatible
/// with pre-store archives), an array for several.
pub fn archives_to_json<W: Write>(mut w: W, archives: &[CheckpointArchive]) -> io::Result<()> {
    match archives {
        [single] => single.write_json(w),
        many => serde_json::to_writer(&mut w, many).map_err(io::Error::other),
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

/// Write archives to `path` in `format`. The file appears only once it is
/// complete: a refused or failed write leaves no file behind, and leaves an
/// existing `path` untouched.
pub fn write_archives(
    path: &Path,
    archives: &[CheckpointArchive],
    format: ArchiveFormat,
    policy: SegmentPolicy,
) -> io::Result<()> {
    publish(path, |file| match format {
        ArchiveFormat::Json => {
            let mut w = BufWriter::new(file);
            archives_to_json(&mut w, archives)?;
            w.flush()
        }
        ArchiveFormat::Pqa => archives_to_pqa(BufWriter::new(file), archives, policy)?.flush(),
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

/// Pick a write format from a path extension (`.pqa` → binary, else
/// JSON), for tools where the user named an output file but no format.
pub fn format_for_path(path: &Path) -> ArchiveFormat {
    match path.extension().and_then(|e| e.to_str()) {
        Some(ext) if ext.eq_ignore_ascii_case("pqa") => ArchiveFormat::Pqa,
        _ => ArchiveFormat::Json,
    }
}
