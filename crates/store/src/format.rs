//! The `.pqa` on-disk layout: magic numbers, file header, segment metadata,
//! and the trailer index.
//!
//! ```text
//! FILE    := HEADER SEGMENT* [TRAILER]
//! HEADER  := "PQAR" | version u8 (1, 2 or 3) | m0 u8 | alpha u8 | k u8 | t u8
//! SEGMENT := "PQSG" | hdr_len varint | SEGHDR | body_len varint | body
//!            | crc32(body) u32-LE
//! SEGHDR  := port varint | count varint | min_t varint | max_t varint
//!            | prev_periodic varint (0 = none, else value+1)
//!            | last_periodic varint (0 = none, else value+1)
//!            | [kind varint]          (absent = 0 = checkpoints)
//! TRAILER := "PQIX" | index bytes | crc32(index) u32-LE
//!            | index_len u64-LE | "PQEN"
//! ```
//!
//! **Versions.** The writer writes version 3; the reader reads 1, 2 and 3.
//! They differ only inside a checkpoint (see [`codec`](crate::codec)):
//! version 1 writes every occupied monitor row, version 2 writes one tag
//! per [`SLOT_LEVELS`]-level monitor slot, and a slot unchanged since the
//! previous checkpoint of the same segment costs one byte. Version 3 keeps
//! those slots and writes a time window either whole or as a patch of the
//! cells that changed since the same window of the previous checkpoint in
//! the segment; an unchanged window costs one byte. Framing, index and
//! segment kinds are the same in all three.
//!
//! **Segment kinds.** `kind` selects the body codec: 0 is the original
//! checkpoint stream, 1 is an RTT report (`pq-rtt`), and anything else
//! belongs to a future writer. The field rides in two back-compatible
//! places: as an optional trailing varint inside the length-delimited
//! SEGHDR (readers that stop after `last_periodic` simply ignore it), and
//! as an optional kinds array appended after the per-port section of the
//! trailer index (old readers never look past the ports they parsed).
//! Kind-0-only archives encode byte-identically to the pre-kind format.
//! A reader encountering a kind it does not know **skips the segment and
//! surfaces its span as a coverage gap with a distinct unknown-kind
//! reason** (see `StoreReader::unknown_kind_gaps`) — never a decode
//! failure — so old binaries degrade gracefully on new archives.
//!
//! Everything after the fixed 9-byte header is append-only. A segment is
//! written in one `write` burst at seal time, so its header metadata
//! (span, count, chain seed) is always complete even when the *body* is
//! torn by a crash. The trailer is written once by
//! [`StoreWriter::finish`](crate::StoreWriter::finish); a reader that
//! finds it missing or corrupt falls back to a forward scan of the
//! segment chain (see [`StoreReader`](crate::StoreReader)).
//!
//! The `prev_periodic` seed is what makes time-range pruning exact: §6.3
//! query slicing clamps each checkpoint's contribution to
//! `(previous periodic freeze, freeze]`, so a reader that skips whole
//! segments must know the chain value at the first decoded checkpoint.

use crate::crc::crc32;
use pq_core::control::CoverageGap;
use pq_core::metrics::ControlHealth;
use pq_core::params::TimeWindowConfig;
use pq_packet::Nanos;
use pq_prof::codec::{self, put_u32, put_u64, put_varint};
use std::io::{self, Write};

/// File magic: "PQAR" (PrintQueue ARchive).
pub const FILE_MAGIC: [u8; 4] = *b"PQAR";
/// Segment magic.
pub const SEGMENT_MAGIC: [u8; 4] = *b"PQSG";
/// Trailer-index magic.
pub const TRAILER_MAGIC: [u8; 4] = *b"PQIX";
/// End-of-file magic (after the trailer length).
pub const END_MAGIC: [u8; 4] = *b"PQEN";
/// Format version the writer writes.
pub const VERSION: u8 = 3;
/// The first format version: every checkpoint whole. Read, never written.
pub const VERSION_V1: u8 = 1;
/// The second format version: monitor slots refer back, windows are
/// whole. Read, never written.
pub const VERSION_V2: u8 = 2;
/// Depth levels per queue-monitor slot of a version-2 or -3 checkpoint.
pub const SLOT_LEVELS: usize = 1024;
// The codec maps pq-core's snapshot chunk `c` to slot `c`. Retuning the
// chunk must not silently move slot boundaries on disk: that would be a new
// format version.
const _: () = assert!(SLOT_LEVELS == pq_core::queue_monitor::CHUNK_LEVELS);
/// Fixed file-header size in bytes.
pub const HEADER_LEN: u64 = 9;
/// Fixed tail size: crc32 (4) + index_len (8) + END_MAGIC (4).
pub const TRAILER_FIXED: u64 = 16;
/// Upper bound on an encoded segment header (sanity cap for scans).
pub const MAX_SEGHDR_LEN: usize = 256;
/// Segment kind 0: the original delta-coded checkpoint stream.
pub const KIND_CHECKPOINTS: u64 = 0;
/// Segment kind 1: an encoded `pq-rtt` RTT report.
pub const KIND_RTT: u64 = 1;
/// Kinds this build knows how to interpret (or deliberately skip).
/// Anything else is surfaced as an unknown-kind coverage gap.
pub const KNOWN_KINDS: [u64; 2] = [KIND_CHECKPOINTS, KIND_RTT];

pub(crate) fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Validate a [`TimeWindowConfig`] decoded from untrusted bytes without
/// panicking (the library's own `validate` asserts).
pub fn check_tw_config(tw: &TimeWindowConfig) -> io::Result<()> {
    if tw.t < 1 || tw.alpha < 1 || tw.k < 1 || tw.k > 24 {
        return Err(invalid("time-window parameters out of range"));
    }
    let max_shift =
        u32::from(tw.m0) + u32::from(tw.alpha) * (u32::from(tw.t) - 1) + u32::from(tw.k);
    if max_shift >= 63 {
        return Err(invalid("time-window periods overflow u64"));
    }
    Ok(())
}

/// Write the 9-byte file header.
pub fn write_header<W: Write>(w: &mut W, tw: &TimeWindowConfig) -> io::Result<()> {
    w.write_all(&FILE_MAGIC)?;
    w.write_all(&[VERSION, tw.m0, tw.alpha, tw.k, tw.t])
}

/// Parse and validate the 9-byte file header: the window geometry and the
/// format version.
pub fn read_header(bytes: &[u8]) -> io::Result<(TimeWindowConfig, u8)> {
    if bytes.len() < HEADER_LEN as usize || bytes[..4] != FILE_MAGIC {
        return Err(invalid("not a .pqa archive (no PQAR magic)"));
    }
    let version = bytes[4];
    if !matches!(version, VERSION_V1 | VERSION_V2 | VERSION) {
        return Err(invalid(format!("unsupported .pqa version {version}")));
    }
    let tw = TimeWindowConfig {
        m0: bytes[5],
        alpha: bytes[6],
        k: bytes[7],
        t: bytes[8],
    };
    check_tw_config(&tw)?;
    Ok((tw, version))
}

/// Index entry describing one sealed segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Absolute file offset of the segment magic.
    pub offset: u64,
    /// Total on-disk length (magic through trailing CRC).
    pub len: u64,
    /// Port the segment's checkpoints belong to.
    pub port: u16,
    /// Checkpoints in the segment.
    pub count: u64,
    /// Earliest checkpoint freeze time.
    pub min_t: Nanos,
    /// Latest checkpoint freeze time.
    pub max_t: Nanos,
    /// §6.3 chain seed: the last *periodic* freeze time before this
    /// segment's first checkpoint (`None` at the head of a port's chain).
    pub prev_periodic: Option<Nanos>,
    /// The last periodic freeze time at segment seal (chain value after).
    pub last_periodic: Option<Nanos>,
    /// CRC-32 of the segment body.
    pub body_crc: u32,
    /// Body codec selector (see [`KIND_CHECKPOINTS`], [`KIND_RTT`]).
    pub kind: u64,
}

fn put_opt_nanos(out: &mut Vec<u8>, v: Option<Nanos>) {
    // 0 = none; the +1 shift keeps t = 0 representable.
    put_varint(out, v.map_or(0, |t| t.saturating_add(1)));
}

fn read_opt_nanos(cursor: &mut &[u8]) -> io::Result<Option<Nanos>> {
    Ok(match codec::varint(cursor)? {
        0 => None,
        v => Some(v - 1),
    })
}

impl SegmentMeta {
    /// Append the in-segment header (everything but offset/len/crc, which
    /// frame the segment physically).
    pub(crate) fn put_seg_header(&self, out: &mut Vec<u8>) {
        for field in [u64::from(self.port), self.count, self.min_t, self.max_t] {
            put_varint(out, field);
        }
        put_opt_nanos(out, self.prev_periodic);
        put_opt_nanos(out, self.last_periodic);
        if self.kind != KIND_CHECKPOINTS {
            // Only non-default kinds are written, so kind-0 archives stay
            // byte-identical to the pre-kind format.
            put_varint(out, self.kind);
        }
    }

    /// Decode an in-segment header; `offset`/`len`/`body_crc` are filled by
    /// the caller from the physical framing. This form reads only the base
    /// fields (for inline index parsing, where no length delimits the
    /// header); use [`read_seg_header_delimited`](Self::read_seg_header_delimited)
    /// when the header slice is known.
    pub fn read_seg_header(cursor: &mut &[u8]) -> io::Result<SegmentMeta> {
        let port = codec::len(cursor, u16::MAX as usize)? as u16;
        let count = codec::varint(cursor)?;
        let min_t = codec::varint(cursor)?;
        let max_t = codec::varint(cursor)?;
        let prev_periodic = read_opt_nanos(cursor)?;
        let last_periodic = read_opt_nanos(cursor)?;
        Ok(SegmentMeta {
            offset: 0,
            len: 0,
            port,
            count,
            min_t,
            max_t,
            prev_periodic,
            last_periodic,
            body_crc: 0,
            kind: KIND_CHECKPOINTS,
        })
    }

    /// Decode a length-delimited header slice, including the optional
    /// trailing kind (absent = checkpoints).
    pub fn read_seg_header_delimited(mut hdr: &[u8]) -> io::Result<SegmentMeta> {
        let cursor = &mut hdr;
        let mut meta = Self::read_seg_header(cursor)?;
        if !cursor.is_empty() {
            meta.kind = codec::varint(cursor)?;
        }
        Ok(meta)
    }

    /// Does the segment's checkpoint chain possibly contribute to a query
    /// over `[from, to]`? (See the module docs on the chain seed.)
    pub fn overlaps_query(&self, from: Nanos, to: Nanos) -> bool {
        self.max_t >= from && self.prev_periodic.is_none_or(|p| p <= to)
    }
}

/// Per-port metadata carried in the trailer: the recorded coverage gaps,
/// the control-plane health counters at capture, and the end of the
/// periodic chain.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PortMeta {
    /// Coverage gaps recorded by the control plane, oldest first.
    pub gaps: Vec<CoverageGap>,
    /// Health counters at capture time.
    pub health: ControlHealth,
    /// Last periodic freeze time stored for the port.
    pub last_periodic: Option<Nanos>,
}

const HEALTH_FIELDS: usize = 11;

fn health_fields(h: &ControlHealth) -> [u64; HEALTH_FIELDS] {
    [
        h.polls_attempted,
        h.polls_failed,
        h.polls_retried,
        h.polls_stalled,
        h.checkpoints_stored,
        h.checkpoints_dropped,
        h.coverage_gaps,
        h.gap_ns,
        h.backoff_ceiling_hits,
        h.dp_triggers_rejected,
        h.spill_errors,
    ]
}

fn health_from_fields(f: [u64; HEALTH_FIELDS]) -> ControlHealth {
    ControlHealth {
        polls_attempted: f[0],
        polls_failed: f[1],
        polls_retried: f[2],
        polls_stalled: f[3],
        checkpoints_stored: f[4],
        checkpoints_dropped: f[5],
        coverage_gaps: f[6],
        gap_ns: f[7],
        backoff_ceiling_hits: f[8],
        dp_triggers_rejected: f[9],
        spill_errors: f[10],
    }
}

/// Append a segment's frame up to its body: `"PQSG" | hdr_len | SEGHDR |
/// body_len`. The body and its CRC follow.
pub(crate) fn put_frame_prefix(out: &mut Vec<u8>, meta: &SegmentMeta, body_len: usize) {
    let mut hdr = Vec::with_capacity(MAX_SEGHDR_LEN);
    meta.put_seg_header(&mut hdr);
    assert!(hdr.len() <= MAX_SEGHDR_LEN);
    out.extend_from_slice(&SEGMENT_MAGIC);
    put_varint(out, hdr.len() as u64);
    out.extend_from_slice(&hdr);
    put_varint(out, body_len as u64);
}

/// Append the trailer index body (segment table + per-port metadata).
fn put_index(out: &mut Vec<u8>, segments: &[SegmentMeta], ports: &[(u16, &PortMeta)]) {
    put_varint(out, segments.len() as u64);
    for s in segments {
        put_varint(out, s.offset);
        put_varint(out, s.len);
        put_varint(out, u64::from(s.body_crc));
        // Base header only — index entries are parsed inline (no length
        // delimiter), so the kind must not trail here; it rides in the
        // kinds array after the ports section instead.
        SegmentMeta {
            kind: KIND_CHECKPOINTS,
            ..*s
        }
        .put_seg_header(out);
    }
    put_varint(out, ports.len() as u64);
    for (port, meta) in ports {
        put_varint(out, u64::from(*port));
        put_opt_nanos(out, meta.last_periodic);
        put_varint(out, meta.gaps.len() as u64);
        for g in &meta.gaps {
            put_varint(out, g.from);
            put_varint(out, g.to.saturating_sub(g.from));
        }
        for field in health_fields(&meta.health) {
            put_varint(out, field);
        }
    }
    // Segment kinds ride after the ports section, where pre-kind readers
    // never look. Only written when some kind is non-default, so
    // kind-0-only archives stay byte-identical to the old format.
    if segments.iter().any(|s| s.kind != KIND_CHECKPOINTS) {
        put_varint(out, segments.len() as u64);
        for s in segments {
            put_varint(out, s.kind);
        }
    }
}

/// Append the whole trailer: `"PQIX" | index | crc32(index) | index_len |
/// "PQEN"`.
pub(crate) fn put_trailer(out: &mut Vec<u8>, segments: &[SegmentMeta], ports: &[(u16, &PortMeta)]) {
    out.extend_from_slice(&TRAILER_MAGIC);
    let at = out.len();
    put_index(out, segments, ports);
    let index_len = out.len() - at;
    put_u32(out, crc32(&out[at..]));
    put_u64(out, index_len as u64);
    out.extend_from_slice(&END_MAGIC);
}

/// A decoded trailer index: every segment's metadata plus per-port
/// bookkeeping (gaps, health, end-of-chain).
pub type StoreIndex = (Vec<SegmentMeta>, Vec<(u16, PortMeta)>);

/// Decode the trailer index body. Counts are validated against the byte
/// budget of the index itself, so a corrupted length can never trigger an
/// outsized allocation.
pub fn read_index(mut cursor: &[u8]) -> io::Result<StoreIndex> {
    let cursor = &mut cursor;
    // Each segment entry takes ≥ 9 bytes, each gap ≥ 2; cap counts by what
    // the index could physically hold.
    let n_segments = codec::len(cursor, cursor.len() / 8 + 1)?;
    let mut segments = Vec::with_capacity(n_segments.min(4096));
    for _ in 0..n_segments {
        let offset = codec::varint(cursor)?;
        let len = codec::varint(cursor)?;
        let body_crc =
            u32::try_from(codec::varint(cursor)?).map_err(|_| invalid("index crc out of range"))?;
        let mut meta = SegmentMeta::read_seg_header(cursor)?;
        meta.offset = offset;
        meta.len = len;
        meta.body_crc = body_crc;
        segments.push(meta);
    }
    let n_ports = codec::len(cursor, cursor.len() + 1)?;
    let mut ports = Vec::with_capacity(n_ports.min(4096));
    for _ in 0..n_ports {
        let port = codec::len(cursor, u16::MAX as usize)? as u16;
        let last_periodic = read_opt_nanos(cursor)?;
        let n_gaps = codec::len(cursor, cursor.len() / 2 + 1)?;
        let mut gaps = Vec::with_capacity(n_gaps.min(4096));
        for _ in 0..n_gaps {
            let from = codec::varint(cursor)?;
            let len = codec::varint(cursor)?;
            gaps.push(CoverageGap {
                from,
                to: from.saturating_add(len),
            });
        }
        let mut fields = [0u64; HEALTH_FIELDS];
        for f in &mut fields {
            *f = codec::varint(cursor)?;
        }
        ports.push((
            port,
            PortMeta {
                gaps,
                health: health_from_fields(fields),
                last_periodic,
            },
        ));
    }
    // Optional trailing kinds array (absent in pre-kind archives = all 0).
    if !cursor.is_empty() {
        let n_kinds = codec::len(cursor, cursor.len() + 1)?;
        if n_kinds != segments.len() {
            return Err(invalid("index kinds array mismatches segment count"));
        }
        for s in &mut segments {
            s.kind = codec::varint(cursor)?;
        }
    }
    Ok((segments, ports))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let tw = TimeWindowConfig::new(6, 2, 12, 4);
        let mut buf = Vec::new();
        write_header(&mut buf, &tw).unwrap();
        assert_eq!(buf.len() as u64, HEADER_LEN);
        assert_eq!(read_header(&buf).unwrap(), (tw, VERSION));
        for version in [VERSION_V1, VERSION_V2] {
            buf[4] = version;
            assert_eq!(read_header(&buf).unwrap(), (tw, version));
        }
    }

    #[test]
    fn header_rejects_garbage() {
        assert!(read_header(b"PQARx").is_err());
        assert!(read_header(b"JSON{\"version\":1}").is_err());
        // Valid magic, absurd k.
        assert!(read_header(&[b'P', b'Q', b'A', b'R', 1, 6, 2, 60, 4]).is_err());
        // A version the reader does not know.
        for version in [0, VERSION + 1] {
            assert!(read_header(&[b'P', b'Q', b'A', b'R', version, 6, 2, 12, 4]).is_err());
        }
    }

    #[test]
    fn index_roundtrip() {
        let segments = vec![
            SegmentMeta {
                offset: 9,
                len: 100,
                port: 0,
                count: 3,
                min_t: 10,
                max_t: 400,
                prev_periodic: None,
                last_periodic: Some(400),
                body_crc: 0xdead_beef,
                kind: KIND_CHECKPOINTS,
            },
            SegmentMeta {
                offset: 109,
                len: 80,
                port: 1,
                count: 2,
                min_t: 50,
                max_t: 300,
                prev_periodic: Some(0),
                last_periodic: Some(300),
                body_crc: 7,
                kind: KIND_CHECKPOINTS,
            },
        ];
        let meta = PortMeta {
            gaps: vec![CoverageGap { from: 5, to: 25 }],
            health: ControlHealth {
                polls_attempted: 9,
                checkpoints_stored: 5,
                ..ControlHealth::default()
            },
            last_periodic: Some(400),
        };
        let mut buf = Vec::new();
        put_index(&mut buf, &segments, &[(0, &meta)]);
        let (segs, ports) = read_index(&buf).unwrap();
        assert_eq!(segs, segments);
        assert_eq!(ports.len(), 1);
        assert_eq!(ports[0].0, 0);
        assert_eq!(ports[0].1, meta);
    }

    #[test]
    fn index_roundtrip_preserves_kinds() {
        let base = SegmentMeta {
            offset: 9,
            len: 50,
            port: 2,
            count: 0,
            min_t: 10,
            max_t: 90,
            prev_periodic: None,
            last_periodic: None,
            body_crc: 1,
            kind: KIND_CHECKPOINTS,
        };
        let segments = vec![
            base,
            SegmentMeta {
                offset: 59,
                kind: KIND_RTT,
                ..base
            },
            SegmentMeta {
                offset: 109,
                kind: 7,
                ..base
            }, // future kind
        ];
        let mut buf = Vec::new();
        put_index(&mut buf, &segments, &[]);
        let (segs, _) = read_index(&buf).unwrap();
        assert_eq!(segs, segments);
    }

    #[test]
    fn kind_zero_index_is_byte_identical_to_pre_kind_format() {
        let seg = SegmentMeta {
            offset: 9,
            len: 50,
            port: 2,
            count: 3,
            min_t: 10,
            max_t: 90,
            prev_periodic: None,
            last_periodic: Some(90),
            body_crc: 1,
            kind: KIND_CHECKPOINTS,
        };
        let mut buf = Vec::new();
        put_index(&mut buf, &[seg], &[]);
        // No kinds array: the bytes end right after the (empty) ports
        // section, exactly as the pre-kind writer laid them out.
        let mut expect = Vec::new();
        for field in [1, seg.offset, seg.len, u64::from(seg.body_crc)] {
            put_varint(&mut expect, field);
        }
        seg.put_seg_header(&mut expect);
        put_varint(&mut expect, 0);
        assert_eq!(buf, expect);
    }

    #[test]
    fn delimited_seg_header_reads_optional_kind() {
        let seg = SegmentMeta {
            offset: 0,
            len: 0,
            port: 4,
            count: 0,
            min_t: 5,
            max_t: 6,
            prev_periodic: None,
            last_periodic: None,
            body_crc: 0,
            kind: KIND_RTT,
        };
        let mut hdr = Vec::new();
        seg.put_seg_header(&mut hdr);
        let meta = SegmentMeta::read_seg_header_delimited(&hdr).unwrap();
        assert_eq!(meta.kind, KIND_RTT);
        // A pre-kind reader parsing the same slice stops after the base
        // fields and sees a checkpoint segment — the ignored trailing
        // varint is what keeps the format forward-compatible.
        let mut cursor = hdr.as_slice();
        let old = SegmentMeta::read_seg_header(&mut cursor).unwrap();
        assert_eq!(old.kind, KIND_CHECKPOINTS);
        assert!(!cursor.is_empty());
    }

    #[test]
    fn query_overlap_uses_chain_seed() {
        let seg = SegmentMeta {
            offset: 0,
            len: 0,
            port: 0,
            count: 1,
            min_t: 200,
            max_t: 300,
            prev_periodic: Some(100),
            last_periodic: Some(300),
            body_crc: 0,
            kind: KIND_CHECKPOINTS,
        };
        // A query ending before the chain seed cannot touch this segment…
        assert!(!seg.overlaps_query(0, 99));
        // …but one ending inside (prev_periodic, max_t] can, and so can one
        // starting below max_t.
        assert!(seg.overlaps_query(0, 100));
        assert!(seg.overlaps_query(250, 260));
        assert!(seg.overlaps_query(300, 900));
        assert!(!seg.overlaps_query(301, 900));
    }
}
