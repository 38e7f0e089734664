//! `.pqa` reader: trailer-index fast path, forward-scan crash recovery,
//! pruned time-range queries, and archive reconstruction.
//!
//! Opening a store parses the 9-byte header and then tries the trailer
//! index (written by a clean [`finish`](crate::StoreWriter::finish)). If
//! the trailer is missing, torn, or fails its CRC — the crash case — the
//! reader falls back to a forward scan of the segment chain, recovering
//! every segment whose framing and body CRC check out. A segment that
//! fails its CRC is *skipped*, and the span it covered is surfaced as a
//! [`CoverageGap`] on that port's queries (PR 1's degraded-query
//! machinery), so corruption costs exactly the damaged segment and is
//! never silent.
//!
//! Queries decode only the segments whose checkpoint chains can overlap
//! the interval (see [`SegmentMeta::overlaps_query`]); everything else is
//! pruned via index metadata without touching the segment bytes. The
//! §6.3 slicing chain is re-seeded from each segment's stored
//! `prev_periodic`, which keeps pruned results bit-identical to a full
//! in-RAM replay.

use crate::archive::CheckpointArchive;
use crate::codec::{decode_checkpoint, CodecState, DecodeBudget};
use crate::crc::crc32;
use crate::format::{self, invalid, PortMeta, SegmentMeta};
use pq_core::coefficient::Coefficients;
use pq_core::control::{query_slices, Checkpoint, CoverageGap, QueryResult};
use pq_core::params::TimeWindowConfig;
use pq_core::snapshot::{FlowEstimates, QueryInterval};
use pq_prof::codec;
use pq_telemetry::{names, Counter, Histogram, Telemetry};
use std::io::{self, Read, Seek, SeekFrom};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// Identity of one sealed segment's decoded contents.
///
/// Segments are immutable once sealed, so `(offset, body CRC, count)`
/// uniquely identifies the decode result *within one archive*; a cache
/// shared across archives must add its own archive id to the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SegmentKey {
    /// Absolute file offset of the segment magic.
    pub offset: u64,
    /// CRC-32 of the segment body.
    pub body_crc: u32,
    /// Checkpoints in the segment.
    pub count: u64,
}

impl SegmentKey {
    /// The cache key for a segment index entry.
    pub fn of(meta: &SegmentMeta) -> SegmentKey {
        SegmentKey {
            offset: meta.offset,
            body_crc: meta.body_crc,
            count: meta.count,
        }
    }
}

/// A pluggable store for decoded segments, consulted by
/// [`StoreReader::query_cached`] before paying the decode cost.
///
/// Decoded checkpoints are handed around as `Arc<[Checkpoint]>` so a hit
/// costs one refcount bump, never a deep clone. Implementations own their
/// eviction policy (the serving layer uses a byte-bounded LRU); the
/// reader only ever calls `get` then, on a miss that decodes cleanly,
/// `insert`. Corrupt segments are never inserted — they surface as
/// [`CoverageGap`]s exactly as on the uncached path.
pub trait SegmentCache {
    /// Look up a previously decoded segment.
    fn get(&mut self, key: SegmentKey) -> Option<Arc<[Checkpoint]>>;

    /// Offer a freshly decoded segment for caching.
    fn insert(&mut self, key: SegmentKey, checkpoints: Arc<[Checkpoint]>);
}

/// How the reader located its segment metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    /// Clean file: the trailer index was present and valid.
    Index,
    /// The trailer was missing or corrupt; segments were recovered by a
    /// forward scan.
    Scan,
}

/// Pre-resolved registry handles for reader-side metrics, plus the plane
/// itself for replay-query span tracing.
struct ReaderInstruments {
    plane: Telemetry,
    segments_decoded: Counter,
    checkpoints_decoded: Counter,
    replay_query_ns: Histogram,
}

impl ReaderInstruments {
    fn resolve(plane: &Telemetry) -> ReaderInstruments {
        let reg = plane.registry();
        ReaderInstruments {
            segments_decoded: reg.counter(names::STORE_SEGMENTS_DECODED, &[]),
            checkpoints_decoded: reg.counter(names::STORE_CHECKPOINTS_DECODED, &[]),
            replay_query_ns: reg.histogram(names::STORE_REPLAY_QUERY_NS, &[]),
            plane: plane.clone(),
        }
    }
}

/// Per-call accounting for the most recent
/// [`query_cached`](StoreReader::query_cached), letting callers tag
/// trace spans with how the segments were actually sourced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Segments the query's interval selected.
    pub segments: u64,
    /// Of those, how many were served from the decoded-segment cache.
    pub from_cache: u64,
    /// How many were decoded from disk (misses that decoded cleanly).
    pub decoded: u64,
    /// Wall-clock nanoseconds spent inside segment decode.
    pub decode_ns: u64,
}

impl QueryStats {
    /// `hit` / `miss` / `mixed` / `none` — the cache-disposition tag a
    /// trace span carries.
    pub fn cache_tag(&self) -> &'static str {
        match (self.from_cache, self.decoded) {
            (0, 0) => "none",
            (_, 0) => "hit",
            (0, _) => "miss",
            _ => "mixed",
        }
    }
}

/// A reader over a seekable `.pqa` source.
pub struct StoreReader<R: Read + Seek> {
    src: R,
    tw: TimeWindowConfig,
    /// Format version from the file header (see [`format`](mod@format)).
    version: u8,
    segments: Vec<SegmentMeta>,
    ports: Vec<(u16, PortMeta)>,
    /// Spans lost to CRC-failing or torn segments, discovered at open
    /// (scan) or lazily at decode (index path).
    corrupt: Vec<(u16, CoverageGap)>,
    /// Spans covered by segments whose kind this build does not know.
    /// Distinct from `corrupt`: the bytes are intact, the *codec* is from
    /// the future. Skip-and-surface, never a decode failure.
    unknown_kind: Vec<(u16, CoverageGap)>,
    recovery: Recovery,
    /// Whether the scan hit unparseable bytes before end of file.
    tail_torn: bool,
    budget_bytes: u64,
    telemetry: Option<ReaderInstruments>,
    last_stats: QueryStats,
}

impl<R: Read + Seek> StoreReader<R> {
    /// Open a store, validating the header and locating segments via the
    /// trailer index or, failing that, a forward scan.
    pub fn open(mut src: R) -> io::Result<StoreReader<R>> {
        let mut header = [0u8; format::HEADER_LEN as usize];
        src.seek(SeekFrom::Start(0))?;
        src.read_exact(&mut header)?;
        let (tw, version) = format::read_header(&header)?;
        let file_len = src.seek(SeekFrom::End(0))?;

        let mut reader = StoreReader {
            src,
            tw,
            version,
            segments: Vec::new(),
            ports: Vec::new(),
            corrupt: Vec::new(),
            unknown_kind: Vec::new(),
            recovery: Recovery::Index,
            tail_torn: false,
            budget_bytes: 64 << 20,
            telemetry: None,
            last_stats: QueryStats::default(),
        };
        match reader.try_trailer(file_len)? {
            Some((segments, ports)) => {
                reader.segments = segments;
                reader.ports = ports;
            }
            None => {
                reader.recovery = Recovery::Scan;
                reader.scan(file_len)?;
            }
        }
        // Segments from the future: skip, and surface the span they cover
        // as a distinct unknown-kind gap so queries degrade instead of
        // failing (or silently missing data).
        for s in &reader.segments {
            if !format::KNOWN_KINDS.contains(&s.kind) {
                reader.unknown_kind.push((
                    s.port,
                    CoverageGap {
                        from: s.prev_periodic.map_or(s.min_t, |p| p.saturating_add(1)),
                        to: s.max_t,
                    },
                ));
            }
        }
        Ok(reader)
    }

    /// Cap (in bytes) on decoded-checkpoint allocations per segment;
    /// adversarial inputs that claim more fail with `InvalidData`. The
    /// cap is per segment, not per call, so legitimately large archives
    /// (many segments) decode in full while a single corrupt length
    /// prefix can never trigger an oversized allocation.
    pub fn set_decode_budget(&mut self, bytes: u64) {
        self.budget_bytes = bytes;
    }

    /// Attach a telemetry plane: decoded segments/checkpoints are counted,
    /// replay-query wall-clock latency goes into a histogram, and (when
    /// tracing is enabled) each [`query`](Self::query) emits a
    /// `replay_query` span covering the queried sim-time interval.
    pub fn set_telemetry(&mut self, plane: &Telemetry) {
        self.telemetry = Some(ReaderInstruments::resolve(plane));
    }

    /// The window geometry of the stored checkpoints.
    pub fn tw_config(&self) -> &TimeWindowConfig {
        &self.tw
    }

    /// How segment metadata was located.
    pub fn recovery(&self) -> Recovery {
        self.recovery
    }

    /// True when a scan recovery stopped at unparseable trailing bytes.
    pub fn tail_torn(&self) -> bool {
        self.tail_torn
    }

    /// Spans covered by segments whose kind this build does not know,
    /// per port. A non-empty list means the archive was written by a
    /// newer binary; the data is intact on disk but unreadable here, so
    /// overlapping queries come back degraded with these gaps — the
    /// *reason* stays distinct from corruption (see
    /// [`tail_torn`](Self::tail_torn) and CRC gaps).
    pub fn unknown_kind_gaps(&self) -> &[(u16, CoverageGap)] {
        &self.unknown_kind
    }

    /// Segment index entries, in file order.
    pub fn segments(&self) -> &[SegmentMeta] {
        &self.segments
    }

    /// Ports present in the store, ascending.
    pub fn ports(&self) -> Vec<u16> {
        let mut ports: Vec<u16> = self
            .ports
            .iter()
            .map(|(p, _)| *p)
            .chain(self.segments.iter().map(|s| s.port))
            .collect();
        ports.sort_unstable();
        ports.dedup();
        ports
    }

    /// Total checkpoints indexed for `port` (without decoding anything).
    pub fn checkpoint_count(&self, port: u16) -> u64 {
        self.segments
            .iter()
            .filter(|s| s.port == port && s.kind == format::KIND_CHECKPOINTS)
            .map(|s| s.count)
            .sum()
    }

    /// Index entries for `port`'s raw segments of the given kind (e.g.
    /// [`format::KIND_RTT`]), in file order.
    pub fn raw_segments(&self, port: u16, kind: u64) -> Vec<SegmentMeta> {
        self.segments
            .iter()
            .filter(|s| s.port == port && s.kind == kind)
            .copied()
            .collect()
    }

    /// Read one segment's body bytes, verifying framing and CRC but not
    /// decoding — the caller owns the kind's codec.
    pub fn read_raw_body(&mut self, meta: &SegmentMeta) -> io::Result<Vec<u8>> {
        let (mut frame, body) = self.read_frame(meta)?;
        if let Some(t) = &self.telemetry {
            t.segments_decoded.inc();
        }
        // The frame buffer becomes the body: no second allocation.
        frame.truncate(body.end);
        frame.drain(..body.start);
        Ok(frame)
    }

    /// Read the frame `meta` points at and check it — magic, header
    /// length, body length against the frame's, body CRC. Returns the frame
    /// and where in it the verified body lies.
    fn read_frame(&mut self, meta: &SegmentMeta) -> io::Result<(Vec<u8>, Range<usize>)> {
        self.src.seek(SeekFrom::Start(meta.offset))?;
        let mut frame = vec![0u8; meta.len as usize];
        self.src.read_exact(&mut frame)?;
        let cursor = &mut frame.as_slice();
        if codec::take(cursor, 4)? != format::SEGMENT_MAGIC {
            return Err(invalid("segment magic mismatch"));
        }
        let hdr_len = codec::len(cursor, format::MAX_SEGHDR_LEN)?;
        codec::take(cursor, hdr_len)?;
        let body_len = codec::len(cursor, cursor.len())?;
        if cursor.len() != body_len + 4 {
            return Err(invalid("segment framing length mismatch"));
        }
        if crc32(codec::take(cursor, body_len)?) != codec::u32(cursor)? {
            return Err(invalid("segment body CRC mismatch"));
        }
        let body_at = frame.len() - 4 - body_len;
        Ok((frame, body_at..body_at + body_len))
    }

    fn port_meta(&self, port: u16) -> PortMeta {
        self.ports
            .iter()
            .find(|(p, _)| *p == port)
            .map(|(_, m)| m.clone())
            .unwrap_or_default()
    }

    /// Trailer fast path: `Ok(None)` means "fall back to scan".
    fn try_trailer(&mut self, file_len: u64) -> io::Result<Option<format::StoreIndex>> {
        let min_len = format::HEADER_LEN + format::TRAILER_FIXED + 4;
        if file_len < min_len {
            return Ok(None);
        }
        let mut tail = [0u8; 12];
        self.src.seek(SeekFrom::Start(file_len - 12))?;
        self.src.read_exact(&mut tail)?;
        let tail = &mut &tail[..];
        let index_len = codec::u64(tail)?;
        if *tail != format::END_MAGIC || index_len > file_len - min_len {
            return Ok(None);
        }
        let trailer_start = file_len - 12 - 4 - index_len - 4;
        self.src.seek(SeekFrom::Start(trailer_start))?;
        let mut buf = vec![0u8; (4 + index_len + 4) as usize];
        self.src.read_exact(&mut buf)?;
        let trailer = &mut buf.as_slice();
        if codec::take(trailer, 4)? != format::TRAILER_MAGIC {
            return Ok(None);
        }
        let index = codec::take(trailer, index_len as usize)?;
        if crc32(index) != codec::u32(trailer)? {
            return Ok(None);
        }
        let Ok((segments, ports)) = format::read_index(index) else {
            return Ok(None);
        };
        // Reject indexes pointing outside the file (torn rewrite).
        for s in &segments {
            if s.offset < format::HEADER_LEN
                || s.len < 8
                || s.offset.saturating_add(s.len) > trailer_start
            {
                return Ok(None);
            }
        }
        Ok(Some((segments, ports)))
    }

    /// Forward scan from the first segment: recover every frame whose
    /// header parses; CRC failures become per-port gaps.
    fn scan(&mut self, file_len: u64) -> io::Result<()> {
        let mut pos = format::HEADER_LEN;
        while pos + 4 <= file_len {
            self.src.seek(SeekFrom::Start(pos))?;
            let mut magic = [0u8; 4];
            self.src.read_exact(&mut magic)?;
            if magic == format::TRAILER_MAGIC {
                // A trailer start we already failed to validate: segments
                // end here.
                break;
            }
            if magic != format::SEGMENT_MAGIC {
                self.tail_torn = true;
                break;
            }
            // Peek enough for the header varints.
            let peek_len = ((file_len - pos - 4) as usize).min(format::MAX_SEGHDR_LEN + 24);
            let mut peek = vec![0u8; peek_len];
            self.src.read_exact(&mut peek)?;
            let mut cursor = peek.as_slice();
            let parsed = (|| -> io::Result<(SegmentMeta, u64, u64)> {
                let hdr_len = codec::len(&mut cursor, format::MAX_SEGHDR_LEN)?;
                let hdr = codec::take(&mut cursor, hdr_len)?;
                let meta = SegmentMeta::read_seg_header_delimited(hdr)?;
                let body_len = codec::varint(&mut cursor)?;
                let consumed = 4 + (peek_len - cursor.len()) as u64;
                Ok((meta, body_len, consumed))
            })();
            let Ok((mut meta, body_len, consumed)) = parsed else {
                self.tail_torn = true;
                break;
            };
            let frame_len = consumed + body_len + 4;
            if pos + frame_len > file_len {
                // Torn tail: header is intact (metadata tells us what was
                // lost), body never made it to disk.
                self.corrupt.push((
                    meta.port,
                    CoverageGap {
                        from: meta.prev_periodic.map_or(0, |p| p.saturating_add(1)),
                        to: meta.max_t,
                    },
                ));
                self.tail_torn = true;
                break;
            }
            self.src.seek(SeekFrom::Start(pos + consumed))?;
            let mut body = vec![0u8; body_len as usize];
            self.src.read_exact(&mut body)?;
            let mut crc_bytes = [0u8; 4];
            self.src.read_exact(&mut crc_bytes)?;
            let stored_crc = u32::from_le_bytes(crc_bytes);
            meta.offset = pos;
            meta.len = frame_len;
            meta.body_crc = stored_crc;
            if crc32(&body) == stored_crc {
                self.segments.push(meta);
            } else {
                self.corrupt.push((
                    meta.port,
                    CoverageGap {
                        from: meta.prev_periodic.map_or(0, |p| p.saturating_add(1)),
                        to: meta.max_t,
                    },
                ));
            }
            pos += frame_len;
        }
        // Reconstruct per-port chain ends from the recovered segments (the
        // trailer that would normally carry them is gone). Raw segments
        // carry no periodic chain, so only checkpoint segments contribute.
        for s in &self.segments {
            if s.kind != format::KIND_CHECKPOINTS {
                continue;
            }
            match self.ports.iter_mut().find(|(p, _)| *p == s.port) {
                Some((_, meta)) => meta.last_periodic = s.last_periodic,
                None => self.ports.push((
                    s.port,
                    PortMeta {
                        last_periodic: s.last_periodic,
                        ..PortMeta::default()
                    },
                )),
            }
        }
        Ok(())
    }

    /// Decode one segment's checkpoints, verifying framing and CRC. The
    /// decode budget is fresh per segment (see [`Self::set_decode_budget`]).
    fn decode_segment(&mut self, meta: &SegmentMeta) -> io::Result<Vec<Checkpoint>> {
        pq_prof::scope!("store/segment_decode");
        let mut budget = DecodeBudget::new(self.budget_bytes);
        let (frame, body) = self.read_frame(meta)?;
        let body = &frame[body];
        // Each checkpoint is ≥ 2 bytes on the wire; a count claiming more
        // is framing corruption.
        if meta.count > (body.len() as u64) / 2 + 1 {
            return Err(invalid("segment count inconsistent with body size"));
        }
        let mut cps = Vec::with_capacity(meta.count as usize);
        let mut state = CodecState::default();
        let mut body_cursor = body;
        for _ in 0..meta.count {
            let cp = decode_checkpoint(
                &mut body_cursor,
                &self.tw,
                self.version,
                &mut state,
                &mut budget,
                cps.last(),
            )?;
            cps.push(cp);
        }
        if !body_cursor.is_empty() {
            return Err(invalid("trailing bytes after last checkpoint"));
        }
        if let Some(t) = &self.telemetry {
            t.segments_decoded.inc();
            t.checkpoints_decoded.add(cps.len() as u64);
        }
        Ok(cps)
    }

    /// How many of `port`'s checkpoints decode cleanly: the length of
    /// [`read_port`](Self::read_port)'s checkpoint list, found one segment
    /// at a time so that at most one decoded segment is ever held.
    pub fn decodable_checkpoints(&mut self, port: u16) -> u64 {
        self.raw_segments(port, format::KIND_CHECKPOINTS)
            .iter()
            .filter_map(|m| self.decode_segment(m).ok())
            .map(|cps| cps.len() as u64)
            .sum()
    }

    /// Decode everything stored for `port` into a [`CheckpointArchive`].
    /// Corrupt segments are skipped and appended to the archive's gap list.
    pub fn read_port(&mut self, port: u16) -> io::Result<CheckpointArchive> {
        let metas: Vec<SegmentMeta> = self
            .segments
            .iter()
            .filter(|s| s.port == port && s.kind == format::KIND_CHECKPOINTS)
            .copied()
            .collect();
        let mut checkpoints = Vec::new();
        let meta_info = self.port_meta(port);
        let mut gaps = meta_info.gaps.clone();
        for m in &metas {
            match self.decode_segment(m) {
                Ok(cps) => checkpoints.extend(cps),
                Err(_) => gaps.push(CoverageGap {
                    from: m.prev_periodic.map_or(0, |p| p.saturating_add(1)),
                    to: m.max_t,
                }),
            }
        }
        gaps.extend(
            self.corrupt
                .iter()
                .filter(|(p, _)| *p == port)
                .map(|(_, g)| *g),
        );
        gaps.extend(
            self.unknown_kind
                .iter()
                .filter(|(p, _)| *p == port)
                .map(|(_, g)| *g),
        );
        Ok(CheckpointArchive {
            tw_config: self.tw,
            port,
            checkpoints,
            gaps,
            health: meta_info.health,
        })
    }

    /// Decode every port into archives (ascending port order).
    pub fn read_all(&mut self) -> io::Result<Vec<CheckpointArchive>> {
        self.ports()
            .into_iter()
            .map(|p| self.read_port(p))
            .collect()
    }

    /// Run a §6.3 time-range query for `port`, decoding only segments
    /// whose checkpoint chains can overlap `interval`.
    ///
    /// Results are bit-identical to querying the full in-RAM checkpoint
    /// sequence: the per-checkpoint slice chain is re-seeded from each
    /// segment's stored `prev_periodic`, and the open-ended tail gap uses
    /// the port's recorded end-of-chain.
    pub fn query(
        &mut self,
        port: u16,
        interval: QueryInterval,
        coeffs: &Coefficients,
    ) -> io::Result<QueryResult> {
        self.query_cached(port, interval, coeffs, None)
    }

    /// [`query`](Self::query) with an optional decoded-segment cache.
    ///
    /// Every segment the query needs is first looked up in `cache`; a miss
    /// decodes from disk (the per-segment [`DecodeBudget`] still applies)
    /// and offers the result back via [`SegmentCache::insert`]. Results are
    /// bit-identical with and without a cache: decoded checkpoints are
    /// immutable, and the merge order over segments is unchanged.
    pub fn query_cached(
        &mut self,
        port: u16,
        interval: QueryInterval,
        coeffs: &Coefficients,
        mut cache: Option<&mut dyn SegmentCache>,
    ) -> io::Result<QueryResult> {
        let started = Instant::now();
        let metas: Vec<SegmentMeta> = self
            .segments
            .iter()
            .filter(|s| {
                s.port == port
                    && s.kind == format::KIND_CHECKPOINTS
                    && s.overlaps_query(interval.from, interval.to)
            })
            .copied()
            .collect();
        let mut stats = QueryStats {
            segments: metas.len() as u64,
            ..QueryStats::default()
        };
        let meta_info = self.port_meta(port);
        let mut estimates = FlowEstimates::default();
        let mut corrupt_gaps: Vec<CoverageGap> = Vec::new();
        let mut prev_frozen_at: Option<u64> = None;
        for m in &metas {
            let cached = cache.as_mut().and_then(|c| c.get(SegmentKey::of(m)));
            let cps: Arc<[Checkpoint]> = match cached {
                Some(cps) => {
                    stats.from_cache += 1;
                    cps
                }
                None => {
                    let decode_started = Instant::now();
                    let decoded = self.decode_segment(m);
                    stats.decode_ns = stats.decode_ns.saturating_add(
                        u64::try_from(decode_started.elapsed().as_nanos()).unwrap_or(u64::MAX),
                    );
                    match decoded {
                        Ok(cps) => {
                            stats.decoded += 1;
                            let cps: Arc<[Checkpoint]> = cps.into();
                            if let Some(c) = cache.as_mut() {
                                c.insert(SegmentKey::of(m), Arc::clone(&cps));
                            }
                            cps
                        }
                        Err(_) => {
                            corrupt_gaps.push(CoverageGap {
                                from: m.prev_periodic.map_or(0, |p| p.saturating_add(1)),
                                to: m.max_t,
                            });
                            continue;
                        }
                    }
                }
            };
            // Re-seed the slice chain from the segment header so skipped
            // (pruned or corrupt) predecessors don't shift the clamping.
            prev_frozen_at = query_slices(
                &cps,
                interval,
                coeffs,
                m.prev_periodic.or(prev_frozen_at),
                &mut estimates,
            );
        }
        let mut gaps: Vec<CoverageGap> = meta_info
            .gaps
            .iter()
            .filter(|g| g.overlaps(interval))
            .copied()
            .collect();
        gaps.extend(
            self.corrupt
                .iter()
                .filter(|(p, g)| *p == port && g.overlaps(interval))
                .map(|(_, g)| *g),
        );
        gaps.extend(corrupt_gaps.iter().filter(|g| g.overlaps(interval)));
        gaps.extend(
            self.unknown_kind
                .iter()
                .filter(|(p, g)| *p == port && g.overlaps(interval))
                .map(|(_, g)| *g),
        );
        let answer = QueryResult::covering(
            estimates,
            gaps,
            interval,
            meta_info.last_periodic,
            self.tw.set_period(),
        );
        if let Some(t) = &self.telemetry {
            t.replay_query_ns
                .record(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
            if t.plane.tracing_enabled() {
                // The span covers the queried sim-time interval, not wall
                // clock — the trace timeline is sim time throughout.
                t.plane.spans().record(
                    names::SPAN_REPLAY_QUERY,
                    interval.from,
                    interval.to,
                    u32::from(port),
                );
            }
        }
        self.last_stats = stats;
        Ok(answer)
    }

    /// Accounting for the most recent [`query_cached`](Self::query_cached)
    /// call (zeroed until the first query).
    pub fn last_query_stats(&self) -> QueryStats {
        self.last_stats
    }
}
