//! Streaming `.pqa` writer: buffers checkpoints per port, seals bounded
//! segments, and emits the trailer index at finish.
//!
//! The writer is the bounded-RAM half of the store: at most one *open*
//! segment per port lives in memory (capped by
//! [`SegmentPolicy::max_segment_bytes`]); everything sealed is already on
//! disk. This is what lets a long-running control plane spill checkpoints
//! continuously instead of accumulating a whole run in its snapshot ring.
//!
//! [`SharedStoreWriter`] adapts the writer to the
//! [`CheckpointSink`] spill hook of the
//! analysis program while the caller keeps a handle to `finish()` the
//! file afterwards.

use crate::codec::{encode_checkpoint, CodecState, EncodeMemo};
use crate::crc::crc32;
use crate::format::{self, PortMeta, SegmentMeta};
use crate::varint;
use pq_core::control::{Checkpoint, CheckpointSink, CoverageGap};
use pq_core::metrics::ControlHealth;
use pq_core::params::TimeWindowConfig;
use pq_packet::Nanos;
use pq_telemetry::{names, Counter, Histogram, Telemetry};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::Arc;

/// Segment rotation and retention knobs.
#[derive(Debug, Clone, Copy)]
pub struct SegmentPolicy {
    /// Seal a segment once it holds this many checkpoints.
    pub checkpoints_per_segment: usize,
    /// Seal a segment once its encoded body reaches this size.
    pub max_segment_bytes: usize,
    /// Keep only the newest N sealed segments per port in the index;
    /// older spans are dropped from the index and recorded as coverage
    /// gaps (`None` = unbounded retention).
    pub retain_segments_per_port: Option<usize>,
}

impl Default for SegmentPolicy {
    fn default() -> Self {
        SegmentPolicy {
            checkpoints_per_segment: 64,
            max_segment_bytes: 4 << 20,
            retain_segments_per_port: None,
        }
    }
}

struct OpenSegment {
    body: Vec<u8>,
    state: CodecState,
    count: u64,
    min_t: Nanos,
    max_t: Nanos,
    prev_periodic: Option<Nanos>,
}

#[derive(Default)]
struct PortState {
    open: Option<OpenSegment>,
    /// Chain value: last periodic freeze time written for this port.
    chain: Option<Nanos>,
    /// The encoder's memo of this port's queue-monitor chunks, kept across
    /// segments: a standing queue's rows outlive many of them.
    memo: EncodeMemo,
    meta: PortMeta,
}

/// Pre-resolved registry handles for writer-side metrics, plus the plane
/// itself for segment-flush span tracing.
struct WriterInstruments {
    plane: Telemetry,
    checkpoints_written: Counter,
    segments_sealed: Counter,
    bytes_written: Counter,
    segment_bytes: Histogram,
}

impl WriterInstruments {
    fn resolve(plane: &Telemetry) -> WriterInstruments {
        let reg = plane.registry();
        WriterInstruments {
            checkpoints_written: reg.counter(names::STORE_CHECKPOINTS_WRITTEN, &[]),
            segments_sealed: reg.counter(names::STORE_SEGMENTS_SEALED, &[]),
            bytes_written: reg.counter(names::STORE_BYTES_WRITTEN, &[]),
            segment_bytes: reg.histogram(names::STORE_SEGMENT_BYTES, &[]),
            plane: plane.clone(),
        }
    }
}

/// Streaming writer for a `.pqa` archive.
pub struct StoreWriter<W: Write> {
    out: W,
    pos: u64,
    tw: TimeWindowConfig,
    policy: SegmentPolicy,
    segments: Vec<SegmentMeta>,
    ports: BTreeMap<u16, PortState>,
    telemetry: Option<WriterInstruments>,
}

impl<W: Write> StoreWriter<W> {
    /// Write the file header and return a writer for `tw`-shaped
    /// checkpoints.
    pub fn new(
        mut out: W,
        tw: TimeWindowConfig,
        policy: SegmentPolicy,
    ) -> io::Result<StoreWriter<W>> {
        format::check_tw_config(&tw).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("bad store config: {e}"),
            )
        })?;
        format::write_header(&mut out, &tw)?;
        Ok(StoreWriter {
            out,
            pos: format::HEADER_LEN,
            tw,
            policy,
            segments: Vec::new(),
            ports: BTreeMap::new(),
            telemetry: None,
        })
    }

    /// Attach a telemetry plane: appended checkpoints, sealed segments,
    /// and written bytes are counted, segment sizes go into a histogram,
    /// and (when tracing is enabled) each sealed segment emits a
    /// `segment_flush` span covering the sim-time range of the checkpoints
    /// inside it.
    pub fn set_telemetry(&mut self, plane: &Telemetry) {
        self.telemetry = Some(WriterInstruments::resolve(plane));
    }

    /// The window geometry this store holds.
    pub fn tw_config(&self) -> &TimeWindowConfig {
        &self.tw
    }

    /// Sealed segments so far (for introspection/tests).
    pub fn sealed_segments(&self) -> usize {
        self.segments.len()
    }

    /// Append a checkpoint for `port`, sealing the port's open segment if
    /// the rotation policy says so.
    pub fn push(&mut self, port: u16, cp: &Checkpoint) -> io::Result<()> {
        let tw = self.tw;
        let policy = self.policy;
        let state = self.ports.entry(port).or_default();
        let chain = state.chain;
        let open = state.open.get_or_insert_with(|| OpenSegment {
            body: Vec::new(),
            state: CodecState::default(),
            count: 0,
            min_t: cp.frozen_at,
            max_t: cp.frozen_at,
            prev_periodic: chain,
        });
        encode_checkpoint(&mut open.body, &tw, &mut open.state, &mut state.memo, cp)?;
        if let Some(t) = &self.telemetry {
            t.checkpoints_written.inc();
        }
        open.count += 1;
        open.min_t = open.min_t.min(cp.frozen_at);
        open.max_t = open.max_t.max(cp.frozen_at);
        if !cp.on_demand {
            state.chain = Some(cp.frozen_at);
        }
        if open.count as usize >= policy.checkpoints_per_segment
            || open.body.len() >= policy.max_segment_bytes
        {
            self.seal(port)?;
        }
        Ok(())
    }

    /// Append a raw segment of the given `kind` (e.g. an encoded RTT
    /// report under [`format::KIND_RTT`]). The port's open checkpoint
    /// segment is sealed first so file order tracks append order. Raw
    /// segments sit outside the checkpoint chain (`prev_periodic` /
    /// `last_periodic` are none) and never participate in checkpoint
    /// queries; `count` is informational (e.g. samples in the body).
    pub fn push_raw(
        &mut self,
        port: u16,
        kind: u64,
        count: u64,
        min_t: Nanos,
        max_t: Nanos,
        body: &[u8],
    ) -> io::Result<()> {
        self.seal(port)?;
        self.ports.entry(port).or_default();
        let meta = SegmentMeta {
            offset: 0,
            len: 0,
            port,
            count,
            min_t,
            max_t,
            prev_periodic: None,
            last_periodic: None,
            body_crc: 0,
            kind,
        };
        self.write_frame(meta, body)
    }

    /// Frame `body` as one segment at the current position (filling
    /// `meta`'s offset, length and body CRC), write it, and index it. The
    /// whole segment goes out in one buffer so a crash tears at most the
    /// tail of a single write burst.
    fn write_frame(&mut self, mut meta: SegmentMeta, body: &[u8]) -> io::Result<()> {
        meta.offset = self.pos;
        meta.body_crc = crc32(body);
        let mut hdr = Vec::new();
        meta.write_seg_header(&mut hdr)?;
        let mut frame = Vec::with_capacity(body.len() + hdr.len() + 32);
        frame.extend_from_slice(&format::SEGMENT_MAGIC);
        varint::put_u64(&mut frame, hdr.len() as u64);
        frame.extend_from_slice(&hdr);
        varint::put_u64(&mut frame, body.len() as u64);
        frame.extend_from_slice(body);
        frame.extend_from_slice(&meta.body_crc.to_le_bytes());
        meta.len = frame.len() as u64;
        self.out.write_all(&frame)?;
        self.pos += meta.len;
        if let Some(t) = &self.telemetry {
            t.segments_sealed.inc();
            t.bytes_written.add(meta.len);
            t.segment_bytes.record(meta.len);
            if t.plane.tracing_enabled() {
                // The span covers the sim-time range the segment holds.
                t.plane.spans().record(
                    names::SPAN_SEGMENT_FLUSH,
                    meta.min_t,
                    meta.max_t,
                    u32::from(meta.port),
                );
            }
        }
        self.segments.push(meta);
        Ok(())
    }

    /// Record a coverage gap for `port` (carried in the trailer).
    pub fn push_gap(&mut self, port: u16, gap: CoverageGap) {
        self.ports.entry(port).or_default().meta.gaps.push(gap);
    }

    /// Record the control-plane health counters for `port`.
    pub fn set_health(&mut self, port: u16, health: ControlHealth) {
        self.ports.entry(port).or_default().meta.health = health;
    }

    /// Seal `port`'s open segment (no-op when nothing is buffered).
    pub fn seal(&mut self, port: u16) -> io::Result<()> {
        pq_prof::scope!("store/segment_encode");
        let Some(state) = self.ports.get_mut(&port) else {
            return Ok(());
        };
        let Some(open) = state.open.take() else {
            return Ok(());
        };
        let meta = SegmentMeta {
            offset: 0,
            len: 0,
            port,
            count: open.count,
            min_t: open.min_t,
            max_t: open.max_t,
            prev_periodic: open.prev_periodic,
            last_periodic: state.chain,
            body_crc: 0,
            kind: format::KIND_CHECKPOINTS,
        };
        self.write_frame(meta, &open.body)
    }

    fn apply_retention(&mut self) {
        let Some(retain) = self.policy.retain_segments_per_port else {
            return;
        };
        let mut kept = Vec::with_capacity(self.segments.len());
        let mut per_port: BTreeMap<u16, usize> = BTreeMap::new();
        for s in &self.segments {
            if s.kind == format::KIND_CHECKPOINTS {
                *per_port.entry(s.port).or_default() += 1;
            }
        }
        let mut seen: BTreeMap<u16, usize> = BTreeMap::new();
        for s in self.segments.drain(..) {
            if s.kind != format::KIND_CHECKPOINTS {
                // Retention bounds the checkpoint chain; raw segments
                // (RTT reports and future kinds) are kept as written.
                kept.push(s);
                continue;
            }
            let idx = seen.entry(s.port).or_default();
            *idx += 1;
            let total = per_port[&s.port];
            if total - *idx < retain {
                kept.push(s);
            } else {
                // Dropped from the index: the span it covered becomes a
                // recorded gap so queries over it degrade instead of
                // silently missing data.
                let from = s.prev_periodic.map_or(0, |p| p.saturating_add(1));
                let state = self.ports.entry(s.port).or_default();
                state.meta.gaps.push(CoverageGap { from, to: s.max_t });
            }
        }
        self.segments = kept;
    }

    /// Seal everything, write the trailer index, flush, and hand back the
    /// underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        let ports: Vec<u16> = self.ports.keys().copied().collect();
        for port in ports {
            self.seal(port)?;
        }
        self.apply_retention();
        for state in self.ports.values_mut() {
            state.meta.last_periodic = state.chain;
        }
        let port_refs: Vec<(u16, &PortMeta)> =
            self.ports.iter().map(|(p, s)| (*p, &s.meta)).collect();
        let mut index = Vec::new();
        format::write_index(&mut index, &self.segments, &port_refs)?;
        let crc = crc32(&index);
        self.out.write_all(&format::TRAILER_MAGIC)?;
        self.out.write_all(&index)?;
        self.out.write_all(&crc.to_le_bytes())?;
        self.out.write_all(&(index.len() as u64).to_le_bytes())?;
        self.out.write_all(&format::END_MAGIC)?;
        self.out.flush()?;
        Ok(self.out)
    }
}

/// A clonable, `'static`, thread-safe handle to a [`StoreWriter`] usable
/// as the analysis program's [`CheckpointSink`] while the caller retains
/// the ability to [`finish`](SharedStoreWriter::finish) the file.
///
/// The interior mutex is pq-prof's instrumented facade under the name
/// `store_writer`, so every checkpoint append publishes its wait/hold
/// time as `pq_lock_wait_ns{lock="store_writer"}` — the contention
/// evidence the ROADMAP "remove the `Arc<Mutex>` store writer" item
/// needs before and after. Poisoning (a writer thread panicking mid-
/// append) is recovered rather than propagated; the segment CRCs guard
/// the file itself.
pub struct SharedStoreWriter<W: Write> {
    inner: Arc<pq_prof::PqMutex<Option<StoreWriter<W>>>>,
}

impl<W: Write> Clone for SharedStoreWriter<W> {
    fn clone(&self) -> Self {
        SharedStoreWriter {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<W: Write> SharedStoreWriter<W> {
    /// Wrap a writer for sharing.
    pub fn new(writer: StoreWriter<W>) -> SharedStoreWriter<W> {
        SharedStoreWriter {
            inner: Arc::new(pq_prof::PqMutex::new("store_writer", Some(writer))),
        }
    }

    fn closed() -> io::Error {
        io::Error::other("store writer already finished")
    }

    /// Run `f` against the writer (errors once finished).
    pub fn with<R>(&self, f: impl FnOnce(&mut StoreWriter<W>) -> R) -> io::Result<R> {
        match self.inner.lock().as_mut() {
            Some(w) => Ok(f(w)),
            None => Err(Self::closed()),
        }
    }

    /// Finish the store, consuming the shared writer's interior.
    pub fn finish(&self) -> io::Result<W> {
        match self.inner.lock().take() {
            Some(w) => w.finish(),
            None => Err(Self::closed()),
        }
    }
}

impl<W: Write + Send + 'static> CheckpointSink for SharedStoreWriter<W> {
    fn on_checkpoint(&mut self, port: u16, cp: &Checkpoint) -> io::Result<()> {
        self.with(|w| w.push(port, cp))?
    }

    fn on_gap(&mut self, port: u16, gap: CoverageGap) -> io::Result<()> {
        self.with(|w| w.push_gap(port, gap))
    }
}
