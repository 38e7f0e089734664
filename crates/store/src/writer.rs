//! Streaming `.pqa` writer: buffers checkpoints per port, seals bounded
//! segments, and emits the trailer index at finish.
//!
//! The writer is the bounded-RAM half of the store: one buffer per port
//! lives in memory, holding the port's *open* segment or, between
//! segments, nothing but its capacity; everything sealed is already on
//! disk. A body is capped by [`SegmentPolicy::max_segment_bytes`] plus the
//! checkpoint that crossed it, so a port holds at most twice that (a `Vec`
//! that has to grow doubles) plus a 272-byte headroom, however long it
//! runs. This is what lets a long-running control plane spill checkpoints
//! continuously instead of accumulating a whole run in its snapshot ring.
//!
//! **A segment is framed where it was encoded.** The buffer starts with the
//! headroom — room for the longest frame prefix — and checkpoints are
//! encoded behind it; sealing checksums the body once, writes `magic |
//! hdr_len | hdr | body_len` right-aligned into the headroom, appends the
//! CRC and hands the sink the frame in a single `write_all`. A crash still
//! tears at most the tail of one write burst, and a seal costs one pass
//! over the body, not a pass and a copy. The buffer then goes back to its
//! port cut down to the headroom, so the next segment is encoded into
//! memory that is already mapped: a `Vec` regrown from empty for every
//! segment paid a page fault per 4 KiB of every segment.
//!
//! **The spill runs on its own thread.** [`SharedStoreWriter`], the
//! analysis program's only [`CheckpointSink`], moves the writer onto one
//! `pq-store-writer` thread and hands it each checkpoint and gap in order
//! over a bounded queue, so freeze-and-read never waits for encode, CRC and
//! seal — the control plane beside the data plane, as in Figure 8. A full
//! queue blocks and never drops, so the bytes are those of an inline
//! writer; a push error comes back from the next hand-off or from
//! `finish()`, which drains and joins the thread before it writes the
//! trailer.

use crate::codec::{encode_checkpoint, CodecState, EncodeMemo};
use crate::crc::crc32;
use crate::format::{self, PortMeta, SegmentMeta};
use pq_core::control::{Checkpoint, CheckpointSink, CoverageGap};
use pq_core::metrics::ControlHealth;
use pq_core::params::TimeWindowConfig;
use pq_packet::Nanos;
use pq_prof::codec::{put_u32, varint_len, MAX_VARINT_LEN};
use pq_telemetry::{names, Counter, Histogram, Telemetry};
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Write};
use std::sync::mpsc::{self, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Instant;

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

/// Bytes kept free in front of every segment body for the frame prefix:
/// segment magic, header length, the header at its largest, body length.
const HEADROOM: usize = format::SEGMENT_MAGIC.len()
    + varint_len(format::MAX_SEGHDR_LEN as u64)
    + format::MAX_SEGHDR_LEN
    + MAX_VARINT_LEN;
// The figure the module docs and DESIGN §8 quote.
const _: () = assert!(HEADROOM == 272);

struct OpenSegment {
    /// [`HEADROOM`] spare bytes, then the encoded body.
    buf: Vec<u8>,
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
    /// The last sealed segment's buffer, cut down to its headroom, for the
    /// next segment to be encoded into (empty until the first seal).
    spare: Vec<u8>,
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

/// `spare` as an empty body behind its headroom.
fn with_headroom(mut spare: Vec<u8>) -> Vec<u8> {
    spare.resize(HEADROOM, 0);
    spare
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
        let spare = &mut state.spare;
        let open = state.open.get_or_insert_with(|| OpenSegment {
            buf: with_headroom(std::mem::take(spare)),
            state: CodecState::default(),
            count: 0,
            min_t: cp.frozen_at,
            max_t: cp.frozen_at,
            prev_periodic: chain,
        });
        let before = open.buf.len();
        encode_checkpoint(&mut open.buf, &tw, &mut open.state, &mut state.memo, cp)?;
        if let Some(t) = &self.telemetry {
            t.checkpoints_written.inc();
        }
        if open.count == 1 {
            // Size the body once, for as many checkpoints like this one as
            // the policy lets a segment hold, instead of by doubling (a
            // port's later segments find the capacity already there). Sized
            // by the second checkpoint: the first is written whole, the rest
            // against their predecessor; the seal appends the body CRC. Only
            // a hint: a policy that never seals asks for more than there is,
            // and then the `Vec` grows as it goes.
            let second = open.buf.len() - before;
            let rest = second
                .saturating_mul(policy.checkpoints_per_segment.saturating_sub(2))
                .min(policy.max_segment_bytes)
                + std::mem::size_of::<u32>();
            let _ = open.buf.try_reserve_exact(rest);
        }
        open.count += 1;
        open.min_t = open.min_t.min(cp.frozen_at);
        open.max_t = open.max_t.max(cp.frozen_at);
        if !cp.on_demand {
            state.chain = Some(cp.frozen_at);
        }
        if open.count as usize >= policy.checkpoints_per_segment
            || open.buf.len() - HEADROOM >= policy.max_segment_bytes
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
        let mut buf = with_headroom(std::mem::take(
            &mut self.ports.entry(port).or_default().spare,
        ));
        buf.extend_from_slice(body);
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
        self.write_frame(port, meta, buf)
    }

    /// Frame the body in `buf` (everything after its [`HEADROOM`]) as one
    /// segment at the current position (filling `meta`'s offset, length and
    /// body CRC), write it, and index it. The frame is completed in `buf`
    /// itself and goes out in one write, so a crash tears at most the tail
    /// of a single write burst. Written or not, `buf` ends up as `port`'s
    /// spare.
    fn write_frame(
        &mut self,
        port: u16,
        mut meta: SegmentMeta,
        mut buf: Vec<u8>,
    ) -> io::Result<()> {
        let body = &buf[HEADROOM..];
        meta.offset = self.pos;
        meta.body_crc = crc32(body);
        let mut prefix = Vec::with_capacity(HEADROOM);
        format::put_frame_prefix(&mut prefix, &meta, body.len());
        assert!(prefix.len() <= HEADROOM);
        let start = HEADROOM - prefix.len();
        buf[start..HEADROOM].copy_from_slice(&prefix);
        put_u32(&mut buf, meta.body_crc);
        meta.len = (buf.len() - start) as u64;
        let written = self.out.write_all(&buf[start..]);
        buf.truncate(HEADROOM);
        self.ports.entry(port).or_default().spare = buf;
        written?;
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
        self.write_frame(port, meta, open.buf)
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
        let mut trailer = Vec::new();
        format::put_trailer(&mut trailer, &self.segments, &port_refs);
        self.out.write_all(&trailer)?;
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Jobs the queue holds before `on_checkpoint` blocks. A job is a
/// reference-counted checkpoint (its windows and monitor chunks are shared
/// with the live ring), so a full queue holds little beyond what the ring
/// already does; it only has to ride out one segment seal behind a dense
/// poll.
const QUEUE_DEPTH: usize = 64;

/// One unit of work for the writer thread, run in the order sent. A
/// checkpoint travels inline: the queue's slots are allocated once, and a
/// `Box` would cost an allocation per hand-off.
#[allow(clippy::large_enum_variant)]
enum Job {
    Checkpoint(u16, Checkpoint),
    Gap(u16, CoverageGap),
    /// Answered once every job sent before it has run.
    Barrier(mpsc::SyncSender<()>),
}

/// What the handles and the writer thread share.
struct Core<W: Write> {
    /// The writer itself; the writer thread takes it once per job.
    writer: pq_prof::PqMutex<Option<StoreWriter<W>>>,
    /// Push errors no caller has been handed yet, oldest first.
    errors: Mutex<VecDeque<io::Error>>,
}

impl<W: Write> Core<W> {
    /// The writer thread's loop: run every job in order until the last
    /// sender is gone (`finish`, or every handle dropped).
    fn drain(&self, jobs: mpsc::Receiver<Job>) {
        for job in jobs {
            let result = match job {
                Job::Checkpoint(port, cp) => self.run(|w| w.push(port, &cp)),
                Job::Gap(port, gap) => self.run(|w| {
                    w.push_gap(port, gap);
                    Ok(())
                }),
                Job::Barrier(done) => {
                    let _ = done.send(());
                    Ok(())
                }
            };
            if let Err(err) = result {
                lock(&self.errors).push_back(err);
            }
        }
    }

    fn run(&self, f: impl FnOnce(&mut StoreWriter<W>) -> io::Result<()>) -> io::Result<()> {
        self.writer.lock().as_mut().map_or_else(|| Err(closed()), f)
    }
}

/// The queue's sending end and the thread draining it.
struct Link {
    jobs: mpsc::SyncSender<Job>,
    thread: JoinHandle<()>,
}

struct Shared<W: Write> {
    core: Arc<Core<W>>,
    /// `None` once finished. Held across a send, so jobs from every handle
    /// enter the queue in one order.
    link: Mutex<Option<Link>>,
    /// `pq_control_spill_wait_ns`, when the writer has a telemetry plane.
    spill_wait: Option<Histogram>,
}

impl<W: Write> Drop for Shared<W> {
    /// The last handle dropped without `finish`: close the queue and wait
    /// for the thread to run what is in it. The file gets no trailer.
    fn drop(&mut self) {
        let link = self.link.get_mut().unwrap_or_else(PoisonError::into_inner);
        if let Some(Link { jobs, thread }) = link.take() {
            drop(jobs);
            let _ = thread.join();
        }
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn closed() -> io::Error {
    io::Error::other("store writer already finished")
}

fn stopped() -> io::Error {
    io::Error::other("store writer thread stopped")
}

/// A clonable, `'static`, thread-safe handle to a [`StoreWriter`] usable
/// as the analysis program's [`CheckpointSink`] while the caller retains
/// the ability to [`finish`](SharedStoreWriter::finish) the file.
///
/// The writer runs on a thread of its own, `pq-store-writer`, as the
/// switch CPU runs beside the ASIC. [`on_checkpoint`] and [`on_gap`] only
/// queue the job — a checkpoint clone is a few reference counts — and
/// return; the thread encodes, checksums, seals and writes. Jobs from every
/// handle run in the order they were queued, so the file is byte for byte
/// what a [`StoreWriter`] fed inline writes.
///
/// - **Backpressure.** The queue holds 64 jobs; a full queue blocks the
///   caller and never drops one. The time blocked is recorded as
///   `pq_control_spill_wait_ns` when the writer has a telemetry plane.
/// - **Deferred errors.** A failed push is handed back by the next
///   `on_checkpoint`/`on_gap` (one error per call), so the analysis program
///   still counts it in `spill_errors`; one still pending at the end comes
///   back from [`finish`](SharedStoreWriter::finish).
/// - **[`with`](SharedStoreWriter::with)** waits until every job queued
///   before it has run, then runs its closure under the same lock.
///
/// The lock is pq-prof's instrumented facade under the name
/// `store_writer`; the writer thread takes it once per job, so its
/// wait/hold time in `pq_lock_wait_ns{lock="store_writer"}` measures the
/// writer thread against `with`, not the data plane. Poisoning is
/// recovered rather than propagated; the segment CRCs guard the file
/// itself.
///
/// [`on_checkpoint`]: CheckpointSink::on_checkpoint
/// [`on_gap`]: CheckpointSink::on_gap
pub struct SharedStoreWriter<W: Write> {
    shared: Arc<Shared<W>>,
}

impl<W: Write> Clone for SharedStoreWriter<W> {
    fn clone(&self) -> Self {
        SharedStoreWriter {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<W: Write + Send + 'static> SharedStoreWriter<W> {
    /// Wrap a writer for sharing and start its `pq-store-writer` thread.
    pub fn new(writer: StoreWriter<W>) -> SharedStoreWriter<W> {
        let spill_wait = writer.telemetry.as_ref().map(|t| {
            t.plane
                .registry()
                .histogram(names::CONTROL_SPILL_WAIT_NS, &[])
        });
        let core = Arc::new(Core {
            writer: pq_prof::PqMutex::new("store_writer", Some(writer)),
            errors: Mutex::default(),
        });
        let (jobs, queue) = mpsc::sync_channel(QUEUE_DEPTH);
        let thread = {
            let core = Arc::clone(&core);
            thread::Builder::new()
                .name("pq-store-writer".into())
                .spawn(move || core.drain(queue))
                .expect("spawn the store writer thread")
        };
        SharedStoreWriter {
            shared: Arc::new(Shared {
                core,
                link: Mutex::new(Some(Link { jobs, thread })),
                spill_wait,
            }),
        }
    }
}

impl<W: Write> SharedStoreWriter<W> {
    /// Queue `job` behind every job sent before it, blocking while the
    /// queue is full.
    fn send(&self, job: Job) -> io::Result<()> {
        let link = lock(&self.shared.link);
        let jobs = &link.as_ref().ok_or_else(closed)?.jobs;
        match jobs.try_send(job) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(job)) => {
                let started = Instant::now();
                jobs.send(job).map_err(|_| stopped())?;
                if let Some(wait) = &self.shared.spill_wait {
                    wait.record(started.elapsed().as_nanos() as u64);
                }
                Ok(())
            }
            Err(TrySendError::Disconnected(_)) => Err(stopped()),
        }
    }

    /// Queue `job`, then hand back the oldest push error not yet returned.
    fn spill(&self, job: Job) -> io::Result<()> {
        self.send(job)?;
        lock(&self.shared.core.errors)
            .pop_front()
            .map_or(Ok(()), Err)
    }

    /// Run `f` against the writer once every checkpoint and gap queued
    /// before this call is in it (errors once finished).
    pub fn with<R>(&self, f: impl FnOnce(&mut StoreWriter<W>) -> R) -> io::Result<R> {
        let (done, ran) = mpsc::sync_channel(1);
        self.send(Job::Barrier(done))?;
        ran.recv().map_err(|_| stopped())?;
        match self.shared.core.writer.lock().as_mut() {
            Some(w) => Ok(f(w)),
            None => Err(closed()),
        }
    }

    /// Run what is queued, stop and join the writer thread, and finish the
    /// store. A push error no `on_checkpoint` handed back is returned here,
    /// after the trailer is written.
    pub fn finish(&self) -> io::Result<W> {
        let Link { jobs, thread } = lock(&self.shared.link).take().ok_or_else(closed)?;
        drop(jobs);
        thread
            .join()
            .map_err(|_| io::Error::other("store writer thread panicked"))?;
        let writer = self.shared.core.writer.lock().take().ok_or_else(closed)?;
        let out = writer.finish();
        match lock(&self.shared.core.errors).pop_front() {
            Some(err) => Err(err),
            None => out,
        }
    }
}

impl<W: Write + Send + 'static> CheckpointSink for SharedStoreWriter<W> {
    fn on_checkpoint(&mut self, port: u16, cp: &Checkpoint) -> io::Result<()> {
        self.spill(Job::Checkpoint(port, cp.clone()))
    }

    fn on_gap(&mut self, port: u16, gap: CoverageGap) -> io::Result<()> {
        self.spill(Job::Gap(port, gap))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StoreReader;
    use pq_core::queue_monitor::{Entry, Half, QueueMonitorSnapshot};
    use pq_core::snapshot::TimeWindowSnapshot;
    use pq_core::time_windows::Cell;
    use pq_packet::FlowId;
    use std::io::Cursor;

    const TW: TimeWindowConfig = TimeWindowConfig {
        m0: 4,
        alpha: 2,
        k: 4,
        t: 2,
    };

    /// A periodic checkpoint with `rows` monitor rows, rewritten at every
    /// freeze time so that none refers to its predecessor: a few hundred
    /// bytes encoded, the same for equal `rows` and equally spaced times.
    fn checkpoint(frozen_at: u64, rows: usize) -> Checkpoint {
        let mut windows = vec![vec![Cell::EMPTY; TW.cells()]; usize::from(TW.t)];
        windows[0][3] = Cell {
            flow: FlowId(5),
            cycle: 9,
        };
        let mut entries = vec![Entry::default(); 256];
        for (i, e) in entries.iter_mut().take(rows).enumerate() {
            e.inc = Half {
                flow: FlowId(i as u32 % 7),
                seq: frozen_at.wrapping_add(i as u64),
            };
        }
        Checkpoint {
            frozen_at,
            on_demand: false,
            trigger: None,
            windows: TimeWindowSnapshot::from_parts(TW, windows, false),
            queue_monitors: vec![QueueMonitorSnapshot::from_dense(&entries, 0)],
        }
    }

    fn writer(policy: SegmentPolicy) -> StoreWriter<Vec<u8>> {
        StoreWriter::new(Vec::new(), TW, policy).unwrap()
    }

    /// Body length after each of `cps`, encoded into one segment.
    fn body_lengths(cps: &[Checkpoint]) -> Vec<usize> {
        let mut body = Vec::new();
        let (mut state, mut memo) = (CodecState::default(), EncodeMemo::default());
        cps.iter()
            .map(|cp| {
                encode_checkpoint(&mut body, &TW, &mut state, &mut memo, cp).unwrap();
                body.len()
            })
            .collect()
    }

    #[test]
    fn size_cap_counts_body_bytes_not_the_headroom() {
        let cps: Vec<_> = (0..8).map(|i| checkpoint(1_000 + 50 * i, 100)).collect();
        let lengths = body_lengths(&cps);
        // A cap the body passes with its fifth checkpoint, by less than the
        // headroom: counting the spare bytes would seal after the fourth.
        let cap = lengths[3] + 100;
        assert!(lengths[3] + HEADROOM >= cap && lengths[4] >= cap);
        let mut w = writer(SegmentPolicy {
            checkpoints_per_segment: usize::MAX,
            max_segment_bytes: cap,
            retain_segments_per_port: None,
        });
        for (i, cp) in cps.iter().enumerate() {
            w.push(0, cp).unwrap();
            assert_eq!(w.sealed_segments(), usize::from(i >= 4), "after push {i}");
        }
        assert_eq!(w.segments[0].count, 5);
    }

    #[test]
    fn longest_frame_prefix_fits_the_headroom() {
        let mut w = writer(SegmentPolicy {
            checkpoints_per_segment: 1,
            ..SegmentPolicy::default()
        });
        // Every header field at its widest in a raw segment…
        w.push_raw(u16::MAX, u64::MAX, u64::MAX, u64::MAX, u64::MAX, b"x")
            .unwrap();
        // …and both chain ends present and ten bytes long in a checkpoint
        // segment.
        w.push(u16::MAX, &checkpoint(u64::MAX - 2, 1)).unwrap();
        w.push(u16::MAX, &checkpoint(u64::MAX - 1, 1)).unwrap();
        let widest = SegmentMeta {
            prev_periodic: Some(u64::MAX),
            last_periodic: Some(u64::MAX),
            ..w.segments[0]
        };
        let mut hdr = Vec::new();
        widest.put_seg_header(&mut hdr);
        assert_eq!(hdr.len(), 3 + 6 * MAX_VARINT_LEN);
        assert!(hdr.len() <= format::MAX_SEGHDR_LEN);

        let written = w.segments.clone();
        let bytes = w.finish().unwrap();
        let mut reader = StoreReader::open(Cursor::new(&bytes)).unwrap();
        assert_eq!(reader.segments(), written);
        assert_eq!(written[2].prev_periodic, Some(u64::MAX - 2));
        assert_eq!(written[2].last_periodic, Some(u64::MAX - 1));
        assert_eq!(reader.read_raw_body(&written[0]).unwrap(), b"x");
        assert_eq!(reader.read_port(u16::MAX).unwrap().checkpoints.len(), 2);
        // The same frames found without the index.
        let cut = written[2].offset + written[2].len;
        let scanned = StoreReader::open(Cursor::new(&bytes[..cut as usize])).unwrap();
        assert_eq!(scanned.segments(), written);
    }

    #[test]
    fn fifty_segments_leave_one_segment_of_capacity() {
        let mut w = writer(SegmentPolicy {
            checkpoints_per_segment: 6,
            ..SegmentPolicy::default()
        });
        let mut capacities = Vec::new();
        for i in 0..300 {
            w.push(4, &checkpoint(1_000_000 + 50 * i, 80)).unwrap();
            let state = &w.ports[&4];
            if state.open.is_none() {
                assert_eq!(state.spare.len(), HEADROOM);
                capacities.push(state.spare.capacity());
            }
        }
        assert_eq!(capacities.len(), 50);
        let largest_frame = w.segments.iter().map(|s| s.len).max().unwrap() as usize;
        assert!(
            capacities[49] <= HEADROOM + largest_frame,
            "{} bytes kept for {largest_frame}-byte segments",
            capacities[49]
        );
        assert!(capacities.iter().all(|c| *c == capacities[0]));
    }

    /// A sink that takes half of the first write that would carry it past
    /// `fail_at` bytes, then fails that `write_all` — once.
    struct TearsOnce {
        bytes: Vec<u8>,
        fail_at: Option<usize>,
        torn: bool,
    }

    impl Write for TearsOnce {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.torn {
                self.torn = false;
                self.fail_at = None;
                return Err(io::Error::other("disk full"));
            }
            if self
                .fail_at
                .is_some_and(|at| self.bytes.len() + buf.len() > at)
            {
                self.torn = true;
                self.bytes.extend_from_slice(&buf[..buf.len() / 2]);
                return Ok(buf.len() / 2);
            }
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn failed_seal_returns_the_error_and_the_next_push_starts_clean() {
        let sink = TearsOnce {
            bytes: Vec::new(),
            fail_at: Some(2_000),
            torn: false,
        };
        let policy = SegmentPolicy {
            checkpoints_per_segment: 3,
            ..SegmentPolicy::default()
        };
        let mut w = StoreWriter::new(sink, TW, policy).unwrap();
        let cps: Vec<_> = (0..9).map(|i| checkpoint(1_000 + 50 * i, 100)).collect();
        let mut failed = Vec::new();
        for (i, cp) in cps.iter().enumerate() {
            if let Err(e) = w.push(0, cp) {
                assert_eq!(e.to_string(), "disk full");
                failed.push(i);
                let state = &w.ports[&0];
                assert!(state.open.is_none());
                assert_eq!(state.spare.len(), HEADROOM);
            }
        }
        assert_eq!(failed.len(), 1, "one seal crosses byte 2000: {failed:?}");
        // The lost segment is not indexed, the position did not move, and
        // the segments after it hold exactly their own checkpoints.
        let lost = failed[0] / 3;
        assert_eq!(w.sealed_segments(), 2);
        assert_eq!(
            w.pos,
            format::HEADER_LEN + w.segments[0].len + w.segments[1].len
        );
        let next = &cps[3 * (lost + 1)..][..3];
        let after = &w.segments[lost];
        assert_eq!((after.count, after.min_t), (3, next[0].frozen_at));
        assert_eq!(after.prev_periodic, Some(cps[3 * lost + 2].frozen_at));
        let body = body_lengths(next)[2];
        let prefix = after.len as usize - body - 4;
        assert!(prefix <= HEADROOM, "frame is prefix + body + CRC");
    }
}
