//! The system under test, seen from outside.
//!
//! Every call the benchmark makes into a `pq-*` crate is in this file, so
//! a later API change edits one place. Nothing here measures *inside* the
//! program: layers are timed by wrapping calls to their public functions
//! (`Switch::run`, `TimeWindowSet::record`, `QueueMonitor::on_*`,
//! `PrintQueue` as `QueueHooks`, `AnalysisProgram::on_tick` /
//! `query_time_windows`, `StoreWriter::push` / `finish`,
//! `StoreReader::open` / `query` / `query_cached`, `wire::encode_body` /
//! `decode_body`, `Client::query`, `merge_results`) and by reading the
//! counters the program already exposes.

use crate::spans::Recorder;
use pq_core::coefficient::Coefficients;
use pq_core::control::{AnalysisProgram, Checkpoint, CheckpointSink, CoverageGap};
use pq_core::culprits::GroundTruth;
use pq_core::metrics::{precision_recall, to_float_counts};
use pq_core::params::TimeWindowConfig;
use pq_core::printqueue::{PrintQueue, PrintQueueConfig};
use pq_core::queue_monitor::QueueMonitor;
use pq_core::snapshot::{FlowEstimates, QueryInterval};
use pq_core::time_windows::TimeWindowSet;
use pq_packet::{FlowId, SimPacket};
use pq_router::{epochs, merge_results, BackendSpec, Router, RouterConfig, RouterHandle};
use pq_serve::wire::{decode_body, encode_body, Frame, ENTRIES_PER_FRAME};
use pq_serve::{
    Client, DecodeCache, RemoteResult, Request, ServeConfig, Server, ServerHandle, Sources,
};
use pq_store::{
    ship_archive, SegmentCache, SegmentKey, SegmentPolicy, SharedStoreWriter, StoreReader,
    StoreWriter,
};
use pq_switch::{Arrival, QueueHooks, Switch, SwitchConfig, TelemetrySink};
use pq_telemetry::{names, RegistrySnapshot, Telemetry};
use pq_trace::workload::{Workload, WorkloadKind};
use std::collections::VecDeque;
use std::fs::File;
use std::hint::black_box;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The one egress port every workload drives.
pub const PORT: u16 = 0;
/// Bottleneck rate and buffer of the paper's testbed (§7.1).
const PORT_RATE_GBPS: f64 = 10.0;
const MAX_DEPTH_CELLS: u32 = 32_768;
/// Queue-monitor geometry `PrintQueueConfig::single_port` uses.
const QM_ENTRIES: usize = 32 * 1024;
/// A victim is a packet that met at least this much queue (cells) — the
/// lowest depth bucket of the paper's §7.1 methodology.
const VICTIM_MIN_DEPTH_CELLS: u32 = 1_000;

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn other(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// Which `pq-trace` family a workload replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// ≈ 100 B packets: per-packet cost is nearly all the work.
    Uw,
    /// Near-MTU packets, web-search flow sizes: few packets per
    /// simulated second.
    Ws,
    /// Near-MTU packets, data-mining flow sizes: fewer, heavier flows.
    Dm,
}

impl Traffic {
    pub fn label(self) -> &'static str {
        match self {
            Traffic::Uw => "UW",
            Traffic::Ws => "WS",
            Traffic::Dm => "DM",
        }
    }
}

/// Data-plane configuration of one workload.
#[derive(Debug, Clone, Copy)]
pub struct IngestConfig {
    /// Time-window parameters `(m0, alpha, k, T)`.
    pub tw: (u8, u8, u8, u8),
    /// Transmission delay of a minimum-sized packet (`d` of Theorem 3),
    /// also the `d` every replay query carries.
    pub d: u64,
}

impl IngestConfig {
    fn tw(&self) -> TimeWindowConfig {
        TimeWindowConfig::new(self.tw.0, self.tw.1, self.tw.2, self.tw.3)
    }

    /// The set period: the tick and poll period of every round.
    pub fn set_period_ns(&self) -> u64 {
        self.tw().set_period()
    }
}

/// A generated packet trace. The seed reaches the program only through
/// these arrivals (and through which victims are sampled).
pub struct Trace {
    arrivals: Vec<Arrival>,
}

impl Trace {
    pub fn generate(traffic: Traffic, duration_ns: u64, seed: u64) -> Trace {
        let kind = match traffic {
            Traffic::Uw => WorkloadKind::Uw,
            Traffic::Ws => WorkloadKind::Ws,
            Traffic::Dm => WorkloadKind::Dm,
        };
        Trace {
            arrivals: Workload::paper_testbed(kind, duration_ns, seed)
                .generate()
                .arrivals,
        }
    }

    pub fn packets(&self) -> u64 {
        self.arrivals.len() as u64
    }
}

// ---------------------------------------------------------------------------
// Ingest: packet → switch → time windows + queue monitor → freeze → spill
// ---------------------------------------------------------------------------

/// The rungs of the per-packet ablation ladder. A clock read per packet
/// would cost more than the ≈ 15 ns being measured, so per-packet layers
/// are attributed by running the same arrivals with more and more of the
/// stack attached and differencing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// `Switch::run` with an empty hook slice.
    Bare,
    /// Two hooks that do nothing: the cost of `dyn QueueHooks` dispatch.
    NoopHooks,
    /// `PrintQueue` attached, polling, no spill.
    PrintQueue,
    /// `PrintQueue` spilling every checkpoint through a
    /// `SharedStoreWriter` into memory — the end-to-end configuration.
    Full,
}

/// What one ingest round did.
#[derive(Debug, Clone, Copy, Default)]
pub struct Round {
    pub wall_ns: u64,
    pub packets: u64,
    pub drops: u64,
    pub checkpoints: u64,
    /// Bytes of the finished `.pqa` image (0 without spill).
    pub archive_bytes: u64,
}

impl Round {
    pub fn mpps(&self) -> f64 {
        self.packets as f64 * 1e3 / self.wall_ns.max(1) as f64
    }

    pub fn ns_per_packet(&self) -> f64 {
        self.wall_ns as f64 / self.packets.max(1) as f64
    }
}

struct NoopHook;
impl QueueHooks for NoopHook {}

fn new_switch() -> Switch {
    Switch::new(SwitchConfig::single_port(PORT_RATE_GBPS, MAX_DEPTH_CELLS))
}

fn new_printqueue(cfg: &IngestConfig) -> PrintQueue {
    PrintQueue::new(PrintQueueConfig::single_port(cfg.tw(), cfg.d))
}

/// The store's default policy, except 32 checkpoints per segment instead
/// of 64. Every decoded checkpoint charges ≈ 1.05–1.25 MiB (a dense
/// 32 Ki-entry queue-monitor snapshot plus the windows) against
/// `StoreReader`'s fixed 64 MiB per-segment decode budget, so a 64-checkpoint
/// segment — which the default policy produces whenever checkpoints encode
/// below 64 KiB — is written fine and then refused by every reader
/// (`ship_archive`, `pq-serve`) as over budget. 32 keeps every segment
/// decodable; the 4 MiB size cap still seals larger checkpoints earlier.
fn segment_policy() -> SegmentPolicy {
    SegmentPolicy {
        checkpoints_per_segment: 32,
        ..SegmentPolicy::default()
    }
}

fn memory_writer(cfg: &IngestConfig) -> io::Result<SharedStoreWriter<Vec<u8>>> {
    Ok(SharedStoreWriter::new(StoreWriter::new(
        Vec::new(),
        cfg.tw(),
        segment_policy(),
    )?))
}

/// Seal the store the way `pqsim archive` does: health first, then index.
fn finish_store<W: Write>(
    writer: &SharedStoreWriter<W>,
    analysis: &AnalysisProgram,
) -> io::Result<W> {
    writer.with(|w| w.set_health(PORT, analysis.health()))?;
    writer.finish()
}

/// One untraced ingest round on a fresh switch. The timed region is
/// `Switch::run` plus sealing the store; building and dropping the
/// structures is outside it.
pub fn ingest_round(trace: &Trace, cfg: &IngestConfig, rung: Rung) -> io::Result<Round> {
    let tick = cfg.set_period_ns();
    let mut sw = new_switch();
    let arrivals = trace.arrivals.iter().copied();
    let mut round = Round {
        packets: trace.packets(),
        ..Round::default()
    };
    match rung {
        Rung::Bare => {
            let start = Instant::now();
            sw.run(arrivals, &mut [], tick);
            round.wall_ns = elapsed_ns(start);
        }
        Rung::NoopHooks => {
            let (mut a, mut b) = (NoopHook, NoopHook);
            let start = Instant::now();
            sw.run(arrivals, &mut [&mut a, &mut b], tick);
            round.wall_ns = elapsed_ns(start);
        }
        Rung::PrintQueue => {
            let mut pq = new_printqueue(cfg);
            let start = Instant::now();
            sw.run(arrivals, &mut [&mut pq], tick);
            round.wall_ns = elapsed_ns(start);
            round.checkpoints = pq.analysis().health().checkpoints_stored;
        }
        Rung::Full => {
            let mut pq = new_printqueue(cfg);
            let writer = memory_writer(cfg)?;
            pq.analysis_mut().set_spill(Box::new(writer.clone()));
            let start = Instant::now();
            sw.run(arrivals, &mut [&mut pq], tick);
            let image = finish_store(&writer, pq.analysis())?;
            round.wall_ns = elapsed_ns(start);
            let health = pq.analysis().health();
            if health.spill_errors != 0 {
                return Err(other(format!("{} spill errors", health.spill_errors)));
            }
            round.checkpoints = health.checkpoints_stored;
            round.archive_bytes = image.len() as u64;
        }
    }
    round.drops = sw.port_stats(PORT).dropped;
    Ok(round)
}

/// Wall times the traced round collected around the control plane.
#[derive(Debug, Clone, Default)]
pub struct ControlTimes {
    /// One entry per `PrintQueue::on_tick` call.
    pub tick_ns: Vec<u64>,
    /// One entry per `StoreWriter::push` (through the shared handle).
    pub push_ns: Vec<u64>,
    /// Sealing the last segment and writing the index.
    pub finish_ns: u64,
}

struct TimedPrintQueue {
    inner: PrintQueue,
    rec: Recorder,
    request: u64,
    tick_ns: Vec<u64>,
}

impl QueueHooks for TimedPrintQueue {
    fn on_enqueue(&mut self, pkt: &SimPacket, port: u16, depth_after: u32, now: u64) {
        self.inner.on_enqueue(pkt, port, depth_after, now);
    }

    fn on_dequeue(&mut self, pkt: &SimPacket, port: u16, depth_after: u32, now: u64) {
        self.inner.on_dequeue(pkt, port, depth_after, now);
    }

    fn on_tick(&mut self, now: u64) {
        let _span = self.rec.enter("control.on_tick", self.request);
        let start = Instant::now();
        self.inner.on_tick(now);
        self.tick_ns.push(elapsed_ns(start));
    }
}

struct TimedSink {
    inner: SharedStoreWriter<Vec<u8>>,
    rec: Recorder,
    request: u64,
    push_ns: Arc<Mutex<Vec<u64>>>,
}

impl CheckpointSink for TimedSink {
    fn on_checkpoint(&mut self, port: u16, cp: &Checkpoint) -> io::Result<()> {
        let _span = self.rec.enter("store.push", self.request);
        let start = Instant::now();
        let result = self.inner.on_checkpoint(port, cp);
        let ns = elapsed_ns(start);
        if let Ok(mut pushes) = self.push_ns.lock() {
            pushes.push(ns);
        }
        result
    }

    fn on_gap(&mut self, port: u16, gap: CoverageGap) -> io::Result<()> {
        self.inner.on_gap(port, gap)
    }
}

/// One traced ingest round: the same work as [`Rung::PrintQueue`]
/// (`spill == false`) or [`Rung::Full`] (`spill == true`), with spans
/// `ingest.round → switch.run → control.on_tick → store.push`
/// (`→ store.finish`) and a stopwatch around every tick and push.
pub fn ingest_round_traced(
    trace: &Trace,
    cfg: &IngestConfig,
    spill: bool,
    rec: &Recorder,
    request: u64,
) -> io::Result<(Round, ControlTimes)> {
    let tick = cfg.set_period_ns();
    let mut sw = new_switch();
    let mut pq = TimedPrintQueue {
        inner: new_printqueue(cfg),
        rec: rec.clone(),
        request,
        tick_ns: Vec::new(),
    };
    let push_ns = Arc::new(Mutex::new(Vec::new()));
    let writer = if spill {
        let writer = memory_writer(cfg)?;
        pq.inner.analysis_mut().set_spill(Box::new(TimedSink {
            inner: writer.clone(),
            rec: rec.clone(),
            request,
            push_ns: Arc::clone(&push_ns),
        }));
        Some(writer)
    } else {
        None
    };
    let mut round = Round {
        packets: trace.packets(),
        ..Round::default()
    };
    let mut times = ControlTimes::default();
    {
        let _round = rec.enter("ingest.round", request);
        let start = Instant::now();
        {
            let _run = rec.enter("switch.run", request);
            sw.run(trace.arrivals.iter().copied(), &mut [&mut pq], tick);
        }
        if let Some(writer) = &writer {
            let _finish = rec.enter("store.finish", request);
            let finish_start = Instant::now();
            let image = finish_store(writer, pq.inner.analysis())?;
            times.finish_ns = elapsed_ns(finish_start);
            round.archive_bytes = image.len() as u64;
        }
        round.wall_ns = elapsed_ns(start);
    }
    round.checkpoints = pq.inner.analysis().health().checkpoints_stored;
    round.drops = sw.port_stats(PORT).dropped;
    times.tick_ns = pq.tick_ns;
    times.push_ns = std::mem::take(&mut *push_ns.lock().map_err(other)?);
    Ok((round, times))
}

// ---------------------------------------------------------------------------
// Per-packet layers, replayed from captured queue events
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
struct QueueEvent {
    enqueue: bool,
    pkt: SimPacket,
    depth_after: u32,
    now: u64,
}

/// Enqueue/dequeue events captured from `Switch::run`, for replaying
/// straight into one layer with no event loop around it.
pub struct Captured {
    events: Vec<QueueEvent>,
    dequeues: u64,
}

struct CaptureHook {
    events: Vec<QueueEvent>,
}

impl QueueHooks for CaptureHook {
    fn on_enqueue(&mut self, pkt: &SimPacket, _port: u16, depth_after: u32, now: u64) {
        self.events.push(QueueEvent {
            enqueue: true,
            pkt: *pkt,
            depth_after,
            now,
        });
    }

    fn on_dequeue(&mut self, pkt: &SimPacket, _port: u16, depth_after: u32, now: u64) {
        self.events.push(QueueEvent {
            enqueue: false,
            pkt: *pkt,
            depth_after,
            now,
        });
    }
}

impl Captured {
    /// Capture the queue events of the first `max_packets` arrivals.
    pub fn from_prefix(trace: &Trace, max_packets: usize) -> Captured {
        let n = trace.arrivals.len().min(max_packets);
        let mut hook = CaptureHook {
            events: Vec::with_capacity(2 * n),
        };
        new_switch().run(trace.arrivals[..n].iter().copied(), &mut [&mut hook], 0);
        let dequeues = hook.events.iter().filter(|e| !e.enqueue).count() as u64;
        Captured {
            events: hook.events,
            dequeues,
        }
    }

    /// ns per forwarded packet of feeding every captured event to `hooks`.
    /// Never inlined, so the no-op hook pays the same loop and dispatch as
    /// the real one.
    #[inline(never)]
    fn replay_into(&self, hooks: &mut dyn QueueHooks) -> f64 {
        let start = Instant::now();
        for e in &self.events {
            if e.enqueue {
                hooks.on_enqueue(&e.pkt, PORT, e.depth_after, e.now);
            } else {
                hooks.on_dequeue(&e.pkt, PORT, e.depth_after, e.now);
            }
        }
        elapsed_ns(start) as f64 / self.dequeues.max(1) as f64
    }

    /// ns per forwarded packet of `PrintQueue::on_enqueue` + `on_dequeue`
    /// (time windows, queue monitor, trigger check), no ticks: the replay
    /// into `PrintQueue` minus the same replay into a hook that does
    /// nothing, which costs the loop and the streaming of the events.
    pub fn replay_printqueue_ns_per_pkt(&self, cfg: &IngestConfig) -> f64 {
        let mut pq = new_printqueue(cfg);
        let with = self.replay_into(&mut pq);
        black_box(&pq);
        with - self.replay_into(&mut NoopHook)
    }

    /// `(ns per record, passed ÷ recorded)` of `TimeWindowSet::record`
    /// over the captured dequeue sequence.
    pub fn replay_time_windows(&self, cfg: &IngestConfig) -> (f64, f64) {
        let mut set = TimeWindowSet::new(cfg.tw());
        let start = Instant::now();
        for e in self.events.iter().filter(|e| !e.enqueue) {
            set.record(e.pkt.flow, e.now);
        }
        let ns = elapsed_ns(start);
        let stats = black_box(&set).stats();
        (
            ns as f64 / self.dequeues.max(1) as f64,
            stats.passed as f64 / stats.recorded.max(1) as f64,
        )
    }

    /// ns per `QueueMonitor::on_enqueue` / `on_dequeue` update.
    pub fn replay_queue_monitor_ns(&self) -> f64 {
        let mut qm = QueueMonitor::new(QM_ENTRIES, 1);
        let start = Instant::now();
        for e in &self.events {
            if e.enqueue {
                qm.on_enqueue(e.pkt.flow, e.depth_after, e.now);
            } else {
                qm.on_dequeue(e.pkt.flow, e.depth_after, e.now);
            }
        }
        let ns = elapsed_ns(start);
        black_box(&qm);
        ns as f64 / self.events.len().max(1) as f64
    }
}

// ---------------------------------------------------------------------------
// Answers and their digests
// ---------------------------------------------------------------------------

/// A victim packet's queueing interval: the query every layer answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    pub from: u64,
    pub to: u64,
    pub seqno: u64,
}

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Order-independent 64-bit digest of an answer: every flow's estimate by
/// its `f64::to_bits`, every coverage gap, and the degraded flag. Two
/// answers with equal digests are bit-identical for the purposes of the
/// repo's standing invariant (live = archive = direct = routed).
fn answer_digest(estimates: &FlowEstimates, gaps: &[CoverageGap], degraded: bool) -> u64 {
    let mut acc = mix(u64::from(degraded) ^ 0xd6e8_feb8_6659_fd93);
    for (flow, n) in &estimates.counts {
        acc = acc.wrapping_add(mix(mix(u64::from(flow.0)) ^ n.to_bits()));
    }
    for g in gaps {
        acc = acc.wrapping_add(mix(mix(g.from ^ 0x5851_f42d_4c95_7f2d) ^ g.to));
    }
    acc
}

fn remote_digest(r: &RemoteResult) -> u64 {
    answer_digest(&r.estimates, &r.gaps, r.degraded)
}

/// CRC-32 over a list of words (the `answers_digest` of a run).
pub fn crc_of_words(words: &[u64]) -> u32 {
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    pq_store::crc::crc32(&bytes)
}

// ---------------------------------------------------------------------------
// Live state: the verification round
// ---------------------------------------------------------------------------

/// Live control-plane state, ground truth and the spilled archive of one
/// full run of the trace.
pub struct Live {
    analysis: AnalysisProgram,
    truth: GroundTruth,
    pub drops: u64,
    pub checkpoints: u64,
    pub archive_bytes: u64,
    /// Simulated time of the last stored checkpoint: the archive's span.
    pub span_ns: u64,
}

/// Precision and recall of one live answer against ground truth.
#[derive(Debug, Clone, Copy)]
pub struct Accuracy {
    pub precision: f64,
    pub recall: f64,
}

impl Live {
    /// Run the trace with `[PrintQueue + file spill, TelemetrySink]`,
    /// leaving the `.pqa` at `archive`.
    pub fn run(trace: &Trace, cfg: &IngestConfig, archive: &Path) -> io::Result<Live> {
        let mut pq = new_printqueue(cfg);
        let file = BufWriter::new(File::create(archive)?);
        let writer = SharedStoreWriter::new(StoreWriter::new(file, cfg.tw(), segment_policy())?);
        pq.analysis_mut().set_spill(Box::new(writer.clone()));
        let mut sink = TelemetrySink::new();
        // Sized up front so peak memory follows the packet count, not
        // where the count falls between two `Vec` doublings.
        sink.records.reserve_exact(trace.arrivals.len());
        let mut sw = new_switch();
        sw.run(
            trace.arrivals.iter().copied(),
            &mut [&mut pq, &mut sink],
            cfg.set_period_ns(),
        );
        let mut file = finish_store(&writer, pq.analysis())?;
        file.flush()?;
        drop(file);
        let analysis = pq.into_analysis();
        let health = analysis.health();
        if health.spill_errors != 0 {
            return Err(other(format!("{} spill errors", health.spill_errors)));
        }
        Ok(Live {
            span_ns: analysis
                .checkpoints(PORT)
                .last()
                .map_or(0, |cp| cp.frozen_at),
            checkpoints: health.checkpoints_stored,
            archive_bytes: std::fs::metadata(archive)?.len(),
            drops: sink.drops,
            truth: GroundTruth::new(&sink.records, 80),
            analysis,
        })
    }

    /// Up to `n` victims: a seeded uniform sample, without replacement,
    /// of the packets that met at least 1 000 cells of queue, in time
    /// order.
    pub fn sample_victims(&self, n: usize, seed: u64) -> Vec<Victim> {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut eligible: Vec<Victim> = self
            .truth
            .records()
            .iter()
            .filter(|r| r.meta.enq_qdepth >= VICTIM_MIN_DEPTH_CELLS)
            .map(|r| Victim {
                from: r.meta.enq_timestamp,
                to: r.deq_timestamp(),
                seqno: r.seqno,
            })
            .collect();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 0x7669_6374_696d_7321);
        eligible.shuffle(&mut rng);
        eligible.truncate(n);
        eligible.sort_by_key(|v| (v.from, v.seqno));
        eligible
    }

    /// Up to `n` victims from one congestion episode: packets enqueued
    /// `spacing_ns` apart around the deepest queue of the run, every one
    /// of them answerable from a single archive segment (`spans`, from
    /// [`Reader::segment_spans`]) — a decoded segment is ≈ 34 MiB, so the
    /// daemons' 64 MiB cache keeps one resident, not two.
    pub fn hot_victims(&self, n: usize, spacing_ns: u64, spans: &[(u64, u64)]) -> Vec<Victim> {
        let span_of = |r: &pq_switch::TelemetryRecord| {
            spans
                .iter()
                .find(|s| s.0 <= r.meta.enq_timestamp && r.deq_timestamp() < s.1)
        };
        let records = self.truth.records();
        let eligible =
            |r: &&pq_switch::TelemetryRecord| r.meta.enq_qdepth >= VICTIM_MIN_DEPTH_CELLS;
        let Some((peak, span)) = records
            .iter()
            .filter(eligible)
            .filter_map(|r| span_of(r).map(|s| (r, *s)))
            .max_by_key(|(r, _)| r.meta.enq_qdepth)
        else {
            return Vec::new();
        };
        // Centre the episode on the peak, but keep it inside the segment.
        let episode = spacing_ns * n as u64 + (peak.deq_timestamp() - peak.meta.enq_timestamp);
        let first = peak
            .meta
            .enq_timestamp
            .saturating_sub(spacing_ns * n as u64 / 2)
            .min(span.1.saturating_sub(episode))
            .max(span.0);
        let mut hot: Vec<Victim> = Vec::new();
        for j in 0..n as u64 {
            let target = first + j * spacing_ns;
            // Records are in dequeue order, which on a FIFO port is also
            // enqueue order.
            let at = records.partition_point(|r| r.meta.enq_timestamp < target);
            let next = records[at..]
                .iter()
                .take_while(|r| r.meta.enq_timestamp < span.1)
                .filter(eligible)
                .find(|r| span_of(r) == Some(&span));
            if let Some(r) = next {
                if hot.last().is_none_or(|h| h.seqno != r.seqno) {
                    hot.push(Victim {
                        from: r.meta.enq_timestamp,
                        to: r.deq_timestamp(),
                        seqno: r.seqno,
                    });
                }
            }
        }
        hot
    }

    /// `AnalysisProgram::query_time_windows` on live state: the answer's
    /// digest and the wall time of the call.
    pub fn query(&self, v: Victim) -> (u64, u64) {
        let start = Instant::now();
        let r = self
            .analysis
            .query_time_windows(PORT, QueryInterval::new(v.from, v.to));
        let ns = elapsed_ns(start);
        (answer_digest(&r.estimates, &r.gaps, r.degraded), ns)
    }

    /// Precision/recall of the live answer vs
    /// `GroundTruth::direct_culprits`.
    pub fn accuracy(&self, v: Victim) -> Accuracy {
        let r = self
            .analysis
            .query_time_windows(PORT, QueryInterval::new(v.from, v.to));
        let truth = to_float_counts(&self.truth.direct_culprits(v.from, v.to, v.seqno));
        let pr = precision_recall(&r.estimates.counts, &truth);
        Accuracy {
            precision: pr.precision,
            recall: pr.recall,
        }
    }

    /// Wall time of `AnalysisProgram::query_queue_monitor` at the
    /// victim's dequeue instant.
    pub fn queue_monitor_ns(&self, v: Victim) -> u64 {
        let start = Instant::now();
        let answer = self.analysis.query_queue_monitor(PORT, v.to);
        let ns = elapsed_ns(start);
        black_box(answer.map(|a| a.staleness));
        ns
    }
}

// ---------------------------------------------------------------------------
// Archive: pq-store read side
// ---------------------------------------------------------------------------

/// Replicate an archive the way `pqsim replicate` does.
pub fn replicate(src: &Path, dst: &Path) -> io::Result<()> {
    ship_archive(src, dst).map(|_| ())
}

/// Keeps the last few decoded segments, so the oracle pass over
/// time-sorted victims decodes each segment once without holding the
/// whole archive decoded.
struct RecentSegments {
    slots: VecDeque<(SegmentKey, Arc<[Checkpoint]>)>,
}

impl SegmentCache for RecentSegments {
    fn get(&mut self, key: SegmentKey) -> Option<Arc<[Checkpoint]>> {
        self.slots
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, cps)| Arc::clone(cps))
    }

    fn insert(&mut self, key: SegmentKey, checkpoints: Arc<[Checkpoint]>) {
        if self.slots.len() == 3 {
            self.slots.pop_front();
        }
        self.slots.push_back((key, checkpoints));
    }
}

/// What `StoreReader::last_query_stats` said about one query.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReadStats {
    pub wall_ns: u64,
    pub segments: u64,
    pub decoded: u64,
    pub decode_ns: u64,
}

/// An in-process `StoreReader` over one archive.
pub struct Reader {
    reader: StoreReader<BufReader<File>>,
    coeffs: Coefficients,
    recent: RecentSegments,
    /// A private `pq-serve` decode cache, large enough never to evict,
    /// for the cached rung of the hop ladder.
    cache: DecodeCache,
    pub segments: usize,
}

impl Reader {
    /// `StoreReader::open`, returning the reader and the wall time of
    /// the open call.
    pub fn open(path: &Path, cfg: &IngestConfig) -> io::Result<(Reader, u64)> {
        let file = BufReader::new(File::open(path)?);
        let start = Instant::now();
        let reader = StoreReader::open(file)?;
        let open_ns = elapsed_ns(start);
        let coeffs = Coefficients::compute(reader.tw_config(), cfg.d);
        Ok((
            Reader {
                segments: reader.segments().len(),
                reader,
                coeffs,
                recent: RecentSegments {
                    slots: VecDeque::new(),
                },
                cache: DecodeCache::new(u64::MAX, &Telemetry::new()),
            },
            open_ns,
        ))
    }

    /// `(from, to)` of every checkpoint segment: an interval with
    /// `from <= start` and `end < to` is answered from that segment alone.
    pub fn segment_spans(&self) -> Vec<(u64, u64)> {
        self.reader
            .segments()
            .iter()
            .filter(|s| s.port == PORT && s.kind == pq_store::KIND_CHECKPOINTS)
            .map(|s| (s.prev_periodic.map_or(0, |p| p + 1), s.max_t))
            .collect()
    }

    /// The oracle answer's digest (decoding through a tiny recent-segment
    /// cache; results are bit-identical with and without a cache).
    pub fn oracle(&mut self, from: u64, to: u64) -> io::Result<RemoteResult> {
        let r = self.reader.query_cached(
            PORT,
            QueryInterval::new(from, to),
            &self.coeffs,
            Some(&mut self.recent),
        )?;
        Ok(RemoteResult {
            estimates: r.estimates,
            gaps: r.gaps,
            degraded: r.degraded,
            checkpoints: self.reader.checkpoint_count(PORT),
            trace: None,
        })
    }

    fn timed(
        &mut self,
        v: Victim,
        cache: Option<&mut dyn SegmentCache>,
    ) -> io::Result<(u64, ReadStats)> {
        let start = Instant::now();
        let r = self.reader.query_cached(
            PORT,
            QueryInterval::new(v.from, v.to),
            &self.coeffs,
            cache,
        )?;
        let wall_ns = elapsed_ns(start);
        let stats = self.reader.last_query_stats();
        Ok((
            answer_digest(&r.estimates, &r.gaps, r.degraded),
            ReadStats {
                wall_ns,
                segments: stats.segments,
                decoded: stats.decoded,
                decode_ns: stats.decode_ns,
            },
        ))
    }

    /// `StoreReader::query`: every needed segment is decoded.
    pub fn query_uncached(&mut self, v: Victim) -> io::Result<(u64, ReadStats)> {
        self.timed(v, None)
    }

    /// `StoreReader::query_cached` against the private decode cache
    /// (warm after the first touch of a segment).
    pub fn query_cached(&mut self, v: Victim) -> io::Result<(u64, ReadStats)> {
        let mut view = self.cache.for_archive(1);
        self.timed(v, Some(&mut view))
    }
}

/// The expected answer of every route to one victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// Live, `StoreReader`, and direct-daemon answers.
    pub direct: u64,
    /// The routed answer: equal to `direct` unless the interval crosses
    /// an epoch boundary, in which case the router merges one partial
    /// per epoch slice (`merge_results` over the slices, in slice order).
    pub routed: u64,
    /// Epoch slices the router fans this interval out to.
    pub slices: usize,
}

impl Reader {
    /// Oracle digests for `v` under time sharding of `epoch_ns`.
    pub fn expected(&mut self, v: Victim, epoch_ns: u64) -> io::Result<Expected> {
        let direct = remote_digest(&self.oracle(v.from, v.to)?);
        let slices = epochs(v.from, v.to, epoch_ns);
        let routed = if slices.len() == 1 {
            direct
        } else {
            remote_digest(&self.partials(v, epoch_ns)?.merged()?)
        };
        Ok(Expected {
            direct,
            routed,
            slices: slices.len(),
        })
    }

    /// The per-epoch-slice partial answers a router would gather for `v`.
    pub fn partials(&mut self, v: Victim, epoch_ns: u64) -> io::Result<Partials> {
        epochs(v.from, v.to, epoch_ns)
            .into_iter()
            .map(|s| self.oracle(s.from, s.to))
            .collect::<io::Result<Vec<_>>>()
            .map(Partials)
    }
}

/// Captured partial answers, for timing `merge_results`.
pub struct Partials(Vec<RemoteResult>);

impl Partials {
    fn merged(&self) -> io::Result<RemoteResult> {
        merge_results(self.0.clone()).ok_or_else(|| other("no partials to merge"))
    }

    /// Wall ns of one `merge_results` over the captured partials (the
    /// clone that feeds it is outside the timed region).
    pub fn merge_ns(&self) -> u64 {
        let input = self.0.clone();
        let start = Instant::now();
        let merged = merge_results(input);
        let ns = elapsed_ns(start);
        black_box(merged);
        ns
    }
}

// ---------------------------------------------------------------------------
// Wire: the frames of one answer
// ---------------------------------------------------------------------------

/// Cost of putting one answer on the wire and taking it off again.
#[derive(Debug, Clone, Copy)]
pub struct WireCost {
    pub encode_ns: u64,
    pub decode_ns: u64,
    pub bytes: u64,
}

/// The frames a daemon streams for `answer` (header, flow chunks, gap
/// chunks, end), timed through `encode_body` and back through
/// `decode_body`.
fn wire_cost(answer: &RemoteResult) -> io::Result<WireCost> {
    let id = 1;
    let flows: Vec<(FlowId, f64)> = answer
        .estimates
        .counts
        .iter()
        .map(|(f, n)| (*f, *n))
        .collect();
    let mut frames = vec![Frame::ResultHeader {
        id,
        degraded: answer.degraded,
        checkpoints: answer.checkpoints,
        flows: flows.len() as u32,
        gaps: answer.gaps.len() as u32,
        trace: None,
    }];
    frames.extend(flows.chunks(ENTRIES_PER_FRAME).map(|c| Frame::ResultFlows {
        id,
        flows: c.to_vec(),
    }));
    frames.extend(
        answer
            .gaps
            .chunks(ENTRIES_PER_FRAME)
            .map(|c| Frame::ResultGaps {
                id,
                gaps: c.to_vec(),
            }),
    );
    frames.push(Frame::ResultEnd { id });

    let start = Instant::now();
    let bodies: Vec<Vec<u8>> = frames.iter().map(encode_body).collect();
    let encode_ns = elapsed_ns(start);
    let start = Instant::now();
    for body in &bodies {
        black_box(decode_body(body).map_err(other)?);
    }
    let decode_ns = elapsed_ns(start);
    Ok(WireCost {
        encode_ns,
        decode_ns,
        // Each frame travels behind a 4-byte length prefix.
        bytes: bodies.iter().map(|b| b.len() as u64 + 4).sum(),
    })
}

/// One captured answer, for timing its trip over the wire.
pub struct Answer(RemoteResult);

impl Answer {
    /// Cost of encoding and decoding the frames a daemon streams for it.
    pub fn wire_cost(&self) -> io::Result<WireCost> {
        wire_cost(&self.0)
    }
}

impl Reader {
    /// The answer to `v`, captured.
    pub fn answer(&mut self, v: Victim) -> io::Result<Answer> {
        self.oracle(v.from, v.to).map(Answer)
    }
}

// ---------------------------------------------------------------------------
// Fleet: two pq-serve backends behind one pq-router, on loopback
// ---------------------------------------------------------------------------

/// Worker threads per daemon (`nproc` = 2 in the sandbox).
const SERVE_WORKERS: usize = 2;

/// Two archive-only daemons (default 64 MiB decode cache each) and a
/// replication-2 router over both, as in-process threads.
pub struct Fleet {
    backends: Vec<ServerHandle>,
    router: RouterHandle,
    /// The daemon direct queries go to.
    pub backend_addr: SocketAddr,
    /// Both daemons (a routed query lands on whichever owns its shard).
    pub backend_addrs: Vec<SocketAddr>,
    pub router_addr: SocketAddr,
}

impl Fleet {
    pub fn bind(archive_a: &Path, archive_b: &Path, epoch_ns: u64) -> io::Result<Fleet> {
        let mut backends = Vec::new();
        let mut specs = Vec::new();
        for (i, path) in [archive_a, archive_b].into_iter().enumerate() {
            let name = format!("shard-{i}");
            let server = Server::bind(
                ("127.0.0.1", 0),
                Sources {
                    live: None,
                    archive: Some(path.to_path_buf()),
                    rtt: Vec::new(),
                },
                ServeConfig {
                    workers: SERVE_WORKERS,
                    shard: name.clone(),
                    ..ServeConfig::default()
                },
                &Telemetry::new(),
            )?;
            let handle = server.spawn()?;
            specs.push(BackendSpec {
                name,
                addr: handle.addr().to_string(),
            });
            backends.push(handle);
        }
        let router = Router::bind(
            ("127.0.0.1", 0),
            specs,
            RouterConfig {
                replication: 2,
                epoch_ns,
                ..RouterConfig::default()
            },
            &Telemetry::new(),
        )?
        .spawn()?;
        Ok(Fleet {
            backend_addr: backends[0].addr(),
            backend_addrs: backends.iter().map(ServerHandle::addr).collect(),
            router_addr: router.addr(),
            backends,
            router,
        })
    }

    /// Stop the router, then the daemons, waiting for their threads.
    pub fn shutdown(self) -> io::Result<()> {
        self.router.shutdown()?;
        for b in self.backends {
            b.shutdown()?;
        }
        Ok(())
    }
}

/// Why a remote query did not produce an answer.
#[derive(Debug)]
pub struct QueryFailed(pub String);

/// One client connection (to a daemon or to the router).
pub struct Conn {
    client: Client,
    d: u64,
}

impl Conn {
    pub fn connect(addr: SocketAddr, cfg: &IngestConfig) -> io::Result<Conn> {
        Ok(Conn {
            client: Client::connect(addr).map_err(other)?,
            d: cfg.d,
        })
    }

    /// One `Request::Replay` for the victim's interval: the answer's
    /// digest and the client-side send → last-frame wall time. `Busy`,
    /// error frames and transport errors are failures.
    pub fn replay(&mut self, v: Victim) -> Result<(u64, u64), QueryFailed> {
        let start = Instant::now();
        let answer = self.client.query(Request::Replay {
            port: PORT,
            from: v.from,
            to: v.to,
            d: self.d,
        });
        let ns = elapsed_ns(start);
        match answer {
            Ok(r) => Ok((remote_digest(&r), ns)),
            Err(e) => Err(QueryFailed(e.to_string())),
        }
    }

    /// The peer's full metrics snapshot (`MetricsGet`): the `pq_serve_*`
    /// series of a daemon, the `pq_router_*` series of a router.
    pub fn metrics(&mut self) -> io::Result<Counters> {
        Ok(Counters(
            self.client.metrics_snapshot().map_err(other)?.changed,
        ))
    }
}

/// A snapshot of a peer's telemetry registry.
pub struct Counters(RegistrySnapshot);

impl Counters {
    fn counter(&self, name: &str) -> u64 {
        self.0.counter_sum(name)
    }

    pub fn cache_hits(&self) -> u64 {
        self.counter(names::SERVE_CACHE_HIT)
    }

    pub fn cache_misses(&self) -> u64 {
        self.counter(names::SERVE_CACHE_MISS)
    }

    pub fn cache_resident_bytes(&self) -> u64 {
        self.0.gauge(names::SERVE_CACHE_BYTES, &[]).unwrap_or(0)
    }

    pub fn shed_total(&self) -> u64 {
        self.counter(names::SERVE_SHED)
    }

    /// `(p50, p99)` of the daemon's own `pq_serve_request_ns` histogram
    /// (log2 buckets, interpolated), in ns.
    pub fn request_ns(&self) -> (u64, u64) {
        self.0
            .histogram(names::SERVE_REQUEST_NS, &[])
            .map_or((0, 0), |h| (h.p50(), h.p99()))
    }

    pub fn router_fanout_mean(&self) -> f64 {
        self.0
            .histogram(names::ROUTER_FANOUT, &[])
            .map_or(0.0, |h| h.mean())
    }

    pub fn router_failovers(&self) -> u64 {
        self.counter(names::ROUTER_FAILOVERS)
    }

    pub fn router_retries(&self) -> u64 {
        self.counter(names::ROUTER_RETRIES)
    }
}

// ---------------------------------------------------------------------------
// Scratch space
// ---------------------------------------------------------------------------

/// A per-process scratch directory under the benchmark's own `out/`,
/// removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn create(out_dir: &Path) -> io::Result<Scratch> {
        let dir = out_dir.join(format!("tmp.{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Best-effort git commit of the tree being measured (`"unknown"` in a
/// checkout that is not a repository).
pub fn git_commit() -> String {
    pq_telemetry::provenance::git_commit()
}
