//! Request-scoped distributed tracing: wire-propagated trace context,
//! parented spans, head + tail sampling, a slow-query log, and JSON-lines
//! spill for cross-process stitching.
//!
//! [`SpanTracer`](crate::SpanTracer) answers "what did this *process*
//! spend time on" in sim time; this module answers "why was *this query*
//! slow" across processes. A [`TraceContext`] rides the wire from client
//! → router → backend, each tier records its spans through one
//! [`RequestTrace`], and the committed [`Trace`]s land in a bounded
//! [`TraceStore`], which dumps them over the wire, spills them as JSON
//! lines, and stitches them into one Chrome timeline.
//!
//! Sampling is head-based and deterministic in the trace id (the same id
//! makes the same decision in every process — no coordination needed),
//! with two tail-capture escapes: a trace whose root duration crosses the
//! slow threshold is always committed (into both the recent ring and the
//! top-N slow log), and a client that got `Busy`-retried upgrades its
//! context to sampled so shed-and-retried requests are never invisible.
//!
//! Timestamps are **Unix-epoch nanoseconds** from a [`TraceClock`]
//! (epoch anchor captured once + monotonic offset), so spans recorded by
//! different processes on one machine land on a shared timeline without a
//! clock-sync protocol.

use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Sampling rate denominator: `sample_ppm` is parts-per-million, so
/// `1_000_000` means "sample every trace".
pub const SAMPLE_ALWAYS_PPM: u32 = 1_000_000;

/// The wire-propagated identity of one end-to-end request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// 128-bit trace identity, shared by every span of the request.
    pub trace_id: u128,
    /// The span id of the caller's enclosing span (0 at the root).
    pub parent_span: u64,
    /// Head-sampling decision, made once at the edge and honored
    /// downstream so a trace is never half-collected.
    pub sampled: bool,
}

impl TraceContext {
    /// A fresh root context: new trace id, no parent, `sampled` as given.
    pub fn root(trace_id: u128, sampled: bool) -> TraceContext {
        TraceContext {
            trace_id,
            parent_span: 0,
            sampled,
        }
    }

    /// The context a tier hands to its callee: same trace, the given span
    /// as parent, same sampling decision.
    pub fn child(&self, parent_span: u64) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            parent_span,
            sampled: self.sampled,
        }
    }
}

/// One parented span on the Unix-epoch nanosecond timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// Id of this span (unique within the trace).
    pub span_id: u64,
    /// Id of the enclosing span (0 for a root span).
    pub parent_span: u64,
    /// Stage name (`route`, `worker_exec`, `segment_decode`, ...).
    pub name: String,
    /// Which process recorded it (`router`, `serve:shard-a`, ...).
    pub process: String,
    /// Free-form annotation (`cache=hit`, `attempt=2`, ...); empty if none.
    pub tag: String,
    /// Span start, Unix-epoch nanoseconds.
    pub start_ns: u64,
    /// Span end, Unix-epoch nanoseconds (`end_ns >= start_ns`).
    pub end_ns: u64,
}

impl TraceSpan {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One completed, committed trace: the per-process view of a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// The request's trace id.
    pub trace_id: u128,
    /// Span id of this process's root span for the request.
    pub root_span: u64,
    /// The per-process wall time: root-span start to the latest span end.
    pub duration_ns: u64,
    /// True when `duration_ns` crossed the slow threshold, which also
    /// entered the trace into the slow log.
    pub slow: bool,
    /// The recorded spans, in recording order.
    pub spans: Vec<TraceSpan>,
}

/// A 64-bit finalizer with full avalanche (splitmix64). Used for span-id
/// derivation and the deterministic sampling decision.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn fold128(id: u128) -> u64 {
    (id as u64) ^ ((id >> 64) as u64)
}

/// The never-zero id of a process's `seq`-th span of a trace.
fn span_id(trace_id: u128, process_salt: u64, seq: u64) -> u64 {
    splitmix64(fold128(trace_id) ^ process_salt ^ seq).max(1)
}

static TRACE_ID_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh, never-zero 128-bit trace id: wall-clock entropy mixed with a
/// process-wide sequence number, both avalanched. Collisions across
/// processes started in the same nanosecond are broken by the per-process
/// address-space entropy of the sequence cell.
pub fn new_trace_id() -> u128 {
    let now = system_now_ns();
    let seq = TRACE_ID_SEQ.fetch_add(1, Ordering::Relaxed);
    let salt = &TRACE_ID_SEQ as *const _ as u64;
    let hi = splitmix64(now ^ salt.rotate_left(32));
    let lo = splitmix64(seq.wrapping_add(now).wrapping_add(salt));
    ((u128::from(hi) << 64) | u128::from(lo)).max(1)
}

/// The system clock in Unix-epoch nanoseconds (0 before the epoch).
fn system_now_ns() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// A Unix-epoch-anchored monotonic clock.
///
/// The epoch offset is captured once at construction from the system
/// clock; after that, `now_ns` is the anchor plus a monotonic elapsed
/// time, so it can never run backwards. Two processes on one machine
/// therefore agree on the timeline to within their (sub-millisecond)
/// anchor-capture skew — good enough to stitch their spans into one
/// Chrome timeline, which is all the stitcher promises.
#[derive(Debug)]
pub struct TraceClock {
    epoch_ns: u64,
    started: Instant,
}

impl Default for TraceClock {
    fn default() -> Self {
        TraceClock::new()
    }
}

impl TraceClock {
    /// Anchor a new clock to the current system time.
    pub fn new() -> TraceClock {
        TraceClock {
            epoch_ns: system_now_ns(),
            started: Instant::now(),
        }
    }

    /// Monotonic Unix-epoch nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.epoch_ns
            .saturating_add(u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }
}

/// One request's trace in one process: the one open → record → close
/// lifecycle the daemon's query and standing paths and the router share.
///
/// [`open`](Self::open) continues the propagated context, or originates a
/// root whose sampling [`TraceStore::should_sample`] decides, and reserves
/// this process's root span; callees continue [`child`](Self::child).
/// [`close`](Self::close) records the root span and commits the trace only
/// when it is sampled, upgraded by a downstream `Busy` shed, or slow.
///
/// Span ids are derived deterministically from `(trace id, process,
/// sequence)` through [`splitmix64`], so concurrent tiers cannot collide
/// and tests can assert exact parentage. Collection is allocation-light
/// (a `Vec` push per span) and lock-free — the trace is owned by the one
/// worker driving the request.
#[derive(Debug)]
pub struct RequestTrace<'a> {
    store: &'a TraceStore,
    ctx: TraceContext,
    process: &'a str,
    process_salt: u64,
    next_seq: u64,
    root: OpenSpan,
    /// Latest end of any recorded span: the trace's extent in this process.
    end_ns: u64,
    /// Whether the slow threshold may commit this trace.
    tail: bool,
    upgraded: bool,
    spans: Vec<TraceSpan>,
}

/// A span whose id is handed out before it closes, so children recorded
/// in the meantime can name it as their parent.
#[derive(Debug)]
#[must_use = "an open span is recorded only by `close_span`"]
pub struct OpenSpan {
    id: u64,
    parent: u64,
    start_ns: u64,
}

impl OpenSpan {
    /// This span's id, for children to name as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl<'a> RequestTrace<'a> {
    /// Open a request's trace whose root span starts at `start_ns`:
    /// continue `propagated`, or originate a root here so edge-issued
    /// requests are traceable too. `None` when the store is disabled —
    /// one relaxed load, nothing allocated.
    pub fn open(
        store: &'a TraceStore,
        propagated: Option<TraceContext>,
        process: &'a str,
        start_ns: u64,
    ) -> Option<RequestTrace<'a>> {
        if !store.is_enabled() {
            return None;
        }
        let ctx = propagated.unwrap_or_else(|| {
            let tid = new_trace_id();
            TraceContext::root(tid, store.should_sample(tid))
        });
        Some(RequestTrace::new(store, ctx, process, start_ns))
    }

    /// Continue a propagated *sampled* context only: nothing is
    /// originated here and the slow threshold never applies (a standing
    /// query's registration pass).
    pub fn follow(
        store: &'a TraceStore,
        propagated: Option<TraceContext>,
        process: &'a str,
        start_ns: u64,
    ) -> Option<RequestTrace<'a>> {
        let ctx = propagated.filter(|c| c.sampled && store.is_enabled())?;
        Some(RequestTrace {
            tail: false,
            ..RequestTrace::new(store, ctx, process, start_ns)
        })
    }

    fn new(store: &'a TraceStore, ctx: TraceContext, process: &'a str, start_ns: u64) -> Self {
        // FNV-1a of the process name.
        let process_salt = process.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
        });
        RequestTrace {
            store,
            ctx,
            process,
            process_salt,
            next_seq: 1,
            root: OpenSpan {
                id: span_id(ctx.trace_id, process_salt, 1),
                parent: ctx.parent_span,
                start_ns,
            },
            end_ns: start_ns,
            tail: true,
            upgraded: false,
            spans: Vec::new(),
        }
    }

    /// This process's root span id.
    pub fn root_span(&self) -> u64 {
        self.root.id
    }

    /// The caller's enclosing span, which the root span is parented to.
    pub fn parent_span(&self) -> u64 {
        self.ctx.parent_span
    }

    /// The context a callee continues: same trace and sampling decision,
    /// parented to this process's root span.
    pub fn child(&self) -> TraceContext {
        self.ctx.child(self.root.id)
    }

    /// Fold in a callee's returned sampling flag: a `Busy` shed force-samples
    /// the retried context (tail capture), and then this trace commits too.
    pub fn upgrade(&mut self, sampled: bool) {
        self.upgraded |= sampled;
    }

    /// Open a span under `parent` starting at `start_ns`.
    pub fn open_span(&mut self, parent: u64, start_ns: u64) -> OpenSpan {
        self.next_seq += 1;
        let id = span_id(self.ctx.trace_id, self.process_salt, self.next_seq);
        OpenSpan {
            id,
            parent,
            start_ns,
        }
    }

    /// Record an open span as ending at `end_ns`.
    pub fn close_span(&mut self, span: OpenSpan, name: &str, end_ns: u64, tag: &str) {
        let end_ns = end_ns.max(span.start_ns);
        self.end_ns = self.end_ns.max(end_ns);
        self.spans.push(TraceSpan {
            span_id: span.id,
            parent_span: span.parent,
            name: name.to_string(),
            process: self.process.to_string(),
            tag: tag.to_string(),
            start_ns: span.start_ns,
            end_ns,
        });
    }

    /// Record a completed span under `parent`, returning its id.
    pub fn record(&mut self, name: &str, parent: u64, start: u64, end: u64, tag: &str) -> u64 {
        let span = self.open_span(parent, start);
        let id = span.id;
        self.close_span(span, name, end, tag);
        id
    }

    /// Close the root span at `end_ns` and commit the trace when it is
    /// sampled, upgraded or slow (its extent crosses the store's slow
    /// threshold). Returns the committed trace id, for a latency
    /// histogram's exemplar.
    pub fn close(mut self, name: &str, end_ns: u64, tag: &str) -> Option<u128> {
        let root = OpenSpan { ..self.root };
        self.close_span(root, name, end_ns, tag);
        let duration_ns = self.end_ns.saturating_sub(self.root.start_ns);
        let slow = self.tail && duration_ns >= self.store.slow_ns();
        if !(self.ctx.sampled || self.upgraded || slow) {
            return None;
        }
        self.store.commit(Trace {
            trace_id: self.ctx.trace_id,
            root_span: self.root.id,
            duration_ns,
            slow,
            spans: self.spans,
        });
        Some(self.ctx.trace_id)
    }
}

/// A JSON-lines spill target for committed traces.
///
/// Writes are line-buffered under a mutex (commits are per-request, not
/// per-packet); I/O errors are counted, never propagated into the serving
/// path.
pub struct TraceSink {
    w: Mutex<Box<dyn Write + Send>>,
    errors: AtomicU64,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink")
            .field("errors", &self.errors.load(Ordering::Relaxed))
            .finish()
    }
}

impl TraceSink {
    /// A sink over any writer (tests use `Vec<u8>` behind a pipe; the
    /// daemons use a file).
    pub fn new(w: Box<dyn Write + Send>) -> TraceSink {
        TraceSink {
            w: Mutex::new(w),
            errors: AtomicU64::new(0),
        }
    }

    /// A sink appending JSON-lines to `path` (created if absent).
    pub fn to_file(path: &std::path::Path) -> std::io::Result<TraceSink> {
        let f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(TraceSink::new(Box::new(f)))
    }

    /// Append one trace as a JSON line; errors are counted, not returned.
    pub fn spill(&self, trace: &Trace) {
        let line = trace_to_json(trace);
        let mut w = self.w.lock().unwrap();
        if w.write_all(line.as_bytes())
            .and_then(|()| w.write_all(b"\n"))
            .and_then(|()| w.flush())
            .is_err()
        {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Spill I/O errors swallowed so far.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }
}

#[derive(Default)]
struct TraceStoreInner {
    recent: VecDeque<Trace>,
    slow: Vec<Trace>,
}

/// The bounded per-process store of committed traces: a recent ring plus
/// a top-N-by-duration slow-query log, with optional JSON-lines spill.
///
/// Like [`SpanTracer`](crate::SpanTracer), the store is off by default
/// behind one relaxed atomic, and every bound is fixed so a long-running
/// daemon cannot grow memory without bound: overflow evicts the oldest
/// recent trace (counted in [`dropped`](Self::dropped)) or the least-slow
/// log entry.
pub struct TraceStore {
    enabled: AtomicBool,
    sample_ppm: AtomicU32,
    slow_ns: AtomicU64,
    committed: AtomicU64,
    dropped: AtomicU64,
    recent_cap: usize,
    slow_cap: usize,
    inner: Mutex<TraceStoreInner>,
    /// The spill sink, apart from `inner`: a commit formats and writes
    /// its line without holding the ring.
    sink: Mutex<Option<Arc<TraceSink>>>,
    /// Spill errors of sinks since replaced.
    retired_spill_errors: AtomicU64,
}

impl Default for TraceStore {
    fn default() -> Self {
        // The 256 most recent traces and the 32 slowest.
        TraceStore::with_capacity(256, 32)
    }
}

impl TraceStore {
    /// A disabled store bounded to `recent_cap` recent traces and
    /// `slow_cap` slow-log entries (each at least 1).
    pub fn with_capacity(recent_cap: usize, slow_cap: usize) -> TraceStore {
        TraceStore {
            enabled: AtomicBool::new(false),
            sample_ppm: AtomicU32::new(0),
            slow_ns: AtomicU64::new(u64::MAX),
            committed: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            recent_cap: recent_cap.max(1),
            slow_cap: slow_cap.max(1),
            inner: Mutex::default(),
            sink: Mutex::default(),
            retired_spill_errors: AtomicU64::new(0),
        }
    }

    /// Turn trace collection on or off at runtime.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// The gate every per-request site checks first — one relaxed load.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Set the head-sampling rate in parts-per-million
    /// ([`SAMPLE_ALWAYS_PPM`] = sample everything, 0 = slow-only).
    pub fn set_sample_ppm(&self, ppm: u32) {
        self.sample_ppm
            .store(ppm.min(SAMPLE_ALWAYS_PPM), Ordering::Relaxed);
    }

    /// Set the slow threshold: a root span at least this long is always
    /// committed and entered into the slow log.
    pub fn set_slow_ns(&self, ns: u64) {
        self.slow_ns.store(ns, Ordering::Relaxed);
    }

    /// The slow threshold in nanoseconds (`u64::MAX` = never slow).
    pub fn slow_ns(&self) -> u64 {
        self.slow_ns.load(Ordering::Relaxed)
    }

    /// The deterministic head-sampling decision for `trace_id`: the id is
    /// avalanched and compared against the ppm rate, so every process
    /// reaches the same verdict for the same id without coordination.
    pub fn should_sample(&self, trace_id: u128) -> bool {
        let ppm = self.sample_ppm.load(Ordering::Relaxed);
        if ppm == 0 {
            return false;
        }
        if ppm >= SAMPLE_ALWAYS_PPM {
            return true;
        }
        (splitmix64(fold128(trace_id)) % u64::from(SAMPLE_ALWAYS_PPM)) < u64::from(ppm)
    }

    /// Attach (or replace) the JSON-lines spill sink.
    pub fn set_sink(&self, sink: TraceSink) {
        if let Some(old) = self.sink.lock().unwrap().replace(Arc::new(sink)) {
            self.retired_spill_errors
                .fetch_add(old.errors(), Ordering::Relaxed);
        }
    }

    /// Spill I/O errors of every sink attached so far.
    pub fn spill_errors(&self) -> u64 {
        let current = self.sink.lock().unwrap().as_ref().map_or(0, |s| s.errors());
        self.retired_spill_errors.load(Ordering::Relaxed) + current
    }

    /// Commit a completed trace: out to the sink if one is attached, into
    /// the recent ring (evicting the oldest on overflow), and into the slow
    /// log if flagged slow. The spill runs outside the ring's lock, so a
    /// slow disk never holds up a reader of the store.
    pub fn commit(&self, trace: Trace) {
        self.committed.fetch_add(1, Ordering::Relaxed);
        let sink = self.sink.lock().unwrap().clone();
        if let Some(sink) = sink {
            sink.spill(&trace);
        }
        let mut inner = self.inner.lock().unwrap();
        if trace.slow {
            let slow = &mut inner.slow;
            let at = slow
                .binary_search_by(|t| trace.duration_ns.cmp(&t.duration_ns))
                .unwrap_or_else(|e| e);
            if at < self.slow_cap {
                slow.insert(at, trace.clone());
                slow.truncate(self.slow_cap);
            }
        }
        if inner.recent.len() >= self.recent_cap {
            inner.recent.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        inner.recent.push_back(trace);
    }

    /// Traces committed so far (including ones since evicted).
    pub fn committed(&self) -> u64 {
        self.committed.load(Ordering::Relaxed)
    }

    /// Recent traces evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The retained recent traces, oldest first.
    pub fn recent(&self) -> Vec<Trace> {
        self.inner.lock().unwrap().recent.iter().cloned().collect()
    }

    /// The slow-query log: up to `n` traces, slowest first.
    pub fn slowest(&self, n: usize) -> Vec<Trace> {
        let inner = self.inner.lock().unwrap();
        inner.slow.iter().take(n).cloned().collect()
    }
}

impl std::fmt::Debug for TraceStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceStore")
            .field("enabled", &self.is_enabled())
            .field("sample_ppm", &self.sample_ppm.load(Ordering::Relaxed))
            .field("committed", &self.committed())
            .field("dropped", &self.dropped())
            .finish()
    }
}

/// Serialize one trace as a single JSON object (no trailing newline).
/// Ids are zero-padded hex strings — JSON numbers can't carry 64/128 bits
/// losslessly through double-precision tooling.
pub fn trace_to_json(trace: &Trace) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "{{\"trace_id\":\"{:032x}\",\"root_span\":\"{:016x}\",\"duration_ns\":{},\"slow\":{},\"spans\":[",
        trace.trace_id, trace.root_span, trace.duration_ns, trace.slow
    );
    for (i, s) in trace.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let (id, parent) = (s.span_id, s.parent_span);
        let _ = write!(
            out,
            "{{\"span_id\":\"{id:016x}\",\"parent_span\":\"{parent:016x}\",\"name\":\""
        );
        pq_prof::escape_into(&mut out, &s.name);
        out.push_str("\",\"process\":\"");
        pq_prof::escape_into(&mut out, &s.process);
        out.push_str("\",\"tag\":\"");
        pq_prof::escape_into(&mut out, &s.tag);
        let _ = write!(
            out,
            "\",\"start_ns\":{},\"end_ns\":{}}}",
            s.start_ns, s.end_ns
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64) -> TraceSpan {
        TraceSpan {
            span_id: 7,
            parent_span: 0,
            name: name.to_string(),
            process: "test".to_string(),
            tag: String::new(),
            start_ns: start,
            end_ns: end,
        }
    }

    fn trace(id: u128, duration: u64, slow: bool) -> Trace {
        Trace {
            trace_id: id,
            root_span: 7,
            duration_ns: duration,
            slow,
            spans: vec![span("route", 10, 10 + duration)],
        }
    }

    #[test]
    fn child_context_keeps_trace_and_sampling() {
        let root = TraceContext::root(42, true);
        let child = root.child(9);
        assert_eq!(child.trace_id, 42);
        assert_eq!(child.parent_span, 9);
        assert!(child.sampled);
    }

    #[test]
    fn span_ids_are_unique_and_nonzero() {
        let store = TraceStore::default();
        store.set_enabled(true);
        let mut t = RequestTrace::open(&store, Some(TraceContext::root(1, true)), "serve", 0)
            .expect("enabled store opens");
        let mut seen = std::collections::HashSet::from([t.root_span()]);
        for _ in 0..1000 {
            let id = t.open_span(0, 0).id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "span id collision");
        }
    }

    #[test]
    fn sampling_is_deterministic_and_roughly_calibrated() {
        let store = TraceStore::default();
        store.set_sample_ppm(SAMPLE_ALWAYS_PPM / 100); // 1%
        let hits = (0..100_000u128)
            .filter(|i| store.should_sample(i * 0x9e37_79b9))
            .count();
        // Deterministic: the same ids decide the same way again.
        let hits2 = (0..100_000u128)
            .filter(|i| store.should_sample(i * 0x9e37_79b9))
            .count();
        assert_eq!(hits, hits2);
        // Calibrated within a loose band (avalanched ids ≈ uniform).
        assert!((500..2000).contains(&hits), "1% sampling hit {hits}/100k");
        store.set_sample_ppm(0);
        assert!(!store.should_sample(123));
        store.set_sample_ppm(SAMPLE_ALWAYS_PPM);
        assert!(store.should_sample(123));
    }

    #[test]
    fn recent_ring_is_bounded_and_counts_drops() {
        let store = TraceStore::with_capacity(3, 2);
        for i in 0..5u128 {
            store.commit(trace(i + 1, 100, false));
        }
        let recent = store.recent();
        assert_eq!(recent.len(), 3);
        assert_eq!(store.dropped(), 2);
        assert_eq!(store.committed(), 5);
        assert_eq!(
            recent.iter().map(|t| t.trace_id).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
    }

    #[test]
    fn slow_log_keeps_top_n_by_duration() {
        let store = TraceStore::with_capacity(16, 2);
        store.commit(trace(1, 100, true));
        store.commit(trace(2, 300, true));
        store.commit(trace(3, 200, true));
        store.commit(trace(4, 999, false)); // not flagged slow: no log entry
        let slow = store.slowest(10);
        assert_eq!(
            slow.iter().map(|t| t.trace_id).collect::<Vec<_>>(),
            vec![2, 3]
        );
        assert_eq!(slow[0].duration_ns, 300);
    }

    /// An enabled store that never head-samples, with a 1 000 ns slow bar.
    fn lifecycle_store() -> TraceStore {
        let store = TraceStore::default();
        store.set_enabled(true);
        store.set_slow_ns(1_000);
        store
    }

    #[test]
    fn commits_exactly_when_sampled_upgraded_or_slow() {
        for sampled in [false, true] {
            for upgraded in [false, true] {
                for slow in [false, true] {
                    let store = lifecycle_store();
                    let ctx = TraceContext::root(7, sampled);
                    let mut t = RequestTrace::open(&store, Some(ctx), "serve", 100).unwrap();
                    t.upgrade(upgraded);
                    let end = if slow { 1_100 } else { 1_099 };
                    let id = t.close("serve_request", end, "");
                    let commit = sampled || upgraded || slow;
                    assert_eq!(
                        store.committed(),
                        u64::from(commit),
                        "{sampled}/{upgraded}/{slow}"
                    );
                    // The exemplar id comes back exactly when committed.
                    assert_eq!(id, commit.then_some(7));
                    assert_eq!(store.slowest(1).len(), usize::from(slow));
                    if commit {
                        let trace = &store.recent()[0];
                        assert_eq!(trace.slow, slow);
                        assert_eq!(trace.duration_ns, end - 100);
                    }
                }
            }
        }
    }

    #[test]
    fn root_parents_to_the_caller_and_children_to_the_root() {
        let store = lifecycle_store();
        let ctx = TraceContext::root(9, true).child(0xabc);
        let mut t = RequestTrace::open(&store, Some(ctx), "router", 10).unwrap();
        let child = t.child();
        assert_eq!((child.trace_id, child.sampled), (9, true));
        let root = t.root_span();
        assert_eq!(child.parent_span, root);
        let exec = t.open_span(root, 20);
        let exec_id = exec.id();
        let decode = t.record("segment_decode", exec_id, 25, 30, "cache=miss");
        t.close_span(exec, "worker_exec", 40, "ok");
        assert_eq!(t.close("route", 50, "ok"), Some(9));
        let trace = &store.recent()[0];
        assert_eq!(trace.root_span, root);
        let parent_of = |id| trace.spans.iter().find(|s| s.span_id == id).unwrap();
        assert_eq!(parent_of(root).parent_span, 0xabc);
        assert_eq!((parent_of(root).start_ns, parent_of(root).end_ns), (10, 50));
        assert_eq!(parent_of(exec_id).parent_span, root);
        assert_eq!(parent_of(decode).parent_span, exec_id);
    }

    #[test]
    fn an_unpropagated_request_originates_a_head_sampled_root() {
        let store = lifecycle_store();
        store.set_sample_ppm(SAMPLE_ALWAYS_PPM);
        let t = RequestTrace::open(&store, None, "serve", 0).unwrap();
        let ctx = t.child();
        assert!(ctx.sampled && ctx.trace_id != 0);
        assert_eq!(t.close("serve_request", 5, ""), Some(ctx.trace_id));
        assert_eq!(store.recent()[0].spans[0].parent_span, 0);
    }

    #[test]
    fn a_disabled_store_opens_nothing() {
        let store = TraceStore::default();
        store.set_sample_ppm(SAMPLE_ALWAYS_PPM);
        let ctx = Some(TraceContext::root(3, true));
        assert!(RequestTrace::open(&store, ctx, "serve", 0).is_none());
        assert!(RequestTrace::open(&store, None, "serve", 0).is_none());
        assert!(RequestTrace::follow(&store, ctx, "serve", 0).is_none());
        assert_eq!(store.committed(), 0);
    }

    #[test]
    fn follow_continues_only_sampled_contexts_and_skips_the_slow_log() {
        let store = lifecycle_store();
        store.set_sample_ppm(SAMPLE_ALWAYS_PPM);
        assert!(RequestTrace::follow(&store, None, "serve", 0).is_none());
        let unsampled = Some(TraceContext::root(4, false));
        assert!(RequestTrace::follow(&store, unsampled, "serve", 0).is_none());
        let ctx = TraceContext::root(5, true).child(0x11);
        let mut t = RequestTrace::follow(&store, Some(ctx), "serve", 0).unwrap();
        t.record("emit", t.parent_span(), 4_000, 9_000, "3");
        assert_eq!(t.close("window_close", 4_000, "3"), Some(5));
        let trace = &store.recent()[0];
        // The extent covers every span, yet the slow log stays empty.
        assert_eq!((trace.duration_ns, trace.slow), (9_000, false));
        assert!(store.slowest(1).is_empty());
        assert!(trace.spans.iter().all(|s| s.parent_span == 0x11));
    }

    #[test]
    fn trace_clock_is_monotonic_and_epoch_anchored() {
        let clock = TraceClock::new();
        let a = clock.now_ns();
        let b = clock.now_ns();
        assert!(b >= a);
        // Anchored to the Unix epoch: after 2020, before 2100.
        assert!(a > 1_577_000_000_000_000_000);
        assert!(a < 4_100_000_000_000_000_000);
    }

    #[test]
    fn new_trace_ids_do_not_collide_cheaply() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            assert!(seen.insert(new_trace_id()));
        }
    }
}
