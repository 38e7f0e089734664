//! Request-scoped distributed tracing: wire-propagated trace context,
//! parented spans, head + tail sampling, a slow-query log, and JSON-lines
//! spill for cross-process stitching.
//!
//! The existing [`SpanTracer`](crate::SpanTracer) answers "what did this
//! *process* spend time on" with anonymous sim-clock intervals. This
//! module answers "why was *this query* slow" across processes: a
//! [`TraceContext`] (128-bit trace id, 64-bit parent span, sampling flag)
//! rides the wire from client → router → backend, each tier records
//! parented [`TraceSpan`]s against it, and completed [`Trace`]s land in a
//! bounded per-process [`TraceStore`] from which they can be dumped over
//! the wire, spilled as JSON-lines, and stitched into one Chrome-viewable
//! cross-process timeline.
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
use std::sync::Mutex;
use std::time::Instant;

/// Sampling rate denominator: `sample_ppm` is parts-per-million, so
/// `1_000_000` means "sample every trace".
pub const SAMPLE_ALWAYS_PPM: u32 = 1_000_000;

/// Default bound on the recent-trace ring.
pub const DEFAULT_RECENT_CAP: usize = 256;

/// Default bound on the top-N slow-query log.
pub const DEFAULT_SLOW_CAP: usize = 32;

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
    /// Root-span duration in nanoseconds (the per-process wall time).
    pub duration_ns: u64,
    /// True when this trace crossed the slow threshold (or was
    /// tail-captured via a `Busy` retry).
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

#[inline]
fn fold128(id: u128) -> u64 {
    (id as u64) ^ ((id >> 64) as u64)
}

static TRACE_ID_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh, never-zero 128-bit trace id: wall-clock entropy mixed with a
/// process-wide sequence number, both avalanched. Collisions across
/// processes started in the same nanosecond are broken by the per-process
/// address-space entropy of the sequence cell.
pub fn new_trace_id() -> u128 {
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
        .unwrap_or(0);
    let seq = TRACE_ID_SEQ.fetch_add(1, Ordering::Relaxed);
    let salt = &TRACE_ID_SEQ as *const _ as u64;
    let hi = splitmix64(now ^ salt.rotate_left(32));
    let lo = splitmix64(seq.wrapping_add(now).wrapping_add(salt));
    let id = (u128::from(hi) << 64) | u128::from(lo);
    if id == 0 {
        1
    } else {
        id
    }
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
        let epoch_ns = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
            .unwrap_or(0);
        TraceClock {
            epoch_ns,
            started: Instant::now(),
        }
    }

    /// Monotonic Unix-epoch nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.epoch_ns
            .saturating_add(u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }
}

/// The span collector for one in-flight request in one process.
///
/// Span ids are derived deterministically from `(trace id, process,
/// sequence)` through [`splitmix64`], so concurrent tiers cannot collide
/// and tests can assert exact parentage. Collection is allocation-light
/// (a `Vec` push per span) and lock-free — the `ActiveTrace` is owned by
/// the one worker driving the request.
#[derive(Debug)]
pub struct ActiveTrace {
    ctx: TraceContext,
    process: String,
    process_salt: u64,
    next_seq: u64,
    spans: Vec<TraceSpan>,
}

impl ActiveTrace {
    /// Start collecting spans for `ctx` in the named process.
    pub fn new(ctx: TraceContext, process: &str) -> ActiveTrace {
        let mut salt = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
        for b in process.bytes() {
            salt = (salt ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
        }
        ActiveTrace {
            ctx,
            process: process.to_string(),
            process_salt: salt,
            next_seq: 0,
            spans: Vec::new(),
        }
    }

    /// The context this collector was started with.
    pub fn ctx(&self) -> TraceContext {
        self.ctx
    }

    /// Upgrade the sampling decision (tail capture: slow or Busy-retried).
    pub fn set_sampled(&mut self, sampled: bool) {
        self.ctx.sampled = sampled;
    }

    /// Allocate the next span id without recording anything — for spans
    /// whose children are recorded before the span itself closes.
    pub fn reserve(&mut self) -> u64 {
        self.next_seq += 1;
        let mix = fold128(self.ctx.trace_id) ^ self.process_salt ^ self.next_seq;
        let id = splitmix64(mix);
        if id == 0 {
            1
        } else {
            id
        }
    }

    /// Record a completed span under `parent_span`, returning its id.
    pub fn record(
        &mut self,
        name: &str,
        parent_span: u64,
        start_ns: u64,
        end_ns: u64,
        tag: &str,
    ) -> u64 {
        let span_id = self.reserve();
        self.record_with_id(span_id, name, parent_span, start_ns, end_ns, tag);
        span_id
    }

    /// Record a completed span under an id previously handed out by
    /// [`Self::reserve`].
    pub fn record_with_id(
        &mut self,
        span_id: u64,
        name: &str,
        parent_span: u64,
        start_ns: u64,
        end_ns: u64,
        tag: &str,
    ) {
        self.spans.push(TraceSpan {
            span_id,
            parent_span,
            name: name.to_string(),
            process: self.process.clone(),
            tag: tag.to_string(),
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Close the collector into a [`Trace`] rooted at `root_span`.
    pub fn finish(self, root_span: u64, duration_ns: u64, slow: bool) -> Trace {
        Trace {
            trace_id: self.ctx.trace_id,
            root_span,
            duration_ns,
            slow,
            spans: self.spans,
        }
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

struct TraceStoreInner {
    recent: VecDeque<Trace>,
    slow: Vec<Trace>,
    sink: Option<TraceSink>,
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
}

impl Default for TraceStore {
    fn default() -> Self {
        TraceStore::with_capacity(DEFAULT_RECENT_CAP, DEFAULT_SLOW_CAP)
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
            inner: Mutex::new(TraceStoreInner {
                recent: VecDeque::new(),
                slow: Vec::new(),
                sink: None,
            }),
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

    /// The configured head-sampling rate, parts-per-million.
    pub fn sample_ppm(&self) -> u32 {
        self.sample_ppm.load(Ordering::Relaxed)
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

    /// True when `duration_ns` crosses the slow threshold.
    #[inline]
    pub fn is_slow(&self, duration_ns: u64) -> bool {
        duration_ns >= self.slow_ns()
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
        self.inner.lock().unwrap().sink = Some(sink);
    }

    /// Commit a completed trace: into the recent ring (evicting the
    /// oldest on overflow), into the slow log if flagged slow, and out to
    /// the sink if one is attached.
    pub fn commit(&self, trace: Trace) {
        self.committed.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock().unwrap();
        if let Some(sink) = &inner.sink {
            sink.spill(&trace);
        }
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

    /// Drop all retained traces (configuration is untouched).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.recent.clear();
        inner.slow.clear();
    }
}

impl std::fmt::Debug for TraceStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceStore")
            .field("enabled", &self.is_enabled())
            .field("sample_ppm", &self.sample_ppm())
            .field("committed", &self.committed())
            .field("dropped", &self.dropped())
            .finish()
    }
}

/// Serialize one trace as a single JSON object (no trailing newline).
/// Ids are zero-padded hex strings — JSON numbers can't carry 64/128 bits
/// losslessly through double-precision tooling.
pub fn trace_to_json(trace: &Trace) -> String {
    let mut out = String::with_capacity(128 + trace.spans.len() * 160);
    out.push_str("{\"trace_id\":\"");
    out.push_str(&format!("{:032x}", trace.trace_id));
    out.push_str("\",\"root_span\":\"");
    out.push_str(&format!("{:016x}", trace.root_span));
    out.push_str("\",\"duration_ns\":");
    out.push_str(&trace.duration_ns.to_string());
    out.push_str(",\"slow\":");
    out.push_str(if trace.slow { "true" } else { "false" });
    out.push_str(",\"spans\":[");
    for (i, s) in trace.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"span_id\":\"");
        out.push_str(&format!("{:016x}", s.span_id));
        out.push_str("\",\"parent_span\":\"");
        out.push_str(&format!("{:016x}", s.parent_span));
        out.push_str("\",\"name\":\"");
        pq_prof::escape_into(&mut out, &s.name);
        out.push_str("\",\"process\":\"");
        pq_prof::escape_into(&mut out, &s.process);
        out.push_str("\",\"tag\":\"");
        pq_prof::escape_into(&mut out, &s.tag);
        out.push_str("\",\"start_ns\":");
        out.push_str(&s.start_ns.to_string());
        out.push_str(",\"end_ns\":");
        out.push_str(&s.end_ns.to_string());
        out.push('}');
    }
    out.push_str("]}");
    out
}

// ---- minimal JSON reader (just enough for the trace schema) ----------

#[derive(Debug)]
enum JsonValue {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    fn get<'a>(&'a self, key: &str) -> Option<&'a JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> JsonParser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.at += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&b) {
            self.at += 1;
            Some(())
        } else {
            None
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.at).copied()
    }

    fn value(&mut self, depth: u32) -> Option<JsonValue> {
        if depth > 32 {
            return None; // bounded recursion: hostile input can't blow the stack
        }
        match self.peek()? {
            b'{' => self.object(depth),
            b'[' => self.array(depth),
            b'"' => self.string().map(JsonValue::Str),
            b't' => self.literal(b"true", JsonValue::Bool(true)),
            b'f' => self.literal(b"false", JsonValue::Bool(false)),
            b'n' => self.literal(b"null", JsonValue::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, word: &[u8], v: JsonValue) -> Option<JsonValue> {
        self.skip_ws();
        if self.bytes[self.at..].starts_with(word) {
            self.at += word.len();
            Some(v)
        } else {
            None
        }
    }

    fn number(&mut self) -> Option<JsonValue> {
        self.skip_ws();
        let start = self.at;
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.at += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.at])
            .ok()?
            .parse::<f64>()
            .ok()
            .map(JsonValue::Num)
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.at).copied()? {
                b'"' => {
                    self.at += 1;
                    return Some(out);
                }
                b'\\' => {
                    self.at += 1;
                    match self.bytes.get(self.at).copied()? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self.bytes.get(self.at + 1..self.at + 5)?;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.at += 4;
                        }
                        _ => return None,
                    }
                    self.at += 1;
                }
                _ => {
                    // Consume one UTF-8 scalar (the input is a &str upstream,
                    // so byte-level continuation handling suffices).
                    let rest = std::str::from_utf8(&self.bytes[self.at..]).ok()?;
                    let c = rest.chars().next()?;
                    out.push(c);
                    self.at += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self, depth: u32) -> Option<JsonValue> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Some(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            match self.peek()? {
                b',' => self.at += 1,
                b']' => {
                    self.at += 1;
                    return Some(JsonValue::Arr(items));
                }
                _ => return None,
            }
        }
    }

    fn object(&mut self, depth: u32) -> Option<JsonValue> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Some(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.eat(b':')?;
            let val = self.value(depth + 1)?;
            fields.push((key, val));
            match self.peek()? {
                b',' => self.at += 1,
                b'}' => {
                    self.at += 1;
                    return Some(JsonValue::Obj(fields));
                }
                _ => return None,
            }
        }
    }
}

fn hex_u128(s: &str) -> Option<u128> {
    if s.is_empty() || s.len() > 32 {
        return None;
    }
    u128::from_str_radix(s, 16).ok()
}

fn hex_u64(s: &str) -> Option<u64> {
    if s.is_empty() || s.len() > 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// Parse one JSON line produced by [`trace_to_json`]. Returns `None` on
/// any malformation — a corrupt spill line loses itself, nothing else.
pub fn trace_from_json(line: &str) -> Option<Trace> {
    let mut p = JsonParser {
        bytes: line.as_bytes(),
        at: 0,
    };
    let v = p.value(0)?;
    p.skip_ws();
    if p.at != p.bytes.len() {
        return None;
    }
    let spans = match v.get("spans")? {
        JsonValue::Arr(items) => items
            .iter()
            .map(|s| {
                Some(TraceSpan {
                    span_id: hex_u64(s.get("span_id")?.as_str()?)?,
                    parent_span: hex_u64(s.get("parent_span")?.as_str()?)?,
                    name: s.get("name")?.as_str()?.to_string(),
                    process: s.get("process")?.as_str()?.to_string(),
                    tag: s.get("tag")?.as_str()?.to_string(),
                    start_ns: s.get("start_ns")?.as_u64()?,
                    end_ns: s.get("end_ns")?.as_u64()?,
                })
            })
            .collect::<Option<Vec<_>>>()?,
        _ => return None,
    };
    Some(Trace {
        trace_id: hex_u128(v.get("trace_id")?.as_str()?)?,
        root_span: hex_u64(v.get("root_span")?.as_str()?)?,
        duration_ns: v.get("duration_ns")?.as_u64()?,
        slow: v.get("slow")?.as_bool()?,
        spans,
    })
}

/// Parse a whole JSON-lines spill, skipping blank and corrupt lines.
pub fn traces_from_jsonl(text: &str) -> Vec<Trace> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(trace_from_json)
        .collect()
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
        let mut t = ActiveTrace::new(TraceContext::root(1, true), "serve");
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let id = t.reserve();
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

    #[test]
    fn json_round_trips_exactly() {
        let t = Trace {
            trace_id: u128::MAX - 3,
            root_span: 0xdead_beef,
            duration_ns: 123_456_789,
            slow: true,
            spans: vec![
                TraceSpan {
                    span_id: 1,
                    parent_span: 0,
                    name: "route".to_string(),
                    process: "router".to_string(),
                    tag: String::new(),
                    start_ns: 5,
                    end_ns: 50,
                },
                TraceSpan {
                    span_id: 2,
                    parent_span: 1,
                    name: "worker \"exec\"\n".to_string(),
                    process: "serve:a\\b".to_string(),
                    tag: "cache=hit".to_string(),
                    start_ns: 10,
                    end_ns: 40,
                },
            ],
        };
        let line = trace_to_json(&t);
        let back = trace_from_json(&line).expect("own output must parse");
        assert_eq!(back, t);
    }

    #[test]
    fn corrupt_json_lines_are_skipped_not_fatal() {
        let good = trace_to_json(&trace(9, 10, false));
        let text = format!("\n{{\"truncated\": \n{good}\nnot json at all\n");
        let parsed = traces_from_jsonl(&text);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].trace_id, 9);
    }

    #[test]
    fn sink_spills_commits_as_jsonl() {
        use std::sync::{Arc, Mutex};
        #[derive(Clone)]
        struct Buf(Arc<Mutex<Vec<u8>>>);
        impl Write for Buf {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Buf(Arc::new(Mutex::new(Vec::new())));
        let store = TraceStore::default();
        store.set_sink(TraceSink::new(Box::new(buf.clone())));
        store.commit(trace(1, 5, false));
        store.commit(trace(2, 6, true));
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let parsed = traces_from_jsonl(&text);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[1].trace_id, 2);
        assert!(parsed[1].slow);
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
